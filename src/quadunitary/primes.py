"""Rational prime behavior in the nine rings: classification and witnesses.

Both are read off the field discriminant D and its norm form (Ring.disc).
The kind of p is the Kronecker symbol (D/p): 0 ramified, 1 split, -1 inert,
where p = 2 ramifies for even D and otherwise splits exactly when
D = 1 (mod 8).  The witness above a split or ramified p comes from one
Cornacchia solve of u^2 + |D| * b^2 = 4p and is reduced to the canonical
sector.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import isqrt

from .rings import DomainError, QInt, Ring, arg_less, canonical_associate, ring

# Deterministic Miller-Rabin witness schedule: certified below 3.3 * 10**24,
# kept as the fixed schedule above that as well (inputs are desk scale).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
_MR_CERTIFIED = 3_317_044_064_679_887_385_961_981


def _sieve(limit: int) -> bytearray:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray((limit - i * i) // i + 1)
    return sieve


@lru_cache(maxsize=8)
def small_primes(limit: int = 10_000) -> tuple[int, ...]:
    """The primes up to limit: the one cached prime table, for factoring and search."""
    return tuple(primes_up_to(limit))


def primes_up_to(limit: int) -> list[int]:
    return list(compress(range(limit + 1), _sieve(limit)))


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    bases = _MR_BASES if n < _MR_CERTIFIED else _MR_BASES + _MR_EXTRA
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def sqrt_mod(a: int, p: int) -> int | None:
    """A square root of a modulo odd prime p, or None when a is a nonresidue."""
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


class PrimeClass:
    """How a rational prime p sits in a ring, with canonical witnesses.

    kind is "inert" (pi is p itself, norm p**2), "ramified" (pi**2 ~ p) or
    "split" (p ~ pi * pi_bar with pi and pi_bar nonassociated).  For split p
    the labels are oriented: pi is the member of the canonical pair with the
    smaller argument, decided exactly.
    """

    __slots__ = ("p", "d", "kind", "pi", "pi_bar")

    def __init__(self, p: int, d: int, kind: str, pi: QInt, pi_bar: QInt | None = None) -> None:
        self.p = p
        self.d = d
        self.kind = kind
        self.pi = pi
        self.pi_bar = pi_bar


_KINDS = {0: "ramified", 1: "split", -1: "inert"}


@lru_cache(maxsize=None)
def prime_kind(d: int, p: int) -> str:
    """How the rational prime p behaves in ring d; p must already be known prime.

    The kind is the Kronecker symbol (D/p) of the discriminant D.
    """
    disc = ring(d).disc
    if p == 2:
        symbol = 0 if disc % 2 == 0 else 1 if disc % 8 == 1 else -1
    else:
        symbol = legendre(disc, p)
    return _KINDS[symbol]


def classify(p: int, r: Ring) -> str:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    return prime_kind(r.d, p)


def _norm_form_seed(r: Ring, p: int) -> QInt:
    """An element of norm p, for p split or ramified in r.

    Cornacchia's algorithm for u^2 + |D| * b^2 = 4p (Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 1.5.3) with u = D (mod 2);
    the norm form turns (u, b) into the element ((u - s*b)/2, b).
    """
    disc = r.disc
    if p == 2:
        u = isqrt(disc + 8)
    else:
        u = sqrt_mod(disc, p)
        if (u - disc) % 2:
            u = p - u
        a, limit = 2 * p, isqrt(4 * p)
        while u > limit:
            a, u = u, a % u
    b = isqrt((4 * p - u * u) // -disc)
    assert u * u - disc * b * b == 4 * p, (r.d, p)
    s = int(r.half_integral)
    return r.element((u - s * b) // 2, b)


@lru_cache(maxsize=None)
def prime_above(p: int, r: Ring) -> PrimeClass:
    """Canonical data for the primes of the ring lying above p.  Memoized."""
    kind = classify(p, r)
    if kind == "inert":
        return PrimeClass(p, r.d, kind, r.element(p))
    seed = _norm_form_seed(r, p)
    assert seed.norm() == p, (p, r.d)
    w1, _ = canonical_associate(seed)
    if kind == "ramified":
        return PrimeClass(p, r.d, kind, w1)
    w2, _ = canonical_associate(seed.conj())
    assert w1 != w2, (p, r.d)
    if arg_less(w2, w1):
        w1, w2 = w2, w1
    return PrimeClass(p, r.d, kind, w1, w2)


def xi(r: Ring) -> QInt:
    """The distinguished even prime: 1+i for d=-1, sqrt(-2) for d=-2, 2 otherwise.

    Undefined for d = -7, where 2 splits into two nonassociated primes.
    """
    if r.d == -7:
        raise DomainError("xi is undefined for d=-7 (2 splits)")
    if r.d == -1:
        return r.element(1, 1)
    if r.d == -2:
        return r.element(0, 1)
    return r.element(2)
