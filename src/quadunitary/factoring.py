"""Unique factorization: rational integers and ring elements.

Integer factorization is trial division over a cached prime table followed by
Brent's variant of Pollard rho, sized for desk-scale inputs.  Element
factorization routes through the integer factorization of the norm: inert
primes contribute half their norm exponent, ramified primes the full
exponent, and split exponents are separated by repeated exact division.

The index i_star reads only (p, kind, exponent) per prime power, and those
rows follow from the norm and the content gcd(a, b) alone (index_rows).
The search and the d = -3 sweep use index_rows and never build the primes;
factor_element is for callers that need them, the divisor-sum oracle among
them.  factor_int keeps an LRU cache for the callers that revisit a norm;
index_rows walks a window of norms and meets nearly every norm once, so it
factors through the uncached core and leaves that cache to the others.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import gcd, isqrt

from .primes import is_prime, prime_above, prime_kind, small_primes
from .rings import DomainError, QInt, Ring, exact_div, index_of_unit

# Norms above this need an explicit opt-in; factoring them may be slow.
NORM_CEILING = 1 << 64
CEILING_TEXT = f"2^64 = {NORM_CEILING}, the largest norm that can be factored"


def _pollard_brent(n: int) -> int:
    # Deterministic parameter schedule; n is odd, composite, not a prime power.
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise AssertionError(f"pollard rho parameter schedule exhausted for {n}")


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _pollard_brent(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


@lru_cache(maxsize=1 << 15)
def factor_int(n: int) -> tuple[tuple[int, int], ...]:
    """Sorted prime factorization ((p, e), ...) of n >= 1, from a cache of recent n.

    Trial division meets the primes in increasing order, so each (p, e) is
    appended as it is found.  What is left once a prime's square passes it
    is 1 or a prime above all of those; what is left after the whole table
    has only prime factors above the table, which Pollard rho finds in any
    order, so only they are sorted.
    """
    if n < 1:
        raise DomainError("factor_int needs n >= 1")
    out: list[tuple[int, int]] = []
    for p in small_primes():
        if p * p > n:
            # no prime up to sqrt(n) divides what is left, so it is 1 or prime
            if n > 1:
                out.append((n, 1))
            break
        if n % p == 0:
            n //= p
            e = 1
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
    else:
        rest: dict[int, int] = {}
        _factor_into(n, rest)
        out += sorted(rest.items())
    return tuple(out)


_factor_int = factor_int.__wrapped__  # the uncached core, for index_rows


class FactorEntry:
    """One canonical prime power pi**exponent, with its rational prime context."""

    __slots__ = ("prime", "exponent", "p", "kind")

    def __init__(self, prime: QInt, exponent: int, p: int, kind: str) -> None:
        self.prime = prime
        self.exponent = exponent
        self.p = p
        self.kind = kind


class Factorization:
    """z = unit * product(prime**exponent) over nonassociated canonical primes."""

    __slots__ = ("ring", "unit_index", "entries")

    def __init__(self, ring: Ring, unit_index: int, entries: tuple[FactorEntry, ...]) -> None:
        self.ring = ring
        self.unit_index = unit_index
        self.entries = entries

    @property
    def factors(self) -> tuple[tuple[QInt, int], ...]:
        return tuple((e.prime, e.exponent) for e in self.entries)

    @property
    def rows(self) -> list[tuple[int, str, int]]:
        """(p, kind, exponent) per entry: all the product formula reads."""
        return [(e.p, e.kind, e.exponent) for e in self.entries]

    @property
    def unit(self) -> QInt:
        return self.ring.units()[self.unit_index]

    def value(self) -> QInt:
        return reduce(
            lambda acc, e: acc * e.prime**e.exponent, self.entries, self.unit
        )


def is_ring_prime(z: QInt) -> bool:
    """Primality audit: norm is a rational prime, or the square of an inert prime."""
    n = z.norm()
    if n < 2:
        return False
    if is_prime(n):
        return True
    q = isqrt(n)
    if q * q != n or not is_prime(q):
        return False
    return prime_above(q, z.ring).kind == "inert"


def factor_element(z: QInt, allow_large: bool = False) -> Factorization:
    """Factor a nonzero element into canonical sector primes and a unit.

    Entries are sorted by (norm, coordinates).  Norms above NORM_CEILING are
    refused unless allow_large is set.
    """
    if z.is_zero:
        raise DomainError("cannot factor zero")
    n = z.norm()
    if n > NORM_CEILING and not allow_large:
        raise DomainError(f"norm {n} is above {CEILING_TEXT}")
    entries: list[FactorEntry] = []
    rest = z
    for p, e in factor_int(n):
        pc = prime_above(p, z.ring)
        if pc.kind != "split":
            exp = e if pc.kind == "ramified" else e // 2  # an inert pi is p, of norm p^2
            entries.append(FactorEntry(pc.pi, exp, p, pc.kind))
            for _ in range(exp):
                rest = exact_div(rest, pc.pi)  # type: ignore[arg-type]
                assert rest is not None
        else:
            e1 = 0
            while e1 < e:
                q = exact_div(rest, pc.pi)
                if q is None:
                    break
                rest = q
                e1 += 1
            e2 = e - e1
            assert pc.pi_bar is not None
            for _ in range(e2):
                rest = exact_div(rest, pc.pi_bar)
                assert rest is not None, (z, p)
            if e1:
                entries.append(FactorEntry(pc.pi, e1, p, pc.kind))
            if e2:
                entries.append(FactorEntry(pc.pi_bar, e2, p, pc.kind))
    assert rest.is_unit, (z, rest)
    entries.sort(key=lambda fe: (fe.prime.norm(), fe.prime.a, fe.prime.b))
    return Factorization(z.ring, index_of_unit(rest), tuple(entries))


def index_rows(d: int, norm: int, content: int) -> list[tuple[int, str, int]]:
    """The (p, kind, exponent) rows of an element, from its norm and content.

    For z = a + b*w in ring d with N(z) = norm and c = gcd(a, b) = content,
    this is the multiset of Factorization.rows of factor_element(z), found
    without factoring z.  Write z = c * z' with z' primitive (its coordinates
    coprime) and let p**e exactly divide the norm:

    * inert p is itself prime with norm p**2, so its exponent is e / 2;
    * ramified p = unit * pi**2 with N(pi) = p, so its exponent is e;
    * split p = pi * pi_bar.  No primitive z' is divisible by both pi and
      pi_bar, since they are coprime and together they would give p | z'.
      So z' carries one of them to the power v_p(N(z')) = e - 2g, where
      g = v_p(c), while c = unit * (pi * pi_bar)**g adds g to both: the
      exponents are {g, e - g}.  The two primes above p have the same
      absolute value, so which of them takes which exponent does not
      matter to the index; rows with exponent 0 are left out.

    The norm is factored by the uncached core of factor_int: a window walk
    asks for nearly every norm once, and caching them would only push out
    the norms that other callers revisit.
    """
    rows = []
    for p, e in _factor_int(norm):
        kind = prime_kind(d, p)
        if kind == "inert":
            rows.append((p, kind, e // 2))
        elif kind == "ramified":
            rows.append((p, kind, e))
        else:
            g = 0
            while content % p == 0:
                content //= p
                g += 1
            if g:
                rows.append((p, kind, g))
            rows.append((p, kind, e - g))
    return rows


def rho(pi: QInt, z: QInt) -> int:
    """The pi-adic exponent of nonzero z for a ring prime pi."""
    if z.is_zero:
        raise DomainError("rho is undefined at zero")
    if not is_ring_prime(pi):
        raise DomainError(f"{pi!r} is not prime")
    count = 0
    current = z
    while True:
        q = exact_div(current, pi)
        if q is None:
            return count
        current = q
        count += 1


def coprime(x: QInt, y: QInt) -> bool:
    """True when x and y share no nonunit common divisor."""
    if x.ring.d != y.ring.d:
        raise DomainError("mixed-ring operands")
    if x.is_zero or y.is_zero:
        return (x.is_zero and y.is_unit) or (y.is_zero and x.is_unit)
    g = gcd(x.norm(), y.norm())
    if g == 1:
        return True
    # A shared rational prime in the norms forces a shared ring prime except
    # in the split case, where the two may use opposite members of the pair.
    for p, _ in factor_int(g):
        pc = prime_above(p, x.ring)
        if pc.kind != "split":
            return False
        x_pi = exact_div(x, pc.pi) is not None
        x_bar = exact_div(x, pc.pi_bar) is not None  # type: ignore[arg-type]
        y_pi = exact_div(y, pc.pi) is not None
        y_bar = exact_div(y, pc.pi_bar) is not None  # type: ignore[arg-type]
        if (x_pi and y_pi) or (x_bar and y_bar):
            return False
    return True
