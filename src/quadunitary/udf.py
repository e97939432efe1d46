"""Unitary divisor power sums and their normalized indices.

A divisor x of z is unitary when x lies in the canonical sector and is
coprime to z/x; a nonzero z with r distinct prime divisors has exactly 2**r
of them, one per subset of the full prime powers of z.  delta_star(z, n) is
the sum of |x|**n over unitary divisors x, computed by the multiplicative
product over prime powers, and i_star(z, n) = delta_star(z, n) / |z|**n is
the index whose integer target values define multiperfect elements.  A
sum-over-divisors oracle is kept alongside the product formula so the two
routes can be checked against each other.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .factoring import CEILING_TEXT, NORM_CEILING, Factorization, factor_element, factor_int
from .radicals import RadicalValue
from .rings import DomainError, QInt, canonical_product

# ---------------------------------------------------------------------------
# unitary divisors


def unitary_divisors(z: QInt) -> list[QInt]:
    """The 2**r unitary divisors of z, one per subset of its prime powers, sorted by (norm, a, b)."""
    if z.is_zero:
        raise DomainError("zero has no unitary divisors")
    powers = [e.prime**e.exponent for e in factor_element(z).entries]
    out = [
        canonical_product(z.ring, [pw for j, pw in enumerate(powers) if mask >> j & 1])
        for mask in range(1 << len(powers))
    ]
    return sorted(out, key=lambda x: (x.norm(), x.a, x.b))


# ---------------------------------------------------------------------------
# product formula

def _index_numerators(rows, k: int) -> tuple[dict[int, int], int]:
    """product(1 + |pi**alpha|**k) over prime powers given as (p, kind, alpha) rows.

    The rows come from Factorization.rows or, without factoring the element,
    from its norm and content (factoring.index_rows).  Returns (terms, den)
    with the product equal to sum(terms[m] * sqrt(m)) / den over squarefree
    m; every coefficient is positive.  |pi**alpha|**k is sqrt(p)**e with
    e = alpha * k, doubled for inert primes (|pi| = p), so each factor is
    (a + b*sqrt(p)) / q: even e has b = 0, odd e > 0 gives
    1 + p**((e-1)/2) * sqrt(p), and odd e < 0 gives (q + sqrt(p)) / q with
    q = p**((1-e)/2).  The two primes above a split p share sqrt(p), so their
    radical terms merge: sqrt(m) * sqrt(p) is p * sqrt(m/p) when p divides m.
    """
    terms = {1: 1}
    den = 1
    for p, kind, alpha in rows:
        e = alpha * k
        if kind == "inert":
            e *= 2
        if e % 2 == 0:
            if e >= 0:
                a = 1 + p ** (e // 2)
            else:
                q = p ** (-e // 2)
                a = q + 1
                den *= q
            terms = {m: c * a for m, c in terms.items()}
            continue
        if e > 0:
            a, b = 1, p ** ((e - 1) // 2)
        else:
            a = p ** ((1 - e) // 2)
            b = 1
            den *= a
        out: dict[int, int] = {}
        for m, c in terms.items():
            out[m] = out.get(m, 0) + c * a
            if m % p:
                key, cb = m * p, c * b
            else:
                key, cb = m // p, c * b * p
            out[key] = out.get(key, 0) + cb
        terms = out
    return terms, den


def delta_star(z: QInt, n: int, factorization: Factorization | None = None) -> RadicalValue:
    """Sum of |x|**n over unitary divisors x of z; n may be any integer.

    Computed as product(1 + |pi**alpha|**n) over the prime powers of z.
    """
    if z.is_zero:
        raise DomainError("delta_star is undefined at zero")
    fac = factorization or factor_element(z)
    return RadicalValue.from_numerators(*_index_numerators(fac.rows, n))


def i_star(z: QInt, n: int, factorization: Factorization | None = None) -> RadicalValue:
    """delta_star(z, n) / |z|**n = product(1 + |pi**alpha|**(-n)); duality with -n."""
    if z.is_zero:
        raise DomainError("i_star is undefined at zero")
    fac = factorization or factor_element(z)
    return RadicalValue.from_numerators(*_index_numerators(fac.rows, -n))


# ---------------------------------------------------------------------------
# sum-over-divisors oracle

def delta_star_oracle(z: QInt, n: int, factorization: Factorization | None = None) -> RadicalValue:
    """Literal sum of |x|**n over the unitary divisors; no product shortcut.

    Each divisor norm is tracked as an exponent vector over rational primes,
    so |x|**n reduces exactly without refactoring.
    """
    if z.is_zero:
        raise DomainError("delta_star is undefined at zero")
    fac = factorization or factor_element(z)
    entries = fac.entries
    # per entry: (p, exponent of p in N(pi**alpha))
    norm_exps = [
        (e.p, e.exponent * (2 if e.kind == "inert" else 1)) for e in entries
    ]
    total: dict[int, Fraction] = {}
    for mask in range(1 << len(entries)):
        exps: dict[int, int] = {}
        for j, (p, e) in enumerate(norm_exps):
            if mask >> j & 1:
                exps[p] = exps.get(p, 0) + e
        # |x|**n = product p**(e*n/2): collect rational part and squarefree key
        coeff = Fraction(1)
        key = 1
        for p, e in exps.items():
            en = e * n
            coeff *= Fraction(p) ** (en // 2) if en % 2 == 0 else Fraction(p) ** ((en - 1) // 2)
            if en % 2:
                key *= p
        total[key] = total.get(key, Fraction(0)) + coeff
    return RadicalValue(total)


# ---------------------------------------------------------------------------
# rational-integer unitary divisor sums

def sigma_star_int(n: int, k: int = 1) -> int | Fraction:
    """Unitary divisor power sum over the positive integers: product(1 + p**(e*k)).

    An int for k >= 0 and an exact Fraction for k < 0, where each factor
    1 + p**(e*k) is (p**(e*|k|) + 1) / p**(e*|k|): sigma_star_|k|(n) / n**|k|.
    An n above factoring.NORM_CEILING is refused before it is factored.
    """
    if n < 1:
        raise DomainError("sigma_star_int needs n >= 1")
    if n > NORM_CEILING:
        raise DomainError(f"{n} is above {CEILING_TEXT}")
    result = 1
    for p, e in factor_int(n):
        result *= 1 + p ** (e * abs(k))
    return result if k >= 0 else Fraction(result, n ** -k)


# ---------------------------------------------------------------------------
# certified zeta-ratio bounds

_SCALE = 10**18
_ZETA_TERMS = 4000  # terms in each partial sum


def _zeta_scaled(s2: int) -> tuple[int, int]:
    """Scaled-integer bracket for zeta(s2/2): returns (lo, hi) at _SCALE.

    Partial sum of _ZETA_TERMS terms plus integral tail bounds
    M**(1-s)/(s-1) on both sides.  Requires s2 > 2.  Term k is
    k**(-s2/2) = S**2 / R with S = _SCALE and R = sqrt(k**s2 * S**2), and
    with r = isqrt(k**s2 * S**2) it is bracketed by S**2 // (r + 1) below
    and S**2 // r + 1 above.

    For odd s2 the root r is an integer square root.  For even s2 = 2h it
    is exact, r = k**h * S, and with q, rem = divmod(S, k**h) the bracket
    is q - (rem == 0) below and q + 1 above, the same integers: the upper
    one is S**2 // (k**h * S) + 1 = q + 1, and since
    S**2 = (k**h * S + 1) * q + (rem * S - q), where
    0 <= rem * S - q <= (k**h - 1) * S < k**h * S + 1 when rem >= 1, the
    lower one is q; when rem = 0 that remainder is -q, with 1 <= q <= S,
    so the quotient is q - 1 with remainder k**h * S + 1 - q.
    """
    lo = hi = 0
    scale_sq = _SCALE * _SCALE
    if s2 % 2 == 0:
        h = s2 // 2
        for k in range(1, _ZETA_TERMS + 1):
            q, rem = divmod(_SCALE, k**h)
            lo += q - (rem == 0)
            hi += q + 1
    else:
        for k in range(1, _ZETA_TERMS + 1):
            r = isqrt(k**s2 * scale_sq)
            lo += scale_sq // (r + 1)
            hi += scale_sq // r + 1
    # tail between integral bounds from _ZETA_TERMS + 1 and _ZETA_TERMS
    s2m2 = s2 - 2
    r_hi = isqrt(_ZETA_TERMS**s2m2 * scale_sq)
    r_lo = isqrt((_ZETA_TERMS + 1) ** s2m2 * scale_sq)
    hi += 2 * scale_sq // (s2m2 * r_hi) + 1
    lo += 2 * scale_sq // (s2m2 * (r_lo + 1))
    return lo, hi


def _interval(s2: int) -> tuple[Fraction, Fraction]:
    lo, hi = _zeta_scaled(s2)
    return Fraction(lo, _SCALE), Fraction(hi, _SCALE)


class ZetaCheck:
    __slots__ = ("label", "lo", "hi", "limit")

    def __init__(self, label: str, lo: Fraction, hi: Fraction, limit: Fraction) -> None:
        self.label = label
        self.lo = lo
        self.hi = hi
        self.limit = limit

    @property
    def passed(self) -> bool:
        return self.hi < self.limit

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "lo": str(self.lo),
            "hi": str(self.hi),
            "approx": float((self.lo + self.hi) / 2),
            "width": float(self.width),
            "limit": str(self.limit),
            "passed": self.passed,
        }


def zeta_bound_check() -> list[ZetaCheck]:
    """Certify the four zeta-ratio constants below 2 with rigorous intervals.

    The constants bound i_star indices: (zeta(5/2)/zeta(5))**2 covers n >= 5,
    (4/5)(zeta(2)/zeta(4))**2 covers n = 4 away from d = -7,
    (41/50)(zeta(2)/zeta(4))**2 covers n = 4 at d = -7, and
    (zeta(3)/zeta(6))**2 covers rational values at odd n >= 3.
    """
    z52 = _interval(5)
    z5 = _interval(10)
    z2 = _interval(4)
    z4 = _interval(8)
    z3 = _interval(6)
    z6 = _interval(12)

    def ratio_sq(num, den, scale: Fraction) -> tuple[Fraction, Fraction]:
        lo = scale * (num[0] / den[1]) ** 2
        hi = scale * (num[1] / den[0]) ** 2
        return lo, hi

    checks = []
    for label, num, den, scale in (
        ("(zeta(5/2)/zeta(5))^2", z52, z5, Fraction(1)),
        ("(4/5)*(zeta(2)/zeta(4))^2", z2, z4, Fraction(4, 5)),
        ("(41/50)*(zeta(2)/zeta(4))^2", z2, z4, Fraction(41, 50)),
        ("(zeta(3)/zeta(6))^2", z3, z6, Fraction(1)),
    ):
        lo, hi = ratio_sq(num, den, scale)
        checks.append(ZetaCheck(label, lo, hi, Fraction(2)))
    return checks
