"""Exact values of the form sum(c_m * sqrt(m)) over squarefree m >= 1.

Divisor-power sums over these rings live in real multiquadratic fields, so a
value is kept as a map from squarefree radicands to rational coefficients.
Square roots of distinct squarefree integers are linearly independent over
the rationals, which makes the representation canonical: equality is exact
dictionary equality after dropping zero terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, isqrt

from .factoring import factor_int
from .rings import DomainError

_RationalLike = (int, Fraction)


def _split_square(m: int) -> tuple[int, int]:
    """m = s*s * f with f squarefree; returns (s, f)."""
    s, f = 1, 1
    for p, e in factor_int(m):
        s *= p ** (e // 2)
        if e % 2:
            f *= p
    return s, f


class RadicalValue:
    """An exact element of a real multiquadratic field, as {squarefree m: c_m}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self._terms: dict[int, Fraction] = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self._terms[m] = c if isinstance(c, Fraction) else Fraction(c)

    @classmethod
    def from_rational(cls, q) -> "RadicalValue":
        return cls({1: Fraction(q)})

    @classmethod
    def from_numerators(cls, terms: dict[int, int], den: int) -> "RadicalValue":
        """sum(terms[m] * sqrt(m)) / den for squarefree m and integers terms[m], den."""
        return cls({m: Fraction(c, den) for m, c in terms.items()})

    @classmethod
    def from_sqrt(cls, m: int, coeff=1) -> "RadicalValue":
        """coeff * sqrt(m) for any integer m >= 1; the square part is extracted."""
        if m < 1:
            raise DomainError("radicand must be a positive integer")
        s, f = _split_square(m)
        return cls({f: Fraction(coeff) * s})

    @classmethod
    def sqrt_power(cls, n: int, k: int) -> "RadicalValue":
        """sqrt(n)**k for integer n >= 1 and any integer k (negative allowed)."""
        if n < 1:
            raise DomainError("base must be a positive integer")
        if k % 2 == 0:
            return cls({1: Fraction(n) ** (k // 2)})
        s, f = _split_square(n)
        # sqrt(n) = s * sqrt(f); sqrt(f)**k = f**((k-1)/2) * sqrt(f)
        coeff = Fraction(s) ** k * Fraction(f) ** ((k - 1) // 2)
        return cls({f: coeff})

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(sorted(self._terms.items()))

    @property
    def is_rational(self) -> bool:
        return all(m == 1 for m in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise DomainError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

    def _coerce(self, other) -> "RadicalValue | None":
        if isinstance(other, RadicalValue):
            return other
        if isinstance(other, _RationalLike):
            return RadicalValue.from_rational(other)
        return None

    def __add__(self, other) -> "RadicalValue":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self._terms)
        for m, c in o._terms.items():
            terms[m] = terms.get(m, Fraction(0)) + c
        return RadicalValue(terms)

    __radd__ = __add__

    def __neg__(self) -> "RadicalValue":
        return RadicalValue({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "RadicalValue":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "RadicalValue":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "RadicalValue":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms: dict[int, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in o._terms.items():
                g = gcd(m1, m2)
                key = (m1 // g) * (m2 // g)
                c = c1 * c2 * g
                terms[key] = terms.get(key, Fraction(0)) + c
        return RadicalValue(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def approx(self) -> float | None:
        """Float approximation, for display only; None when the value is past the float range.

        Near the top of the range a float term can overflow before its
        division by 10**12; then the sum is taken exactly and rounded once.
        """
        roots = [(isqrt(m * 10**24), c) for m, c in self._terms.items()]
        try:
            x = float(sum(float(c) * r / 10**12 for r, c in roots))
            return x if isfinite(x) else float(sum(c * Fraction(r, 10**12) for r, c in roots))
        except OverflowError:
            return None

    def bounds(self) -> tuple[Fraction, Fraction]:
        """Certified rational bounds lo <= value <= hi via integer square roots, to 2**-64."""
        lo = hi = Fraction(0)
        unit = 1 << 64
        for m, c in self._terms.items():
            r = isqrt(m * unit * unit)
            root_lo = Fraction(r, unit)
            root_hi = Fraction(r + 1, unit) if r * r != m * unit * unit else root_lo
            if c >= 0:
                lo += c * root_lo
                hi += c * root_hi
            else:
                lo += c * root_hi
                hi += c * root_lo
        return lo, hi

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for m, c in sorted(self._terms.items()):
            mag = abs(c)
            if m == 1:
                body = str(mag)
            elif mag == 1:
                body = f"sqrt({m})"
            else:
                body = f"{mag}*sqrt({m})"
            if not parts:
                parts.append(body if c >= 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c >= 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"RadicalValue({self._terms!r})"

    def to_json_terms(self) -> dict[str, str]:
        """Keys are radicands as strings in increasing order, values exact fractions."""
        return {str(m): str(c) for m, c in sorted(self._terms.items())}

    @classmethod
    def from_json_terms(cls, data: dict[str, str]) -> "RadicalValue":
        return cls({int(m): Fraction(c) for m, c in data.items()})


RV_ONE = RadicalValue.from_rational(1)
