"""Exact arithmetic in the nine imaginary quadratic unique-factorization rings.

Each ring O(sqrt(d)) for d in K = {-163, -67, -43, -19, -11, -7, -3, -2, -1}
is handled in integer coordinates over the integral basis {1, w}: w = sqrt(d)
when d = 2, 3 (mod 4) and w = (1 + sqrt(d))/2 when d = 1 (mod 4).  Everything
in this module is exact; no floating point is used anywhere, including the
angular comparisons that define the canonical sector.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import prod

K = (-163, -67, -43, -19, -11, -7, -3, -2, -1)


class DomainError(ValueError):
    """An argument lies outside the operation's domain."""


class Ring:
    """One of the nine rings, identified by its squarefree d < 0.

    half_integral is True when the basis element is (1 + sqrt(d))/2 rather
    than sqrt(d).  disc is the field discriminant D: d when d = 1 (mod 4),
    else 4d.  It gives the one norm form of every ring: with s = 1 for
    half-integral rings and 0 otherwise, 4 * N(a + b*w) = (2a + s*b)^2 +
    |D| * b^2, and w^2 = s*w + (D - s)/4.  Element arithmetic, prime kinds,
    prime witnesses and the sector walk are all read off it.
    """

    __slots__ = ("d", "half_integral", "disc")

    def __init__(self, d: int) -> None:
        if d not in K:
            raise DomainError(f"ring must be one of {list(K)}, got {d}")
        self.d = d
        self.half_integral = d % 4 == 1
        self.disc = d if self.half_integral else 4 * d

    def __eq__(self, other) -> bool:
        if other.__class__ is not Ring:
            return NotImplemented
        return self.d == other.d

    def __hash__(self) -> int:
        return hash((self.d,))

    def __repr__(self) -> str:
        return f"Ring(d={self.d!r})"

    @property
    def unit_count(self) -> int:
        if self.d == -1:
            return 4
        if self.d == -3:
            return 6
        return 2

    def element(self, a: int, b: int = 0) -> "QInt":
        return QInt(self, a, b)

    def zero(self) -> "QInt":
        return QInt(self, 0, 0)

    def one(self) -> "QInt":
        return QInt(self, 1, 0)

    def units(self) -> tuple["QInt", ...]:
        return _units(self.d)

    def parse(self, text: str) -> "QInt":
        """format_element's own output, read back; user syntax goes through parse_element."""
        return parse_formatted(self, text)

    def from_rational_parts(self, x: Fraction, y: Fraction) -> "QInt":
        """Build the element x + y*sqrt(d) from rational parts, or fail."""
        if self.half_integral:
            b = 2 * y
            a = x - y
        else:
            a, b = x, y
        if a.denominator != 1 or b.denominator != 1:
            raise DomainError(f"{x} + {y}*sqrt({self.d}) is not integral here")
        return QInt(self, int(a), int(b))


@lru_cache(maxsize=None)
def ring(d: int) -> Ring:
    return Ring(d)


class QInt:
    """An element a + b*w of one of the nine rings, in integral coordinates."""

    __slots__ = ("ring", "a", "b")

    def __init__(self, ring: Ring, a: int, b: int) -> None:
        self.ring = ring
        self.a = a
        self.b = b

    def __eq__(self, other) -> bool:
        if other.__class__ is not QInt:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.ring == other.ring

    def __hash__(self) -> int:
        return hash((self.ring, self.a, self.b))

    def _coerce(self, other) -> "QInt":
        if isinstance(other, QInt):
            if other.ring.d != self.ring.d:
                raise DomainError("mixed-ring operands")
            return other
        if isinstance(other, int):
            return QInt(self.ring, other, 0)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other) -> "QInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QInt(self.ring, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> "QInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QInt(self.ring, self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> "QInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self) -> "QInt":
        return QInt(self.ring, -self.a, -self.b)

    def __mul__(self, other) -> "QInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        r = self.ring
        s, be = r.half_integral, self.b * o.b  # w^2 = s*w + (D - s)/4
        return QInt(r, self.a * o.a + be * ((r.disc - s) >> 2), self.a * o.b + self.b * o.a + s * be)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "QInt":
        if not isinstance(k, int) or k < 0:
            raise DomainError("exponent must be a nonnegative integer")
        result = QInt(self.ring, 1, 0)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conj(self) -> "QInt":
        """Complex conjugate, expressed in the same integral basis."""
        r, b = self.ring, self.b
        return QInt(r, self.a + r.half_integral * b, -b)

    def norm(self) -> int:
        """The field norm z * conj(z); a nonnegative rational integer."""
        r, b = self.ring, self.b
        u = 2 * self.a + r.half_integral * b
        return (u * u - r.disc * b * b) >> 2

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_unit(self) -> bool:
        return self.norm() == 1

    def doubled_parts(self) -> tuple[int, int]:
        """Integers (X, Y) with z = (X + Y*sqrt(d))/2.  Exact sign data."""
        if self.ring.half_integral:
            return 2 * self.a + self.b, self.b
        return 2 * self.a, 2 * self.b

    def rational_parts(self) -> tuple[Fraction, Fraction]:
        x2, y2 = self.doubled_parts()
        return Fraction(x2, 2), Fraction(y2, 2)

    def __str__(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"QInt({self.ring.d}, {self.a}, {self.b})"


@lru_cache(maxsize=None)
def _units(d: int) -> tuple[QInt, ...]:
    # Fixed documented order: 1, -1 everywhere; then i, -i for d = -1;
    # then w, -w, conj(w), -conj(w) for d = -3 (w a primitive sixth root).
    r = ring(d)
    out = [QInt(r, 1, 0), QInt(r, -1, 0)]
    if d == -1:
        out += [QInt(r, 0, 1), QInt(r, 0, -1)]
    elif d == -3:
        out += [QInt(r, 0, 1), QInt(r, 0, -1), QInt(r, 1, -1), QInt(r, -1, 1)]
    return tuple(out)


@lru_cache(maxsize=None)
def _unit_index_map(d: int) -> dict[tuple[int, int], int]:
    return {(u.a, u.b): i for i, u in enumerate(_units(d))}


def index_of_unit(u: QInt) -> int:
    idx = _unit_index_map(u.ring.d).get((u.a, u.b))
    if idx is None:
        raise DomainError(f"{u!r} is not a unit")
    return idx


def in_sector(z: QInt) -> bool:
    """Membership in the half-open fundamental angular sector of z's ring.

    The sector is arg in [0, pi/2) for d = -1, [0, pi/3) for d = -3 and
    [0, pi) otherwise, and contains exactly one associate of every nonzero
    element.  Decided from integer coordinates only.
    """
    if z.is_zero:
        raise DomainError("the zero element has no sector membership")
    if z.ring.d in (-1, -3):
        # Both reduce to first coordinate positive, second nonnegative.
        return z.a > 0 and z.b >= 0
    return z.b > 0 or (z.b == 0 and z.a > 0)


def arg_less(z1: QInt, z2: QInt) -> bool:
    """Exact comparison arg(z1) < arg(z2) for nonzero elements with arg in [0, pi)."""
    x1, y1 = z1.doubled_parts()
    x2, y2 = z2.doubled_parts()
    if y1 < 0 or y2 < 0:
        raise DomainError("arg_less expects arguments in the closed upper half plane")
    if y1 == 0:
        return y2 != 0
    if y2 == 0:
        return False
    # cot is strictly decreasing on (0, pi)
    return x1 * y2 > x2 * y1


def canonical_associate(z: QInt) -> tuple[QInt, int]:
    """The unique associate of z in the sector, plus the unit index u with z = u * w."""
    if z.is_zero:
        raise DomainError("zero has no canonical associate")
    for u in z.ring.units():
        w = z * u
        if in_sector(w):
            return w, index_of_unit(u.conj())  # a unit's inverse is its conjugate
    raise AssertionError(f"unit orbit of {z!r} missed the sector")


def canonical_product(r: Ring, parts) -> QInt:
    """The canonical associate of the product of parts (elements of r)."""
    return canonical_associate(prod(parts, start=r.one()))[0]


def is_associate(x: QInt, y: QInt) -> bool:
    if x.ring.d != y.ring.d:
        raise DomainError("mixed-ring operands")
    if x.is_zero or y.is_zero:
        return x.is_zero and y.is_zero
    if x.norm() != y.norm():
        return False
    return canonical_associate(x)[0] == canonical_associate(y)[0]


def exact_div(x: QInt, y: QInt) -> QInt | None:
    """x / y when y divides x exactly in the ring, else None."""
    if x.ring.d != y.ring.d:
        raise DomainError("mixed-ring operands")
    if y.is_zero:
        raise DomainError("division by zero")
    num = x * y.conj()
    n = y.norm()
    if num.a % n or num.b % n:
        return None
    return QInt(x.ring, num.a // n, num.b // n)


def format_coords(a: int, b: int) -> str:
    """The element a + b*w in canonical coordinate syntax "a+b*w"."""
    if b == 0:
        return str(a)
    if a == 0:
        return f"{b}*w"
    return f"{a}{'+' if b > 0 else ''}{b}*w"


def format_element(z: QInt) -> str:
    """Canonical coordinate syntax "a+b*w".  Round-trips through parse_element."""
    return format_coords(z.a, z.b)


# format_coords's "a", "b*w" and, for a != 0, "a+b*w" or "a-b*w"; compiled
# on first use, so no command pays for it at import
_FORMATTED = r"(0|-?[1-9][0-9]*)|(-?[1-9][0-9]*)?((?(2)[+-]|-?)[1-9][0-9]*)\*w"
_formatted_match = None  # re.compile(_FORMATTED).fullmatch, once bound


def parse_formatted(r: Ring, text: str) -> QInt:
    """The exact inverse of format_element: "a", "b*w", "a+b*w" or "a-b*w".

    Meant for text this program wrote (search records, checkpoints); anything
    format_element would not have produced, spacing and signs included, is a
    DomainError.  User input goes through parse_element.
    """
    global _formatted_match
    if _formatted_match is None:
        _formatted_match = re.compile(_FORMATTED).fullmatch
    m = _formatted_match(text) if isinstance(text, str) else None
    if m is None:
        raise DomainError(f"not an element in canonical coordinate syntax: {text!r}")
    if m[1] is not None:
        return QInt(r, int(m[1]), 0)
    return QInt(r, int(m[2] or 0), int(m[3]))


def pretty_element(z: QInt) -> str:
    """Radical syntax "x+y*sqrt(d)" with rational x, y (halves for d = 1 mod 4)."""
    x, y = z.rational_parts()
    root = "i" if z.ring.d == -1 else f"sqrt({z.ring.d})"
    if y == 0:
        return str(x)
    if y == 1:
        ytext = root
    elif y == -1:
        ytext = f"-{root}"
    else:
        ytext = f"{y}*{root}"
    if x == 0:
        return ytext
    sep = "+" if y > 0 else ""
    return f"{x}{sep}{ytext}"


# one term of user input; matched through re's own cache, since parse_element
# reads user input on a cold path
_TERM = (
    r"^(?P<sign>[+-]?)(?P<coef>\d+(?:/0*[1-9]\d*)?)?"  # a denominator is not zero
    r"(?:\*?(?P<sym>w|i|sqrt\(-?\d+\)))?$"
)


def _split_terms(text: str) -> list[str]:
    # Split on +/- at paren depth 0, keeping signs attached; "sqrt(-3)" stays whole.
    terms: list[str] = []
    current = ""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in "+-" and depth == 0 and current not in ("", "+", "-"):
            terms.append(current)
            current = ch
            continue
        current += ch
    if current:
        terms.append(current)
    return terms


def parse_element(r: Ring, text: str) -> QInt:
    """Parse "a+b*w", plain integers, or radical syntax "x+y*sqrt(d)".

    Rational coefficients such as "3/2+1/2*sqrt(-3)" are accepted whenever the
    result has integral coordinates.  The radicand must match the ring.
    """
    s = text.replace(" ", "")
    if not s:
        raise DomainError("empty element")
    x = Fraction(0)  # rational part
    y = Fraction(0)  # coefficient of sqrt(d)
    wc = Fraction(0)  # coefficient of the basis element w
    for term in _split_terms(s):
        m = re.match(_TERM, term)
        if not m or (m.group("coef") is None and m.group("sym") is None):
            raise DomainError(f"cannot parse element term {term!r}")
        coef = Fraction(m.group("coef")) if m.group("coef") else Fraction(1)
        if m.group("sign") == "-":
            coef = -coef
        sym = m.group("sym")
        if sym is None:
            x += coef
        elif sym == "w":
            wc += coef
        else:
            radicand = -1 if sym == "i" else int(sym[5:-1])
            if radicand != r.d:
                raise DomainError(f"radicand {radicand} does not belong to d={r.d}")
            y += coef
    if r.half_integral:
        x += wc / 2
        y += wc / 2
    else:
        y += wc
    return r.from_rational_parts(x, y)
