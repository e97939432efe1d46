"""Exact multiquadratic arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from quadunitary.radicals import RV_ONE, RadicalValue
from quadunitary.rings import DomainError


def test_from_sqrt_normalizes_square_part():
    assert RadicalValue.from_sqrt(8).terms == {2: Fraction(2)}
    assert RadicalValue.from_sqrt(9).terms == {1: Fraction(3)}
    assert RadicalValue.from_sqrt(1).terms == {1: Fraction(1)}
    assert RadicalValue.from_sqrt(12, Fraction(1, 2)).terms == {3: Fraction(1)}
    with pytest.raises(DomainError):
        RadicalValue.from_sqrt(0)
    with pytest.raises(DomainError):
        RadicalValue.from_sqrt(-2)


def test_sqrt_power():
    assert RadicalValue.sqrt_power(12, 3).terms == {3: Fraction(24)}
    assert RadicalValue.sqrt_power(12, 2).terms == {1: Fraction(12)}
    assert RadicalValue.sqrt_power(5, 0) == RV_ONE
    assert RadicalValue.sqrt_power(4, -3).terms == {1: Fraction(1, 8)}
    assert RadicalValue.sqrt_power(2, -1).terms == {2: Fraction(1, 2)}
    assert RadicalValue.sqrt_power(2, -2).terms == {1: Fraction(1, 2)}
    # sqrt(n)**k * sqrt(n)**-k = 1
    for n in (2, 3, 8, 45, 90):
        for k in range(-5, 6):
            prod = RadicalValue.sqrt_power(n, k) * RadicalValue.sqrt_power(n, -k)
            assert prod == RV_ONE, (n, k)
    with pytest.raises(DomainError):
        RadicalValue.sqrt_power(0, 1)


def test_multiplication_table():
    r2 = RadicalValue.from_sqrt(2)
    r3 = RadicalValue.from_sqrt(3)
    assert (r2 * r3).terms == {6: Fraction(1)}
    assert (r2 * r2).terms == {1: Fraction(2)}
    # (1 + sqrt(2)) * (1 - sqrt(2)) = -1
    assert (1 + r2) * (1 - r2) == RadicalValue.from_rational(-1)
    r6 = RadicalValue.from_sqrt(6)
    assert (r2 * r6).terms == {3: Fraction(2)}


def test_additive_structure():
    r2 = RadicalValue.from_sqrt(2)
    assert (r2 + r2).terms == {2: Fraction(2)}
    assert (r2 - r2).is_zero
    assert (r2 - r2).terms == {}
    z = RadicalValue()
    assert z.is_zero and z.is_rational
    assert z + r2 == r2
    assert -r2 + r2 == z


def test_equality_and_hash_with_rationals():
    half = RadicalValue.from_rational(Fraction(1, 2))
    assert half == Fraction(1, 2)
    assert RadicalValue.from_rational(3) == 3
    assert RadicalValue.from_sqrt(2) != 1
    table = {RadicalValue.from_sqrt(2): "a", RadicalValue.from_rational(2): "b"}
    assert table[RadicalValue.from_sqrt(8) * Fraction(1, 2)] == "a"


def test_as_fraction():
    assert RadicalValue.from_rational(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    assert RadicalValue().as_fraction() == 0
    with pytest.raises(DomainError):
        RadicalValue.from_sqrt(2).as_fraction()


def test_is_rational_flag():
    assert RadicalValue.from_rational(5).is_rational
    assert not RadicalValue.from_sqrt(5).is_rational
    mixed = RadicalValue.from_rational(1) + RadicalValue.from_sqrt(5)
    assert not mixed.is_rational
    assert (mixed - RadicalValue.from_sqrt(5)).is_rational


def test_bounds_certify_value():
    rng = random.Random(401)
    for _ in range(100):
        v = RadicalValue.from_rational(rng.randint(-5, 5))
        for m in rng.sample(range(2, 50), 3):
            v = v + RadicalValue.from_sqrt(m, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        lo, hi = v.bounds()
        assert lo <= hi
        assert hi - lo < Fraction(1, 10**15)
        true = sum(
            float(c) * math.sqrt(m) for m, c in v.terms.items()
        )
        assert float(lo) - 1e-9 <= true <= float(hi) + 1e-9
        assert abs(v.approx() - true) < 1e-9


def test_approx_is_none_past_the_float_range():
    # a coefficient too large for a float, and one that fits whose product with sqrt(2) does not
    assert RadicalValue.from_rational(Fraction(2**2000 + 1)).approx() is None
    assert RadicalValue.from_sqrt(2, Fraction(3 * 2**1022)).approx() is None
    assert RadicalValue.from_sqrt(2, Fraction(2**1022)).approx() == pytest.approx(2**1022 * math.sqrt(2))
    assert RadicalValue.from_rational(Fraction(1, 2**2000)).approx() == 0.0


def test_string_forms():
    assert str(RadicalValue()) == "0"
    assert str(RadicalValue.from_rational(Fraction(3, 2))) == "3/2"
    assert str(RadicalValue.from_sqrt(2)) == "sqrt(2)"
    v = 1 + RadicalValue.from_sqrt(2, Fraction(1, 4))
    assert str(v) == "1 + 1/4*sqrt(2)"
    assert str(RadicalValue.from_sqrt(3, -2)) == "-2*sqrt(3)"


def test_json_round_trip():
    rng = random.Random(402)
    for _ in range(50):
        v = RadicalValue(
            {
                1: Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                2: Fraction(rng.randint(-9, 9)),
                30: Fraction(rng.randint(0, 9), 3),
            }
        )
        assert RadicalValue.from_json_terms(v.to_json_terms()) == v
    doc = RadicalValue.from_sqrt(2).to_json_terms()
    assert doc == {"2": "1"}


def test_ring_axioms_on_random_values():
    rng = random.Random(403)

    def rand_value():
        terms = {}
        for m in (1, 2, 3, 6):
            if rng.random() < 0.7:
                terms[m] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        return RadicalValue(terms)

    for _ in range(300):
        x, y, z = rand_value(), rand_value(), rand_value()
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x + y == y + x
        assert x - y == -(y - x)
