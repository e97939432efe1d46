"""Coordinate arithmetic, sectors, associates, parsing."""

import random

import pytest

from quadunitary.rings import (
    DomainError,
    K,
    QInt,
    Ring,
    arg_less,
    canonical_associate,
    exact_div,
    format_coords,
    format_element,
    in_sector,
    index_of_unit,
    is_associate,
    parse_element,
    parse_formatted,
    pretty_element,
    ring,
)
from quadunitary.search import iter_sector_elements


def random_nonzero(rng, r, span=20):
    while True:
        z = r.element(rng.randint(-span, span), rng.randint(-span, span))
        if not z.is_zero:
            return z


def test_ring_registry():
    assert K == (-163, -67, -43, -19, -11, -7, -3, -2, -1)
    for d in K:
        assert ring(d).d == d
    for bad in (0, 1, -4, -5, -6, -15, -164):
        with pytest.raises(DomainError):
            ring(bad)


def test_half_integral_split():
    # omega is sqrt(d) for the two d with d % 4 in {2, 3}, else (1 + sqrt(d))/2
    assert not ring(-1).half_integral
    assert not ring(-2).half_integral
    for d in (-3, -7, -11, -19, -43, -67, -163):
        assert ring(d).half_integral


def test_omega_square_identity():
    # integral rings: w^2 = d; half-integral: w^2 = w + (d-1)/4
    for d in K:
        r = ring(d)
        w = r.element(0, 1)
        if r.half_integral:
            assert w * w == r.element((d - 1) // 4, 1)
        else:
            assert w * w == r.element(d, 0)


def test_norm_values():
    # hand-computed norms
    assert ring(-1).element(3, 4).norm() == 25
    assert ring(-2).element(1, 2).norm() == 9
    assert ring(-3).element(1, 1).norm() == 3
    assert ring(-7).element(0, 1).norm() == 2
    assert ring(-11).element(0, 1).norm() == 3
    assert ring(-163).element(0, 1).norm() == 41
    assert ring(-163).element(1, 0).norm() == 1


def test_norm_is_multiplicative():
    rng = random.Random(101)
    for d in K:
        r = ring(d)
        for _ in range(200):
            x = random_nonzero(rng, r)
            y = random_nonzero(rng, r)
            assert (x * y).norm() == x.norm() * y.norm()


def test_conjugation():
    rng = random.Random(102)
    for d in K:
        r = ring(d)
        for _ in range(200):
            z = random_nonzero(rng, r)
            assert z.conj().conj() == z
            assert z * z.conj() == r.element(z.norm())
            x, y = z.rational_parts()
            cx, cy = z.conj().rational_parts()
            assert (cx, cy) == (x, -y)


def test_units():
    assert ring(-1).unit_count == 4
    assert ring(-3).unit_count == 6
    for d in (-2, -7, -11, -19, -43, -67, -163):
        assert ring(d).unit_count == 2
    for d in K:
        r = ring(d)
        units = r.units()
        assert units[0] == r.one()
        assert units[1] == -r.one()
        for u in units:
            assert u.norm() == 1
            assert u.is_unit
            # canonical representative of any unit is 1
            assert canonical_associate(u)[0] == r.one()
        # closed under multiplication
        for u in units:
            for v in units:
                assert u * v in units
        # index round trip
        for i, u in enumerate(units):
            assert index_of_unit(u) == i
            assert r.units()[i] == u


def test_sector_contains_one_associate_per_class():
    rng = random.Random(103)
    for d in K:
        r = ring(d)
        for _ in range(300):
            z = random_nonzero(rng, r)
            members = [u * z for u in r.units()]
            flags = [in_sector(m) for m in members]
            assert sum(flags) == 1
            w, ui = canonical_associate(z)
            assert in_sector(w)
            assert r.units()[ui] * w == z
            assert is_associate(z, w)


def test_in_sector_rejects_zero():
    with pytest.raises(DomainError):
        in_sector(ring(-1).zero())


def test_arg_less_orders_known_points():
    r = ring(-1)
    one = r.element(1)
    i = r.element(0, 1)
    diag = r.element(1, 1)
    assert arg_less(one, diag)
    assert arg_less(diag, i)
    assert not arg_less(diag, one)
    assert not arg_less(one, one)


def test_arg_less_transitive_sample():
    rng = random.Random(104)
    r = ring(-7)
    pts = [canonical_associate(random_nonzero(rng, r, span=9))[0] for _ in range(40)]
    for x in pts:
        for y in pts:
            for z in pts:
                if arg_less(x, y) and arg_less(y, z):
                    assert arg_less(x, z)


def test_exact_div():
    rng = random.Random(105)
    for d in K:
        r = ring(d)
        for _ in range(200):
            x = random_nonzero(rng, r, span=9)
            y = random_nonzero(rng, r, span=9)
            q = exact_div(x * y, y)
            assert q == x
    # 2 does not divide 3 in Z[i]
    assert exact_div(ring(-1).element(3), ring(-1).element(2)) is None


def test_mixed_ring_arithmetic_rejected():
    with pytest.raises(DomainError):
        ring(-1).element(1) + ring(-2).element(1)
    with pytest.raises(DomainError):
        ring(-3).element(1, 1) * ring(-7).element(1, 1)


def test_addition_and_subtraction_add_the_rational_parts():
    rng = random.Random(30)
    for d in K:
        r = ring(d)
        for _ in range(50):
            x, y = (r.element(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(2))
            k = rng.randint(-50, 50)
            (xa, xb), (ya, yb) = x.rational_parts(), y.rational_parts()
            assert (x + y).rational_parts() == (xa + ya, xb + yb)
            assert (x - y).rational_parts() == (xa - ya, xb - yb)
            assert (x + k).rational_parts() == (k + x).rational_parts() == (xa + k, xb)
            assert (x - k).rational_parts() == (xa - k, xb)
            assert (k - x).rational_parts() == (k - xa, -xb)
            assert x - y + y == x and k - x == -(x - k)
    one, other = ring(-1).element(1), ring(-2).element(1)
    for refused in (lambda: one - other, lambda: other - one, lambda: one + other):
        with pytest.raises(DomainError, match="mixed-ring operands"):
            refused()
    for refused in (lambda: one + 0.5, lambda: 0.5 - one):
        with pytest.raises(TypeError):
            refused()


def test_powers():
    r = ring(-1)
    z = r.element(2, 1)
    assert z**0 == r.one()
    assert z**1 == z
    assert z**5 == z * z * z * z * z
    with pytest.raises(DomainError):
        z ** (-1)


def test_format_parse_round_trip():
    rng = random.Random(106)
    for d in K:
        r = ring(d)
        for _ in range(300):
            z = random_nonzero(rng, r)
            assert parse_element(r, format_element(z)) == z
            assert parse_element(r, pretty_element(z)) == z
            assert parse_element(r, str(z)) == z


def test_parse_accepts_documented_forms():
    r1 = ring(-1)
    assert parse_element(r1, "30") == r1.element(30)
    assert parse_element(r1, "3+4*w") == r1.element(3, 4)
    assert parse_element(r1, "3+4w") == r1.element(3, 4)
    assert parse_element(r1, "1+2i") == r1.element(1, 2)
    assert parse_element(r1, "-i") == r1.element(0, -1)
    assert parse_element(r1, "2 - sqrt(-1)") == r1.element(2, -1)
    r7 = ring(-7)
    # half coordinates in radical form: (1 + sqrt(-7))/2 is the base element w
    assert parse_element(r7, "1/2+1/2*sqrt(-7)") == r7.element(0, 1)
    assert parse_element(r7, "w") == r7.element(0, 1)
    r3 = ring(-3)
    assert parse_element(r3, "sqrt(-3)") == r3.element(-1, 2)


def test_parse_rejects_bad_input():
    r = ring(-1)
    for text in (
        "", "bogus(", "1+2*q", "sqrt(-5)", "1/3", "1/2+1/2*w", "++2",
        "3/0", "0/0", "3/00", "3/0*w", "1/0+sqrt(-1)", "5/0i",  # zero denominators
    ):
        with pytest.raises(DomainError):
            parse_element(r, text)
    with pytest.raises(DomainError):
        # wrong radicand for the ring
        parse_element(ring(-2), "sqrt(-3)")


def test_parse_formatted_inverts_format_element():
    rng = random.Random(108)
    for d in K:
        r = ring(d)
        for _, z in iter_sector_elements(r, 1, 400):
            text = format_element(z)
            assert parse_formatted(r, text) == z
            # every associate's text, so both signs of both coordinates occur
            for u in r.units():
                w = z * u
                assert parse_formatted(r, format_element(w)) == w
        for _ in range(50):
            z = random_nonzero(rng, r, span=10**6)
            assert parse_formatted(r, format_element(z)) == z
        # every coordinate pair in a box, zero and both signs of both included
        for a in range(-60, 61):
            for b in range(-60, 61):
                assert parse_formatted(r, format_coords(a, b)) == QInt(r, a, b)


def test_parse_formatted_rejects_non_canonical_text():
    r = ring(-1)
    for text in (
        "", "w", "1*w+3", "3+1w", "3 + 1*w", " 3", "3 ", "+3", "03", "-0", "0*w",
        "3+0*w", "0+1*w", "3+-1*w", "3--1*w", "1_0", "1/2", "i", "1+i", "3+4*w*w",
        "3+4*W", "sqrt(-1)", "3.0", "\u0663",
        "1+01*w", "01+1*w", "+1*w", "1+*w", "*w", "1+", "0-1*w", "-0*w", "1*w*w", "1+1*w ",
    ):
        with pytest.raises(DomainError):
            parse_formatted(r, text)
    with pytest.raises(DomainError):
        parse_formatted(r, 3)
    # user syntax stays with parse_element; Ring.parse reads only the canonical text
    assert parse_element(r, "3+4w") == r.element(3, 4)
    assert r.parse("3+4*w") == r.element(3, 4)
    with pytest.raises(DomainError):
        r.parse("3+4w")


def test_format_element_shapes():
    r = ring(-11)
    assert format_element(r.zero()) == "0"
    assert format_element(r.element(7)) == "7"
    assert format_element(r.element(0, -2)) == "-2*w"
    assert format_element(r.element(1, 2)) == "1+2*w"
    assert format_element(r.element(1, -3)) == "1-3*w"


def test_doubled_parts_reconstruct():
    rng = random.Random(107)
    for d in K:
        r = ring(d)
        for _ in range(100):
            z = random_nonzero(rng, r)
            big_x, big_y = z.doubled_parts()
            # z = (X + Y*sqrt(d)) / 2, so norm = (X^2 - d*Y^2) / 4
            assert big_x * big_x - d * big_y * big_y == 4 * z.norm()


def test_elements_and_rings_compare_and_hash_by_value():
    r = ring(-7)
    z, w = QInt(r, 3, -2), Ring(-7).element(3, -2)
    assert z == w and hash(z) == hash(w) and len({z, w, r.element(3, 2)}) == 2
    # hashed as the tuple of their fields: the order of a set of elements depends on it
    assert hash(z) == hash((r, 3, -2)) and hash(r) == hash((-7,))
    assert Ring(d=-7) == r and Ring(-7) is not r
    assert z != (r, 3, -2) and z != QInt(ring(-11), 3, -2)
    with pytest.raises(DomainError, match="got 5"):
        Ring(5)


def test_repr_text_of_elements_and_rings():
    z = ring(-7).element(3, -2)
    assert repr(z) == "QInt(-7, 3, -2)"
    assert repr(z.ring) == "Ring(d=-7)"
    with pytest.raises(DomainError) as err:
        index_of_unit(z)
    assert str(err.value) == "QInt(-7, 3, -2) is not a unit"
