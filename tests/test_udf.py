"""Unitary divisor sums: product formula, subset-sum oracle, zeta bounds."""

import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from quadunitary.factoring import coprime, factor_element
from quadunitary.primes import is_prime, prime_above, prime_kind
from quadunitary.radicals import RadicalValue
from quadunitary.rings import K, DomainError, exact_div, in_sector, ring
from quadunitary.udf import (
    _SCALE,
    _ZETA_TERMS,
    _zeta_scaled,
    delta_star,
    delta_star_oracle,
    i_star,
    sigma_star_int,
    unitary_divisors,
    zeta_bound_check,
)


def test_unitary_divisors_of_30():
    r = ring(-1)
    items = unitary_divisors(r.element(30))
    assert len(items) == 16
    assert len(set((x.a, x.b) for x in items)) == 16
    assert items[0] == r.element(1)
    assert items[-1].norm() == 900
    z = r.element(30)
    for x in items:
        assert in_sector(x)
        y = exact_div(z, x)
        assert y is not None
        assert coprime(x, y)


def test_unitary_divisor_counts():
    r = ring(-1)
    assert len(unitary_divisors(r.element(1))) == 1
    assert len(unitary_divisors(r.element(8))) == 2  # (1+i)**6 up to a unit
    assert len(unitary_divisors(r.element(3, 4))) == 2  # (2+i)**2
    assert len(unitary_divisors(r.element(6))) == 4


def test_delta_star_frozen_values():
    r = ring(-1)
    z30 = r.element(30)
    assert delta_star(z30, 2) == 1800
    assert i_star(z30, 2) == 2
    assert i_star(r.element(2), 1) == Fraction(3, 2)
    one_i = r.element(1, 1)
    assert delta_star(one_i, 1) == 1 + RadicalValue.from_sqrt(2)
    assert i_star(one_i, 3) == 1 + RadicalValue.from_sqrt(2, Fraction(1, 4))
    r3 = ring(-3)
    assert i_star(r3.element(6), 1) == 2
    assert delta_star(r3.element(1), 5) == 1


def test_zero_rejected():
    r = ring(-1)
    with pytest.raises(DomainError):
        delta_star(r.zero(), 1)
    with pytest.raises(DomainError):
        i_star(r.zero(), 1)
    with pytest.raises(DomainError):
        delta_star_oracle(r.zero(), 1)
    with pytest.raises(DomainError):
        unitary_divisors(r.zero())


def test_product_formula_matches_oracle():
    rng = random.Random(501)
    for d in K:
        r = ring(d)
        checked = 0
        while checked < 60:
            z = r.element(rng.randint(-30, 30), rng.randint(-30, 30))
            if z.is_zero:
                continue
            fac = factor_element(z)
            for n in (-3, -2, -1, 1, 2, 3):
                assert delta_star(z, n, fac) == delta_star_oracle(z, n, fac), (d, z, n)
            checked += 1


def test_duality_and_index_identity():
    rng = random.Random(502)
    for d in K:
        r = ring(d)
        checked = 0
        while checked < 80:
            z = r.element(rng.randint(-25, 25), rng.randint(-25, 25))
            if z.is_zero:
                continue
            fac = factor_element(z)
            for n in (1, 2, 3):
                assert i_star(z, n, fac) == delta_star(z, -n, fac)
                assert delta_star(z, n, fac) == i_star(z, n, fac) * RadicalValue.sqrt_power(
                    z.norm(), n
                )
            checked += 1


def test_multiplicative_on_coprime_pairs():
    rng = random.Random(503)
    for d in (-1, -3, -7, -163):
        r = ring(d)
        checked = 0
        while checked < 60:
            x = r.element(rng.randint(-20, 20), rng.randint(-20, 20))
            y = r.element(rng.randint(-20, 20), rng.randint(-20, 20))
            if x.is_zero or y.is_zero or not coprime(x, y):
                continue
            for n in (1, 2):
                assert delta_star(x * y, n) == delta_star(x, n) * delta_star(y, n)
                assert i_star(x * y, n) == i_star(x, n) * i_star(y, n)
            checked += 1


def test_conjugation_invariance():
    rng = random.Random(504)
    for d in K:
        r = ring(d)
        checked = 0
        while checked < 50:
            z = r.element(rng.randint(-20, 20), rng.randint(-20, 20))
            if z.is_zero:
                continue
            assert delta_star(z, 2) == delta_star(z.conj(), 2)
            assert i_star(z, 1) == i_star(z.conj(), 1)
            checked += 1


def reference_product(fac, k):
    """product(1 + |pi**alpha|**k) in RadicalValue arithmetic, one factor at a time."""
    value = RadicalValue.from_rational(1)
    for e in fac.entries:
        weight = 2 if e.kind == "inert" else 1
        value = value * (1 + RadicalValue.sqrt_power(e.p, weight * e.exponent * k))
    return value


def split_pair_elements(r):
    """pi**a * conj(pi)**b with a, b odd at the least split prime, alone and times
    pi2 * conj(pi2)**3 at the next one, so two sqrt(p) terms merge per prime."""
    split = [p for p in range(2, 60) if is_prime(p) and prime_kind(r.d, p) == "split"][:2]
    pcs = [prime_above(p, r) for p in split]
    out = []
    for a, b in ((1, 1), (1, 3), (3, 1), (3, 5)):
        out.append(pcs[0].pi**a * pcs[0].pi_bar**b)
        out.append(pcs[0].pi**a * pcs[0].pi_bar**b * pcs[1].pi * pcs[1].pi_bar**3)
    return out


@pytest.mark.parametrize("d", K)
def test_index_kernel_matches_radical_reference(d):
    r = ring(d)
    rng = random.Random(506 + d)
    zs = split_pair_elements(r)
    while len(zs) < 40:
        z = r.element(rng.randint(-40, 40), rng.randint(-40, 40))
        if not z.is_zero:
            zs.append(z)
    for z in zs:
        fac = factor_element(z, allow_large=True)  # d=-163 splits only from 41 on
        for n in (-4, -3, -2, -1, 1, 2, 3, 4):
            assert i_star(z, n, fac) == reference_product(fac, -n), (d, z, n)
            assert delta_star(z, n, fac) == reference_product(fac, n), (d, z, n)


def test_split_radicals_merge():
    r = ring(-1)
    pc = prime_above(5, r)
    # (1 + sqrt5)(1 + 5*sqrt5) = 26 + 6*sqrt5: the two sqrt5 terms meet in one
    z = pc.pi * pc.pi_bar**3
    assert delta_star(z, 1) == 26 + RadicalValue.from_sqrt(5, 6)
    # (1 + 1/sqrt5)(1 + 1/(5*sqrt5)) = 26/25 + (6/25)*sqrt5
    assert i_star(z, 1) == Fraction(26, 25) + RadicalValue.from_sqrt(5, Fraction(6, 25))
    assert i_star(z, 1).terms == {1: Fraction(26, 25), 5: Fraction(6, 25)}


def test_rationality_predicate():
    rng = random.Random(505)
    r = ring(-1)
    # even n is always rational
    for _ in range(100):
        z = r.element(rng.randint(-25, 25), rng.randint(-25, 25))
        if z.is_zero:
            continue
        assert i_star(z, 2).is_rational
        fac = factor_element(z)
        for n in (1, 3):
            # the parity criterion: every prime with irrational |pi| has alpha * n even
            parity = all(e.kind == "inert" or (e.exponent * n) % 2 == 0 for e in fac.entries)
            assert i_star(z, n, fac).is_rational == parity
    assert not i_star(r.element(1, 1), 1).is_rational
    assert i_star(r.element(2), 1).is_rational  # (1+i)**2: exponent 2 even
    assert i_star(r.element(3), 1).is_rational


def naive_sigma_star(n, k=1):
    total = 0
    for x in range(1, n + 1):
        if n % x == 0:
            from math import gcd, isqrt

            if gcd(x, n // x) == 1:
                total += x**k
    return total


def test_sigma_star_int():
    assert sigma_star_int(1) == 1
    assert sigma_star_int(2) == 3
    assert sigma_star_int(6) == 12
    assert sigma_star_int(60) == 120
    assert sigma_star_int(90) == 180
    assert sigma_star_int(87360) == 174720
    for n in range(1, 400):
        assert sigma_star_int(n) == naive_sigma_star(n)
        assert sigma_star_int(n, 2) == naive_sigma_star(n, 2)
    with pytest.raises(DomainError):
        sigma_star_int(0)


def test_sigma_star_int_negative_power_is_exact():
    assert sigma_star_int(10, -1) == Fraction(9, 5)
    for n in range(1, 300):
        assert isinstance(sigma_star_int(n, 0), int)
        assert isinstance(sigma_star_int(n), int)
        for k in (-1, -2, -3):
            got = sigma_star_int(n, k)
            assert isinstance(got, Fraction), (n, k)
            want = sum(
                Fraction(1, x ** -k) for x in range(1, n + 1)
                if n % x == 0 and gcd(x, n // x) == 1
            )
            assert got == want, (n, k)


def test_zeta_bounds():
    checks = zeta_bound_check()
    assert len(checks) == 4
    approx = {}
    for c in checks:
        assert c.passed, c.label
        assert c.lo < c.hi < 2
        assert c.width < Fraction(1, 1000)
        approx[c.label] = float((c.lo + c.hi) / 2)
    # spot values, recomputed by hand from zeta(2), zeta(5/2), zeta(3), ...
    assert abs(approx["(zeta(5/2)/zeta(5))^2"] - 1.673716) < 1e-4
    assert abs(approx["(4/5)*(zeta(2)/zeta(4))^2"] - 1.847877) < 1e-4
    assert abs(approx["(41/50)*(zeta(2)/zeta(4))^2"] - 1.894074) < 1e-4
    assert abs(approx["(zeta(3)/zeta(6))^2"] - 1.396096) < 1e-4
    doc = checks[0].to_json_dict()
    assert set(doc) == {"label", "lo", "hi", "approx", "width", "limit", "passed"}


def reference_zeta_scaled(s2):
    """The bracket with an integer square root per term, whatever the parity of s2."""
    lo = hi = 0
    scale_sq = _SCALE * _SCALE
    for k in range(1, _ZETA_TERMS + 1):
        r = isqrt(k**s2 * scale_sq)
        lo += scale_sq // (r + 1)
        hi += scale_sq // r + 1
    s2m2 = s2 - 2
    r_hi = isqrt(_ZETA_TERMS**s2m2 * scale_sq)
    r_lo = isqrt((_ZETA_TERMS + 1) ** s2m2 * scale_sq)
    hi += 2 * scale_sq // (s2m2 * r_hi) + 1
    lo += 2 * scale_sq // (s2m2 * (r_lo + 1))
    return lo, hi


@pytest.mark.parametrize("s2", [3, 4, 5, 6, 8, 10, 12])
def test_zeta_scaled_matches_the_integer_sqrt_bracket(s2):
    assert _zeta_scaled(s2) == reference_zeta_scaled(s2)


def test_even_exponent_terms_are_exact_roots():
    # for s2 = 2h the root of k**s2 * S**2 is k**h * S, and the bracket
    # S**2 // (r + 1), S**2 // r + 1 is q - (rem == 0), q + 1 from divmod(S, k**h)
    scale_sq = _SCALE * _SCALE
    exact = 0
    for h in range(2, 7):
        for k in range(1, _ZETA_TERMS + 1):
            r = isqrt(k ** (2 * h) * scale_sq)
            assert r == k**h * _SCALE, (k, h)
            q, rem = divmod(_SCALE, k**h)
            assert scale_sq // r + 1 == q + 1, (k, h)
            assert scale_sq // (r + 1) == q - (rem == 0), (k, h)
            exact += rem == 0
    assert exact > 0  # both sides of the rem == 0 case are met
