"""Integer and element factorization against brute-force oracles."""

import random
from collections import Counter
from math import gcd, isqrt, prod

import pytest

from quadunitary.factoring import (
    NORM_CEILING,
    _factor_int,
    coprime,
    factor_element,
    factor_int,
    index_rows,
    is_ring_prime,
    rho,
)
from quadunitary.primes import prime_above, primes_up_to, small_primes
from quadunitary.rings import K, DomainError, in_sector, is_associate, ring
from quadunitary.search import iter_sector_elements
from quadunitary.udf import _index_numerators


def naive_factor(n):
    out = []
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e:
            out.append((f, e))
        f += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def test_factor_int_small():
    assert factor_int(1) == ()
    assert factor_int(2) == ((2, 1),)
    assert factor_int(360) == ((2, 3), (3, 2), (5, 1))
    for n in range(1, 2000):
        assert factor_int(n) == naive_factor(n), n


def test_factor_int_random():
    rng = random.Random(301)
    for _ in range(60):
        n = rng.randint(2, 10**9)
        fac = factor_int(n)
        assert fac == naive_factor(n)
        prod = 1
        for p, e in fac:
            prod *= p**e
        assert prod == n


def test_factor_int_semiprime_uses_rho_path():
    # both factors above the trial-division table
    p, q = 1_000_003, 1_000_033
    assert factor_int(p * q) == ((p, 1), (q, 1))
    assert factor_int(p * p) == ((p, 2),)


def test_factor_int_when_trial_division_ends_on_the_tables_last_prime():
    # 9973, the table's last prime, divides out with nothing left for Pollard
    assert small_primes()[-1] == 9973
    assert factor_int(9973**2) == ((9973, 2),)
    assert _factor_int(2 * 9973**3) == ((2, 1), (9973, 3))


def dict_and_sort(n):
    """Trial division into a dict, then sorted: a reference for n below the table's square."""
    out = {}
    for p in small_primes():
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1
        if p * p > n:
            break
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return tuple(sorted(out.items()))


def test_factor_int_appends_what_a_dict_and_sort_gives():
    for n in range(1, 200_000):
        fac = _factor_int(n)
        assert fac == dict_and_sort(n), n
        assert list(fac) == sorted(fac), n


@pytest.mark.parametrize(
    "primes",
    [
        [10007, 10009],
        [10007, 10007, 10009],
        [2, 2, 2, 10007, 1000003],
        [10007, 10009, 10037],
        [2**61 - 1],
    ],
)
def test_factor_int_sorts_the_primes_pollard_finds(primes):
    # every odd prime here is above the 10,000 trial-division table, so Pollard rho finds it
    fac = factor_int(prod(primes))
    assert fac == tuple(sorted(Counter(primes).items()))
    assert fac == _factor_int(prod(primes))


def test_factor_int_rejects_nonpositive():
    with pytest.raises(DomainError):
        factor_int(0)
    with pytest.raises(DomainError):
        factor_int(-6)


def test_factor_element_units_and_zero():
    for d in K:
        r = ring(d)
        for u in r.units():
            fac = factor_element(u)
            assert fac.entries == ()
            assert fac.unit == u
            assert fac.value() == u
        with pytest.raises(DomainError):
            factor_element(r.zero())


def test_factor_element_reassembles():
    rng = random.Random(302)
    for d in K:
        r = ring(d)
        checked = 0
        while checked < 150:
            z = r.element(rng.randint(-40, 40), rng.randint(-40, 40))
            if z.is_zero:
                continue
            fac = factor_element(z)
            assert fac.value() == z
            norms = [e.prime.norm() for e in fac.entries]
            assert norms == sorted(norms)
            for e in fac.entries:
                assert in_sector(e.prime)
                assert is_ring_prime(e.prime)
                assert e.exponent >= 1
                assert e.kind == prime_above(e.p, r).kind
            # entries are pairwise nonassociated
            primes = [e.prime for e in fac.entries]
            for i in range(len(primes)):
                for j in range(i + 1, len(primes)):
                    assert not is_associate(primes[i], primes[j])
            checked += 1


def test_factor_element_frozen_examples():
    r = ring(-1)
    fac = factor_element(r.element(30))
    assert fac.factors == (
        (r.element(1, 1), 2),
        (r.element(1, 2), 1),
        (r.element(2, 1), 1),
        (r.element(3), 1),
    )
    assert fac.unit == r.element(-1)
    # split prime with unbalanced exponents: (2+i)^2 = 3+4i
    fac2 = factor_element(r.element(3, 4))
    assert fac2.factors == ((r.element(2, 1), 2),)


def test_factor_element_norm_ceiling():
    r = ring(-1)
    big = r.element(1 << 33)  # norm 2**66 > ceiling
    assert big.norm() > NORM_CEILING
    with pytest.raises(DomainError):
        factor_element(big)
    fac = factor_element(big, allow_large=True)
    assert fac.value() == big


def test_is_ring_prime():
    r = ring(-1)
    assert is_ring_prime(r.element(1, 1))
    assert is_ring_prime(r.element(3))  # inert
    assert is_ring_prime(r.element(2, 1))
    assert not is_ring_prime(r.element(5))  # splits
    assert not is_ring_prime(r.element(1))
    assert not is_ring_prime(r.element(0))
    assert is_ring_prime(ring(-3).element(2))  # 2 inert for d=-3
    assert not is_ring_prime(ring(-7).element(2))  # 2 splits for d=-7


def test_rho():
    r = ring(-1)
    pi = r.element(1, 1)
    assert rho(pi, r.element(30)) == 2
    assert rho(pi, r.element(3)) == 0
    assert rho(r.element(2, 1), r.element(3, 4)) == 2
    with pytest.raises(DomainError):
        rho(pi, r.zero())
    with pytest.raises(DomainError):
        rho(r.element(5), r.element(30))  # 5 is not prime here


def test_coprime():
    r = ring(-1)
    pc = prime_above(5, r)
    # opposite members of a split pair share no ring prime
    assert coprime(pc.pi, pc.pi_bar)
    assert not coprime(pc.pi, pc.pi)
    assert not coprime(r.element(30), r.element(30))
    assert coprime(r.element(3), r.element(2, 1))
    assert not coprime(r.element(6), r.element(3))
    assert coprime(r.element(1), r.zero())
    assert not coprime(r.zero(), r.zero())
    with pytest.raises(DomainError):
        coprime(r.element(1), ring(-2).element(1))


def test_coprime_matches_factorizations():
    rng = random.Random(303)
    for d in (-1, -7, -163):
        r = ring(d)
        checked = 0
        while checked < 120:
            x = r.element(rng.randint(-15, 15), rng.randint(-15, 15))
            y = r.element(rng.randint(-15, 15), rng.randint(-15, 15))
            if x.is_zero or y.is_zero:
                continue
            px = {(e.prime.a, e.prime.b) for e in factor_element(x).entries}
            py = {(e.prime.a, e.prime.b) for e in factor_element(y).entries}
            assert coprime(x, y) == px.isdisjoint(py)
            checked += 1


def _rows_from_norm(z):
    return sorted(index_rows(z.ring.d, z.norm(), gcd(z.a, z.b)))


def test_index_rows_match_factor_element_on_every_small_element():
    for d in K:
        r = ring(d)
        assert index_rows(d, 1, 1) == []
        for _, z in iter_sector_elements(r, 1, 2000):
            assert _rows_from_norm(z) == sorted(factor_element(z).rows), (d, z)


def test_index_rows_match_factor_element_on_random_elements():
    # random elements of norm up to about 1e12, times content of every kind:
    # an inert, ramified or split p as a rational integer, and a split p
    # present on only one of pi, pi_bar, either one
    rng = random.Random(306)
    for d in K:
        r = ring(d)
        kinds = {"inert": [], "ramified": [], "split": []}
        for p in primes_up_to(200):  # 163 ramifies in d = -163
            kinds[prime_above(p, r).kind].append(prime_above(p, r))
        a_max = 700_000
        b_max = isqrt(4 * a_max * a_max // -r.disc)
        for i in range(40):
            z = r.element(rng.randint(-a_max, a_max), rng.randint(1, b_max))
            for kind in ("inert", "ramified", "split"):
                pc = rng.choice(kinds[kind])
                if i % 2:
                    z = z * r.element(pc.p) ** rng.randint(1, 2)
                if kind == "ramified" and i % 3 == 0:
                    z = z * pc.pi
            split = rng.choice(kinds["split"])
            z = z * split.pi ** rng.randint(0, 3) * split.pi_bar ** rng.randint(0, 2)
            fac = factor_element(z, allow_large=True)
            rows = _rows_from_norm(z)
            assert rows == sorted(fac.rows), (d, z)
            for n in (1, 2, 3, -1, -2, -3):
                assert _index_numerators(rows, n) == _index_numerators(fac.rows, n), (d, z, n)
