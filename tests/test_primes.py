"""Primality, residues and prime classification with witnesses."""

import random

import pytest

from quadunitary.primes import (
    classify,
    is_prime,
    legendre,
    prime_above,
    primes_up_to,
    small_primes,
    sqrt_mod,
    xi,
)
from quadunitary.rings import K, DomainError, arg_less, in_sector, is_associate, ring


def naive_is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_sieve_matches_naive():
    got = primes_up_to(1000)
    assert got == [n for n in range(1001) if naive_is_prime(n)]
    assert small_primes(100) == tuple(primes_up_to(100))


def test_is_prime_small_range():
    for n in range(-5, 2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_carmichael_numbers():
    # Fermat pseudoprimes to many bases; all composite
    for n in (561, 1105, 1729, 2465, 2821, 6601, 41041, 75361, 101101):
        assert not is_prime(n)


def test_is_prime_large_frozen():
    assert is_prime((1 << 89) - 1)  # Mersenne prime M89
    assert not is_prime((1 << 101) - 1)  # M101 = 7432339208719 * ...
    assert is_prime(10**18 + 9)
    assert not is_prime(10**18 + 7)


def test_legendre_matches_euler_criterion():
    rng = random.Random(201)
    for p in (3, 5, 7, 11, 13, 101, 997):
        squares = {x * x % p for x in range(1, p)}
        for _ in range(50):
            a = rng.randint(-3 * p, 3 * p)
            sym = legendre(a, p)
            if a % p == 0:
                assert sym == 0
            elif a % p in squares:
                assert sym == 1
            else:
                assert sym == -1


def test_sqrt_mod_all_small_primes():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for a in range(p):
            root = sqrt_mod(a, p)
            if legendre(a, p) == -1:
                assert root is None
            else:
                assert root is not None
                assert root * root % p == a % p


def test_classification_frozen_table():
    # small primes, all nine rings: hand-checked via quadratic residues
    table = {
        (-1, 2): "ramified",
        (-1, 3): "inert",
        (-1, 5): "split",
        (-1, 7): "inert",
        (-1, 13): "split",
        (-2, 2): "ramified",
        (-2, 3): "split",
        (-2, 5): "inert",
        (-2, 11): "split",
        (-3, 2): "inert",
        (-3, 3): "ramified",
        (-3, 7): "split",
        (-3, 13): "split",
        (-7, 2): "split",
        (-7, 3): "inert",
        (-7, 7): "ramified",
        (-7, 11): "split",
        (-11, 2): "inert",
        (-11, 3): "split",
        (-11, 5): "split",
        (-11, 11): "ramified",
        (-19, 2): "inert",
        (-19, 5): "split",
        (-19, 19): "ramified",
        (-43, 2): "inert",
        (-43, 11): "split",
        (-43, 43): "ramified",
        (-67, 2): "inert",
        (-67, 17): "split",
        (-67, 67): "ramified",
        (-163, 2): "inert",
        (-163, 41): "split",
        (-163, 163): "ramified",
    }
    for (d, p), want in table.items():
        assert classify(p, ring(d)) == want, (d, p)


def test_classify_two_by_ring():
    want = {-1: "ramified", -2: "ramified", -7: "split"}
    for d in K:
        assert classify(2, ring(d)) == want.get(d, "inert")


def test_classify_ramified_iff_divides_d():
    for d in K:
        r = ring(d)
        for p in primes_up_to(200):
            if p == 2:
                continue
            assert (classify(p, r) == "ramified") == (abs(d) % p == 0)


def test_classify_rejects_composites():
    with pytest.raises(DomainError):
        classify(6, ring(-1))
    with pytest.raises(DomainError):
        classify(1, ring(-3))


def _split_primes_above(r, start, count):
    out = []
    p = start
    while len(out) < count:
        p += 1
        if is_prime(p) and classify(p, r) == "split":
            out.append(p)
    return out


def test_prime_above_invariants():
    for d in K:
        r = ring(d)
        # past 10**6 the Euclid descent in Cornacchia's algorithm runs deep
        for p in primes_up_to(500) + _split_primes_above(r, 10**6, 4):
            pc = prime_above(p, r)
            assert pc.p == p and pc.d == d
            assert in_sector(pc.pi)
            if pc.kind == "inert":
                assert pc.pi == r.element(p)
                assert pc.pi.norm() == p * p
                assert pc.pi_bar is None
            elif pc.kind == "ramified":
                assert pc.pi.norm() == p
                assert pc.pi_bar is None
                assert is_associate(pc.pi * pc.pi, r.element(p))
                assert is_associate(pc.pi.conj(), pc.pi)
            else:
                assert pc.pi_bar is not None
                assert in_sector(pc.pi_bar)
                assert pc.pi.norm() == p
                assert pc.pi_bar.norm() == p
                assert pc.pi != pc.pi_bar
                assert not is_associate(pc.pi, pc.pi_bar)
                assert is_associate(pc.pi * pc.pi_bar, r.element(p))
                assert is_associate(pc.pi.conj(), pc.pi_bar)
                # orientation: pi carries the smaller argument
                assert arg_less(pc.pi, pc.pi_bar)


def test_prime_above_frozen_witnesses():
    assert prime_above(2, ring(-1)).pi == ring(-1).element(1, 1)
    assert prime_above(5, ring(-1)).pi == ring(-1).element(2, 1)
    assert prime_above(5, ring(-1)).pi_bar == ring(-1).element(1, 2)
    assert prime_above(2, ring(-2)).pi == ring(-2).element(0, 1)
    assert prime_above(2, ring(-7)).pi.norm() == 2
    assert prime_above(41, ring(-163)).pi.norm() == 41


def test_xi():
    assert xi(ring(-1)) == ring(-1).element(1, 1)
    assert xi(ring(-2)) == ring(-2).element(0, 1)
    for d in (-3, -11, -19, -43, -67, -163):
        assert xi(ring(d)) == ring(d).element(2)
    with pytest.raises(DomainError):
        xi(ring(-7))
