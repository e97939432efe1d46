"""Verification suite: honest passes, fabricated failures, hit persistence."""

import json
from fractions import Fraction
from functools import lru_cache

import pytest

from quadunitary import search, theorems
from quadunitary.factoring import factor_element, factor_int
from quadunitary.primes import prime_above
from quadunitary.radicals import RadicalValue
from quadunitary.rings import K, DomainError, format_element, ring
from quadunitary.search import (
    CheckpointError,
    SearchConfig,
    iter_sector_elements,
    run_search,
)
from quadunitary.theorems import (
    CHECK_IDS,
    Hit,
    check_thm_2_2,
    check_thm_2_3,
    check_thm_2_4,
    check_thm_2_5,
    check_thm_2_6,
    check_zeta,
    discover_hits,
    g_map,
    load_hits,
    run_check,
)
from quadunitary.udf import i_star, sigma_star_int


def test_g_map_frozen_values():
    r1 = ring(-1)
    assert g_map(1, r1) == r1.element(1)
    assert g_map(5, r1) == r1.element(3, 4)  # (2+i)^2
    assert g_map(6, r1) == r1.element(6)  # 2 ramified, 3 inert
    assert g_map(25, r1) == r1.element(24, 7)  # (2+i)^4 = -7+24i, rotated to the sector
    r7 = ring(-7)
    g2 = g_map(2, r7)
    assert g2 == r7.element(-2, 1)
    assert g2.norm() == 4


def test_g_map_preserves_absolute_value():
    for d in K:
        r = ring(d)
        for n in range(1, 300):
            gz = g_map(n, r)
            assert gz.norm() == n * n, (d, n)
    with pytest.raises(DomainError):
        g_map(0, ring(-1))


def test_g_map_index_identity():
    # i_star(g(n), 1) = sigma_star(n) / n, exactly
    for d in (-1, -7, -163):
        r = ring(d)
        for n in range(1, 200):
            value = i_star(g_map(n, r), 1)
            assert value.is_rational
            assert value.as_fraction() == Fraction(sigma_star_int(n), n), (d, n)


def test_g_map_multiplicative_on_coprime():
    r = ring(-11)
    for a, b in ((4, 9), (5, 8), (7, 27), (25, 49)):
        assert g_map(a * b, r) == g_map(a, r) * g_map(b, r)


def test_discover_hits_contains_known_hits():
    r = ring(-1)
    hits = discover_hits(r, (1, 2), (2, 3, 4, 5, 6), 10_000)
    keyed = {(h.n, h.z.a, h.z.b): h.t for h in hits}
    assert keyed[(2, 3, 9)] == 2
    assert keyed[(2, 9, 3)] == 2
    assert keyed[(2, 30, 0)] == 2
    order = [(h.n, h.z.norm(), h.z.a, h.z.b) for h in hits]
    assert order == sorted(order)


def test_discover_hits_verifies_every_witness(monkeypatch):
    # an oracle that disagrees with the signature value stops the discovery
    monkeypatch.setattr(search, "delta_star_oracle", lambda z, n: RadicalValue.from_rational(1))
    with pytest.raises(AssertionError):
        discover_hits(ring(-1), (2,), (2,), 1000)


def test_thm_2_2_honest_pass_all_rings():
    for d in K:
        report = check_thm_2_2(ring(d), max_norm=10_000)
        assert report.passed, (d, report.violations)
        assert report.ring_d == d
        for w in report.witnesses:
            assert w["norm"] % 2 == 0


def test_thm_2_2_flags_fabricated_odd_hit():
    r = ring(-1)
    bad = [Hit(1, Fraction(2), r.element(3))]
    report = check_thm_2_2(r, hits=bad)
    assert not report.passed
    assert report.violations[0]["reason"] == "odd norm"
    assert report.checked == 1


def test_thm_2_2_skips_hits_outside_its_population(tmp_path):
    r = ring(-7)
    path = str(tmp_path / "fractional.jsonl")
    run_search(SearchConfig(r, 1, Fraction(5, 2), 1500, checkpoint_path=path))
    _, hits = load_hits(path, r)
    assert len(hits) == 3 and all(h.t == Fraction(5, 2) for h in hits)
    report = check_thm_2_2(r, hits=hits)
    assert report.checked == 0
    assert report.witnesses == []
    assert any("skipped 3" in note for note in report.notes)
    report = check_thm_2_2(r, hits=[Hit(3, Fraction(2), r.element(2))])
    assert report.checked == 0
    assert any("skipped 1" in note for note in report.notes)


def test_thm_2_3_honest_pass():
    report = check_thm_2_3(max_norm=10_000)
    assert report.passed
    assert report.checked >= 3  # the three known hits are in range
    for w in report.witnesses:
        assert w["odd_part_primes"] == w["gamma"] + w["v2_of_t"]


def test_thm_2_3_worked_example():
    r = ring(-1)
    report = check_thm_2_3(hits=[Hit(2, Fraction(2), r.element(30))])
    assert report.passed and report.checked == 1
    w = report.witnesses[0]
    assert w["gamma"] == 2
    assert w["two_exponent"] == 1
    assert w["v2_of_t"] == 1
    assert w["odd_part_primes"] == 3


def test_thm_2_3_flags_count_mismatch():
    r = ring(-1)
    report = check_thm_2_3(hits=[Hit(2, Fraction(4), r.element(30))])
    assert not report.passed
    assert report.violations[0]["reason"] == "prime count mismatch"


def test_thm_2_3_skips_fractional_targets():
    r = ring(-1)
    report = check_thm_2_3(hits=[Hit(2, Fraction(5, 2), r.element(30))])
    assert report.checked == 0
    assert report.vacuous
    assert any("skipped 1" in note for note in report.notes)


def test_thm_2_4_honest_pass():
    report = check_thm_2_4(max_norm=3000)
    assert report.passed
    assert report.checked == sum(1 for _ in iter_sector_elements(ring(-3), 1, 3000))
    assert report.violations == []
    assert check_thm_2_4(max_norm=1).checked == 1
    with pytest.raises(DomainError):
        check_thm_2_4(max_norm=0)


def test_thm_2_4_flags_fabricated_values(monkeypatch):
    # the sweep reports an element by its coordinates only when it fails; it
    # reads the kernel through search._index_points
    real = search._index_numerators

    def fabricated(rows, k):
        terms, den = real(rows, k)
        if rows == [(7, "split", 1)]:
            return {1: 1, 7: 1}, den  # an irrational value
        if rows == [(2, "inert", 1)]:
            return {1: 3}, 4  # numerator 3
        return terms, den

    monkeypatch.setattr(search, "_index_numerators", fabricated)
    report = check_thm_2_4(max_norm=7)
    assert not report.passed
    assert report.violations == [
        {"z": "2", "norm": 4, "value": "3/4", "reason": "numerator divisible by 3"},
        {"z": "1+2*w", "norm": 7, "reason": "value not rational"},
        {"z": "2+1*w", "norm": 7, "reason": "value not rational"},
    ]


@pytest.mark.parametrize("max_norm", [2000, 2100])
def test_thm_2_4_matches_i_star_of_each_factored_element(max_norm):
    # the sweep reads the kernel's integer pair once per (norm, content);
    # the reference factors every element and takes its i_star
    sample_every = max_norm // 4
    checked, witnesses = 0, []
    for norm, z in iter_sector_elements(ring(-3), 1, max_norm):
        checked += 1
        value = i_star(z, 2, factor_element(z))
        assert value.is_rational, z
        fr = value.as_fraction()
        assert fr.numerator % 3, z
        if norm % sample_every == 0 and len(witnesses) < 6:
            witnesses.append({"z": format_element(z), "norm": norm, "value": str(fr)})
    report = check_thm_2_4(max_norm)
    assert (report.checked, report.witnesses, report.passed) == (checked, witnesses, True)
    assert report.violations == []


def test_thm_2_4_reads_the_numerator_in_lowest_terms(monkeypatch):
    # 3/3 is 1, whose numerator is prime to 3; 6/4 is 3/2, whose numerator is not
    real = search._index_numerators

    def fabricated(rows, k):
        if rows == [(3, "ramified", 1)]:
            return {1: 3}, 3
        if rows == [(2, "inert", 1)]:
            return {1: 6}, 4
        return real(rows, k)

    monkeypatch.setattr(search, "_index_numerators", fabricated)
    report = check_thm_2_4(max_norm=4)
    assert report.violations == [
        {"z": "2", "norm": 4, "value": "3/2", "reason": "numerator divisible by 3"},
    ]


def test_thm_2_5_honest_passes():
    for d in (-1, -2, -7):
        report = check_thm_2_5(ring(d), max_norm=10_000)
        assert report.passed, (d, report.violations)


def test_thm_2_5_flags_fabricated_hits():
    r1 = ring(-1)
    # odd norm, coprime to 3
    report = check_thm_2_5(r1, hits=[Hit(2, Fraction(2), r1.element(3, 2))])
    assert not report.passed
    assert "norm is odd" in report.violations[0]["reasons"]
    # odd adic exponent of the even prime in d=-2
    r2 = ring(-2)
    z = r2.element(0, 5)  # sqrt(-2) * 5, norm 50
    assert z.norm() == 50
    report = check_thm_2_5(r2, hits=[Hit(2, Fraction(2), z)])
    assert not report.passed
    assert any("odd" in reason for reason in report.violations[0]["reasons"])


def test_thm_2_5_checks_fabricated_hits_in_every_branch():
    # no real hit has 3 not dividing N(z) up to norm 10^10, so the check's
    # branches only run on fabricated hits; each is worked out by hand
    def check(r, z):
        assert z.norm() % 3 != 0
        return check_thm_2_5(r, hits=[Hit(2, Fraction(2), z)])

    # d = -7: 2 and 11 split; pi2^2 * pibar2^2 * pi11^2 has norm 16 * 121.
    # Both exponents above 2 are even and positive, so the odd part must have
    # an odd prime count: pi11 alone, whose norm 11 is 5 mod 6 and whose
    # norm power 11^2 is 1 mod 6
    r7 = ring(-7)
    two, eleven = prime_above(2, r7), prime_above(11, r7)
    assert (two.kind, eleven.kind) == ("split", "split")
    report = check(r7, two.pi**2 * two.pi_bar**2 * eleven.pi**2)
    assert (report.passed, report.checked) == (True, 1)
    assert (report.witnesses[0]["gamma1"], report.witnesses[0]["gamma2"]) == (2, 2)
    # one exponent above 2 odd: pi2^3 * pibar2^2 * pi11^2
    report = check(r7, two.pi**3 * two.pi_bar**2 * eleven.pi**2)
    assert report.violations[0]["reasons"] == ["an exponent above 2 is odd despite 3 not dividing N(z)"]
    # d = -1: (1+i)^2 * pi5^2 * pi13 has mu = 2, so gamma = 1 and
    # 2^2 + 1 = 5 mod 6; the norm powers 25 and 13 are 1 mod 6, 5 is 5 mod
    # 6, and the odd part has an even count, 2
    r1 = ring(-1)
    z = r1.element(1, 1) ** 2 * prime_above(5, r1).pi ** 2 * prime_above(13, r1).pi
    report = check(r1, z)
    assert (report.passed, report.checked) == (True, 1)
    assert report.witnesses == [{"z": str(z), "norm": 1300, "n": 2, "t": "2", "gamma": 1}]
    # d = -11, outside {-1, -2, -7}: 2 and 7 are inert and 5 splits, and
    # 2 * pi5^2 * 7 has gamma = mu = 1, unhalved; the norm powers 25 and 49
    # are 1 mod 6, 5 is 5 mod 6, and the odd part has 2 primes
    r11 = ring(-11)
    assert [prime_above(p, r11).kind for p in (2, 5, 7)] == ["inert", "split", "inert"]
    z = r11.element(2) * prime_above(5, r11).pi ** 2 * r11.element(7)
    report = check(r11, z)
    assert (report.passed, report.checked) == (True, 1)
    assert report.witnesses[0]["gamma"] == 1


def test_thm_2_5_skips_norms_divisible_by_3():
    r = ring(-1)
    report = check_thm_2_5(r, hits=[Hit(2, Fraction(2), r.element(3, 9))])
    assert report.vacuous
    assert "  result: vacuous (no qualifying cases below the bound)" in report.to_text().splitlines()
    assert any("skipped 1" in note for note in report.notes)


def test_thm_2_6_unitary_perfect_numbers():
    report = check_thm_2_6(Fraction(2), bound=1000)
    assert report.passed
    assert report.witnesses[0]["members"] == [6, 60, 90]
    assert report.checked == 3 * len(K)


def test_thm_2_6_other_ratio():
    report = check_thm_2_6(Fraction(3, 2), bound=100)
    assert report.passed
    assert 2 in report.witnesses[0]["members"]
    with pytest.raises(DomainError):
        check_thm_2_6(Fraction(1), bound=10)
    with pytest.raises(DomainError):
        check_thm_2_6(Fraction(2), bound=0)


@lru_cache(maxsize=None)
def _sigma_stars(bound: int) -> tuple[int, ...]:
    """sigma_star_int(m) for m = 1 .. bound, one m at a time."""
    return tuple(sigma_star_int(m) for m in range(1, bound + 1))


@pytest.mark.parametrize("b", [Fraction(2), Fraction(3, 2), Fraction(3), Fraction(5, 2), Fraction(4), Fraction(7, 4)])
def test_thm_2_6_sieve_report_matches_per_n_report(b, monkeypatch):
    # the members the signature search finds are the m with sigma_star(m) = b*m,
    # tested one m at a time, and the report is the one those members give
    report = check_thm_2_6(b, bound=20_000).to_json_dict()
    per_n = [m for m, sigma in enumerate(_sigma_stars(20_000), start=1) if sigma * b.denominator == b.numerator * m]
    assert report["witnesses"][0]["members"] == per_n
    # the same check with the per-n members as the DFS's shapes, each prime ramified
    monkeypatch.setattr(
        theorems, "_dfs_signatures",
        lambda *args: [tuple((p, "ramified", (e,)) for p, e in factor_int(m)) for m in per_n],
    )
    assert report == check_thm_2_6(b, bound=20_000).to_json_dict()
    if b == 2:
        assert per_n == [6, 60, 90]


def test_thm_2_6_at_its_cap_finds_the_unitary_perfect_numbers():
    # 2^32 is the largest bound, which a sieve of every integer below it could not reach
    report = check_thm_2_6(Fraction(2), bound=1 << 32)
    assert report.passed and report.witnesses[0]["members"] == [6, 60, 90, 87360]
    report = check_thm_2_6(Fraction(3, 2), bound=1 << 32)
    assert report.passed and report.witnesses[0]["members"] == [
        2, 20, 24, 360, 816, 1056, 12240, 15840, 29120, 181632, 2724480, 9192960,
        13790400, 15288000, 93358848, 199180800, 1130734080, 1400382720,
    ]


def test_thm_2_6_refuses_a_shape_that_is_not_a_member(monkeypatch):
    # sigma_star(10) = 18 is not 2 * 10: a member is checked again before it is reported
    monkeypatch.setattr(theorems, "_dfs_signatures", lambda *args: [((2, "ramified", (1,)), (5, "ramified", (1,)))])
    with pytest.raises(AssertionError, match="10 from the signature search"):
        check_thm_2_6(Fraction(2), bound=1000)


def test_zeta_check():
    report = check_zeta()
    assert report.passed
    assert report.checked == 4
    assert len(report.witnesses) == 4
    for w in report.witnesses:
        assert w["passed"]


def test_report_shapes():
    report = check_zeta()
    doc = report.to_json_dict()
    assert doc["schema_version"] == 1
    assert set(doc) == {
        "schema_version",
        "check",
        "statement",
        "ring",
        "population",
        "checked",
        "vacuous",
        "violations",
        "witnesses",
        "notes",
        "passed",
    }
    text = report.to_text()
    assert text.startswith("check zeta: PASS")
    bad = check_thm_2_2(ring(-1), hits=[Hit(1, Fraction(2), ring(-1).element(3))])
    assert bad.to_text().startswith("check thm2.2: FAIL")


def test_load_hits_round_trip_elements(tmp_path):
    r = ring(-1)
    path = str(tmp_path / "elements.jsonl")
    run_search(SearchConfig(r, 2, Fraction(2), 2000, checkpoint_path=path))
    cfg, hits = load_hits(path, r)
    assert (cfg.n, cfg.t, cfg.max_norm, cfg.mode) == (2, 2, 2000, "elements")
    assert [(h.z.a, h.z.b) for h in hits] == [(3, 9), (9, 3), (30, 0)]
    assert all(h.n == 2 and h.t == 2 for h in hits)


def test_load_hits_round_trip_signatures(tmp_path):
    r = ring(-1)
    path = str(tmp_path / "sigs.jsonl")
    run_search(SearchConfig(r, 2, Fraction(2), 2000, mode="signatures", checkpoint_path=path))
    _, hits = load_hits(path, r)
    assert [(h.z.a, h.z.b) for h in hits] == [(3, 9), (9, 3), (30, 0)]


def test_load_hits_feeds_checks(tmp_path):
    r = ring(-1)
    path = str(tmp_path / "sigs.jsonl")
    run_search(SearchConfig(r, 2, Fraction(2), 10_000, mode="signatures", checkpoint_path=path))
    report = check_thm_2_2(r, hits=load_hits(path, r)[1])
    assert report.passed and report.checked == 3


def test_load_hits_rejects_bad_input(tmp_path):
    r = ring(-1)
    path = str(tmp_path / "x.jsonl")
    with open(path, "w") as fh:
        fh.write("")
    with pytest.raises(CheckpointError):
        load_hits(path, r)
    with open(path, "w") as fh:
        fh.write('{"kind":"other"}\n')
    with pytest.raises(CheckpointError):
        load_hits(path, r)
    config = {"d": -1, "n": 2, "t": "2", "max_norm": 2000, "mode": "elements",
              "verbose": False, "interval_size": 65536}
    with open(path, "w") as fh:
        header = {"schema_version": 99, "kind": "quadunitary-checkpoint", "config": config}
        fh.write(json.dumps(header) + "\n")
    with pytest.raises(CheckpointError):
        load_hits(path, r)
    with pytest.raises(CheckpointError):
        load_hits(str(tmp_path / "missing.jsonl"), r)
    good = str(tmp_path / "good.jsonl")
    run_search(SearchConfig(r, 2, Fraction(2), 2000, checkpoint_path=good))
    with pytest.raises(DomainError):
        load_hits(good, ring(-3))


def test_load_hits_refuses_a_torn_last_line(tmp_path):
    r = ring(-1)
    path = tmp_path / "run.jsonl"
    run_search(SearchConfig(r, 2, Fraction(2), 2000, verbose=True, checkpoint_path=str(path)))
    good = path.read_bytes()
    torn = good[: len(good) - 40]
    path.write_bytes(torn)
    with pytest.raises(CheckpointError):
        load_hits(str(path), r)
    assert path.read_bytes() == torn


def test_run_check_dispatch():
    assert run_check("zeta").passed
    assert run_check("thm2.2", ring_d=-7, max_norm=5000).passed
    assert run_check("thm2.4", max_norm=2000).passed
    assert run_check("thm2.6", target=Fraction(2), max_norm=1000).passed
    with pytest.raises(DomainError):
        run_check("thm9.9")
    with pytest.raises(DomainError):
        run_check("thm2.3", ring_d=-3)
    with pytest.raises(DomainError):
        run_check("thm2.4", ring_d=-1)
    assert set(CHECK_IDS) == {"thm2.2", "thm2.3", "thm2.4", "thm2.5", "thm2.6", "zeta"}
