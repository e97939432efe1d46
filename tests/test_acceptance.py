"""Acceptance gate: ten end-to-end criteria at full scale.

Each test prints one summary line; together they exercise the golden example,
the oracle cross-check, the randomized property suites, the large null and
hit searches, the verification sweeps, the zeta certification, cross-mode
agreement, and byte-level determinism.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from quadunitary import search
from quadunitary.factoring import coprime, factor_element
from quadunitary.radicals import RadicalValue
from quadunitary.rings import K, ring
from quadunitary.search import (
    SearchConfig,
    iter_sector_elements,
    search_rows,
    signature_hits_multi,
)
from quadunitary.theorems import check_thm_2_2, check_thm_2_4, check_thm_2_6
from quadunitary.udf import delta_star, delta_star_oracle, i_star, zeta_bound_check


def test_criterion_01_golden_example():
    argv = [
        sys.executable, "-m", "quadunitary", "istar", "--ring", "-1",
        "--element", "30", "--power", "2", "--format", "json",
    ]
    warm = subprocess.run(argv, capture_output=True, timeout=60)  # warm caches
    assert warm.returncode == 0, warm.stderr
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["istar"] == {"1": "2"}
    assert doc["rational"] is True
    assert elapsed < 1.0, f"golden example took {elapsed:.3f}s"
    print(f"criterion 1: PASS (i_star(30, 2) = 2 in {elapsed * 1000:.0f} ms)")


def test_criterion_02_oracle_equivalence():
    powers = (-3, -2, -1, 1, 2, 3)
    total = 0
    for d in K:
        r = ring(d)
        for _, z in iter_sector_elements(r, 1, 10_000):
            fac = factor_element(z)
            for n in powers:
                assert delta_star(z, n, fac) == delta_star_oracle(z, n, fac), (d, z, n)
            total += len(powers)
    print(f"criterion 2: PASS ({total} exact product-vs-sum comparisons, 9 rings)")


def test_criterion_03_property_suites():
    per_ring = {}
    for d in K:
        r = ring(d)
        rng = random.Random(1000 - d)
        cases = 0

        def nonzero(span):
            while True:
                z = r.element(rng.randint(-span, span), rng.randint(-span, span))
                if not z.is_zero:
                    return z

        # index duality: i_star(z, n) equals delta_star(z, -n)
        for _ in range(4000):
            z = nonzero(40)
            n = rng.randint(1, 3)
            fac = factor_element(z)
            assert i_star(z, n, fac) == delta_star(z, -n, fac)
            assert delta_star(z, n, fac) == i_star(z, n, fac) * RadicalValue.sqrt_power(
                z.norm(), n
            )
            cases += 1

        # multiplicativity of both functions over coprime pairs
        pairs = 0
        while pairs < 3000:
            x, y = nonzero(20), nonzero(20)
            if not coprime(x, y):
                continue
            n = rng.randint(1, 3)
            assert delta_star(x * y, n) == delta_star(x, n) * delta_star(y, n)
            cases += 1
            assert i_star(x * y, n) == i_star(x, n) * i_star(y, n)
            cases += 1
            pairs += 1

        assert cases >= 10_000, (d, cases)
        per_ring[d] = cases
    print(f"criterion 3: PASS ({sum(per_ring.values())} randomized cases, >= 10000 per ring)")


def test_criterion_04_null_searches():
    searches = 0
    for d in K:
        r = ring(d)
        for n in (3, 4, 5):
            hits = signature_hits_multi(r, n, (Fraction(2), Fraction(3)), 10**6)
            assert hits == [], (d, n, hits)
            searches += 2
    print(f"criterion 4: PASS ({searches} searches at max_norm 10^6, zero hits)")


def test_criterion_05_even_norm_of_all_hits():
    total = 0
    for d in K:
        report = check_thm_2_2(ring(d), max_norm=10**6)
        assert report.passed, (d, report.violations)
        assert not report.violations
        total += report.checked
    assert total > 0
    print(f"criterion 5: PASS ({total} hits across 9 rings at 10^6, all even norm)")


def test_criterion_06_numerator_sweep():
    report = check_thm_2_4(max_norm=10**5)
    assert report.passed
    assert report.checked == 60_466  # sector elements of d=-3 with norm <= 10^5
    assert not report.violations
    print(f"criterion 6: PASS ({report.checked} values, no numerator divisible by 3)")


def test_criterion_07_integer_perfect_injection():
    report = check_thm_2_6(Fraction(2), bound=10**5)
    assert report.passed
    members = report.witnesses[0]["members"]
    assert members == [6, 60, 90, 87360]
    assert report.checked == len(members) * len(K)
    print(
        "criterion 7: PASS (U(2) below 10^5 is {6, 60, 90, 87360}; "
        "36 exact image checks across 9 rings)"
    )


def test_criterion_08_zeta_certification():
    start = time.perf_counter()
    checks = zeta_bound_check()
    elapsed = time.perf_counter() - start
    assert len(checks) == 4
    for c in checks:
        assert c.passed, c.label
        assert c.width < Fraction(1, 1000), (c.label, float(c.width))
    assert elapsed < 1.0, f"certification took {elapsed:.3f}s"
    print(
        f"criterion 8: PASS (4 constants < 2, max width "
        f"{max(float(c.width) for c in checks):.2e}, {elapsed * 1000:.0f} ms)"
    )


def test_criterion_09_cross_mode_consistency():
    cases = ((-1, 2, Fraction(2)), (-3, 1, Fraction(2)))
    for d, n, t in cases:
        r = ring(d)
        el = search_rows(SearchConfig(r, n, t, 10**4, mode="elements"))[0]
        sg = search_rows(SearchConfig(r, n, t, 10**4, mode="signatures"))[0]
        assert el == sg, (d, n)
        assert el, (d, n)  # both populations are known to be nonempty
    print("criterion 9: PASS (hit sets agree exactly for d=-1 n=2 and d=-3 n=1)")


def test_criterion_10_determinism(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_WINDOW", 1024)

    def lines_for(jobs, checkpoint=None):
        cfg = SearchConfig(ring(-1), 2, Fraction(2), 10**4, jobs=jobs, checkpoint_path=checkpoint)
        return search_rows(cfg)[0]

    base = lines_for(1)
    for jobs in (4, 8):
        assert lines_for(jobs) == base, jobs

    # checkpoint cycle: full run, truncate, resume, replay
    path = str(tmp_path / "cycle.jsonl")
    assert lines_for(1, path) == base
    content = Path(path).read_text().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(content[: len(content) // 2]) + "\n")
    assert lines_for(4, path) == base
    assert lines_for(1, path) == base
    print("criterion 10: PASS (byte-identical output for jobs 1/4/8 and resume cycle)")
