"""Element enumeration, signature DFS, checkpointing, determinism."""

import json
import pickle
import random
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, inf, isqrt, nextafter
from pathlib import Path

import pytest

from quadunitary import primes, search
from quadunitary.cli import main
from quadunitary.factoring import NORM_CEILING, factor_int
from quadunitary.primes import prime_kind, primes_up_to, small_primes
from quadunitary.rings import K, DomainError, QInt, format_element, in_sector, ring
from quadunitary.search import (
    CheckpointError,
    SearchConfig,
    Signature,
    _envelope_cached,
    _exact_root,
    _extension_bound,
    _interval_count,
    _interval_points,
    iter_sector_elements,
    read_rows,
    run_search,
    search_rows,
    search_signatures,
    signature_hits_multi,
    witness_hits,
)
from quadunitary.theorems import check_thm_2_4, load_hits
from quadunitary.udf import _index_numerators, i_star


def box_scan(r, lo, hi):
    """Reference sector enumeration: exhaustive coordinate box plus filters."""
    bound = 2 * isqrt(hi) + 2
    out = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            z = r.element(a, b)
            if z.is_zero:
                continue
            n = z.norm()
            if lo <= n <= hi and in_sector(z):
                out.add((n, a, b))
    return out


def test_interval_points_match_box_scan():
    for d in K:
        r = ring(d)
        for lo, hi in ((1, 120), (50, 120), (2, 2), (97, 97), (119, 121), (1900, 2000)):
            got = _interval_points(r, lo, hi)
            assert set(got) == box_scan(r, lo, hi), (d, lo, hi)
            assert got == sorted(got)
            assert len(got) == len(set(got)) == _interval_count(r, lo, hi)


def test_interval_points_window_partition():
    # splitting a range must neither drop nor duplicate points
    for d in K:
        r = ring(d)
        whole = _interval_points(r, 1, 200)
        pieces = []
        for lo in range(1, 201, 37):
            pieces.extend(_interval_points(r, lo, min(lo + 36, 200)))
        assert sorted(pieces) == whole


def test_sector_tiles_by_units():
    # every nonzero element is unit * sector element, uniquely
    for d in K:
        r = ring(d)
        bound = 14
        total = 0
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                z = r.element(a, b)
                if not z.is_zero and z.norm() <= 100:
                    total += 1
        sector = _interval_points(r, 1, 100)
        assert total == r.unit_count * len(sector), d


def test_iter_sector_elements_frozen_prefix():
    r = ring(-1)
    seq = list(iter_sector_elements(r, 1, 25))
    norms = [n for n, _ in seq]
    assert norms[:10] == [1, 2, 4, 5, 5, 8, 9, 10, 10, 13]
    assert seq[0][1] == r.element(1)
    assert seq[1][1] == r.element(1, 1)
    coords = [(z.a, z.b) for _, z in seq if z.norm() == 25]
    assert coords == [(3, 4), (4, 3), (5, 0)]


def test_iter_sector_elements_chunk_invariance(monkeypatch):
    r = ring(-7)
    big = [(n, z.a, z.b) for n, z in iter_sector_elements(r, 1, 500)]
    monkeypatch.setattr(search, "_WINDOW", 17)
    small = [(n, z.a, z.b) for n, z in iter_sector_elements(r, 1, 500)]
    assert big == small


def test_search_config_validation():
    r = ring(-1)
    with pytest.raises(DomainError):
        SearchConfig(r, 0, Fraction(2), 100)
    with pytest.raises(DomainError):
        SearchConfig(r, 1, Fraction(1), 100)
    with pytest.raises(DomainError):
        SearchConfig(r, 1, Fraction(1, 2), 100)
    with pytest.raises(DomainError):
        SearchConfig(r, 1, Fraction(2), 1)
    with pytest.raises(DomainError):
        SearchConfig(r, 1, Fraction(2), 100, mode="both")
    with pytest.raises(DomainError):
        SearchConfig(r, 1, Fraction(2), 100, jobs=0)
    with pytest.raises(DomainError):
        SearchConfig(r, 1, Fraction(2), 100, mode="signatures", verbose=True)
    # no norm above 2^64 can be factored, so no search may ask for one; the
    # bound itself is accepted (the configuration is only built, not run)
    for mode in ("elements", "signatures"):
        assert SearchConfig(r, 2, Fraction(2), NORM_CEILING, mode=mode).max_norm == NORM_CEILING
        with pytest.raises(DomainError, match="at most 2\\^64"):
            SearchConfig(r, 2, Fraction(2), NORM_CEILING + 1, mode=mode)
    cfg = SearchConfig(r, 1, 2, 100)
    assert cfg.t == Fraction(2)


def test_search_config_survives_a_pickle_round_trip():
    # the process pool ships the config to its workers
    cfg = SearchConfig(ring(-163), 2, 3, 70000, jobs=2, checkpoint_path="cp.jsonl")
    back = pickle.loads(pickle.dumps(cfg))
    fields = ("ring", "n", "t", "max_norm", "mode", "jobs", "checkpoint_path", "verbose")
    assert [getattr(back, f) for f in fields] == [ring(-163), 2, Fraction(3), 70000, "elements", 2, "cp.jsonl", False]


def test_elements_search_finds_known_hits():
    r = ring(-1)
    cfg = SearchConfig(r, 2, Fraction(2), 2000)
    records = run_search(cfg)
    assert all(rec.is_hit for rec in records)
    got = [(rec.z.a, rec.z.b, rec.norm) for rec in records]
    assert got == [(3, 9, 90), (9, 3, 90), (30, 0, 900)]
    for rec in records:
        assert i_star(rec.z, 2) == 2


def test_signatures_mode_matches_elements_mode():
    # every ring, power and target: the last-prime solve finds what the full
    # walk over every element finds
    cases = [(-1, 2, Fraction(2), 2000), (-3, 1, Fraction(2), 4000)]
    targets = (Fraction(2), Fraction(3), Fraction(5, 2))
    cases += [(d, n, t, 3000) for d in K for n in (1, 2, 3, 4) for t in targets]
    for d, n, t, bound in cases:
        r = ring(d)
        el = search_rows(SearchConfig(r, n, t, bound, mode="elements"))[0]
        sg = search_rows(SearchConfig(r, n, t, bound, mode="signatures"))[0]
        assert el == sg, (d, n, t)


def test_elements_mode_factors_only_its_hits(monkeypatch):
    # the index of a non-hit comes from its norm and content; only the
    # oracle re-verification of a hit factors the element
    from quadunitary import factoring, udf

    calls = []
    real = factoring.factor_element

    def counting(z, *args, **kwargs):
        calls.append((z.a, z.b))
        return real(z, *args, **kwargs)

    for module in (factoring, udf, search):
        if hasattr(module, "factor_element"):
            monkeypatch.setattr(module, "factor_element", counting)
    records = run_search(SearchConfig(ring(-1), 2, Fraction(2), 2000))
    assert sorted(calls) == sorted((rec.z.a, rec.z.b) for rec in records)
    assert len(calls) == 3


def test_null_search_is_empty():
    r = ring(-11)
    assert run_search(SearchConfig(r, 4, Fraction(3), 50_000)) == []


def test_verbose_elements_covers_range():
    r = ring(-2)
    cfg = SearchConfig(r, 1, Fraction(2), 60, verbose=True)
    records = run_search(cfg)
    assert len(records) == len(_interval_points(r, 2, 60))
    for rec in records:
        assert rec.is_hit == (rec.value == 2)


@pytest.mark.parametrize(
    "d, n, t, bound",
    [
        (-1, 2, Fraction(2), 2000),
        (-1, 3, Fraction(2), 1500),
        (-2, 1, Fraction(2), 600),
        (-7, 1, Fraction(5, 2), 1500),
        (-7, 2, Fraction(5, 2), 800),
        (-11, 2, Fraction(2), 1500),
        (-3, 1, Fraction(2), 800),
    ],
)
def test_elements_hits_equal_verbose_hits(d, n, t, bound):
    r = ring(d)
    plain = search_rows(SearchConfig(r, n, t, bound))[0]
    verbose = search_rows(SearchConfig(r, n, t, bound, verbose=True))[0]
    assert plain == [line for line in verbose if line.endswith(',"hit":true}')]
    assert len(verbose) == len(_interval_points(r, 2, bound))
    for z, _, value, hit in list(read_rows(verbose))[::7]:
        assert value == i_star(r.parse(z), n)
        assert hit == (value == t)


def test_worker_lines_are_the_json_of_their_records():
    # every sector element to norm 3000 in every ring at n = 1..4: a worker's
    # line is the compact JSON of the element's {z, norm, istar, hit},
    # irrational multi-radicand istar, a = 0, b = 0, negative a and hits
    # included; read_rows decodes each line back into the element text,
    # norm, exact value and hit
    t = Fraction(2)
    seen = set()
    for d in K:
        r = ring(d)
        points = list(iter_sector_elements(r, 1, 3000))
        for n in range(1, 5):
            lines = search._elements_task(SearchConfig(r, n, t, 3000, verbose=True), [1, 3000])
            assert len(lines) == len(points), (d, n)
            rows = []
            for line, (norm, z) in zip(lines, points):
                value = i_star(z, n)
                hit = value == t
                rows.append((format_element(z), norm, value, hit))
                record = {"z": format_element(z), "norm": norm, "istar": value.to_json_terms(), "hit": hit}
                assert line == json.dumps(record, separators=(",", ":")), (d, n, line)
                seen.update(
                    name for name, present in (
                        ("multi-radicand", len(value.terms) > 2),
                        ("a = 0", z.a == 0),
                        ("b = 0", z.b == 0),
                        ("negative a", z.a < 0),
                        ("hit", hit),
                    ) if present
                )
            assert list(read_rows(lines)) == rows, (d, n)
    assert seen == {"multi-radicand", "a = 0", "b = 0", "negative a", "hit"}


def test_checkpoint_unit_line_is_the_json_of_its_rows(tmp_path):
    path = tmp_path / "cp.jsonl"
    units = [
        ([2, 3000], search._elements_task(SearchConfig(ring(-7), 1, Fraction(5, 2), 3000, verbose=True), [2, 3000])),
        ([3001, 4000], search._elements_task(SearchConfig(ring(-1), 2, Fraction(2), 4000), [3001, 4000])),  # no hits
        ([2, 3000], search._signatures_task(SearchConfig(ring(-1), 2, Fraction(2), 3000, mode="signatures"), [2, 3000])),
    ]
    assert [bool(lines) for _, lines in units] == [True, False, True]
    for key, lines in units:
        search._append(str(path), search._unit_pieces(search._dumps(key), lines))
    written = path.read_text().splitlines()
    assert written == [
        json.dumps({"task": key, "results": [json.loads(line) for line in lines]}, separators=(",", ":"))
        for key, lines in units
    ]


def test_record_streams_a_verbose_unit_in_pieces(tmp_path):
    # the line's bytes, written a piece of rows at a time: no string holds
    # the whole line, so the peak is a small part of the line's size
    lines = search._elements_task(SearchConfig(ring(-1), 2, Fraction(2), 30000, verbose=True), [2, 30000])
    assert len(lines) >= 20_000
    key = "[2,30000]"
    want = '{"task":' + key + ',"results":[' + ",".join(lines) + "]}\n"
    path = tmp_path / "cp.jsonl"
    tracemalloc.start()
    try:
        search._append(str(path), search._unit_pieces(key, lines))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == want
    assert peak < len(want) / 4, peak / len(want)


def test_the_window_walk_leaves_the_factor_cache_alone():
    # the walk meets nearly every norm once, so it factors them uncached;
    # a hit-free search, since the oracle on a hit does use the cache
    factor_int.cache_clear()
    lines, hits = search_rows(SearchConfig(ring(-163), 2, Fraction(3), 20000, verbose=True))
    assert hits == 0 and len(lines) > 1000
    assert factor_int.cache_info().currsize == 0
    assert check_thm_2_4(max_norm=3000).passed
    assert factor_int.cache_info().currsize == 0


@pytest.mark.parametrize("mode, verbose", [("elements", True), ("elements", False), ("signatures", False)])
def test_resumed_rows_are_made_into_the_fresh_lines(tmp_path, monkeypatch, mode, verbose):
    monkeypatch.setattr(search, "_WINDOW", 512)
    path = str(tmp_path / "cp.jsonl")

    def cfg(**kw):
        return SearchConfig(ring(-1), 2, Fraction(2), 3000, mode=mode, verbose=verbose, **kw)

    lines, hits = search_rows(cfg())
    assert hits == sum(json.loads(line)["hit"] for line in lines) > 0
    assert search_rows(cfg(checkpoint_path=path)) == (lines, hits)
    assert search_rows(cfg(checkpoint_path=path)) == (lines, hits)  # every unit resumed


def test_signature_shape_arithmetic():
    # the shape of 30 in d = -1: ramified 2^2, inert 3, split pair 5
    sig = Signature(
        2,
        (
            (2, "ramified", (2,)),
            (3, "inert", (1,)),
            (5, "split", (1, 1)),
        ),
    )
    assert sig.norm() == 900
    assert sig.value() == 2
    wit = sig.witnesses(ring(-1))
    assert wit == [ring(-1).element(30)]


def test_irrational_signature_value_is_refused():
    # |1+i| = sqrt(2) at n = 1: the index 1 + sqrt(2)/2 is not a Fraction
    with pytest.raises(DomainError):
        Signature(1, ((2, "ramified", (1,)),)).value()


@pytest.mark.parametrize("d", [-1, -7, -163])
def test_configs_are_the_parity_admissible_shapes(d):
    # every shape whose index is rational, in (a1, a2) order, each factor
    # from the index kernel; budgets reach 10^4
    for p in small_primes(59):
        kind = prime_kind(d, p)
        w = 2 if kind == "inert" else 1
        for n in range(1, 5):
            ok = [a for a in range(1, 15) if kind == "inert" or a * n % 2 == 0]
            if kind == "split":
                shapes = [(a1, a2) for a1 in ok for a2 in [0] + ok if a2 <= a1]
            else:
                shapes = [(a,) for a in ok]
            for budget in (1, 2, 3, 30, 127, 1000, 2401, 10_000):
                expected = []
                for alphas in shapes:
                    cost = p ** (w * sum(alphas))
                    if cost <= budget:
                        rows = [(p, kind, a) for a in alphas if a]
                        terms, den = _index_numerators(rows, -n)
                        assert list(terms) == [1]
                        expected.append((alphas, cost, Fraction(terms[1], den)))
                got = list(search._configs(p, kind, n, budget))
                assert [(alphas, cost, Fraction(num, den)) for alphas, cost, num, den in got] == expected, (p, n, budget)
                assert all(gcd(num, den) == 1 for _, _, num, den in got), (p, n, budget)


def test_signature_witnesses_split_asymmetry():
    r = ring(-1)
    sig = Signature(2, ((5, "split", (2, 0)),))
    wit = sig.witnesses(r)
    assert [(z.a, z.b) for z in wit] == [(3, 4), (4, 3)]
    sym = Signature(2, ((5, "split", (1, 1)),))
    assert [(z.a, z.b) for z in sym.witnesses(r)] == [(5, 0)]
    # two asymmetric split primes: four witnesses
    two = Signature(2, ((5, "split", (2, 0)), (13, "split", (1, 0))))
    assert len(two.witnesses(r)) == 4


def test_signature_holds_its_triples():
    entries = ((2, "ramified", (2,)), (5, "split", (2, 0)))
    sig = Signature(1, entries)
    assert sig.entries == entries
    assert sig.norm() == 100
    assert sig.value() == Fraction(9, 5)
    assert [format_element(z) for z in sig.witnesses(ring(-1))] == ["6+8*w", "8+6*w"]


def test_multi_target_equals_single_target_union():
    r = ring(-2)
    targets = (Fraction(2), Fraction(3))
    multi = signature_hits_multi(r, 1, targets, 20_000)
    singles = []
    for t in targets:
        singles.extend(
            search_signatures(SearchConfig(r, 1, t, 20_000, mode="signatures"))
        )
    assert sorted(s.entries for s in multi) == sorted(s.entries for s in singles)
    values = {s.value() for s in multi}
    assert values <= set(targets)


@pytest.mark.parametrize("mode, verbose", [("elements", True), ("elements", False), ("signatures", False)])
def test_read_checkpoint_returns_each_units_fresh_lines_and_hits(tmp_path, monkeypatch, mode, verbose):
    monkeypatch.setattr(search, "_WINDOW", 512)
    r, n, t = ring(-1), 2, Fraction(2)
    path = str(tmp_path / "cp.jsonl")
    cfg = SearchConfig(r, n, t, 3000, mode=mode, verbose=verbose, checkpoint_path=path)
    written = {}  # each unit's lines as the fresh run writes them
    pieces = search._unit_pieces

    def spy(key, lines):
        written[key] = lines
        return pieces(key, lines)

    monkeypatch.setattr(search, "_unit_pieces", spy)
    search_rows(cfg)
    monkeypatch.setattr(search, "_unit_pieces", pieces)
    saved, units = search.read_checkpoint(path)
    assert search._config_echo(saved) == search._config_echo(cfg)
    assert [search._dumps(task) for task, _, _ in units] == list(written)
    for task, lines, hits in units:
        # in either mode a unit's hits are the elements of its norm range with index t
        assert lines == written[search._dumps(task)], task
        want = [z for _, z in iter_sector_elements(r, *task) if i_star(z, n) == t]
        assert hits == want and all(type(z) is QInt for z in hits), task
    if mode == "elements":
        assert len(units) == 6 and sum(len(hits) > 0 for _, _, hits in units) > 1
    else:
        assert [task for task, _, _ in units] == [[2, 3000]]
        witnesses = [z for z, _ in witness_hits(r, search_signatures(SearchConfig(r, n, t, 3000, mode=mode)))]
        assert units[0][2] == witnesses != []


def test_witness_hits_refuses_a_witness_whose_index_is_not_its_signatures_value(monkeypatch):
    r = ring(-1)
    sigs = search_signatures(SearchConfig(r, 2, Fraction(2), 1000, mode="signatures"))
    assert witness_hits(r, sigs) != []
    monkeypatch.setattr(search, "i_star", lambda z, n: Fraction(3))
    with pytest.raises(AssertionError, match="witness 3\\+9\\*w disagrees with signature value"):
        witness_hits(r, sigs)


def test_read_checkpoint_refuses_a_file_that_is_not_utf8(tmp_path):
    path = str(tmp_path / "cp.jsonl")
    search_rows(SearchConfig(ring(-1), 2, Fraction(2), 500, checkpoint_path=path))
    Path(path).write_bytes(b"\xff" + Path(path).read_bytes()[1:])
    with pytest.raises(CheckpointError, match="is not a UTF-8 checkpoint"):
        search.read_checkpoint(path)


def test_window_keys_are_read_by_arithmetic(tmp_path):
    # a max-norm 10^10 search has 152,588 windows; its keys are checked by
    # rule, with no list of the windows built: one unit reads in well under 1 MB
    big = 10**10
    header = search._dumps({
        "schema_version": 1, "kind": "quadunitary-checkpoint",
        "config": {"d": -1, "n": 2, "t": "2", "max_norm": big, "mode": "elements",
                   "verbose": False, "interval_size": search._WINDOW},
    })
    rows = search._elements_task(SearchConfig(ring(-1), 2, Fraction(2), big), [2, search._WINDOW + 1])
    path = tmp_path / "cp.jsonl"
    path.write_text(header + '\n{"task":[2,%d],"results":[%s]}\n' % (search._WINDOW + 1, ",".join(rows)))
    tracemalloc.start()
    try:
        cfg, units = search.read_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert cfg.max_norm == big and [(task, lines) for task, lines, _ in units] == [([2, search._WINDOW + 1], rows)]
    assert [format_element(z) for z in units[0][2]] == [json.loads(row)["z"] for row in rows] != []
    last = 2 + (big - 2) // search._WINDOW * search._WINDOW
    for lo, hi, ok in (
        (2 + search._WINDOW, 1 + 2 * search._WINDOW, True),
        (last, big, True),
        (last, last + search._WINDOW - 1, False),  # past max-norm
        (3, 2 + search._WINDOW, False),  # not on the grid of windows
        (2, search._WINDOW, False),  # short of its window's end
        (last + search._WINDOW, big, False),  # past max-norm
    ):
        path.write_text(header + '\n{"task":[%d,%d],"results":[]}\n' % (lo, hi))
        if ok:
            assert search.read_checkpoint(str(path))[1] == [([lo, hi], [], [])]
        else:
            with pytest.raises(CheckpointError, match=re.escape(f"entry at {path}:2: [{lo},{hi}] is repeated or not a task")):
                search.read_checkpoint(str(path))


def test_reading_a_signatures_checkpoint_builds_no_prime_table(tmp_path):
    # the one key [2, max-norm] is checked by arithmetic, and each hit row by
    # the oracle on its element: at max-norm 10^16 a table of the primes to
    # 10^8 would take hundreds of MB
    header = search._dumps({
        "schema_version": 1, "kind": "quadunitary-checkpoint",
        "config": {"d": -1, "n": 2, "t": "2", "max_norm": 10**16, "mode": "signatures",
                   "verbose": False, "interval_size": search._WINDOW},
    })
    rows = [
        '{"z":"3+9*w","norm":90,"istar":{"1":"2"},"hit":true}',
        '{"z":"9+3*w","norm":90,"istar":{"1":"2"},"hit":true}',
    ]
    path = tmp_path / "sig.jsonl"
    path.write_text(header + '\n{"task":[2,%d],"results":[%s]}\n' % (10**16, ",".join(rows)))
    primes.small_primes.cache_clear()
    tracemalloc.start()
    try:
        _, units = search.read_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert [(task, lines) for task, lines, _ in units] == [([2, 10**16], rows)]
    cfg, hits = load_hits(str(path), ring(-1))
    assert cfg.max_norm == 10**16
    assert [(h.z.norm(), h.t) for h in hits] == [(90, 2), (90, 2)]


def test_reading_a_verbose_checkpoint_holds_one_unit_at_a_time(tmp_path, monkeypatch):
    # the rows are kept as read, and each unit's text is dropped once they
    # are taken: the peak is the lines returned (about 1.95 times the
    # file's size here, with 16 units) and one unit; a reader that parses
    # the whole file into row dicts first peaks near 9.6 times
    monkeypatch.setattr(search, "_WINDOW", 4096)
    path = tmp_path / "cp.jsonl"
    search_rows(SearchConfig(ring(-163), 2, Fraction(3), 65536, verbose=True, checkpoint_path=str(path)))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        _, units = search.read_checkpoint(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(units) == 16 and sum(len(lines) for _, lines, _ in units) > 16_000
    assert peak < 2.5 * size, peak / size


def test_jobs_do_not_change_output(monkeypatch):
    r = ring(-1)
    monkeypatch.setattr(search, "_WINDOW", 512)
    base = search_rows(SearchConfig(r, 2, Fraction(2), 4000))[0]
    multi = search_rows(SearchConfig(r, 2, Fraction(2), 4000, jobs=3))[0]
    assert base == multi


def test_checkpoint_written_and_resumed(tmp_path, monkeypatch):
    r = ring(-1)
    path = str(tmp_path / "run.jsonl")
    monkeypatch.setattr(search, "_WINDOW", 1024)

    def cfg():
        return SearchConfig(r, 2, Fraction(2), 4000, checkpoint_path=path)

    first = search_rows(cfg())[0]
    lines = Path(path).read_text().splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "quadunitary-checkpoint"
    assert header["schema_version"] == 1
    assert header["config"]["d"] == -1
    assert header["config"]["t"] == "2"
    assert len(lines) == 1 + 4  # four intervals of 1024 up to 4000

    # drop the last two task lines and resume: same records, file made whole
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:3]) + "\n")
    second = search_rows(cfg())[0]
    assert second == first
    assert len(Path(path).read_text().splitlines()) == 5

    # a completed checkpoint replays without recomputation
    third = search_rows(cfg())[0]
    assert third == first


def test_checkpoint_rejects_other_config(tmp_path, monkeypatch):
    r = ring(-1)
    path = str(tmp_path / "run.jsonl")
    run_search(SearchConfig(r, 2, Fraction(2), 2000, checkpoint_path=path))
    with pytest.raises(CheckpointError):
        run_search(SearchConfig(r, 2, Fraction(3), 2000, checkpoint_path=path))
    with pytest.raises(CheckpointError):
        run_search(SearchConfig(r, 1, Fraction(2), 2000, checkpoint_path=path))
    with pytest.raises(CheckpointError):
        run_search(SearchConfig(ring(-2), 2, Fraction(2), 2000, checkpoint_path=path))
    # units cut with another window
    monkeypatch.setattr(search, "_WINDOW", 512)
    with pytest.raises(CheckpointError):
        run_search(SearchConfig(r, 2, Fraction(2), 2000, checkpoint_path=path))


def test_checkpoint_rejects_corruption(tmp_path):
    r = ring(-1)
    path = str(tmp_path / "run.jsonl")
    run_search(SearchConfig(r, 2, Fraction(2), 2000, checkpoint_path=path))
    good = Path(path).read_text()

    with open(path, "w") as fh:
        fh.write(good + "{broken\n")
    with pytest.raises(CheckpointError):
        run_search(SearchConfig(r, 2, Fraction(2), 2000, checkpoint_path=path))

    with open(path, "w") as fh:
        fh.write('{"kind":"something-else"}\n')
    with pytest.raises(CheckpointError):
        run_search(SearchConfig(r, 2, Fraction(2), 2000, checkpoint_path=path))

    with open(path, "w") as fh:
        fh.write('{"kind":"quadunitary-checkpoint","schema_version":99,"config":{}}\n')
    with pytest.raises(CheckpointError):
        run_search(SearchConfig(r, 2, Fraction(2), 2000, checkpoint_path=path))


@pytest.mark.parametrize("crash_at", [1, 2])
def test_checkpoint_keeps_units_finished_before_a_crash(tmp_path, monkeypatch, crash_at):
    r = ring(-1)
    path = str(tmp_path / "run.jsonl")

    monkeypatch.setattr(search, "_WINDOW", 512)

    def cfg(**kwargs):
        return SearchConfig(r, 2, Fraction(2), 2000, jobs=1, **kwargs)

    real_task = search._elements_task
    calls = []

    def crashing_task(config, key):
        calls.append(key)
        if len(calls) == crash_at:
            raise RuntimeError("simulated crash")
        return real_task(config, key)

    monkeypatch.setattr(search, "_elements_task", crashing_task)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_search(cfg(checkpoint_path=path))
    monkeypatch.setattr(search, "_elements_task", real_task)
    lines = Path(path).read_text().splitlines()
    assert len(lines) == crash_at  # the header plus every unit finished before the crash
    assert json.loads(lines[0])["kind"] == "quadunitary-checkpoint"
    assert [json.loads(ln)["task"] for ln in lines[1:]] == [[2, 513]][: crash_at - 1]

    resumed = search_rows(cfg(checkpoint_path=path))[0]
    assert resumed == search_rows(cfg())[0]
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 1 + 4  # one header, four units of 512 norms
    again = search_rows(cfg(checkpoint_path=path))[0]
    assert again == resumed


@pytest.mark.parametrize("cut", ["last-unit", "header"])
def test_checkpoint_resumes_past_a_torn_last_line(tmp_path, monkeypatch, cut):
    r = ring(-1)
    path = tmp_path / "run.jsonl"
    monkeypatch.setattr(search, "_WINDOW", 512)

    def cfg(**kwargs):
        return SearchConfig(r, 2, Fraction(2), 2000, verbose=True, **kwargs)

    whole = search_rows(cfg(checkpoint_path=str(path)))[0]
    good = path.read_bytes()
    lines = good.splitlines(keepends=True)
    if cut == "last-unit":
        torn = b"".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
    else:
        torn = lines[0][: len(lines[0]) // 2]
    path.write_bytes(torn)
    resumed = search_rows(cfg(checkpoint_path=str(path)))[0]
    assert resumed == whole
    assert path.read_bytes() == good


def test_torn_line_of_another_file_is_kept(tmp_path):
    r = ring(-1)
    path = tmp_path / "notes.txt"
    for text in (b"some notes", b'{"kind":"other"}\nmore'):
        path.write_bytes(text)
        with pytest.raises(CheckpointError):
            run_search(SearchConfig(r, 2, Fraction(2), 2000, checkpoint_path=str(path)))
        assert path.read_bytes() == text


def test_checkpoint_path_that_cannot_be_used_is_refused(tmp_path):
    with pytest.raises(CheckpointError):
        search.read_checkpoint(str(tmp_path))
    for path in (tmp_path, tmp_path / "missing-dir" / "run.jsonl"):
        with pytest.raises(CheckpointError):
            run_search(SearchConfig(ring(-1), 2, Fraction(2), 2000, checkpoint_path=str(path)))


def test_checkpoint_resumes_after_the_process_is_killed(tmp_path, monkeypatch):
    path = tmp_path / "killed.jsonl"
    whole_path = tmp_path / "whole.jsonl"
    monkeypatch.setattr(search, "_WINDOW", 512)

    def cfg(**kwargs):
        return SearchConfig(ring(-1), 2, Fraction(2), 20_000, jobs=1, **kwargs)

    child = (
        "from fractions import Fraction\n"
        "from quadunitary import search\n"
        "from quadunitary.rings import ring\n"
        "from quadunitary.search import SearchConfig, run_search\n"
        "search._WINDOW = 512\n"
        "run_search(SearchConfig(ring(-1), 2, Fraction(2), 20_000, jobs=1,"
        f" checkpoint_path={str(path)!r}))\n"
    )
    proc = subprocess.Popen([sys.executable, "-c", child])
    try:
        deadline = time.monotonic() + 60
        # the header plus at least two finished units
        while not (path.exists() and path.read_bytes().count(b"\n") >= 3):
            assert proc.poll() is None, "the search finished before it could be killed"
            assert time.monotonic() < deadline, "no checkpoint units within 60 s"
            time.sleep(0.005)
        proc.send_signal(signal.SIGKILL)
        assert proc.wait(timeout=30) == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    # killed before the last unit was written
    assert path.read_bytes().count(b"\n") < 1 + len(range(2, 20_001, 512))

    resumed = search_rows(cfg(checkpoint_path=str(path)))[0]
    whole = search_rows(cfg(checkpoint_path=str(whole_path)))[0]
    assert resumed == whole
    assert path.read_bytes() == whole_path.read_bytes()


def test_checkpoint_resume_with_jobs(tmp_path, monkeypatch):
    r = ring(-3)
    path = str(tmp_path / "run.jsonl")
    monkeypatch.setattr(search, "_WINDOW", 1024)
    base = search_rows(SearchConfig(r, 1, Fraction(2), 9000))[0]
    partial = SearchConfig(r, 1, Fraction(2), 9000, checkpoint_path=path)
    run_search(partial)
    lines = Path(path).read_text().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:4]) + "\n")
    resumed = search_rows(
        SearchConfig(r, 1, Fraction(2), 9000, checkpoint_path=path, jobs=2)
    )[0]
    assert resumed == base


def test_signature_search_rejects_bad_targets():
    with pytest.raises(DomainError):
        signature_hits_multi(ring(-1), 1, (Fraction(1),), 1000)
    with pytest.raises(DomainError):
        signature_hits_multi(ring(-1), 1, (), 1000)


def _best_extension(d, n, budget_cap):
    """Exact best factor product over every feasible extension, by brute force.

    best(i, B): the largest product of shape factors over sets of distinct
    primes from all_primes[i] on whose norm costs multiply to at most B.
    Shapes come from the definitions: an inert p has exponent a >= 1, norm
    p^(2a) and factor 1 + p^(-a*n); a ramified p has a >= 1 with a*n even,
    norm p^a and factor 1 + p^(-a*n/2); a split p has (a1, a2), each 0 or
    with a*n even, not both 0, norm p^(a1 + a2) and one such factor per
    nonzero a.
    """
    all_primes = primes_up_to(budget_cap)

    @lru_cache(maxsize=None)
    def shapes(p):
        # (norm, factor) of every shape at p with norm <= budget_cap
        kind = prime_kind(d, p)
        fits = lambda e: p**e <= budget_cap
        if kind == "inert":
            inert = [a for a in range(1, 14) if fits(2 * a)]
            return [(p ** (2 * a), 1 + Fraction(1, p ** (a * n))) for a in inert]
        ok = [a for a in range(1, 14) if a * n % 2 == 0 and fits(a)]
        f = {a: 1 + Fraction(1, p ** (a * n // 2)) for a in ok}
        f[0] = Fraction(1)
        if kind == "ramified":
            return [(p**a, f[a]) for a in ok]
        pairs = [(a1, a2) for a1 in [0] + ok for a2 in [0] + ok if (a1 or a2) and fits(a1 + a2)]
        return [(p ** (a1 + a2), f[a1] * f[a2]) for a1, a2 in pairs]

    @lru_cache(maxsize=None)
    def best(i, budget):
        if i < len(all_primes) and all_primes[i] ** 2 <= budget:
            top = best(i + 1, budget)
            for cost, f in shapes(all_primes[i]):
                if cost <= budget:
                    top = max(top, f * best(i + 1, budget // cost))
            return top
        # no two primes from here fit: try each one alone
        alone = [f for p in all_primes[i:] if p <= budget for c, f in shapes(p) if c <= budget]
        return max(alone, default=Fraction(1))

    return best


def test_extension_bound_is_certified():
    # the bound times an upward-rounded value is at or above the exact best
    # product over every extension that fits the budget, table primes or not
    rng = random.Random(7)
    up = lambda x: nextafter(x, inf)
    cap = 5000
    all_primes = primes_up_to(cap) + [cap + 1]
    for d in K:
        for n in (1, 2, 3, 4):
            best = _best_extension(d, n, cap)
            for _ in range(80):
                budget = rng.randint(2, cap)
                max_norm = rng.randint(budget, cap)
                limit = isqrt(max_norm)
                table = small_primes(limit)
                costs, env = _envelope_cached(n, limit)
                j = rng.randrange(len(costs))
                lowest = table[j] if j < len(table) else limit + 1
                i = next(k for k, p in enumerate(all_primes) if p >= lowest)
                bound = _extension_bound(costs, env, j, budget)
                exact = best(i, budget)
                assert Fraction(bound) >= exact, (d, n, j, budget, max_norm)
                v = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) + 1
                assert Fraction(up(up(float(v)) * bound)) >= v * exact


def test_envelope_and_bound_round_up():
    # each envelope slot and each product in the bound is at or above its exact value
    rng = random.Random(11)
    for n in (1, 2, 3, 4):
        k = n // 2 if n % 2 == 0 else n
        for limit in (10, 100, 1000):
            costs, env = _envelope_cached(n, limit)
            for i, p in enumerate((*small_primes(limit), limit + 1)):
                assert Fraction(env[i]) >= Fraction((p**k + 1) ** 2, p ** (2 * k)), (n, p)
            for _ in range(200):
                j, budget = rng.randrange(len(costs)), rng.randint(2, limit * limit)
                exact, cheap, i = Fraction(1), costs[j], j
                while i < len(costs) and cheap <= budget:
                    exact *= Fraction(env[i])
                    i += 1
                    cheap *= costs[i] if i < len(costs) else budget + 1
                assert Fraction(_extension_bound(costs, env, j, budget)) >= exact


def test_extension_bound_counts_one_prime_above_the_table():
    # with budget 2000 and a table up to 44, one split prime above 44 still fits
    costs, env = _envelope_cached(2, 44)
    assert _extension_bound(costs, env, len(costs) - 1, 2000) >= env[-1] > 1
    assert _extension_bound(costs, env, len(costs) - 1, 44) == 1.0
    # for odd n no prime above the table fits any budget up to 44^2 + 88
    costs, env = _envelope_cached(1, 44)
    assert _extension_bound(costs, env, len(costs) - 1, 45**2 - 1) == 1.0


def test_exact_root():
    p = 1_000_000_007
    for k in range(1, 7):
        assert _exact_root(p**k, k) == p
        if k > 1:
            assert _exact_root(p**k + 1, k) is None
            assert _exact_root(p**k - 1, k) is None
            assert _exact_root((p - 1) ** k, k) == p - 1
    assert _exact_root(2**106, 2) == 2**53
    assert _exact_root(2**106 + 2**54 + 1, 2) == 2**53 + 1
    assert _exact_root(1, 3) == 1
    assert _exact_root(7, 1) == 7


def test_last_prime_solve_at_the_root():
    # t = 14/13 is (q + 1)/q with q = 13 > isqrt(100): one split prime above the table
    r = ring(-1)
    cfg = lambda mode: SearchConfig(r, 2, Fraction(14, 13), 100, mode=mode)
    sg = run_search(cfg("signatures"))
    assert sorted((rec.z.a, rec.z.b, rec.norm) for rec in sg) == [(2, 3, 13), (3, 2, 13)]
    assert search_rows(cfg("signatures"))[0] == search_rows(cfg("elements"))[0]
    hits = search_signatures(cfg("signatures"))
    assert [s.entries for s in hits] == [((13, "split", (1, 0)),)]


def test_last_prime_solve_ramified():
    # 3 splits and 11 ramifies in d = -11: (4/3) * (12/11) = 16/11, and at the
    # node after 3 (budget 300 // 3 = 100 < 11^2) the 11 comes from the solve
    r = ring(-11)
    cfg = lambda mode: SearchConfig(r, 2, Fraction(16, 11), 300, mode=mode)
    hits = search_signatures(cfg("signatures"))
    assert [s.entries for s in hits] == [((3, "split", (1, 0)), (11, "ramified", (1,)))]
    sg = search_rows(cfg("signatures"))[0]
    assert len(sg) == 2
    assert sg == search_rows(cfg("elements"))[0]


# the targets of the signature grid that hit lists are compared on
_GRID_TARGETS = tuple(Fraction(t) for t in "2 3 4 5 6 5/2 7/2 14/13 6/5 3/2 4/3 9/8".split())


@pytest.mark.parametrize("d", sorted(K))
def test_dfs_hits_have_a_target_value(d, monkeypatch):
    # the whole tree (first primes from slot 0, the root solve included): each
    # hit's value, from the index kernel, is one of the targets
    found = 0
    for n in range(1, 5):
        hits = search._dfs_signatures(partial(prime_kind, d), n, _GRID_TARGETS, 10**5)
        found += len(hits)
        for entries in hits:
            sig = Signature(n, entries)
            assert sig.value() in _GRID_TARGETS and sig.norm() <= 10**5, (d, n, entries)
    assert found, d
    # the pruned walk of each target alone lists what the walk that prunes
    # nothing lists, in its order; with all twelve targets the guard is the
    # smallest, 14/13, which prunes too little to show a fault in the bound
    def walks():
        return [
            search._dfs_signatures(partial(prime_kind, d), n, (t,), max_norm)
            for max_norm in (10**3, 10**4, 10**5)
            for n in range(1, 5)
            for t in _GRID_TARGETS
        ]

    pruned = walks()
    monkeypatch.setattr(search, "_extension_bound", lambda *args: inf)
    assert walks() == pruned


def test_dfs_reports_a_hit_at_the_largest_target():
    # 30 in d = -1 at n = 2: (5/4) * (10/9) * (6/5)^2 = 2, reached by the walk
    # (a split pair (1, 1) is never solved for), so a value equal to the
    # largest target must pass the comparison that prunes values above it
    thirty = ((2, "ramified", (2,)), (3, "inert", (1,)), (5, "split", (1, 1)))
    for targets in ((Fraction(2),), (Fraction(3, 2), Fraction(2))):
        assert thirty in search._dfs_signatures(partial(prime_kind, -1), 2, targets, 900), targets


def test_signatures_mode_sieves_only_to_the_root(monkeypatch):
    # the DFS table and every sieve it runs stop at isqrt(max_norm)
    asked, sieved = [], []
    real_small, real_sieve = search.small_primes, primes.primes_up_to

    def small(limit=10_000):
        asked.append(limit)
        return real_small(limit)

    def sieve(limit):
        sieved.append(limit)
        return real_sieve(limit)

    monkeypatch.setattr(search, "small_primes", small)
    monkeypatch.setattr(primes, "primes_up_to", sieve)
    primes.small_primes.cache_clear()
    search._envelope_cached.cache_clear()
    for n in (1, 2):
        signature_hits_multi(ring(-7), n, (Fraction(2), Fraction(3)), 10**6)
    assert asked and max(asked) == 1000
    assert sieved and max(sieved) == 1000


def test_signatures_mode_at_ten_to_the_ten():
    records = run_search(SearchConfig(ring(-1), 2, Fraction(2), 10**10, mode="signatures"))
    assert [format_element(rec.z) for rec in records] == ["3+9*w", "9+3*w", "30"]


def _signature_cfg(**kwargs):
    return SearchConfig(ring(-1), 2, Fraction(2), 2000, mode="signatures", **kwargs)


def test_signatures_checkpoint_keeps_units_finished_before_a_crash(tmp_path, monkeypatch):
    # a crash in the search's one unit leaves the header only
    path = str(tmp_path / "run.jsonl")

    def crashing_task(config, key):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(search, "_signatures_task", crashing_task)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_search(_signature_cfg(checkpoint_path=path))
    monkeypatch.undo()
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 1

    resumed = search_rows(_signature_cfg(checkpoint_path=path))[0]
    assert resumed == search_rows(_signature_cfg())[0]
    lines = Path(path).read_text().splitlines()
    assert [json.loads(ln)["task"] for ln in lines[1:]] == [[2, 2000]]
    again = search_rows(_signature_cfg(checkpoint_path=path))[0]
    assert again == resumed


def test_signatures_checkpoint_resume_with_jobs(tmp_path):
    path = str(tmp_path / "run.jsonl")

    def cfg(**kwargs):
        return SearchConfig(ring(-1), 2, Fraction(14, 13), 100, mode="signatures", **kwargs)

    base = search_rows(cfg())[0]
    assert len(base) == 2
    run_search(cfg(checkpoint_path=path))
    lines = Path(path).read_text().splitlines()
    assert len(lines) == 2
    for keep in (lines[:1], lines):  # the header only, and the whole file
        with open(path, "w") as fh:
            fh.write("\n".join(keep) + "\n")
        resumed = search_rows(cfg(checkpoint_path=path, jobs=2))[0]
        assert resumed == base
        assert Path(path).read_text().splitlines() == lines


def test_no_pool_for_work_that_cannot_be_split(monkeypatch):
    # a signature search is one unit, at 1e6 as at any max-norm
    def cfg(**kwargs):
        return SearchConfig(ring(-1), 2, Fraction(2), 10**6, mode="signatures", **kwargs)

    base = search_rows(cfg())[0]
    assert len(base) > 2

    def no_fork(jobs):
        raise AssertionError("forked a pool")

    monkeypatch.setattr(search, "_fork_pool", no_fork)
    assert search_rows(cfg(jobs=2))[0] == base
    # two element units still go to a pool
    monkeypatch.setattr(search, "_WINDOW", 500)
    with pytest.raises(AssertionError, match="forked a pool"):
        run_search(SearchConfig(ring(-1), 2, Fraction(2), 1000, jobs=2))


def test_the_pool_has_one_worker_per_pending_unit_at_most(monkeypatch):
    # max-norm 70,000 is two windows, so a pool asked for 64 jobs has two
    # workers; the recorder returns no pool, so the units run in process
    def cfg(**kwargs):
        return SearchConfig(ring(-1), 2, Fraction(2), 70_000, **kwargs)

    base = search_rows(cfg())
    sizes = []

    def recorder(jobs):
        sizes.append(jobs)
        return nullcontext()

    monkeypatch.setattr(search, "_fork_pool", recorder)
    assert search_rows(cfg(jobs=64)) == base
    assert sizes == [2]


def test_signatures_checkpoint_with_table_slot_units_is_refused(tmp_path, capsys):
    # the units of a signature search as written before its unit became the
    # norm range [2, max-norm] of its hit rows: split at the root into table
    # slots (the [0, 3] unit alone, and with the ["above", 44] solve unit),
    # and the one ["dfs"] unit of signature records; each is refused and left
    # as it is
    path = tmp_path / "run.jsonl"
    header = (
        '{"schema_version":1,"kind":"quadunitary-checkpoint","config":{"d":-1,"n":2,"t":"2",'
        '"max_norm":2000,"mode":"signatures","verbose":false,"interval_size":65536}}\n'
    )
    records = (
        '[{"entries":[[2,"ramified",[1]],[3,"inert",[1]],'
        '[5,"split",[1,0]]],"norm":90,"value":"2"},{"entries":[[2,"ramified",[2]],'
        '[3,"inert",[1]],[5,"split",[1,1]]],"norm":900,"value":"2"}]'
    )
    slots = '{"task":[0,3],"results":%s}\n' % records
    search_args = (
        "search", "--ring", "-1", "--power", "2", "--target", "2", "--max-norm", "2000",
        "--mode", "signatures", "--checkpoint", str(path),
    )
    verify_args = ("verify", "thm2.2", "--ring", "-1", "--hits", str(path))
    for text in (
        header + slots,
        header + slots + '{"task":["above",44],"results":[]}\n',
        header + '{"task":["dfs"],"results":%s}\n' % records,
    ):
        path.write_text(text)
        for argv in (search_args, verify_args):
            assert main(list(argv)) == 2, argv[0]
            out, err = capsys.readouterr()
            assert out == "", argv[0]
            assert err == f"error: corrupt checkpoint entry at {path}:2: the line is not a unit as the search writes it\n"
            assert path.read_text() == text, argv[0]
