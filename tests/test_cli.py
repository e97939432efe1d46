"""Command-line contract: output schemas, exit codes, determinism."""

import csv
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from quadunitary import search
from quadunitary.cli import main
from quadunitary.radicals import RadicalValue
from quadunitary.rings import ring
from quadunitary.search import SearchConfig, _elements_task


def compact(doc) -> str:
    """JSON text with the separators the checkpoint writer uses, which a unit must have."""
    return json.dumps(doc, separators=(",", ":"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def timed_run_cli(capsys, *argv):
    """run_cli for a command that must answer well within a second, such as a refused checkpoint."""
    start = time.perf_counter()
    result = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1, argv
    return result


# an integer of 5,000 digits, past the 4,300 that Python converts from text
HUGE = "9" * 5000


def test_istar_json_golden(capsys):
    code, out, _ = run_cli(
        capsys, "istar", "--ring", "-1", "--element", "30", "--power", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "schema_version": 1,
        "ring": -1,
        "element": "30",
        "power": 2,
        "istar": {"1": "2"},
        "rational": True,
        "approx": 2.0,
    }


def test_istar_text(capsys):
    code, out, _ = run_cli(
        capsys, "istar", "--ring", "-1", "--element", "30", "--power", "2"
    )
    assert code == 0
    assert out.strip() == "i_star(30, 2) = 2"


def test_delta_irrational_value(capsys):
    code, out, _ = run_cli(
        capsys, "delta", "--ring", "-1", "--element", "1+1*w", "--power", "1",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == {"1": "1", "2": "1"}
    assert doc["rational"] is False
    assert abs(doc["approx"] - 2.41421356) < 1e-6


def test_classify_split(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--ring", "-1", "--prime", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "split"
    assert doc["pi"] == "2+1*w"
    assert doc["pi_bar"] == "1+2*w"
    code, out, _ = run_cli(capsys, "classify", "--ring", "-1", "--prime", "3")
    assert code == 0
    assert "inert" in out


def test_factor_text_rendering(capsys):
    code, out, _ = run_cli(capsys, "factor", "--ring", "-1", "--element", "30")
    assert code == 0
    assert out.strip() == "30 = -1 * (1+1*w)^2 * (1+2*w) * (2+1*w) * 3"


def test_factor_json(capsys):
    code, out, _ = run_cli(
        capsys, "factor", "--ring", "-1", "--element", "3+4*w", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["norm"] == 25
    assert doc["unit"] == "1"
    assert doc["factors"] == [
        {"prime": "2+1*w", "exponent": 2, "p": 5, "kind": "split", "norm": 5}
    ]


def test_divisors_csv(capsys):
    code, out, _ = run_cli(
        capsys, "divisors", "--ring", "-1", "--element", "30", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "z,norm"
    assert len(lines) == 17
    assert lines[1] == "1,1"
    assert lines[-1] == "30,900"


def test_search_json_stream(capsys):
    code, out, err = run_cli(
        capsys, "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "1000", "--format", "json",
    )
    assert code == 0
    lines = out.splitlines()
    header = json.loads(lines[0])
    assert header["kind"] == "search"
    assert header["schema_version"] == 1
    assert header["hits"] == 3
    assert header["config"]["d"] == -1
    assert header["config"]["t"] == "2"
    records = [json.loads(ln) for ln in lines[1:]]
    assert [(rec["z"], rec["norm"]) for rec in records] == [
        ("3+9*w", 90),
        ("9+3*w", 90),
        ("30", 900),
    ]
    assert all(rec["hit"] for rec in records)
    assert "search d=-1" in err


def test_search_quiet_and_text(capsys):
    code, out, err = run_cli(
        capsys, "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "100", "--quiet", "--format", "json",
    )
    assert code == 0
    assert err == ""
    assert json.loads(out.splitlines()[0])["hits"] == 2
    code, out, _ = run_cli(
        capsys, "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "100",
    )
    assert code == 0
    assert out.strip().endswith("2 hits")


def test_search_modes_agree_byte_for_byte(capsys):
    args = (
        "search", "--ring", "-3", "--power", "1", "--target", "2",
        "--max-norm", "4000", "--quiet", "--format", "json",
    )
    _, out_elements, _ = run_cli(capsys, *args)
    _, out_signatures, _ = run_cli(capsys, *args, "--mode", "signatures")
    body = lambda text: text.splitlines()[1:]
    assert body(out_elements) == body(out_signatures)
    _, again, _ = run_cli(capsys, *args)
    assert again == out_elements


def test_search_checkpoint_flow(tmp_path, capsys):
    path = str(tmp_path / "cp.jsonl")
    args = (
        "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "2000", "--quiet", "--format", "json", "--checkpoint", path,
    )
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)  # replay from a complete checkpoint
    assert first == second
    with open(path, "a") as fh:
        fh.write("not json\n")
    code, _, err = run_cli(capsys, *args)
    assert code == 2
    assert "error:" in err


# corruptions of a checkpoint unit's first row; each must be refused, in either search mode
_ROW_CORRUPTIONS = {
    "missing key": lambda rec: rec.pop("norm"),
    "extra key": lambda rec: rec.update(extra=1),
    "bad coefficient": lambda rec: rec.update(istar={"1": "x"}),
    "non-integer radicand": lambda rec: rec.update(istar={"2.5": "3/2"}),
    "non-boolean hit": lambda rec: rec.update(hit=0),
    "non-canonical z": lambda rec: rec.update(z="1 + 1*w"),
    "norm that disagrees with z": lambda rec: rec.update(norm=3),
    "hit with an irrational istar": lambda rec: rec.update(hit=True, istar={"2": "1"}),
    "coefficient not in lowest terms": lambda rec: rec.update(istar={"1": "4/2"}),
    "coefficient over 1": lambda rec: rec.update(istar={"1": "3/1"}),
    "coefficient with a leading zero": lambda rec: rec.update(istar={"1": "03/2"}),
    "zero coefficient": lambda rec: rec.update(istar={"1": "3/2", "2": "0"}),
    "radicands out of order": lambda rec: rec.update(istar={"3": "1", "1": "3/2"}),
    "zero radicand": lambda rec: rec.update(istar={"0": "3/2"}),
    "negative radicand": lambda rec: rec.update(istar={"-1": "3/2"}),
    "radicand with a leading zero": lambda rec: rec.update(istar={"01": "3/2"}),
    "zero denominator": lambda rec: rec.update(istar={"1": "3/0"}),
    "coefficient with a space": lambda rec: rec.update(istar={"1": " 3/2"}),
    "decimal coefficient": lambda rec: rec.update(istar={"1": "1.5"}),
    "number coefficient": lambda rec: rec.update(istar={"1": 1.5}),
}


def _refuses_each_corrupt_first_row(capsys, path, args, first):
    # the search's checkpoint is a header and one unit whose first row is first
    header, unit = path.read_text().splitlines()
    assert json.loads(unit)["results"][0] == first
    assert compact(json.loads(unit)) == unit  # so each case below differs only by its corruption
    verify = ("verify", "thm2.2", "--ring", "-1", "--hits", str(path))
    for name, corrupt in _ROW_CORRUPTIONS.items():
        entry = json.loads(unit)
        corrupt(entry["results"][0])
        path.write_text(header + "\n" + compact(entry) + "\n")
        for argv in (args, verify):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (name, argv[0])
            assert err.startswith(f"error: corrupt checkpoint record at {path}:2: "), (name, argv[0])


def test_search_corrupt_checkpoint_record_exits_2(tmp_path, capsys):
    path = tmp_path / "cp.jsonl"
    args = (
        "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "500", "--verbose", "--checkpoint", str(path),
    )
    assert run_cli(capsys, *args)[0] == 0
    first = {"z": "1+1*w", "norm": 2, "istar": {"1": "3/2"}, "hit": False}
    _refuses_each_corrupt_first_row(capsys, path, args, first)


def test_corrupt_signature_record_exits_2(tmp_path, capsys):
    # a signature search's one unit holds its hit rows, read as an elements
    # unit is: the same corruptions are refused
    path = tmp_path / "cp.jsonl"
    args = (
        "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "500", "--mode", "signatures", "--quiet", "--checkpoint", str(path),
    )
    assert run_cli(capsys, *args)[0] == 0
    first = {"z": "3+9*w", "norm": 90, "istar": {"1": "2"}, "hit": True}
    _refuses_each_corrupt_first_row(capsys, path, args, first)


def test_irrational_signature_record_exits_2(tmp_path, capsys):
    # 1+1*w at n = 1 has the index 1 + sqrt(2)/2, not 2: a hit row that says
    # 2 is well formed, and the oracle refuses it
    path = tmp_path / "cp.jsonl"
    args = (
        "search", "--ring", "-1", "--power", "1", "--target", "2",
        "--max-norm", "2000", "--mode", "signatures", "--quiet", "--checkpoint", str(path),
    )
    assert run_cli(capsys, *args)[0] == 0
    header, first = path.read_text().splitlines()
    unit = json.loads(first)
    assert unit["task"] == [2, 2000]
    unit["results"] = [{"z": "1+1*w", "norm": 2, "istar": {"1": "2"}, "hit": True}]
    path.write_text(header + "\n" + compact(unit) + "\n")
    verify = ("verify", "thm2.2", "--ring", "-1", "--hits", str(path))
    for argv in (args, verify):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv[0]
        assert err.startswith(f"error: corrupt checkpoint record at {path}:2: hit 1+1*w failed oracle"), argv[0]


def test_resumed_hit_that_fails_the_oracle_exits_2(tmp_path, capsys, monkeypatch):
    # a hit row read back goes through the oracle, in either search mode, for
    # a resumed search and verify --hits alike; with the oracle made to pass
    # it, verify finds the odd norm
    for mode in ("elements", "signatures"):
        path = tmp_path / f"{mode}.jsonl"
        args = (
            "search", "--ring", "-1", "--power", "2", "--target", "2",
            "--max-norm", "1000", "--mode", mode, "--checkpoint", str(path),
        )
        assert run_cli(capsys, *args)[0] == 0
        header, first = path.read_text().splitlines()
        unit = json.loads(first)
        unit["results"][0] = {"z": "3+4*w", "norm": 25, "istar": {"1": "2"}, "hit": True}
        path.write_text(header + "\n" + compact(unit) + "\n")
        verify = ("verify", "thm2.2", "--ring", "-1", "--hits", str(path))
        for argv in (args, verify):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (mode, argv[0])
            assert err.startswith(f"error: corrupt checkpoint record at {path}:2: hit 3+4*w failed oracle"), (mode, argv[0])
        with monkeypatch.context() as patch:
            patch.setattr(search, "_verify_hit", lambda z, n, value: None)
            code, out, _ = run_cli(capsys, *verify)
        assert code == 3, mode
        assert out.startswith("check thm2.2: FAIL"), mode


def test_resumed_records_must_agree_with_the_target(tmp_path, capsys):
    # a checkpointed search has one target: a hit with another value, or a
    # row whose hit flag disagrees with its istar, is corrupt, to a resumed
    # search and to verify --hits alike
    cases = {
        "hit off target": ("elements", {"z": "3+9*w", "norm": 90, "istar": {"1": "3"}, "hit": True}),
        "unflagged hit": ("elements", {"z": "3+9*w", "norm": 90, "istar": {"1": "2"}, "hit": False}),
        "signature search's hit off target": (
            "signatures", {"z": "3+9*w", "norm": 90, "istar": {"1": "3"}, "hit": True}
        ),
    }
    for name, (mode, record) in cases.items():
        path = tmp_path / f"{mode}.jsonl"
        path.unlink(missing_ok=True)
        args = (
            "search", "--ring", "-1", "--power", "2", "--target", "2", "--max-norm", "1000",
            "--mode", mode, "--verbose" if mode == "elements" else "--quiet", "--checkpoint", str(path),
        )
        assert run_cli(capsys, *args)[0] == 0
        header, first = path.read_text().splitlines()[:2]
        unit = json.loads(first)
        unit["results"] = [record]
        path.write_text(header + "\n" + compact(unit) + "\n")
        verify = ("verify", "thm2.2", "--ring", "-1", "--hits", str(path))
        for argv in (args, verify):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (name, argv[0])
            assert err.startswith(f"error: corrupt checkpoint record at {path}:2: "), (name, argv[0])


def test_checkpoint_units_must_be_the_searchs_windows_once(tmp_path, capsys):
    # a unit is one of the search's units, written once, with its rows in
    # strictly increasing (norm, a, b) inside its window [2, 1000]
    stray = json.loads(_elements_task(SearchConfig(ring(-1), 2, Fraction(2), 5200, verbose=True), [5200, 5200])[0])
    assert stray["norm"] == 5200

    def with_row(make):
        def corrupt(lines):
            unit = json.loads(lines[1])
            unit["results"].append(make(unit["results"]))
            return [lines[0], compact(unit)], 2
        return corrupt

    def rekeyed(lines):
        unit = json.loads(lines[1])
        unit["task"] = [5000, 6000]
        return lines + [compact(unit)], 3

    def swapped(lines):
        unit = json.loads(lines[1])
        unit["results"][:2] = unit["results"][1::-1]
        return [lines[0], compact(unit)], 2

    def rows_changed(change):
        def corrupt(lines):
            unit = json.loads(lines[1])
            change(unit["results"])
            return [lines[0], compact(unit)], 2
        return corrupt

    def associate(rows):
        assert rows[0]["z"] == "1+1*w"
        rows[0]["z"] = "-1+1*w"  # the same norm and index, outside the sector

    # a non-verbose unit holds only hits; a verbose unit every sector element of its window
    non_hit = {"z": "1+1*w", "norm": 2, "istar": {"1": "3/2"}, "hit": False}
    repeated = lambda lines: (lines + lines[-1:], len(lines) + 1)
    cases = {
        "row of norm 5200": ("--verbose", with_row(lambda rows: stray)),
        "copy of an earlier row": ("--verbose", with_row(lambda rows: rows[5])),
        "rows out of order": ("--quiet", swapped),
        "unit there twice": ("--quiet", repeated),
        "unit re-keyed [5000, 6000]": ("--quiet", rekeyed),
        "signatures unit there twice": ("signatures", repeated),
        "non-hit row in a non-verbose unit": ("--quiet", rows_changed(lambda rows: rows.insert(0, non_hit))),
        "associate outside the sector": ("--verbose", rows_changed(associate)),
        "verbose unit missing a row": ("--verbose", rows_changed(lambda rows: rows.pop(5))),
        "unit keyed by a lo of 5,000 digits": ("--quiet", lambda lines: (
            [lines[0], lines[1].replace('{"task":[2,', '{"task":[' + HUGE + ",", 1)], 2)),
    }
    for i, (name, (option, corrupt)) in enumerate(cases.items()):
        path = tmp_path / f"cp{i}.jsonl"
        mode = ("--mode", "signatures", "--quiet") if option == "signatures" else (option,)
        args = (
            "search", "--ring", "-1", "--power", "2", "--target", "2",
            "--max-norm", "1000", *mode, "--checkpoint", str(path),
        )
        assert run_cli(capsys, *args)[0] == 0
        fresh = path.read_text().splitlines()
        assert [compact(json.loads(unit)) for unit in fresh[1:]] == fresh[1:]
        lines, line = corrupt(fresh)
        assert lines != fresh, name
        path.write_text("\n".join(lines) + "\n")
        verify = ("verify", "thm2.2", "--ring", "-1", "--hits", str(path))
        for argv in (args, verify):
            code, out, err = timed_run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (name, argv[0])
            assert err.startswith("error: corrupt checkpoint "), (name, argv[0])
            assert f" at {path}:{line}: " in err, (name, argv[0])


def test_elements_unit_must_be_the_writers_text(tmp_path, capsys):
    # an elements-mode unit is read as the text the writer makes, byte for
    # byte: JSON that is equal to it but spaced otherwise is refused, and so
    # are bytes after its "]}"
    path = tmp_path / "cp.jsonl"
    args = (
        "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "1000", "--verbose", "--checkpoint", str(path),
    )
    assert run_cli(capsys, *args)[0] == 0
    header, unit = path.read_text().splitlines()
    cases = {
        "unit spaced as json.dumps spaces it": (json.dumps(json.loads(unit)), "entry"),
        "space after the unit": (unit + " ", "entry"),
        "bytes after the unit": (unit + "x", "entry"),
        "one row spaced": (unit.replace('"norm":2,', '"norm": 2,', 1), "record"),
        "comma after the last row": (unit[:-2] + ",]}", "record"),
        "unit written twice on its line": (unit + unit, "record"),
    }
    verify = ("verify", "thm2.2", "--ring", "-1", "--hits", str(path))
    for name, (text, prefix) in cases.items():
        assert text != unit
        path.write_text(header + "\n" + text + "\n")
        for argv in (args, verify):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (name, argv[0])
            assert err.startswith(f"error: corrupt checkpoint {prefix} at {path}:2: "), (name, argv[0], err)
    assert json.loads(cases["unit spaced as json.dumps spaces it"][0]) == json.loads(unit)
    path.write_text(header + "\n" + unit + "\n")
    assert run_cli(capsys, *args)[0] == 0


def test_signatures_checkpoint_units_must_be_the_searchs_tasks(tmp_path, capsys):
    # a signatures unit is the search's one task, [2, max-norm], written once;
    # its hit rows come in strictly increasing (norm, a, b) with norm <= max-norm
    def rekeyed(lines):
        unit = json.loads(lines[1])
        assert unit["task"] == [2, 70_000]
        unit["task"] = [2, 65_537]  # the first window of an elements search
        return lines[:1] + [compact(unit)], 2

    def with_rows(change):
        def corrupt(lines):
            unit = json.loads(lines[1])
            change(unit["results"])
            return lines[:1] + [compact(unit)] + lines[2:], 2
        return corrupt

    def first_row_text(old, new):
        return lambda lines: (lines[:1] + [lines[1].replace(old, new, 1)] + lines[2:], 2)

    # a hit at d = -7, n = 1, t = 2, but its norm is 8100
    far = {"z": "45+45*w", "norm": 8100, "istar": {"1": "2"}, "hit": True}

    def power_of_10_7(lines):
        # no element of norm <= 2000 reaches 2 at n = 10^7: the hit row is refused before the oracle runs
        return [lines[0].replace('"n":2,', '"n":10000000,', 1)] + lines[1:], 2

    cases = {
        "unit re-keyed as the window [2, 65537]": (-1, 2, 70_000, rekeyed),
        "unit there twice": (-1, 2, 2000, lambda lines: (lines + lines[-1:], 3)),
        "copy of the unit's first row": (-1, 2, 2000, with_rows(lambda rows: rows.append(rows[0]))),
        "two rows swapped": (-1, 2, 2000, with_rows(lambda rows: rows.reverse())),
        "row of norm 8100 > 1000": (-7, 1, 1000, with_rows(lambda rows: rows.append(far))),
        "element of 5,000 digits": (-1, 2, 2000, first_row_text('"z":"3+9*w"', '"z":"' + HUGE + '"')),
        "norm of 5,000 digits": (-1, 2, 2000, first_row_text('"norm":90,', '"norm":' + HUGE + ",")),
        "header n of 10^7": (-1, 2, 2000, power_of_10_7),
    }
    for i, (name, (d, n, max_norm, corrupt)) in enumerate(cases.items()):
        path = tmp_path / f"cp{i}.jsonl"
        args = (
            "search", "--ring", str(d), "--power", str(n), "--target", "2", "--max-norm", str(max_norm),
            "--mode", "signatures", "--quiet", "--checkpoint", str(path),
        )
        assert run_cli(capsys, *args)[0] == 0
        fresh = path.read_text().splitlines()
        assert json.loads(fresh[1])["results"], name
        lines, line = corrupt(fresh)
        assert lines != fresh, name
        path.write_text("\n".join(lines) + "\n")
        verify = ("verify", "thm2.2", "--ring", str(d), "--hits", str(path))
        for argv in (args, verify):
            code, out, err = timed_run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (name, argv[0])
            assert err.startswith("error: corrupt checkpoint "), (name, argv[0])
            assert f" at {path}:{line}: " in err, (name, argv[0])


def test_checkpoint_header_must_be_a_search_config(tmp_path, capsys):
    # the header's config must re-encode to itself: "4/2" is not how a search
    # writes its target, and every search writes its interval size
    path = tmp_path / "cp.jsonl"
    args = (
        "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "1000", "--quiet", "--checkpoint", str(path),
    )
    assert run_cli(capsys, *args)[0] == 0
    header, *units = path.read_text().splitlines()

    def config_changed(change):
        def corrupt(text):
            doc = json.loads(text)
            change(doc["config"])
            return json.dumps(doc)
        return corrupt

    cases = {
        "non-canonical target": config_changed(lambda config: config.update(t="4/2")),
        "missing interval size": config_changed(lambda config: config.pop("interval_size")),
        # past the 4,300 digits Python converts from text: refused at once, with no traceback
        "max_norm of 5,000 digits": lambda text: text.replace('"max_norm":1000,', '"max_norm":' + HUGE + ",", 1),
    }
    verify = ("verify", "thm2.2", "--ring", "-1", "--hits", str(path))
    for name, corrupt in cases.items():
        text = corrupt(header)
        assert text != header, name
        path.write_text("\n".join([text, *units]) + "\n")
        for argv in (args, verify):
            code, out, err = timed_run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (name, argv[0])
            assert err.startswith("error: ") and "Traceback" not in err, (name, argv[0])


def test_a_power_that_puts_the_target_out_of_reach_is_answered_at_once(tmp_path, capsys):
    # no element of norm <= 2000 has the index 2 at n = 10^7: each of its at
    # most 11 prime powers adds a factor below 1 + 2^-5000000.  A search
    # finds no hit with no power taken, and writes its units as before; a
    # checkpoint whose header has that n refuses its hit rows before the oracle
    for mode in ("elements", "signatures"):
        args = ("search", "--ring", "-1", "--target", "2", "--max-norm", "2000", "--mode", mode)
        assert timed_run_cli(capsys, *args, "--power", "10000000") == (0, "0 hits\n", ""), mode
        path = tmp_path / f"{mode}.jsonl"
        code, out, _ = timed_run_cli(capsys, *args, "--power", "10000000", "--checkpoint", str(path))
        assert (code, out) == (0, "0 hits\n"), mode
        assert path.read_text().splitlines()[1:] == ['{"task":[2,2000],"results":[]}'], mode
        path.unlink()
        assert run_cli(capsys, *args, "--power", "2", "--checkpoint", str(path))[0] == 0
        header, unit = path.read_text().splitlines()
        assert '"hit":true' in unit, mode
        path.write_text(header.replace('"n":2,', '"n":10000000,', 1) + "\n" + unit + "\n")
        for argv in (
            (*args, "--power", "10000000", "--checkpoint", str(path)),
            ("verify", "thm2.2", "--ring", "-1", "--hits", str(path)),
        ):
            code, out, err = timed_run_cli(capsys, *argv)
            assert (code, out) == (2, ""), (mode, argv[0])
            assert err.startswith(f"error: corrupt checkpoint record at {path}:2: no element of norm at most 2000"), (mode, argv[0])


_PAST_THE_DIGIT_LIMIT = {
    **{
        f"{command} {fmt}": (command, "--ring", "-1", "--element", "2", "--power", "100000", "--format", fmt)
        for command in ("istar", "delta")
        for fmt in ("json", "csv", "text")
    },
    "sigma-star": ("sigma-star", "--integer", "2", "--power", "100000"),
    "search --verbose": ("search", "--ring", "-1", "--power", "100000", "--target", "2", "--max-norm", "100", "--verbose"),
    "factor of a 5,000-digit element": ("factor", "--ring", "-1", "--element", HUGE),
    "istar of a 5,000-digit element": ("istar", "--ring", "-1", "--element", HUGE, "--power", "2"),
}


@pytest.mark.parametrize("argv", list(_PAST_THE_DIGIT_LIMIT.values()), ids=list(_PAST_THE_DIGIT_LIMIT))
def test_a_number_past_the_digit_limit_exits_2(capsys, argv):
    # a result or an argument of more than the 4,300 digits Python converts
    # between integer and text is refused like any other bad input
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: Exceeds the limit (4300 digits) for integer string conversion")


@pytest.mark.parametrize("power", ["20000000", "-20000000"])
def test_a_result_past_the_digit_limit_is_refused_before_any_power_is_taken(capsys, power):
    # bit lengths alone show a printed number past 4,300 digits: refused at
    # once, where p^(alpha * n) took seconds before the limit refused it
    for argv in (
        ("istar", "--ring", "-1", "--element", "2"),
        ("delta", "--ring", "-7", "--element", "3+1*w"),
        ("sigma-star", "--integer", "6"),
    ):
        code, out, err = timed_run_cli(capsys, *argv, "--power", power)
        assert (code, out) == (2, ""), argv
        assert err == "error: Exceeds the limit (4300 digits) for integer string conversion\n", argv
    # a unit's value is 1 at every power
    assert timed_run_cli(capsys, "sigma-star", "--integer", "1", "--power", power)[:2] == (0, f"sigma_star_{power}(1) = 1\n")
    code, out, _ = timed_run_cli(capsys, "istar", "--ring", "-1", "--element", "1+0*w", "--power", power, "--format", "csv")
    assert (code, out.splitlines()[1]) == (0, f"1,{power},1,1.0")


@pytest.mark.parametrize("command, power", [("istar", "-2000"), ("delta", "2000")])
def test_a_value_past_the_float_range_prints_no_approx(capsys, command, power):
    # 1 + 2^2000 has 603 digits: printed exactly, with no float beside it
    argv = (command, "--ring", "-1", "--element", "2", "--power", power)
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    doc = json.loads(out)
    assert (code, doc[command], doc["approx"]) == (0, {"1": str(2**2000 + 1)}, None)
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert (code, list(csv.reader(io.StringIO(out)))[1]) == (0, ["2", power, str(2**2000 + 1), ""])
    name = "i_star" if command == "istar" else "delta_star"
    assert run_cli(capsys, *argv) == (0, f"{name}(2, {power}) = {2**2000 + 1}\n", "")


def test_a_value_near_the_top_of_the_float_range_prints_a_finite_approx(capsys):
    # 1 + 2^1000 * sqrt(2) is a float, though 2^1000 * 10^12 * sqrt(2) is not
    code, out, _ = run_cli(capsys, "delta", "--ring", "-1", "--element", "1+1*w", "--power", "2001", "--format", "json")
    assert code == 0
    assert json.loads(out)["approx"] == pytest.approx(2**1000 * 2**0.5, rel=1e-12)


def test_max_norm_above_the_factoring_ceiling_exits_2(capsys):
    # refused before any table is built: at 10^26 the signatures table alone
    # would be a sieve to 10^13
    for bound in (2**64 + 1, 10**26):
        for argv in (
            ("search", "--ring", "-1", "--power", "2", "--target", "2", "--mode", "signatures"),
            ("search", "--ring", "-1", "--power", "2", "--target", "2"),
            ("verify", "thm2.2", "--ring", "-1"),
            ("verify", "thm2.3", "--ring", "-1"),
            ("verify", "thm2.5", "--ring", "-1"),
            ("verify", "thm2.4"),
        ):
            code, out, err = run_cli(capsys, *argv, "--max-norm", str(bound))
            assert (code, out) == (2, ""), (argv, bound)
            assert err == f"error: max_norm must be at most 2^64 = {2**64}, the largest norm that can be factored\n"


def test_thm2_6_bound_above_the_root_of_the_factoring_ceiling_exits_2(capsys):
    # an image g(n) has norm n^2, so no bound above 2^32 can be checked; at
    # 10^26 the sieve alone would run to 10^13
    for bound in (2**32 + 1, 10**26):
        code, out, err = run_cli(capsys, "verify", "thm2.6", "--max-norm", str(bound))
        assert (code, out) == (2, ""), bound
        assert err == (
            f"error: bound must be at most 2^32 = {2**32}: an image g(n) has norm n^2, "
            f"at most 2^64 = {2**64}, the largest norm that can be factored\n"
        )


def test_a_norm_above_the_factoring_ceiling_is_refused_in_the_commands_terms(capsys):
    # the refusal names the ceiling, not the library's allow_large
    for argv, norm in (
        (("factor", "--ring", "-1", "--element", str(10**20)), 10**40),
        (("istar", "--ring", "-1", "--element", str(10**20), "--power", "2"), 10**40),
        (("gmap", "--ring", "-1", "--integer", str(10**40)), 10**80),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv[0]
        assert err == f"error: norm {norm} is above 2^64 = {2**64}, the largest norm that can be factored\n", argv[0]


def test_gmap_and_sigma_star_refuse_an_integer_above_the_ceiling_before_factoring(capsys):
    # 2^128 + 1 has two prime factors of 17 and 22 digits, which factor_int
    # does not split in any reasonable time
    m = 2**128 + 1
    for argv, text in (
        (("gmap", "--ring", "-1"), f"norm {m * m} is above"),
        (("sigma-star",), f"{m} is above"),
    ):
        code, out, err = timed_run_cli(capsys, *argv, "--integer", str(m))
        assert (code, out) == (2, ""), argv[0]
        assert err == f"error: {text} 2^64 = {2**64}, the largest norm that can be factored\n", argv[0]
    # an image of norm exactly 2^64 is still computed
    code, out, _ = run_cli(capsys, "gmap", "--ring", "-1", "--integer", str(2**32))
    assert (code, out) == (0, f"g({2**32}) = {2**32}  (norm {2**64}, i_star_1 = {2**32 + 1}/{2**32})\n")


def test_closed_stdout_exits_without_traceback():
    # stdout block-buffered, as in a shell without PYTHONUNBUFFERED
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    # a reader that leaves after one line while the search still writes: its
    # output (about 460 KB) is far more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "quadunitary", "search", "--ring", "-1", "--power", "2",
         "--target", "2", "--max-norm", "20000", "--verbose", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    try:
        assert proc.stdout.readline() == b"z,norm,istar,hit\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
    # a reader gone before the command starts: one short line, which fails
    # only when stdout is flushed
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quadunitary", "sigma-star", "--integer", "6"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=env,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_search_stdout_identical_fresh_and_resumed(tmp_path, capsys):
    # max-norm just above 65,536 gives two units, the second a short one
    base = (
        "search", "--ring", "-163", "--power", "2", "--target", "2",
        "--max-norm", "65600", "--verbose", "--quiet",
    )
    for fmt in ("json", "csv", "text"):
        args = (*base, "--format", fmt)
        code, want, _ = run_cli(capsys, *args)
        assert code == 0 and want.count("\n") > 8000
        path = tmp_path / f"{fmt}.jsonl"
        resume = (*args, "--checkpoint", str(path))
        assert run_cli(capsys, *resume, "--jobs", "2") == (0, want, ""), (fmt, "fresh")
        lines = path.read_text().splitlines(keepends=True)
        assert len(lines) == 3
        assert run_cli(capsys, *resume) == (0, want, ""), (fmt, "complete")
        for jobs in ("1", "2"):
            path.write_text("".join(lines[:2]))
            assert run_cli(capsys, *resume, "--jobs", jobs) == (0, want, ""), (fmt, jobs)
            assert path.read_text() == "".join(lines)


def test_search_csv_and_text_render_the_json_rows(capsys):
    # verbose rows with values of several radicands, which no golden pins:
    # csv and text must be what the rows of --format json render to
    for d in ("-7", "-2"):
        for n in ("1", "3"):
            args = ("search", "--ring", d, "--power", n, "--target", "2", "--max-norm", "2000", "--verbose", "--quiet")
            code, out, _ = run_cli(capsys, *args, "--format", "json")
            assert code == 0
            header, *rows = map(json.loads, out.splitlines())
            assert any(len(row["istar"]) > 2 for row in rows), (d, n)
            values = [str(RadicalValue.from_json_terms(row["istar"])) for row in rows]
            want_csv = io.StringIO()
            writer = csv.writer(want_csv, lineterminator="\n")
            writer.writerow(["z", "norm", "istar", "hit"])
            writer.writerows([row["z"], row["norm"], value, row["hit"]] for row, value in zip(rows, values))
            want_text = "".join(
                f"{'hit ' if row['hit'] else '    '}{row['z']}  norm {row['norm']}  i_star = {value}\n"
                for row, value in zip(rows, values)
            ) + f"{header['hits']} hits\n"
            assert run_cli(capsys, *args, "--format", "csv") == (0, want_csv.getvalue(), ""), (d, n)
            assert run_cli(capsys, *args, "--format", "text") == (0, want_text, ""), (d, n)


def test_checkpoint_write_failure_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cp.jsonl"
    args = ("search", "--ring", "-1", "--power", "2", "--target", "2", "--max-norm", "2000", "--checkpoint", str(path))
    fsync = search.os.fsync
    calls = []

    def failing_fsync(fd):  # the header's line syncs, the first unit's does not
        calls.append(fd)
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        fsync(fd)

    monkeypatch.setattr(search.os, "fsync", failing_fsync)
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write checkpoint {path}: ") and "No space left" in err
    assert "Traceback" not in err
    header = json.loads(path.read_text().splitlines()[0])
    assert header["kind"] == "quadunitary-checkpoint" and header["config"]["max_norm"] == 2000
    monkeypatch.setattr(search.os, "fsync", fsync)
    fresh = run_cli(capsys, *args[:-2])
    assert fresh[0] == 0
    assert run_cli(capsys, *args) == fresh


def test_a_checkpoint_that_cannot_be_appended_to_fails_before_any_unit_runs(tmp_path, capsys, monkeypatch):
    # the file is opened for append before any unit runs, even when it holds
    # every unit; a unit task that ran would be recorded
    path = tmp_path / "cp.jsonl"
    args = ("search", "--ring", "-1", "--power", "2", "--target", "2", "--max-norm", "70000", "--checkpoint", str(path))
    assert run_cli(capsys, *args)[0] == 0
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == 3
    ran = []

    def task(cfg, key):
        ran.append(key)
        return []

    def failing_open(file, mode="r", **kwargs):
        if mode == "a":
            raise OSError(errno.ENOSPC, "No space left on device")
        return open(file, mode, **kwargs)

    monkeypatch.setattr(search, "_elements_task", task)
    monkeypatch.setattr(search, "open", failing_open, raising=False)
    for keep in (lines, lines[:1]):  # every unit, and the header alone
        path.write_text("".join(keep))
        code, out, err = run_cli(capsys, *args)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write checkpoint {path}: ") and "No space left" in err
        assert ran == [] and path.read_text() == "".join(keep)


def test_a_unit_torn_by_a_failed_write_is_dropped_on_resume(tmp_path, capsys, monkeypatch):
    # the one unit has over two pieces of rows; the file's write fails on
    # the second piece, after the unit's head and first piece were written
    path = tmp_path / "cp.jsonl"
    args = ("search", "--ring", "-1", "--power", "2", "--target", "2", "--max-norm", "3000", "--verbose")
    fresh = run_cli(capsys, *args)
    assert fresh[0] == 0 and fresh[1].count("\n") > 2 * search._RECORD_ROWS

    writes = 0  # on every handle the search opens

    class SecondPieceFails:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            nonlocal writes
            writes += 1
            if writes == 4:  # the header, the unit's head, its first piece, its second
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(text)

        def __getattr__(self, name):
            return getattr(self.fh, name)

    def failing_open(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        return SecondPieceFails(fh) if mode == "a" else fh

    monkeypatch.setattr(search, "open", failing_open, raising=False)
    code, out, err = run_cli(capsys, *args, "--checkpoint", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write checkpoint {path}: ") and "No space left" in err
    assert "Traceback" not in err
    header, torn = path.read_text().split("\n")
    rows = _elements_task(SearchConfig(ring(-1), 2, Fraction(2), 3000, verbose=True), [2, 3000])
    assert torn == '{"task":[2,3000],"results":[' + ",".join(rows[: search._RECORD_ROWS])
    monkeypatch.undo()
    assert run_cli(capsys, *args, "--checkpoint", str(path)) == fresh
    whole = tmp_path / "whole.jsonl"
    assert run_cli(capsys, *args, "--checkpoint", str(whole)) == fresh
    assert path.read_text() == whole.read_text()


def test_verify_zeta(capsys):
    code, out, _ = run_cli(capsys, "verify", "zeta", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["checked"] == 4
    code, out, _ = run_cli(capsys, "verify", "zeta")
    assert code == 0
    assert out.startswith("check zeta: PASS")


_REPORT_SHA256 = {
    "verify zeta --format json": "1cc98d60fb32239b3437c902c1e8f8e7f59e9a46da1233b06a267c78eaebaf2f",
    "verify thm2.4 --max-norm 20000 --format json": "3c57cf27672da64917bb94d3d93d47f234f4627b30b922af9e451275a7d38f69",
    "verify thm2.4 --format json": "f094f3aea9ed8ec44ec15c391b2599dfe14839cec9d9d39253f92fb3c4230af3",
    "verify zeta": "3107adf25887db05e5a2e0de5216b86fad14c614f4fb2e94637dc7ee5e6de151",
}


@pytest.mark.parametrize("command", sorted(_REPORT_SHA256))
def test_verify_report_bytes_are_pinned(capsys, command):
    # the zeta brackets and the thm2.4 sweep print exactly these reports
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _REPORT_SHA256[command]


def test_verify_with_ring_and_bound(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "thm2.2", "--ring", "-2", "--max-norm", "5000",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["check"] == "thm2.2"
    assert doc["ring"] == -2
    assert doc["passed"] is True


def test_verify_fabricated_hits_fail(tmp_path, capsys, monkeypatch):
    # a checkpoint whose only hit has odd norm is refused by the oracle as it
    # is read; with the oracle made to pass it, it must make thm2.2 fail
    path = str(tmp_path / "fake.jsonl")
    header = {
        "schema_version": 1,
        "kind": "quadunitary-checkpoint",
        "config": {
            "d": -1, "n": 1, "t": "2", "max_norm": 100,
            "mode": "elements", "verbose": False, "interval_size": 65536,
        },
    }
    entry = {
        "task": [2, 100],
        "results": [{"z": "3", "norm": 9, "istar": {"1": "2"}, "hit": True}],
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n" + compact(entry) + "\n")
    code, out, err = run_cli(capsys, "verify", "thm2.2", "--ring", "-1", "--hits", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: corrupt checkpoint record at {path}:2: hit 3 failed oracle")
    monkeypatch.setattr(search, "_verify_hit", lambda z, n, value: None)
    code, out, _ = run_cli(
        capsys, "verify", "thm2.2", "--ring", "-1", "--hits", path, "--format", "json"
    )
    assert code == 3
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["violations"][0]["reason"] == "odd norm"
    code, out, _ = run_cli(capsys, "verify", "thm2.2", "--ring", "-1", "--hits", path)
    assert code == 3
    assert out.startswith("check thm2.2: FAIL")


def test_verify_hits_ring_mismatch(tmp_path, capsys):
    path = str(tmp_path / "cp.jsonl")
    run_cli(
        capsys, "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "1000", "--quiet", "--checkpoint", path, "--format", "json",
    )
    code, _, err = run_cli(capsys, "verify", "thm2.2", "--ring", "-3", "--hits", path)
    assert code == 2
    assert "error:" in err


def test_gmap(capsys):
    code, out, _ = run_cli(
        capsys, "gmap", "--ring", "-1", "--integer", "5", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["image"] == "3+4*w"
    assert doc["norm"] == 25
    assert doc["istar1"] == "6/5"


def test_sigma_star(capsys):
    code, out, _ = run_cli(
        capsys, "sigma-star", "--integer", "87360", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["value"] == 174720
    code, out, _ = run_cli(capsys, "sigma-star", "--integer", "6", "--power", "2")
    assert code == 0
    assert out.strip() == "sigma_star_2(6) = 50"
    # a negative power is an exact fraction in every format
    code, out, _ = run_cli(capsys, "sigma-star", "--integer", "10", "--power", "-1")
    assert code == 0
    assert out.strip() == "sigma_star_-1(10) = 9/5"
    code, out, _ = run_cli(
        capsys, "sigma-star", "--integer", "10", "--power", "-1", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[1] == "10,-1,9/5"
    code, out, _ = run_cli(
        capsys, "sigma-star", "--integer", "10", "--power", "-1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["value"] == "9/5"


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["istar", "--ring", "-1"],  # missing required
        ["istar", "--ring", "-5", "--element", "1", "--power", "1"],  # bad ring
        ["nonsense"],
        ["search", "--ring", "-1", "--power", "1", "--target", "x"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv
        capsys.readouterr()


def test_zero_denominator_in_an_element_exits_2(capsys):
    for element in ("3/0", "0/0", "3/0*w", "1/0+sqrt(-1)", "5/0i"):
        for command in (("istar", "--power", "2"), ("delta", "--power", "2"), ("factor",), ("divisors",)):
            code, out, err = run_cli(capsys, command[0], "--ring", "-1", "--element", element, *command[1:])
            assert (code, out) == (2, ""), (element, command)
            assert err.startswith("error: cannot parse element term") and "Traceback" not in err, (element, command)


def test_domain_errors_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "factor", "--ring", "-1", "--element", "1/3")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(
        capsys, "istar", "--ring", "-1", "--element", "0", "--power", "1"
    )
    assert code == 2 and "error:" in err
    code, _, err = run_cli(
        capsys, "search", "--ring", "-1", "--power", "1", "--target", "1/2"
    )
    assert code == 2 and "error:" in err
    code, _, err = run_cli(
        capsys, "verify", "thm2.2", "--hits", str(tmp_path / "missing.jsonl")
    )
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "verify", "thm2.2", "--hits", str(tmp_path))
    assert code == 2 and "error:" in err
    code, _, err = run_cli(
        capsys, "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "100", "--checkpoint", str(tmp_path),
    )
    assert code == 2 and "error:" in err
    code, out, err = run_cli(
        capsys, "search", "--ring", "-1", "--power", "2", "--target", "2",
        "--max-norm", "100", "--mode", "signatures", "--verbose",
    )
    assert code == 2 and "error:" in err and "elements mode" in err and out == ""
    for check in ("thm2.4", "thm2.6"):
        code, _, err = run_cli(capsys, "verify", check, "--max-norm", "-5")
        assert code == 2 and "must be at least 1" in err
    # an option the check does not read is refused, not ignored
    for check in ("thm2.4", "thm2.6", "zeta"):
        code, out, err = run_cli(capsys, "verify", check, "--hits", str(tmp_path / "missing.jsonl"))
        assert (code, out) == (2, "") and f"{check} does not read --hits" in err, check
    for check in ("thm2.2", "thm2.3", "thm2.4", "thm2.5", "zeta"):
        code, out, err = run_cli(capsys, "verify", check, "--target", "3")
        assert (code, out) == (2, "") and f"{check} does not read --target" in err, check


@pytest.fixture(scope="module")
def hits_checkpoint(tmp_path_factory):
    # a signatures search at d = -1, n = 2, t = 2 whose population is not the default one
    path = tmp_path_factory.mktemp("hits") / "cp.jsonl"
    code = main([
        "search", "--ring", "-1", "--power", "2", "--target", "2", "--max-norm", "200000",
        "--mode", "signatures", "--quiet", "--checkpoint", str(path),
    ])
    assert code == 0
    return str(path)


# the options verify reads per check; every other pair must be refused
_VERIFY_READS = {
    "thm2.2": {"--ring", "--max-norm", "--hits"},
    "thm2.3": {"--ring", "--max-norm", "--hits"},
    "thm2.4": {"--ring", "--max-norm"},
    "thm2.5": {"--ring", "--max-norm", "--hits"},
    "thm2.6": {"--max-norm", "--target"},
    "zeta": set(),
}


@pytest.mark.parametrize("option", ["--ring", "--max-norm", "--hits", "--target", "--jobs"])
@pytest.mark.parametrize("check", sorted(_VERIFY_READS))
def test_verify_refuses_the_options_a_check_does_not_read(capsys, hits_checkpoint, check, option):
    value = {
        "--ring": "-3" if check == "thm2.4" else "-1",
        "--max-norm": "500",
        "--hits": hits_checkpoint,
        "--target": "3",
        "--jobs": "1",
    }[option]
    if option == "--jobs":
        # verify has no --jobs, a usage error: a check's one signature search runs in one process
        with pytest.raises(SystemExit) as exc:
            main(["verify", check, option, value, "--format", "json"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --jobs 1" in err
        return
    code, out, err = run_cli(capsys, "verify", check, option, value, "--format", "json")
    if option in _VERIFY_READS[check]:
        assert (code, err) == (0, ""), err
        assert json.loads(out)["check"] == check
    else:
        assert (code, out) == (2, "")
        assert err == f"error: {check} does not read {option}\n"


@pytest.mark.parametrize("check", ["thm2.2", "thm2.3", "thm2.5"])
def test_verify_hits_reports_the_checkpoint_population(capsys, hits_checkpoint, check):
    want = {"max_norm": 200000, "n": [2], "t": [2]}
    code, out, err = run_cli(capsys, "verify", check, "--ring", "-1", "--hits", hits_checkpoint, "--format", "json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["population"] == want
    assert "population discovered by signature search" not in doc["notes"]
    # with --hits nothing is discovered, so a bound is refused
    code, out, err = run_cli(capsys, "verify", check, "--ring", "-1", "--hits", hits_checkpoint, "--max-norm", "5")
    assert (code, out) == (2, "")
    assert err == f"error: {check} with --hits does not read --max-norm\n"


def test_verify_hits_population_with_a_fractional_target(tmp_path, capsys):
    path = tmp_path / "cp.jsonl"
    assert run_cli(
        capsys, "search", "--ring", "-7", "--power", "1", "--target", "5/2", "--max-norm", "1500",
        "--checkpoint", str(path),
    )[0] == 0
    code, out, _ = run_cli(capsys, "verify", "thm2.2", "--ring", "-7", "--hits", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["population"] == {"max_norm": 1500, "n": [1], "t": ["5/2"]}


def test_quiet_is_a_search_option(capsys):
    for argv in (
        ["classify", "--ring", "-1", "--prime", "5"],
        ["factor", "--ring", "-1", "--element", "30"],
        ["delta", "--ring", "-1", "--element", "30", "--power", "1"],
        ["istar", "--ring", "-1", "--element", "30", "--power", "1"],
        ["divisors", "--ring", "-1", "--element", "30"],
        ["verify", "zeta"],
        ["gmap", "--ring", "-1", "--integer", "5"],
        ["sigma-star", "--integer", "6"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--quiet"])
        assert exc.value.code == 1, argv
        assert capsys.readouterr().out == ""


# One small invocation per subcommand; cli_golden.json holds the exit code,
# stdout and stderr of each in every output format.
_PINNED = {
    "classify": ["--ring", "-1", "--prime", "5"],
    "factor": ["--ring", "-1", "--element", "30"],
    "delta": ["--ring", "-1", "--element", "1+1*w", "--power", "1"],
    "istar": ["--ring", "-1", "--element", "30", "--power", "2"],
    "divisors": ["--ring", "-1", "--element", "30"],
    "search": ["--ring", "-1", "--power", "2", "--target", "2", "--max-norm", "1000"],
    "verify": ["thm2.2", "--ring", "-7", "--max-norm", "1000"],
    "gmap": ["--ring", "-1", "--integer", "5"],
    "sigma-star": ["--integer", "6", "--power", "2"],
}


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("command", sorted(_PINNED))
def test_output_bytes_pinned(capsys, command, fmt):
    with (Path(__file__).parent / "cli_golden.json").open(encoding="utf-8") as fh:
        want = json.load(fh)[f"{command}-{fmt}"]
    code, out, err = run_cli(capsys, command, *_PINNED[command], "--format", fmt)
    assert (code, out, err) == (want["exit"], want["stdout"], want["stderr"])


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "quadunitary", "istar", "--ring", "-1",
         "--element", "30", "--power", "2", "--format", "json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["istar"] == {"1": "2"}


def test_console_script():
    # The `quadunitary` command exists only after an install, so check the
    # declaration in pyproject.toml and run its target the way the installer's
    # wrapper script does, in a fresh interpreter.
    tomllib = pytest.importorskip("tomllib")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "quadunitary" in scripts
    module, _, attr = scripts["quadunitary"].partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True, timeout=60,
        )

    proc = run("sigma-star", "--integer", "6", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == 12
    # A domain error must reach the shell as exit code 2, which holds only
    # while the target returns its exit code.
    assert run("sigma-star", "--integer", "0").returncode == 2
