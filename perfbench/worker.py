"""One step of a benchmark workload, run in a fresh interpreter.

Usage: python perfbench/worker.py [--trace SPANFILE] STEP SPEC_JSON

STEP is one of
  elements  run_search in elements mode; SPEC {d, n, t, max_norm}
  search    run_search in signatures mode; SPEC {d, n, t, max_norm}
  sweep     signature_hits_multi over rings and powers, every witness checked
            through i_star and the divisor-sum oracle; SPEC {rings, n_values,
            targets, max_norm}
  verify    run_check per check; SPEC {checks: [[id, max_norm or null,
            target or null], ...]}
  cli       the quadunitary command line, as ``python -m quadunitary``; SPEC
            is its argument list

All steps but ``cli`` print one JSON object mapping each operation to its
output, or to {"error": ...} when the operation raised.  With --trace the
functions of every layer are wrapped first and the spans are written to
SPANFILE on exit.  quadunitary must be importable (PYTHONPATH=src).
"""

from __future__ import annotations

import json
import os
import runpy
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _hit_rows(records) -> list:
    from quadunitary import format_element

    return [[format_element(r.z), r.norm, r.value.to_json_terms()] for r in records if r.is_hit]


def _search(spec: dict, mode: str) -> list:
    from quadunitary import SearchConfig, ring, run_search

    cfg = SearchConfig(ring(spec["d"]), spec["n"], Fraction(spec["t"]), spec["max_norm"], mode=mode)
    return _hit_rows(run_search(cfg))


def _sweep_one(d: int, n: int, targets, max_norm: int) -> list:
    from quadunitary import RadicalValue, delta_star_oracle, format_element, i_star, ring, signature_hits_multi

    r = ring(d)
    rows = []
    for sig in signature_hits_multi(r, n, targets, max_norm):
        value = sig.value()
        for z in sig.witnesses(r):
            rv = i_star(z, n)
            if rv != value:
                raise AssertionError(f"witness {format_element(z)} disagrees with its signature")
            expected = RadicalValue.from_rational(value) * RadicalValue.sqrt_power(z.norm(), n)
            if delta_star_oracle(z, n) != expected:
                raise AssertionError(f"witness {format_element(z)} fails the divisor-sum oracle")
            rows.append([format_element(z), z.norm(), rv.to_json_terms()])
    rows.sort(key=lambda row: (row[1], row[0]))
    return rows


def run_step(step: str, spec) -> dict:
    """Run one step; returns {operation: output or {"error": text}}."""
    out: dict = {}

    def op(key, fn, *args):
        try:
            out[key] = fn(*args)
        except Exception as exc:  # every failure is reported per operation
            out[key] = {"error": f"{type(exc).__name__}: {exc}"}

    if step in ("elements", "search"):
        op(step, _search, spec, "elements" if step == "elements" else "signatures")
    elif step == "sweep":
        targets = tuple(Fraction(t) for t in spec["targets"])
        for d in spec["rings"]:
            for n in spec["n_values"]:
                op(f"{d},{n}", _sweep_one, d, n, targets, spec["max_norm"])
    elif step == "verify":
        from quadunitary import run_check

        def check(check_id, bound, target):
            report = run_check(check_id, max_norm=bound, target=None if target is None else Fraction(target))
            return {"passed": report.passed, "checked": report.checked}

        for check_id, bound, target in spec["checks"]:
            op(check_id, check, check_id, bound, target)
    else:
        raise SystemExit(f"unknown step {step!r}")
    return out


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    step, spec = argv[0], json.loads(argv[1])
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer(run_id=os.getpid())
        tracer.install()
    try:
        if step == "cli":
            sys.argv = ["quadunitary", *spec]
            try:
                runpy.run_module("quadunitary", run_name="__main__", alter_sys=True)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
            return 0
        print(json.dumps(run_step(step, spec), separators=(",", ":")))
        return 0
    finally:
        if tracer is not None:
            sys.stdout.flush()
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
