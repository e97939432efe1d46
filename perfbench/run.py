"""quadunitary benchmark: four workloads, end-to-end metrics and layer timings.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--size full|smoke] [--out FILE]
  python3 perfbench/run.py --write-golden [--size full|smoke]

Workloads (see perfbench/README.md for the layer map):
  elements    run_search in elements mode, d=-1, n=2
  signatures  signature sweep over all nine rings, then one signatures-mode
              search whose cost is the prime sieve
  verify      run_check for all six theorem checks
  checkpoint  two identical ``python -m quadunitary search`` invocations
              sharing one checkpoint file: a two-worker write, then a resume

Every step runs in a fresh interpreter with PYTHONPATH=src, so the
program's module-level caches start cold as they do for a command-line
user.  With --trace 0 the workload repeats until --seconds have passed and
the end-to-end metrics are medians over the repeats.  With --trace 1 an
untraced and a traced repeat alternate (jobs=1), and the per-layer metrics
come from the traced ones.  Every output is compared with perfbench/golden.json;
an operation (one search, one check, one CLI invocation) that raises, exits
non-zero or differs from its golden output counts as failed.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it is the full record: environment, inputs, sample
counts and per-repeat values.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH, "golden.json")
TMP_ROOT = os.path.join(ROOT, ".perfbench-tmp")

sys.path.insert(0, BENCH)
import tracer  # noqa: E402

RINGS = (-1, -2, -3, -7, -11, -19, -43, -67, -163)
CHECKS = ("thm2.2", "thm2.3", "thm2.4", "thm2.5", "thm2.6", "zeta")
# Seed choices: each list holds inputs of equal work.  Elements mode and the
# verbose checkpoint evaluate every element whatever t is; thm2.6 sums
# sigma_star over every integer below its bound whatever the ratio is.
T_CHOICES = ("2", "3", "5/2", "7/2")
B_CHOICES = ("2", "3/2")
JOBS = 2
# setup_s is reported in seconds on a host where calib.py takes this long
CALIB_REFERENCE_S = 0.30
# one calibration sample per this much workload wall time, so a long repeat
# is matched by as many kernel samples as it spans
CALIB_EVERY_S = 1.5
# start-up and calibration samples taken before measuring; more of each
# follow every untraced repeat
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0

# Input sizes.  "full" is the measured benchmark, scaled so one repeat takes a
# few seconds; "smoke" exercises the same paths in well under a second each.
SIZES = {
    "full": {
        "elements_max_norm": 12_000,
        "sweep_max_norm": 1_000_000,
        "sieve_max_norm": 10_000_000,
        "thm2.4_max_norm": 20_000,
        "thm2.6_bound": None,
        "checkpoint_ring": -163,
        "checkpoint_max_norm": 131_072,
    },
    "smoke": {
        "elements_max_norm": 2_000,
        "sweep_max_norm": 20_000,
        "sieve_max_norm": 200_000,
        "thm2.4_max_norm": 500,
        "thm2.6_bound": 2_000,
        "checkpoint_ring": -163,
        "checkpoint_max_norm": 3_000,
    },
}
# The checkpoint units are 65,536 norms wide (the CLI's fixed interval), so a
# max-norm above 65,536 gives the two-worker pool two units.

WORKLOADS = ("elements", "signatures", "verify", "checkpoint")
END_TO_END = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{m: "s" for m in tracer.SPAN_METRICS},
    **{m: "count" for m in tracer.COUNT_METRICS},
    "primes.sieve_limit": "count",
    "factoring.factor_int_hit_ratio": "ratio",
    **{f"theorems.{c}_s": "s" for c in CHECKS},
    "search.checkpoint_bytes": "bytes",
    "search.checkpoint_units": "count",
    "search.resume_s": "s",
    "search.parallel_efficiency": "ratio",
    "cli.stdout_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "ratio",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all (no program, no goldens)."""


# ---------------------------------------------------------------------------
# workload plans


def choice_for(workload: str, seed: int):
    if workload in ("elements", "checkpoint"):
        return T_CHOICES[seed % len(T_CHOICES)]
    if workload == "verify":
        return B_CHOICES[seed % len(B_CHOICES)]
    # ring order of the sweep; the golden output is per ring, so order-free
    return random.Random(seed).sample(RINGS, len(RINGS))


def golden_key(workload: str, choice) -> str:
    return "all" if workload == "signatures" else str(choice)


def plan(workload: str, choice, size: str, jobs: int = JOBS) -> list[tuple]:
    """Steps of one repeat: ("api", step, spec) or ("cli", name, argv)."""
    s = SIZES[size]
    if workload == "elements":
        return [("api", "elements", {"d": -1, "n": 2, "t": choice, "max_norm": s["elements_max_norm"]})]
    if workload == "signatures":
        return [
            ("api", "sweep", {"rings": list(choice), "n_values": [1, 2],
                              "targets": ["2", "3", "4", "5", "6"], "max_norm": s["sweep_max_norm"]}),
            ("api", "search", {"d": -1, "n": 2, "t": "2", "max_norm": s["sieve_max_norm"]}),
        ]
    if workload == "verify":
        bounds = {"thm2.4": s["thm2.4_max_norm"], "thm2.6": s["thm2.6_bound"]}
        checks = [[c, bounds.get(c), choice if c == "thm2.6" else None] for c in CHECKS]
        return [("api", "verify", {"checks": checks})]
    argv = ["search", "--ring", str(s["checkpoint_ring"]), "--power", "2", "--target", choice,
            "--max-norm", str(s["checkpoint_max_norm"]), "--verbose", "--format", "json",
            "--jobs", str(jobs), "--checkpoint", "{checkpoint}"]
    return [("cli", "write", argv), ("cli", "resume", argv)]


# ---------------------------------------------------------------------------
# child processes


def spawn(argv: list[str], out_path: str, deadline: float) -> tuple[float, float, int]:
    """Run argv to completion; returns (wall seconds, peak RSS MB, exit code).

    The peak RSS comes from wait4, which covers the child and every
    descendant it reaped (pool workers included).
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def _timed(argv: list[str], what: str, tmp: str, deadline: float) -> float:
    out = os.path.join(tmp, "sample.out")
    wall, _, code = spawn(argv, out, deadline)
    if code != 0:
        with open(out + ".err", encoding="utf-8", errors="replace") as fh:
            raise SetupError(f"{what} failed:\n{fh.read()[-2000:]}")
    return wall


def setup_sample(tmp: str, deadline: float) -> float:
    """Fresh interpreter start until ``import quadunitary`` returns."""
    return _timed([sys.executable, "-c", "import quadunitary"], "import quadunitary", tmp, deadline)


def calib_sample(tmp: str, deadline: float) -> float:
    """Wall time of the fixed calibration kernel (see calib.py)."""
    return _timed([sys.executable, os.path.join(BENCH, "calib.py")], "calibration kernel", tmp, deadline)


def run_repeat(steps: list[tuple], tmp: str, deadline: float, trace: bool) -> dict:
    """One repeat of a workload: every step in its own fresh interpreter."""
    rep = {"wall": 0.0, "rss": 0.0, "ops": {}, "step_walls": {}, "spans": [], "stdout_bytes": 0}
    work = tempfile.mkdtemp(dir=tmp)
    checkpoint = os.path.join(work, "search.ckpt")
    for i, (kind, name, spec) in enumerate(steps):
        out_path = os.path.join(work, f"{i}-{name}.out")
        span_path = os.path.join(work, f"{i}-{name}.spans")
        if kind == "cli":
            args = [a.replace("{checkpoint}", checkpoint) for a in spec]
            if trace:
                argv = [sys.executable, os.path.join(BENCH, "worker.py"), "--trace", span_path, "cli", json.dumps(args)]
            else:
                argv = [sys.executable, "-m", "quadunitary", *args]
        else:
            argv = [sys.executable, os.path.join(BENCH, "worker.py"),
                    *(["--trace", span_path] if trace else []), name, json.dumps(spec)]
        wall, rss, code = spawn(argv, out_path, deadline)
        rep["wall"] += wall
        rep["rss"] = max(rep["rss"], rss)
        rep["step_walls"][name] = wall
        with open(out_path, "rb") as fh:
            data = fh.read()
        if kind == "cli":
            rep["stdout_bytes"] += len(data)
            rep["ops"][name] = {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
            if name == "write" and os.path.exists(checkpoint):
                with open(checkpoint, "rb") as fh:
                    lines = fh.read().split(b"\n")
                rep["checkpoint_bytes"] = sum(len(ln) + 1 for ln in lines[:-1])
                rep["checkpoint_units"] = max(0, len(lines) - 2)
            if data:
                try:
                    rep["hits"] = rep.get("hits", 0) + json.loads(data.split(b"\n", 1)[0])["hits"]
                except (ValueError, KeyError, TypeError):
                    pass
        elif code == 0:
            try:
                rep["ops"].update(json.loads(data))
            except ValueError:
                pass  # unreadable output: its operations count as failed
        if code != 0:
            with open(out_path + ".err", encoding="utf-8", errors="replace") as fh:
                rep.setdefault("stderr", []).append(f"{name} exited {code}: {fh.read()[-300:]}")
        if trace and os.path.exists(span_path):
            rep["spans"].append(tracer.load(span_path))
    shutil.rmtree(work, ignore_errors=True)
    return rep


# ---------------------------------------------------------------------------
# correctness


def expected_ops(workload: str, steps: list[tuple]) -> list[str]:
    keys = []
    for kind, name, spec in steps:
        if kind == "cli" or name in ("elements", "search"):
            keys.append(name)
        elif name == "sweep":
            keys.extend(f"{d},{n}" for d in spec["rings"] for n in spec["n_values"])
        else:
            keys.extend(c[0] for c in spec["checks"])
    return keys


def count_failures(workload: str, steps: list[tuple], ops: dict, golden: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) for one repeat against its golden outputs."""
    keys = expected_ops(workload, steps)
    reasons = []
    for key in keys:
        got = ops.get(key)
        want = golden.get(key)
        if got is None:
            reasons.append(f"{key}: no output")
        elif isinstance(got, dict) and "error" in got:
            reasons.append(f"{key}: {got['error']}")
        elif workload == "checkpoint":
            if got["exit"] != 0:
                reasons.append(f"{key}: exit code {got['exit']}")
            elif want is None or got["sha256"] != want["sha256"]:
                reasons.append(f"{key}: stdout differs from the golden output")
            elif got["sha256"] != ops["write"]["sha256"]:
                reasons.append(f"{key}: stdout is not byte-identical to the write")
        elif got != want:
            reasons.append(f"{key}: output differs from the golden output")
    return len(keys), len(reasons), reasons


def count_hits(workload: str, rep: dict) -> int:
    if workload == "checkpoint":
        return rep.get("hits", 0)
    if workload == "verify":
        return 0
    return sum(len(v) for v in rep["ops"].values() if isinstance(v, list))


# ---------------------------------------------------------------------------
# trace reduction


def layer_metrics(rep: dict, workload: str) -> dict:
    """Per-layer metrics of one traced repeat."""
    out = {m: 0.0 for m in PER_LAYER}
    self_total = 0.0
    cache_hits = cache_calls = 0
    for header, spans in rep["spans"]:
        for name, own in tracer.reduce_spans(spans).items():
            out[name] += own
            self_total += own
        for key, value in header["counts"].items():
            out[key] += value
        for key, value in header["check_s"].items():
            out[key] += value
        out["primes.sieve_limit"] = max(out["primes.sieve_limit"], header["sieve_limit"])
        cache_hits += header["factor_int_cache"]["hits"]
        cache_calls += header["factor_int_cache"]["hits"] + header["factor_int_cache"]["misses"]
    out["factoring.factor_int_hit_ratio"] = cache_hits / cache_calls if cache_calls else 0.0
    out["trace.wall_s"] = rep["wall"]
    out["trace.unattributed_s"] = rep["wall"] - self_total
    if workload == "checkpoint":
        out["cli.stdout_bytes"] = rep["stdout_bytes"]
        out["search.checkpoint_bytes"] = rep.get("checkpoint_bytes", 0)
        out["search.checkpoint_units"] = rep.get("checkpoint_units", 0)
    return out


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
        else:
            commit = ref
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "quadunitary")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# measuring


def load_golden() -> dict:
    if not os.path.isfile(GOLDEN):
        raise SetupError(f"missing golden outputs {GOLDEN}")
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def preflight(tmp: str, deadline: float) -> None:
    if not os.path.isfile(os.path.join(SRC, "quadunitary", "__init__.py")):
        raise SetupError(f"no quadunitary package under {SRC}")
    # fills the bytecode cache once so every timed start-up reads it
    setup_sample(tmp, deadline)


def med(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def another_fits(t0: float, measure_end: float, deadline: float) -> bool:
    """Start another repeat if it would end by measure_end, give or take half of one."""
    now = time.monotonic()
    last = now - t0
    return now + last / 2 < measure_end and now + 2 * last < deadline


def bench(workload: str, seed: int, seconds: float, trace: bool, size: str, tmp: str) -> dict:
    t_begin = time.monotonic()
    deadline = t_begin + RUN_BUDGET_S
    golden_all = load_golden()
    preflight(tmp, deadline)
    choice = choice_for(workload, seed)
    golden = golden_all.get(size, {}).get(workload, {}).get(golden_key(workload, choice), {})
    steps = plan(workload, choice, size)
    attempted = failed = 0
    reasons: list[str] = []

    def score(rep: dict) -> None:
        nonlocal attempted, failed
        a, f, why = count_failures(workload, steps, rep["ops"], golden)
        attempted += a
        failed += f
        reasons.extend(why + rep.get("stderr", []))

    setups, calibs = [], []
    for _ in range(SETUP_SAMPLES):
        setups.append(setup_sample(tmp, deadline))
        if not trace:
            calibs.append(calib_sample(tmp, deadline))
    record: dict = {
        "benchmark": "perfbench",
        "workload": workload,
        "seed": seed,
        "choice": choice,
        "size": size,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(),
        "inputs": {"steps": [[k, n, s] for k, n, s in steps], **SIZES[size], "jobs": JOBS},
    }
    measure_end = time.monotonic() + seconds
    if not trace:
        reps = []
        while True:
            t0 = time.monotonic()
            rep = run_repeat(steps, tmp, deadline, trace=False)
            score(rep)
            reps.append(rep)
            setups.append(setup_sample(tmp, deadline))
            for _ in range(max(1, round(rep["wall"] / CALIB_EVERY_S))):
                calibs.append(calib_sample(tmp, deadline))
            if not another_fits(t0, measure_end, deadline):
                break
        walls = [r["wall"] for r in reps]
        # the sum of per-step medians: each step is its own process and sample
        step_names = list(reps[0]["step_walls"])
        record["wall_s"] = sum(med([r["step_walls"][name] for r in reps]) for name in step_names)
        record["calib_s"] = med(calibs)
        record["setup_raw_s"] = med(setups)
        metrics = {
            "setup_s": record["setup_raw_s"] / record["calib_s"] * CALIB_REFERENCE_S,
            "wall_rel": record["wall_s"] / record["calib_s"],
            "peak_rss_mb": med([r["rss"] for r in reps]),
        }
        record["samples"] = {
            "setup_s": setups,
            "calib_s": calibs,
            "wall_s": walls,
            "wall_s_quartiles": quartiles(walls),
            "peak_rss_mb": [r["rss"] for r in reps],
            "step_walls": [r["step_walls"] for r in reps],
        }
        if workload == "checkpoint":
            resumes = [r["step_walls"]["resume"] for r in reps]
            record["samples"]["resume_s"] = resumes
            record["resume_s"] = med(resumes)
        units = END_TO_END
    else:
        serial = plan(workload, choice, size, jobs=1)
        untraced, serial_walls, traced, layers = [], [], [], []
        while True:
            t0 = time.monotonic()
            rep = run_repeat(steps, tmp, deadline, trace=False)
            score(rep)
            untraced.append(rep)
            if workload == "checkpoint":
                rep1 = run_repeat(serial, tmp, deadline, trace=False)
                score(rep1)
                serial_walls.append(rep1)
            else:
                serial_walls.append(rep)
            rep_t = run_repeat(serial, tmp, deadline, trace=True)
            score(rep_t)
            traced.append(rep_t)
            layer = layer_metrics(rep_t, workload)
            if layer["trace.unattributed_s"] < -1e-3:
                failed += 1
                reasons.append("trace: span self times exceed the traced wall time")
            if layer["udf.oracle_calls"] < count_hits(workload, rep_t):
                failed += 1
                reasons.append("trace: fewer oracle calls than hits reported")
            layers.append(layer)
            if not another_fits(t0, measure_end, deadline):
                break
        metrics = {m: med([layer[m] for layer in layers]) for m in PER_LAYER}
        metrics["trace.overhead"] = med([r["wall"] for r in traced]) / med([r["wall"] for r in serial_walls]) - 1
        if workload == "checkpoint":
            metrics["search.resume_s"] = med([r["step_walls"]["resume"] for r in untraced])
            metrics["search.parallel_efficiency"] = (
                med([r["step_walls"]["write"] for r in serial_walls])
                / (JOBS * med([r["step_walls"]["write"] for r in untraced])))
        record["samples"] = {"traced": len(traced), "untraced": len(untraced),
                             "layers": layers, "setup_s": setups}
        units = PER_LAYER
    record["attempted"] = attempted
    record["failed"] = failed
    record["failed_ratio"] = failed / attempted if attempted else 1.0
    record["failures"] = reasons[:20]
    record["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    record["run_s"] = time.monotonic() - t_begin
    return record


def write_golden(size: str, tmp: str) -> None:
    """Record the current program's outputs for every workload and seed choice."""
    golden = load_golden() if os.path.isfile(GOLDEN) else {}
    deadline = time.monotonic() + 3600
    preflight(tmp, deadline)
    golden[size] = {}
    for workload in WORKLOADS:
        choices = {"signatures": [RINGS], "verify": B_CHOICES}.get(workload, T_CHOICES)
        golden[size][workload] = {}
        for choice in choices:
            steps = plan(workload, choice, size)
            ops = run_repeat(steps, tmp, deadline, trace=False)["ops"]
            keys = expected_ops(workload, steps)
            bad = [k for k in keys if k not in ops or (isinstance(ops[k], dict) and ("error" in ops[k] or ops[k].get("exit")))]
            if workload == "checkpoint":
                if ops["write"]["sha256"] != ops["resume"]["sha256"]:
                    bad.append("resume differs from write")
                ops = {k: {"sha256": v["sha256"], "bytes": v["bytes"]} for k, v in ops.items()}
            if workload == "elements":
                # cross-check against the independent signatures strategy
                cross = run_repeat([("api", "search", steps[0][2])], tmp, deadline, trace=False)["ops"]
                if cross.get("search") != ops.get("elements"):
                    bad.append("elements and signatures modes disagree")
            if bad:
                raise SystemExit(f"{size}/{workload}/{choice}: {bad}")
            golden[size][workload][golden_key(workload, choice)] = {k: ops[k] for k in keys}
            print(f"golden {size} {workload} {golden_key(workload, choice)}: {len(keys)} operations", file=sys.stderr)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full")
    parser.add_argument("--out", help="also write the full record to this JSON file")
    parser.add_argument("--write-golden", action="store_true", help="record golden outputs and exit")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=TMP_ROOT)
    try:
        if args.write_golden:
            write_golden(args.size, tmp)
            return 0
        record = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.size, tmp)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:
            pass
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name in ("setup_raw_s", "wall_s", "calib_s", "resume_s"):
        if name in record:
            print(f"{name} = {record[name]:.6g} s (median, not normalised)")
    print(f"failed_ratio = {record['failed_ratio']:.6g} ({record['failed']} of {record['attempted']} operations)")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(json.dumps(record, separators=(",", ":")))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
