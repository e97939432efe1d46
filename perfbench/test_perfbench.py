"""Self-tests of the benchmark: run with ``python3 -m unittest discover -s perfbench``.

They cover the self-time arithmetic, the tracer's wrappers, the correctness
gate (a fabricated wrong output must count as failed), a smoke run of every
workload at tiny sizes, and the refusal to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import tracer  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            ("root", -1, 0.0, 10.0),
            ("a", 0, 1.0, 4.0),
            ("a1", 1, 2.0, 3.0),
            ("b", 0, 5.0, 9.0),
            ("c", 0, 8.0, 9.5),   # overlaps b: the overlap counts once
            ("d", 0, 9.5, 11.0),  # runs past its parent: clipped to 10.0
        ]
        own = tracer.self_times(spans)
        # root: 10 minus the union [1,4] + [5,10] = 10 - 3 - 5
        self.assertEqual(own, [2.0, 2.0, 1.0, 4.0, 1.5, 1.5])

    def test_nested_self_times_add_up_to_root(self):
        spans = [("r", -1, 0.0, 6.0), ("x", 0, 0.5, 2.5), ("y", 1, 1.0, 2.0), ("x", 0, 3.0, 5.0)]
        self.assertAlmostEqual(sum(tracer.self_times(spans)), 6.0)
        self.assertEqual(tracer.reduce_spans(spans), {"r": 2.0, "x": 3.0, "y": 1.0})

    def test_wrappers_record_calls_and_generator_resumptions(self):
        t = tracer.Tracer()

        def leaf(n):
            return n + 1

        def items(k):
            yield from range(k)

        leaf_w = t.wrap(leaf, "leaf_s", "leaf_calls")
        items_w = t.wrap(items, "items_s", "items")
        count_w = t.wrap(leaf, None, "counted")

        def outer():
            return sum(leaf_w(i) + count_w(i) for i in items_w(3))

        outer_w = t.wrap(outer, "outer_s", None)
        self.assertEqual(outer_w(), 12)
        self.assertEqual(t.counts, {"leaf_calls": 3, "items": 3, "counted": 3})
        names = [t.names[i] for i in t.name]
        # one span per generator resumption, including the final exhausting one
        self.assertEqual(names.count("items_s"), 4)
        self.assertEqual(names.count("leaf_s"), 3)
        self.assertTrue(all(t.parent[i] == 0 for i in range(1, len(names))))
        self.assertEqual(t.stack, [-1])

    def test_span_file_round_trip(self):
        t = tracer.Tracer(run_id=7)
        t.wrap(lambda: None, "f_s", "f_calls")()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spans")
            t.dump(path)
            header, spans = tracer.load(path)
        self.assertEqual(header["run_id"], 7)
        self.assertEqual(header["counts"], {"f_calls": 1})
        self.assertEqual(len(spans), 1)
        self.assertEqual(spans[0][:2], ("f_s", -1))


class CorrectnessGateTest(unittest.TestCase):
    def setUp(self):
        self.golden = run.load_golden()["smoke"]

    def _golden_ops(self, workload, choice):
        return json.loads(json.dumps(self.golden[workload][run.golden_key(workload, choice)]))

    def test_golden_output_passes(self):
        steps = run.plan("elements", "2", "smoke")
        ops = self._golden_ops("elements", "2")
        self.assertEqual(run.count_failures("elements", steps, ops, ops), (1, 0, []))

    def test_fabricated_wrong_output_fails(self):
        steps = run.plan("elements", "2", "smoke")
        golden = self._golden_ops("elements", "2")
        ops = self._golden_ops("elements", "2")
        ops["elements"][0][2] = {"1": "3"}
        attempted, failed, _ = run.count_failures("elements", steps, ops, golden)
        self.assertEqual((attempted, failed), (1, 1))

    def test_missing_and_raising_operations_fail(self):
        choice = run.choice_for("signatures", 5)
        steps = run.plan("signatures", choice, "smoke")
        golden = self._golden_ops("signatures", choice)
        ops = dict(golden)
        del ops["-7,1"]
        ops["search"] = {"error": "AssertionError: boom"}
        attempted, failed, _ = run.count_failures("signatures", steps, ops, golden)
        self.assertEqual((attempted, failed), (19, 2))

    def test_verify_report_change_fails(self):
        steps = run.plan("verify", "2", "smoke")
        golden = self._golden_ops("verify", "2")
        ops = self._golden_ops("verify", "2")
        ops["thm2.4"]["passed"] = False
        self.assertEqual(run.count_failures("verify", steps, ops, golden)[1], 1)

    def test_resume_must_match_write(self):
        steps = run.plan("checkpoint", "2", "smoke")
        golden = self._golden_ops("checkpoint", "2")
        ops = {k: {**v, "exit": 0} for k, v in golden.items()}
        self.assertEqual(run.count_failures("checkpoint", steps, ops, golden)[1], 0)
        ops["resume"]["sha256"] = "0" * 64
        self.assertEqual(run.count_failures("checkpoint", steps, ops, golden)[1], 1)
        ops["write"]["exit"] = 2
        self.assertEqual(run.count_failures("checkpoint", steps, ops, golden)[1], 2)


class SmokeRunTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def _check(self, workload: str, trace: int) -> dict:
        proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--size", "smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout.strip().splitlines()[-2])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        self.assertEqual(
            {k: v["unit"] for k, v in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared},
        )
        return result["metrics"]

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self._check(workload, 0)
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()))

    def test_traced_checkpoint_layers_add_up(self):
        metrics = {k: v["value"] for k, v in self._check("checkpoint", 1).items()}
        self_sum = sum(metrics[m] for m in tracer.SPAN_METRICS)
        self.assertGreaterEqual(metrics["trace.unattributed_s"], 0.0)
        self.assertAlmostEqual(self_sum + metrics["trace.unattributed_s"], metrics["trace.wall_s"], places=6)
        self.assertGreater(metrics["rings.parse_s"], 0.0)
        self.assertGreater(metrics["radicals.json_s"], 0.0)
        self.assertGreater(metrics["cli.stdout_bytes"], 0)

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = _bench("--workload", "elements", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
