"""Tests of the benchmark itself (not collected by the repository's test run).

    python3 bench/test_bench.py            # or: python3 -m pytest bench/test_bench.py

The full oracle validation of every fixture pair and every perturbation
takes about a minute; the rest take a few seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

import homcolor as hc  # noqa: E402
from homcolor import cli  # noqa: E402
from homcolor.serialize import dump_presentation, load_presentation_file  # noqa: E402

from bench import gen, run, tracing, workloads  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.json"))}


def _outcomes(ops) -> list:
    return [op.observe(op.call()) for op in ops]


class SeededInputs(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_same_seed_same_fixture_inputs(self):
        first = workloads.setup_fixture_cli(ROOT, self.tmp / "a", 7)
        again = workloads.setup_fixture_cli(ROOT, self.tmp / "b", 7)
        other = workloads.setup_fixture_cli(ROOT, self.tmp / "c", 8)
        self.assertEqual([op.name for op in first.ops], [op.name for op in again.ops])
        self.assertEqual(_files(self.tmp / "a" / "perturbed"), _files(self.tmp / "b" / "perturbed"))
        self.assertEqual(sorted(first.oracle_sample), sorted(again.oracle_sample))
        self.assertNotEqual([op.name for op in first.ops], [op.name for op in other.ops])
        self.assertEqual(len(first.ops), 2 * 61)

    def test_same_seed_same_tensor_inputs(self):
        workloads.setup_tensor_parametric(ROOT, self.tmp / "a", 7)
        workloads.setup_tensor_parametric(ROOT, self.tmp / "b", 7)
        workloads.setup_tensor_parametric(ROOT, self.tmp / "c", 8)
        self.assertEqual(_files(self.tmp / "a"), _files(self.tmp / "b"))
        self.assertNotEqual(_files(self.tmp / "a"), _files(self.tmp / "c"))

    def test_same_seed_same_closure_inputs(self):
        def key(inputs):
            return [
                (
                    dump_presentation(x.A), dump_presentation(x.pair.b), x.pair.ab.actions,
                    x.pair.ba.actions, x.twist, x.derived,
                )
                for x in inputs
            ]

        self.assertEqual(key(workloads.closure_inputs(7)), key(workloads.closure_inputs(7)))
        self.assertNotEqual(key(workloads.closure_inputs(7)), key(workloads.closure_inputs(8)))
        self.assertEqual([x.A.dim for x in workloads.closure_inputs(7)], [6, 7, 8, 9, 10, 12])

    def test_relabeling_is_an_isomorphic_copy(self):
        import random

        A, _ = load_presentation_file(ROOT / "fixtures" / "hnp_4dim_perturbed.json")
        B = gen.relabel(A, random.Random(3))
        self.assertEqual(sorted(A.space.degrees), sorted(B.space.degrees))
        for kind in (hc.StructureKind.HNP, hc.StructureKind.EPS_COMM_ASSOC):
            self.assertEqual(hc.run_suite(A, kind).status, hc.run_suite(B, kind).status)


class ClosureTheorems(unittest.TestCase):
    def test_generated_instances_pass_the_promised_suites(self):
        """Every closure op, hypotheses included, passes on two seeds."""
        for seed in (1, 2):
            for inputs in workloads.closure_inputs(seed):
                A, pair = inputs.A, inputs.pair
                self.assertTrue(hc.is_morphism(inputs.twist, A, A).passed)
                self.assertTrue(hc.check_matched_pair(pair, inputs.slot[3]).passed)
                for op in workloads.closure_ops(inputs):
                    self.assertIsNone(op.expect(op.observe(op.call())), f"seed {seed}: {op.name}")


class Correctness(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def test_every_fixture_pair_and_perturbation_agrees_with_the_oracle(self):
        """The full set the runs sample from: 61 fixture pairs against the
        manifest and the dense oracle, and all 293 perturbed suites."""
        work = self.tmp / "all"
        workload = workloads.setup_fixture_cli(ROOT, work, 1)
        codes = {}
        for op in workload.ops[:61]:
            outcome = op.observe(op.call())
            codes[outcome[0]] = codes.get(outcome[0], 0) + 1
            self.assertIsNone(op.expect(outcome), op.name)
            _, name, kind = op.name.split()
            self.assertIsNone(workloads.oracle_check(ROOT / "fixtures" / name, kind, outcome), op.name)
        self.assertEqual(codes, {0: 47, 1: 12, 2: 2})

        from tests.util import perturb

        report = self.tmp / "report.json"
        checked = 0
        for name, kind in gen.SUITE_FOR_FIXTURE.items():
            A, _ = load_presentation_file(ROOT / "fixtures" / name)
            for cell in gen.perturbation_cells(A):
                path = self.tmp / "perturbed.json"
                hc.dump_presentation_file(perturb(A, *cell, 1), path)
                op = workloads._check_op("", path, kind.value, report)
                outcome = op.observe(op.call())
                self.assertIsNone(op.expect(outcome), f"{name} {cell}")
                problem = workloads.oracle_check(path, kind.value, outcome)
                self.assertIsNone(problem, f"{name} {cell}")
                checked += 1
        self.assertEqual(checked, 293)

    def test_a_check_without_a_verdict_fails_its_expectation(self):
        """An input the CLI rejects (exit code 3, no report) is caught, also
        after an earlier execution of the same op wrote a report."""
        good = ROOT / "fixtures" / "hnp_4dim.json"
        bad = self.tmp / "bad.json"
        bad.write_text("{}")
        report = self.tmp / "report.json"
        op = workloads._check_op("", good, "hnp", report)
        self.assertIsNone(op.expect(op.observe(op.call())))
        self.assertFalse(report.exists())
        op = workloads._check_op("", bad, "hnp", report)
        self.assertEqual(op.expect(op.observe(op.call())), "exit code 3")

    def test_wrong_answers_raises_and_drift_count_as_failed(self):
        calls = iter(range(100))
        ops = [
            workloads.Op("right", lambda: 0, lambda r: r, lambda o: None),
            workloads.Op("wrong", lambda: 1, lambda r: r, lambda o: None if o == 0 else "want 0"),
            workloads.Op("raises", lambda: 1 // 0, lambda r: r),
            workloads.Op("drifts", lambda: next(calls), lambda r: r),
        ]
        records = [run.OpRecord() for _ in ops]
        timings = run.run_loop(ops, records, 0.0, 12)
        self.assertEqual((len(timings.runs), timings.passes), (12, 3))
        failed, problems = run.verify(workloads.Workload(ops), records)
        # 3 wrong, 3 raised, 2 of 3 drifting executions differ from the first
        self.assertEqual(failed, 3 + 3 + 2)
        self.assertEqual(len(problems), 3)


class Speed(unittest.TestCase):
    def test_latencies_scale_by_the_readings_around_them(self):
        speed = run.SpeedLog()
        speed.at, speed.seconds = [0.0, 1.0, 2.0], [0.002, 0.004, 0.004]
        ref = run.REF_MS / 1000.0
        # a call between two readings, and one after the last (only one reading)
        self.assertAlmostEqual(speed.scale(0.5, 0.030), 0.030 * ref / 0.003)
        self.assertAlmostEqual(speed.scale(1.5, 0.030), 0.030 * ref / 0.004)
        self.assertAlmostEqual(speed.scale(2.5, 0.030), 0.030 * ref / 0.004)


class Tracing(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _bindings(self):
        modules = [m for n, m in sys.modules.items() if n == "homcolor" or n.startswith(("homcolor.", "bench."))]
        owners = modules + [owner for _, owner, _ in tracing.HOT]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    def test_wrappers_leave_verdicts_and_report_bytes_unchanged(self):
        fixture = workloads.setup_fixture_cli(ROOT, self.tmp / "f", 3).ops
        tensor = workloads.setup_tensor_parametric(ROOT, self.tmp / "t", 3).ops
        closure = workloads.closure_ops(workloads.closure_inputs(3)[0])
        ops = fixture + tensor + closure
        before = self._bindings()
        plain = _outcomes(ops)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(cli.main, before[(id(cli), "main")])
            traced = _outcomes(ops)
        finally:
            tracer.uninstall()
        self.assertEqual(plain, traced)
        self.assertEqual(before, self._bindings())
        metrics = tracer.metrics(1.0, 1)
        self.assertEqual(metrics["cli.main.calls"][0], len(fixture) + 1)
        self.assertEqual(metrics["identities.fails"][0] > 0, True)
        self.assertGreater(metrics["scalars.max_terms"][0], 1)

    def test_traced_run_prints_every_per_layer_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        tracer = tracing.Tracer()
        names = set(tracer.metrics(1.0, 1)) | {
            "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.slowdown",
        }
        self.assertEqual({m["name"] for m in spec["per_layer"]}, names)


class Command(unittest.TestCase):
    def test_workload_names_agree(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))
        self.assertEqual(names, list(workloads.SETUPS))

    def test_refuses_to_run_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            spec = json.loads((ROOT / "BENCHMARK.json").read_text())
            done = subprocess.run(
                spec["command"] + ["--workload", "fixture-cli", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180,
            )
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
