"""Tests of the benchmark itself (not of fdematel).

Run from the root of a checkout:

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from fdematel.cli import main as fdematel_main  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=120,
    )


class OutputCheck(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.tmp)

    def _report(self, name, data, *flags):
        src = self.tmp / name
        src.write_bytes(data)
        out = self.tmp / (name + ".report.json")
        self.assertEqual(fdematel_main(["run", str(src), *flags, "--output", str(out)]), 0)
        return json.loads(out.read_text())

    def test_rejects_survey_report_with_one_total_cell_altered(self):
        rng = gen.rng_for(7, "selftest", 0)
        terms = gen.survey_terms(rng, 6, 4)
        spot = gen.spot_cells(rng, terms)
        report = self._report("s.json", gen.survey_json(terms))
        checks.check_report(report, spot=spot)
        report["matrices"]["total"][2][3] *= 1 + 1e-6
        with self.assertRaises(checks.CheckFailed):
            checks.check_report(report, spot=spot)

    def test_rejects_survey_report_with_one_direct_cell_altered(self):
        rng = gen.rng_for(7, "selftest", 1)
        terms = gen.survey_terms(rng, 6, 4)
        spot = gen.spot_cells(rng, terms)
        report = self._report("s.json", gen.survey_json(terms))
        i, j, _ = spot[0]
        report["matrices"]["direct"][i][j] += 1e-6
        with self.assertRaises(checks.CheckFailed):
            checks.check_report(report, spot=spot)

    def test_rejects_crisp_report_with_one_direct_cell_altered(self):
        matrix = gen.crisp_matrix(gen.rng_for(7, "selftest", 2), 8)
        report = self._report("m.csv", gen.crisp_csv(matrix), "--zero-diagonal")
        checks.check_report(report, crisp=matrix)
        report["matrices"]["direct"][1][5] = 0.5
        with self.assertRaises(checks.CheckFailed):
            checks.check_report(report, crisp=matrix)

    def test_rejects_sampled_row_of_normalized_altered(self):
        from fdematel import engine
        from fdematel.io import parse_crisp_matrix

        base = parse_crisp_matrix(gen.crisp_csv(gen.crisp_matrix(gen.rng_for(7, "selftest", 4), 8, zero_diagonal=True)))
        d, t, result = engine.analyze(base)
        s = result.scores
        args = [
            base.entries,
            d.entries.copy(),
            d.scale_factor,
            t.entries,
            [x.r for x in s],
            [x.c for x in s],
            [x.relation for x in s],
            [x.group.value for x in s],
            engine.extract_csf(result),
            list(base.catalog.ids),
        ]
        checks.check_analysis(*args, rows=[1, 5])
        args[1][5, 2] *= 1 + 1e-6
        with self.assertRaises(checks.CheckFailed):
            checks.check_analysis(*args, rows=[1, 5])


class Generator(unittest.TestCase):
    def _inputs(self, workload, seed):
        spec = run.WORKLOADS[workload]
        return [gen.make_input(seed, workload, i, spec["kind"], spec["smoke"])[0] for i in range(3)]

    def test_same_seed_gives_byte_identical_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = self._inputs(workload, 3)
                self.assertEqual(first, self._inputs(workload, 3))
                self.assertNotEqual(first, self._inputs(workload, 4))
                self.assertEqual(len(set(first)), len(first))  # each op gets its own input

    def test_repeat_share_counts_repeated_multisets(self):
        terms = gen.survey_terms(gen.rng_for(1, "selftest", 3), 3, 2)
        terms[:, 0, 1] = [0, 1]
        terms[:, 1, 0] = [1, 0]  # same multiset as (0, 1)
        for (i, j), cell in zip([(0, 2), (1, 2), (2, 0), (2, 1)], [[2, 4], [3, 4], [4, 4], [3, 3]]):
            terms[:, i, j] = cell  # distinct multisets
        stats = gen.survey_stats(terms)
        self.assertAlmostEqual(stats["repeat_share"], 2 / 6)
        self.assertEqual(stats["judgments"], 12)


class Smoke(unittest.TestCase):
    def test_every_workload_traced_and_untraced(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        expected = {
            0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]},
        }
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        for workload in run.WORKLOADS:
            for traced in (0, 1):
                with self.subTest(workload=workload, trace=traced):
                    proc = _bench(
                        "--workload", workload, "--seed", "5", "--seconds", "0.3",
                        "--trace", str(traced), "--size", "smoke",
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    last = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(last), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(last["correct"])
                    self.assertEqual(last["failed"], 0)
                    self.assertGreaterEqual(last["attempted"], 1)
                    self.assertEqual(set(last["metrics"]), expected[traced])

    def test_refuses_to_run_without_program_sources(self):
        bare = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench("--workload", "survey-paper", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
