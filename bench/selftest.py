"""Fast self-test of the benchmark itself: generators, output checks, span arithmetic.

Run from the root of a source checkout:

    python3 bench/selftest.py

It generates toy-size workloads, runs the program once on one of them in a
traced child process, and checks that the output checks accept that run
and reject deliberately damaged copies of its outputs.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from groupanon import reference as ref  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed, check_run, published_violations, read_table  # noqa: E402
from spans import Tracer, covered, self_time  # noqa: E402


class SpanArithmetic(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertEqual(covered([(1, 3), (2, 4), (6, 7), (6.5, 6.75)]), 4)
        self.assertEqual(covered([]), 0)

    def test_self_time_subtracts_children_once(self):
        spans = [
            {"name": "root", "start": 0.0, "end": 10.0, "parent": None},
            {"name": "a", "start": 1.0, "end": 3.0, "parent": 0},
            {"name": "b", "start": 2.0, "end": 4.0, "parent": 0},
            {"name": "c", "start": 9.0, "end": 12.0, "parent": 0},
            {"name": "grandchild", "start": 1.5, "end": 2.5, "parent": 1},
        ]
        self.assertAlmostEqual(self_time(spans, 0), 10 - 3 - 1)
        self.assertAlmostEqual(self_time(spans, 1), 1.0)
        self.assertAlmostEqual(self_time(spans, 4), 1.0)

    def test_tracer_records_parents_and_notes(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        module = type(sys)("toy")
        module.inner = lambda x: x + 1
        module.outer = lambda x: module.inner(x) * 2
        tracer.wrap(module, "inner", note=lambda a, k, r: {"value": r})
        tracer.wrap(module, "outer")
        self.assertEqual(module.outer(1), 4)
        outer, inner = tracer.spans
        self.assertEqual((outer["name"], outer["parent"]), ("outer", None))
        self.assertEqual((inner["name"], inner["parent"], inner["value"]), ("inner", 0, 2))
        self.assertEqual(self_time(tracer.spans, 0), 2.0)


class Generators(unittest.TestCase):
    def setUp(self):
        self.dir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))

    def tearDown(self):
        shutil.rmtree(self.dir)

    def test_census_swap_replicates_the_bundled_fixture(self):
        header, body = ref.fixture_path().read_bytes().split(b"\n", 1)
        for copies in (1, 3):
            wl = workloads.census_swap(self.dir, 7, copies=copies)
            self.assertEqual(wl.input.read_bytes(), header + b"\n" + body * copies)
            self.assertEqual(wl.records, 12_894 * copies)
            group = json.loads(wl.config.read_text())["groups"][0]
            self.assertEqual(group["shift"], ref.QUANTITY_SHIFT * copies)
            self.assertEqual(group["solution"], [v * copies for v in ref.QUANTITY_SOLUTION])
            self.assertEqual([r["bound"] for r in group["constraints"]["rows"]],
                             [b * copies for _, _, b, _ in ref.QUANTITY_SYSTEM])

    def test_long_axis_is_seeded_and_shaped(self):
        a = workloads.long_axis_table(5, 64)
        b = workloads.long_axis_table(5, 64)
        c = workloads.long_axis_table(6, 64)
        for name in workloads.COLUMNS:
            np.testing.assert_array_equal(a[name], b[name])
        self.assertFalse(np.array_equal(a["area"], c["area"]))
        codes = [f"L{i:05d}" for i in range(64)]
        members = a["area"][a["military_service"] == "1"]
        counts = np.array([np.sum(members == code) for code in codes], float)
        self.assertGreaterEqual(counts.min(), 1)
        rows, spikes = workloads.long_axis_rows(counts)
        self.assertEqual(len(rows), 2 * 64 - 2)
        self.assertEqual(spikes, sorted(int(p) + 1 for p in np.argsort(-counts)[:2]))
        for pos in spikes:
            self.assertEqual([rel for p, rel, _ in rows if p == pos], [">="])

    def test_paper_concentration_uses_the_reference_case(self):
        wl = workloads.paper_concentration(self.dir, 3)
        self.assertEqual(wl.records, 151_810)
        group = json.loads(wl.config.read_text())["groups"][0]
        self.assertEqual(group["signal"], "concentration")
        self.assertEqual(group["shift"], ref.CONCENTRATION_SHIFT)
        self.assertEqual(len(wl.rows), len(ref.CONCENTRATION_SYSTEM))


class OutputChecks(unittest.TestCase):
    """One traced toy run, then its outputs damaged one way at a time."""

    @classmethod
    def setUpClass(cls):
        cls.dir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
        cls.wl = workloads.long_axis(cls.dir, 3, m=64)
        cls.table_in = read_table(cls.wl.input)
        cls.rec = run.launch(cls.dir, cls.wl.config, "trace", 1, deadline=1e18)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir)

    def damaged(self, name: str, edit) -> tuple[Path, Path]:
        copy = self.dir / name
        shutil.copytree(self.rec["out"], copy)
        edit(copy)
        return copy / "modified.csv", copy / "report"

    def test_clean_run_passes_and_reports_utility(self):
        self.assertEqual(self.rec["exit"], 0, self.rec["log"].read_text())
        figures = check_run(self.wl, self.table_in, self.rec["out"] / "modified.csv",
                            self.rec["out"] / "report")
        self.assertGreater(figures["swaps"], 0)
        self.assertGreater(figures["swap_cost_mean"], 0)

    def test_spans_agree_with_report_timings(self):
        layer, stage_time = run.layer_metrics(self.rec["spans"])
        report = json.loads((self.rec["out"] / "report" / "report.json").read_text())
        timings = report["groups"][0]["timings"]
        self.assertTrue(run.timings_agree(run.timing_gaps(stage_time, timings), stage_time))
        self.assertEqual(layer["redistribute.linprog_calls"][0], 1)
        self.assertEqual(layer["redistribute.lp_rows"][0], 2 * 64 - 2)
        self.assertEqual(layer["remap.swaps"][0], report["groups"][0]["swaps"])
        self.assertGreater(layer["pipeline.run_group_self_s"][0], 0)
        self.assertFalse(run.timings_agree({"plan": 1.0}, {"plan": 0.1}))

    def assert_rejected(self, name, edit):
        with self.assertRaises(CheckFailed):
            check_run(self.wl, self.table_in, *self.damaged(name, edit))

    def test_changed_non_parameter_column_is_rejected(self):
        def edit(d):
            path = d / "modified.csv"
            text = path.read_text().splitlines()
            cells = text[1].split(",")
            cells[4] = str(int(cells[4]) + 1)
            text[1] = ",".join(cells)
            path.write_text("\n".join(text) + "\n")
        self.assert_rejected("column", edit)

    def test_unaudited_swap_is_rejected(self):
        def edit(d):
            path = d / "modified.csv"
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            first = next(i for i in range(1, len(rows)) if rows[i][0] != rows[1][0])
            rows[1][0], rows[first][0] = rows[first][0], rows[1][0]
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        self.assert_rejected("unaudited", edit)

    def test_missing_audit_row_is_rejected(self):
        def edit(d):
            path = d / "report" / f"{workloads.GROUP}_swaps.csv"
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
        self.assert_rejected("audit", edit)

    def test_wrong_signal_after_is_rejected(self):
        def edit(d):
            path = d / "report" / "report.json"
            report = json.loads(path.read_text())
            report["groups"][0]["signal_after"][0] += 1
            path.write_text(json.dumps(report))
        self.assert_rejected("recount", edit)

    def test_published_violations_count_rows(self):
        after = np.zeros(64)
        rows = ((1, "<=", -1.0), (2, ">=", 1.0), (3, "<=", 1.0))
        wl = workloads.Workload(self.wl.config, self.wl.input, 0, "quantity",
                                self.wl.parameter_order, rows)
        self.assertEqual(published_violations(wl, after), 2)


if __name__ == "__main__":
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    unittest.main()
