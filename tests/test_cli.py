import csv
import dataclasses
import json
import locale
import shutil
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import (MALFORMED_GROUPS, NON_FINITE_FIELDS, OVERFLOWING_NUMBERS, UNUSABLE_WEIGHTS,
                      base_config, with_number)
from groupanon import reference as ref
from groupanon import pipeline, redistribute, remap
from groupanon.cli import main
from groupanon.config import load_pipeline_config
from groupanon.errors import StageError
from groupanon.microfile import GroupSpec, load_microfile
from groupanon.signals import concentration_signal, quantity_signal
from groupanon.wavelet import (approximation_component, decompose, get_filter,
                               reconstruction_matrix)


def run_cli(*argv):
    return main(list(argv))


def read_signal_csv(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return [r["parameter_value"] for r in rows], np.array([float(r["value"]) for r in rows])


#: The edit fields of ``base_config()`` cleared, as a group with a declared target needs.
NO_EDIT = dict(constraints=None, solution=None, shift=None, repair=None)


class TestSignalCommand:
    def test_writes_csv_and_chart_with_spike_at_last_position(self, config_factory, tmp_path):
        path = config_factory()
        assert run_cli("signal", "--config", str(path), "--group", "active-duty") == 0
        labels, values = read_signal_csv(tmp_path / "out/report/active-duty_signal.csv")
        assert labels == list(ref.AREA_CODES)
        assert np.array_equal(values, ref.QUANTITY)
        assert int(np.argmax(values)) == 15  # the spike sits at the last position
        svg = (tmp_path / "out/report/active-duty_signal.svg").read_text()
        assert "<polyline" in svg and "06700" in svg

    def test_empty_group_charts_flat_zero(self, config_factory, tmp_path):
        path = config_factory(vital={"military_service": ["9"]})
        assert run_cli("signal", "--config", str(path), "--group", "active-duty") == 0
        _, values = read_signal_csv(tmp_path / "out/report/active-duty_signal.csv")
        assert not values.any()

    def test_concentration_signal_chart(self, config_factory, tmp_path):
        path = config_factory(signal="concentration")
        assert run_cli("signal", "--config", str(path), "--group", "active-duty") == 0
        _, values = read_signal_csv(tmp_path / "out/report/active-duty_signal.csv")
        assert values.shape == (16,)
        assert np.all(values > 0) and np.all(values <= 1)
        assert (tmp_path / "out/report/active-duty_signal.svg").exists()

    def test_unknown_group_is_config_error(self, config_factory):
        path = config_factory()
        assert run_cli("signal", "--config", str(path), "--group", "nope") == 2


class TestDecomposeCommand:
    def test_coefficients_csv(self, config_factory, tmp_path):
        path = config_factory()
        assert run_cli("decompose", "--config", str(path), "--group", "active-duty") == 0
        with open(tmp_path / "out/report/active-duty_coefficients.csv") as fh:
            rows = list(csv.DictReader(fh))
        approx = [float(r["value"]) for r in rows if r["component"] == "approx2"]
        details2 = [float(r["value"]) for r in rows if r["component"] == "detail2"]
        details1 = [float(r["value"]) for r in rows if r["component"] == "detail1"]
        assert np.max(np.abs(np.array(approx) - ref.QUANTITY_APPROX_2)) < 1e-3
        assert np.max(np.abs(np.array(details2) - ref.QUANTITY_DETAIL_2)) < 1e-3
        assert len(details1) == 8


class TestRunCommand:
    def test_reference_pipeline_realizes_final_signal(self, config_factory, tmp_path):
        path = config_factory()
        assert run_cli("run", "--config", str(path)) == 0
        out = load_microfile(tmp_path / "out/modified.csv", ref.FIXTURE_SCHEMA)
        q = quantity_signal(out, ref.fixture_group())
        assert np.array_equal(q.values, ref.QUANTITY_FINAL)
        report = json.loads((tmp_path / "out/report/report.json").read_text())
        group = report["groups"][0]
        assert group["shift"] == 2150.0
        assert set(group["timings"]) >= {"signal", "decompose", "check", "plan", "apply"}
        lp = group["lp"]
        assert (lp["rows"], lp["vars"]) == (len(ref.QUANTITY_SYSTEM), 4)
        assert 0 < lp["nonzeros"] <= lp["rows"] * lp["vars"]
        assert (lp["violated_rows"], lp["max_violation"]) == (0, 0.0)
        io = report["io"]
        assert io["config_s"] > 0 and io["load_s"] > 0 and io["write_s"] > 0
        assert io["records"] == out.n_records == 12894
        assert io["bytes_read"] == (tmp_path / "military.csv").stat().st_size
        written = [tmp_path / "out/modified.csv"] + [
            tmp_path / f"out/report/active-duty{suffix}" for suffix in
            ("_signal_before.csv", "_signal_after.csv", "_before.svg", "_after.svg", "_swaps.csv")]
        assert io["bytes_written"] == sum(p.stat().st_size for p in written)

    def test_report_key_set(self, config_factory, tmp_path):
        path = config_factory()
        assert run_cli("run", "--config", str(path)) == 0
        report = json.loads((tmp_path / "out/report/report.json").read_text())
        assert set(report) == {"output", "io", "groups"}
        assert set(report["io"]) == {"config_s", "load_s", "write_s", "records", "bytes_read",
                                     "bytes_written", "reader"}
        assert report["io"]["reader"] == "bytes"
        assert len(report["groups"]) == 1
        group = report["groups"][0]
        assert set(group) == {"name", "signal_before", "signal_after", "coefficients", "shift",
                              "swaps", "total_swap_cost", "plan", "lp", "timings", "warnings"}
        assert set(group["lp"]) == {"rows", "vars", "nonzeros", "solves", "coefficients_moved",
                                    "violated_rows", "max_violation",
                                    "published_violated_rows", "published_max_violation"}
        plan = group["plan"]
        assert set(plan) == {"blocks", "swept_blocks", "queues_built", "trees_built",
                             "pairs_scored", "refills", "runs", "batches"}
        # a quantity group's counts before and after give the flow the planner ran
        surplus = np.array(group["signal_before"]) - np.array(group["signal_after"])
        assert plan["blocks"] == len(remap._flow_blocks(surplus.astype(np.int64)))
        assert 0 <= plan["swept_blocks"] <= plan["blocks"]
        assert 0 < plan["queues_built"] <= 2 * len(group["signal_before"])
        assert plan["pairs_scored"] > 0
        # a run pairs at least two swaps, and only a batch pairs off runs
        assert 0 <= 2 * plan["runs"] <= group["swaps"]
        assert plan["batches"] <= group["swaps"] and (plan["batches"] > 0 or plan["runs"] == 0)

    @pytest.mark.parametrize("case, solves", [("declared", 0), ("warm-start", 0),
                                              ("violated-start", 1), ("objective", None)])
    def test_lp_reports_solves_and_coefficients_moved(self, config_factory, tmp_path,
                                                      case, solves):
        dec = decompose(ref.QUANTITY, get_filter("db2"), 2)
        level = approximation_component(dec)
        config = base_config()
        group = config["groups"][0]
        if case != "declared":
            del group["solution"]
            group["shift"] = "auto"
            # a band of +-5 around every position's original value, or a cap the
            # original coefficients miss at position 16
            rows = ([(16, "<=", 0.9 * level[15])] if case == "violated-start" else
                    [(p, rel, level[p - 1] + (5.0 if rel == "<=" else -5.0))
                     for p in range(1, 17) for rel in ("<=", ">=")])
            group["constraints"] = {
                "rows": [{"position": p, "relation": rel, "bound": float(b)} for p, rel, b in rows],
                "objective": {"minimize": [16]} if case == "objective" else "feasibility",
            }
        assert run_cli("run", "--config", str(config_factory(config))) == 0
        group = json.loads((tmp_path / "out/report/report.json").read_text())["groups"][0]
        moved = np.count_nonzero(np.array(group["coefficients"]) != dec.approx)
        assert group["lp"]["coefficients_moved"] == moved
        assert (moved > 0) == (case != "warm-start")
        if case == "objective":
            assert group["lp"]["solves"] >= 1
        else:
            assert group["lp"]["solves"] == solves

    def test_report_parses_as_the_indented_dump(self, config_factory, tmp_path):
        path = config_factory()
        with mock.patch.object(pipeline, "_json_text", wraps=pipeline._json_text) as encode:
            assert run_cli("run", "--config", str(path)) == 0
        report = encode.call_args_list[0].args[0]
        text = (tmp_path / "out/report/report.json").read_text()
        assert json.loads(text) == json.loads(json.dumps(report, indent=2))
        # objects indented two spaces a level; an array of numbers on its key's line
        lines = text.splitlines()
        assert lines[0] == "{" and lines[-1] == "}" and text.endswith("}\n")
        assert '  "groups": [' in lines and '    {' in lines
        group = report["groups"][0]
        line = next(x for x in lines if x.startswith('      "signal_after": '))
        assert line == f'      "signal_after": {json.dumps(group["signal_after"])},'
        assert '  "io": {' in lines and '      "plan": {' in lines

    def test_published_bounds_are_audited(self, config_factory, tmp_path):
        path = config_factory()
        assert run_cli("run", "--config", str(path)) == 0
        group = json.loads((tmp_path / "out/report/report.json").read_text())["groups"][0]
        # independent recount: the published counts' approximation component
        out = load_microfile(tmp_path / "out/modified.csv", ref.FIXTURE_SCHEMA)
        published = quantity_signal(out, ref.fixture_group()).values
        approx = approximation_component(decompose(published, get_filter("db2"), 2))
        gaps = {pos: approx[pos - 1] - bound if rel == "<=" else bound - approx[pos - 1]
                for pos, rel, bound, _ in ref.QUANTITY_SYSTEM}
        assert sorted(pos for pos, gap in gaps.items() if gap > 1e-9) == [3, 14]
        lp = group["lp"]
        assert lp["published_violated_rows"] == 2
        assert lp["published_max_violation"] == pytest.approx(max(gaps.values()), rel=1e-9)
        assert "audit" in group["timings"]
        audit = [w for w in group["warnings"] if w.startswith("published signal")]
        assert len(audit) == 1
        assert "violates 2 of 12 declared rows" in audit[0]
        assert "worst is rows[9]: " in audit[0] and "off by 206.203" in audit[0]

    @pytest.mark.parametrize("kind", ["concentration", "difference"])
    def test_audit_recounts_the_published_concentrations(self, kind, config_factory, tmp_path):
        main_group = ref.fixture_group()
        sub_group = dataclasses.replace(main_group, vital=(("military_service", frozenset("3")),))

        def signal(table):
            values = concentration_signal(table, main_group).values
            if kind == "difference":
                values = values - concentration_signal(table, sub_group).values
            return values

        def approx(values):
            return approximation_component(decompose(values, get_filter("db2"), 2))

        # cap the spike at position 16 and loosely floor the rest
        original = approx(signal(ref.load_quantity_microfile()))
        rows = [(16, "<=", 0.9 * original[15])] + [
            (p, ">=", original[p - 1] - 0.3 * abs(original[p - 1])) for p in range(1, 16)]
        config = base_config()
        group = config["groups"][0]
        group["signal"] = kind
        if kind == "difference":
            group["subordinate_vital"] = {"military_service": ["3"]}
        group["constraints"] = {
            "rows": [{"position": p, "relation": rel, "bound": float(b)} for p, rel, b in rows],
            "objective": "feasibility",
        }
        del group["solution"]
        group["shift"] = "auto"
        path = config_factory(config)
        assert run_cli("run", "--config", str(path)) == 0
        group = json.loads((tmp_path / "out/report/report.json").read_text())["groups"][0]
        assert group["swaps"] > 0
        published = approx(signal(load_microfile(tmp_path / "out/modified.csv",
                                                 ref.FIXTURE_SCHEMA)))
        gaps = np.array([published[p - 1] - b if rel == "<=" else b - published[p - 1]
                         for p, rel, b in rows])
        assert group["lp"]["published_violated_rows"] == np.count_nonzero(gaps > 1e-9) > 0
        assert group["lp"]["published_max_violation"] == pytest.approx(gaps.max(), rel=1e-9)

    def test_ordinal_parameter_runs_end_to_end(self, tmp_path):
        # integer years as the parameter attribute, with a spike of members at 2012
        rng = np.random.default_rng(7)
        years = np.repeat(np.arange(2000, 2016), 25)
        service = np.where((rng.random(400) < 0.2) | ((years == 2012) & (rng.random(400) < 0.5)),
                           "1", "0")
        sex = np.where(rng.random(400) < 0.8, "1", "2")
        service[sex == "2"] = "0"
        ages = rng.integers(18, 65, 400)
        with open(tmp_path / "years.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["year", "service", "sex", "age"])
            writer.writerows(zip(years.tolist(), service, sex, ages.tolist()))
        order = [str(y) for y in range(2000, 2016)]
        counts = np.array([np.count_nonzero((years == y) & (service == "1"))
                           for y in range(2000, 2016)], dtype=float)
        original = approximation_component(decompose(counts, get_filter("db2"), 2))
        rows = [(13, "<=", 0.7 * original[12])] + [
            (p, ">=", 0.7 * original[p - 1]) for p in range(1, 17) if p != 13]
        config = {
            "input": "years.csv",
            "output": "out/modified.csv",
            "report_dir": "out/report",
            "schema": [
                {"name": "year", "kind": "ordinal", "role": "parameter"},
                {"name": "service", "kind": "nominal", "role": "vital", "weight": 1.0},
                {"name": "sex", "kind": "nominal", "role": "plain"},
                {"name": "age", "kind": "ordinal", "role": "influential", "weight": 1.0},
            ],
            "groups": [{
                "name": "service",
                "vital": {"service": ["1"]},
                "parameter": "year",
                "parameter_order": order,
                "superset": {"sex": ["1"]},
                "constraints": {"rows": [{"position": p, "relation": rel, "bound": float(b)}
                                         for p, rel, b in rows]},
            }],
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run_cli("run", "--config", str(tmp_path / "config.json")) == 0

        group = json.loads((tmp_path / "out/report/report.json").read_text())["groups"][0]
        assert group["swaps"] > 0
        assert group["signal_before"] == counts.tolist()
        with open(tmp_path / "out/modified.csv", newline="") as fh:
            out = list(csv.DictReader(fh))
        assert {r["year"] for r in out} == set(order)
        assert sorted(r["year"] for r in out) == sorted(str(y) for y in years)
        recount = [sum(r["year"] == y and r["service"] == "1" for r in out) for y in order]
        assert recount == group["signal_after"]

    def test_identity_constraints_leave_microfile_unchanged(self, config_factory, tmp_path):
        config = base_config()
        group = config["groups"][0]
        group["constraints"] = {
            "rows": [{"position": i, "relation": "<=", "bound": "original"} for i in range(1, 17)],
            "objective": "feasibility",
        }
        del group["solution"]
        group["shift"] = "auto"
        path = config_factory(config)
        assert run_cli("run", "--config", str(path)) == 0
        assert (tmp_path / "out/modified.csv").read_text() == (tmp_path / "military.csv").read_text()
        report = json.loads((tmp_path / "out/report/report.json").read_text())
        assert {"solve", "check"} <= set(report["groups"][0]["timings"])
        assert report["io"]["bytes_read"] == (tmp_path / "out/modified.csv").stat().st_size

    def test_mismatched_manual_target_is_stage_error(self, config_factory, capsys):
        bad = [int(v) for v in ref.QUANTITY]
        bad[0] += 1  # breaks the total
        path = config_factory(target=bad, **NO_EDIT)
        assert run_cli("run", "--config", str(path)) == 1
        assert "total" in capsys.readouterr().err

    def test_manual_target_bypasses_redistribution(self, config_factory, tmp_path):
        path = config_factory(target=[int(v) for v in ref.QUANTITY_FINAL], **NO_EDIT)
        assert run_cli("run", "--config", str(path)) == 0
        out = load_microfile(tmp_path / "out/modified.csv", ref.FIXTURE_SCHEMA)
        assert np.array_equal(quantity_signal(out, ref.fixture_group()).values,
                              ref.QUANTITY_FINAL)

    def test_declared_target_reports_no_lp(self, config_factory, tmp_path):
        path = config_factory(target=[int(v) for v in ref.QUANTITY_FINAL], **NO_EDIT)
        assert run_cli("run", "--config", str(path)) == 0
        report = json.loads((tmp_path / "out/report/report.json").read_text())
        assert report["groups"][0]["lp"] is None

    def test_run_is_deterministic(self, config_factory, tmp_path):
        path = config_factory()
        assert run_cli("run", "--config", str(path)) == 0
        first = (tmp_path / "out/modified.csv").read_text()
        first_io = json.loads((tmp_path / "out/report/report.json").read_text())["io"]
        assert run_cli("run", "--config", str(path)) == 0
        assert (tmp_path / "out/modified.csv").read_text() == first
        io = json.loads((tmp_path / "out/report/report.json").read_text())["io"]
        for key in ("records", "bytes_read", "bytes_written"):
            assert io[key] == first_io[key]
        # every output was replaced through a temporary file that is gone again
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]

    def test_concentration_identity_run(self, config_factory, tmp_path):
        config = base_config()
        group = config["groups"][0]
        group["signal"] = "concentration"
        group["constraints"] = {
            "rows": [{"position": i, "relation": "<=", "bound": "original"} for i in range(1, 17)],
            "objective": "feasibility",
        }
        del group["solution"]
        group["shift"] = "auto"
        path = config_factory(config)
        assert run_cli("run", "--config", str(path)) == 0
        out = load_microfile(tmp_path / "out/modified.csv", ref.FIXTURE_SCHEMA)
        # identity concentrations convert back to the original counts
        assert np.array_equal(quantity_signal(out, ref.fixture_group()).values, ref.QUANTITY)

    def test_concentration_clamping_is_reported(self, config_factory, tmp_path, caplog):
        # a declared shift of -0.02 pushes the one concentration below 0.02
        # (position 7, 0.0148) negative; the conversion clamps it to zero
        config = base_config()
        group = config["groups"][0]
        group["signal"] = "concentration"
        group["constraints"] = {
            "rows": [{"position": i, "relation": "<=", "bound": "original"} for i in range(1, 17)],
            "objective": "feasibility",
        }
        del group["solution"]
        group["shift"] = -0.02
        path = config_factory(config)
        assert run_cli("run", "--config", str(path)) == 0
        report = json.loads((tmp_path / "out/report/report.json").read_text())
        warning = "clamping 1 negative value(s) to zero before conversion"
        assert report["groups"][0]["warnings"] == [warning]
        assert report["groups"][0]["signal_after"][6] == 0
        assert [r.getMessage() for r in caplog.records].count(f"group active-duty: {warning}") == 1

    def test_quantity_clamping_is_reported(self, config_factory, tmp_path):
        # a declared shift of 2000 leaves position 1 (-2100.9 reassembled) negative;
        # the conversion clamps it to zero as it does a concentration
        path = config_factory(shift=2000)
        assert run_cli("run", "--config", str(path)) == 0
        group = json.loads((tmp_path / "out/report/report.json").read_text())["groups"][0]
        warning = "clamping 1 negative value(s) to zero before conversion"
        assert group["warnings"][0] == warning and group["warnings"].count(warning) == 1
        assert group["signal_after"][0] == 0 and sum(group["signal_after"]) == 6272

    def test_difference_identity_run(self, config_factory, tmp_path):
        config = base_config()
        group = config["groups"][0]
        group["signal"] = "difference"
        group["subordinate_vital"] = {"military_service": ["3"]}
        group["constraints"] = {
            "rows": [{"position": i, "relation": "<=", "bound": "original"} for i in range(1, 17)],
            "objective": "feasibility",
        }
        del group["solution"]
        group["shift"] = "auto"
        path = config_factory(config)
        assert run_cli("run", "--config", str(path)) == 0
        out = load_microfile(tmp_path / "out/modified.csv", ref.FIXTURE_SCHEMA)
        assert np.array_equal(quantity_signal(out, ref.fixture_group()).values, ref.QUANTITY)

    def test_mean_std_repair_identity_run(self, config_factory, tmp_path):
        config = base_config()
        group = config["groups"][0]
        group["repair"] = "mean_std"
        group["constraints"] = {
            "rows": [{"position": i, "relation": "<=", "bound": "original"} for i in range(1, 17)],
            "objective": "feasibility",
        }
        del group["solution"]
        group["shift"] = "auto"
        path = config_factory(config)
        assert run_cli("run", "--config", str(path)) == 0
        out = load_microfile(tmp_path / "out/modified.csv", ref.FIXTURE_SCHEMA)
        assert np.array_equal(quantity_signal(out, ref.fixture_group()).values, ref.QUANTITY)

    def test_mean_std_repair_beyond_fixture_capacity_is_surfaced(self, config_factory, capsys):
        # the mean/std repair maps the reference solution onto swings the
        # fixture's partner pools cannot absorb; the planner must say where
        path = config_factory(repair="mean_std")
        assert run_cli("run", "--config", str(path)) == 1
        assert "not enough partners" in capsys.readouterr().err

    def test_report_before_signal_matches_signal_command(self, config_factory, tmp_path):
        path = config_factory()
        assert run_cli("run", "--config", str(path)) == 0
        assert run_cli("signal", "--config", str(path), "--group", "active-duty") == 0
        run_csv = (tmp_path / "out/report/active-duty_signal_before.csv").read_text()
        cmd_csv = (tmp_path / "out/report/active-duty_signal.csv").read_text()
        assert run_csv == cmd_csv

    def test_stage_error_writes_no_partial_output(self, config_factory, tmp_path):
        bad = [int(v) for v in ref.QUANTITY]
        bad[0] += 1
        path = config_factory(target=bad, **NO_EDIT)
        assert run_cli("run", "--config", str(path)) == 1
        assert not (tmp_path / "out/modified.csv").exists()
        assert not (tmp_path / "out/report/report.json").exists()

    def test_missing_input_is_stage_error(self, config_factory, tmp_path):
        path = config_factory()
        (tmp_path / "military.csv").unlink()
        assert run_cli("run", "--config", str(path)) in (1, 2)

    def test_repair_none_writes_what_mean_fix_writes(self, config_factory, tmp_path, caplog):
        path = config_factory(repair="none")
        with caplog.at_level("WARNING", logger="groupanon.config"):
            assert run_cli("run", "--config", str(path)) == 0
        assert [r.getMessage() for r in caplog.records if r.name == "groupanon.config"] == [
            f"{path}: $.groups[0].repair: repair 'none' is the same as 'mean_fix' and loads as it"]
        written = outputs(tmp_path / "out")
        assert run_cli("run", "--config", str(config_factory(repair="mean_fix"))) == 0
        assert outputs(tmp_path / "out") == written

    def test_unscaled_empty_group_is_repair_error(self, config_factory, capsys):
        config = base_config()
        group = config["groups"][0]
        del group["solution"]
        group.update(vital={"military_service": ["9"]}, repair="none", shift="auto",
                     constraints={"rows": [{"position": 1, "relation": "<=",
                                            "bound": "original"}]})
        path = config_factory(config)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("run", "--config", str(path)) == 1
        assert capsys.readouterr().err.startswith("stage error [repair:active-duty] ")

    def test_infeasible_rows_stop_at_solve_naming_the_conflict(self, config_factory, tmp_path,
                                                               capsys):
        config = base_config()
        group = config["groups"][0]
        del group["solution"]
        group["constraints"] = {"rows": [{"position": 16, "relation": "<=", "bound": 1.0},
                                         {"position": 16, "relation": ">=", "bound": 2.0}]}
        assert run_cli("run", "--config", str(config_factory(config))) == 1
        assert capsys.readouterr().err == (
            "stage error [solve:active-duty] constraint system is infeasible; irreducible "
            "conflict (best effort): rows[0]: +0.512*a(1) -0.012*a(4) <= 1.000; "
            "rows[1]: +0.512*a(1) -0.012*a(4) >= 2.000\n")
        assert not (tmp_path / "out").exists()

    def test_unbounded_objective_stops_at_solve(self, config_factory, tmp_path, capsys):
        config = base_config()
        group = config["groups"][0]
        del group["solution"]
        group["constraints"] = {"rows": [{"position": 16, "relation": ">=", "bound": "original"}],
                                "objective": {"maximize": [16]},
                                "nonnegative_coefficients": False}
        assert run_cli("run", "--config", str(config_factory(config))) == 1
        assert capsys.readouterr().err == ("stage error [solve:active-duty] objective is "
                                           "unbounded over the constraint system\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["signal", "decompose", "redistribute", "run"])
    def test_signal_failure_is_tagged_signal_by_every_command(self, command, config_factory,
                                                              capsys):
        # every member falls outside the superset, so no concentration exists
        path = config_factory(signal="concentration", superset={"military_service": ["2"]})
        group = [] if command == "run" else ["--group", "active-duty"]
        assert run_cli(command, "--config", str(path), *group) == 1
        assert capsys.readouterr().err.startswith("stage error [signal:active-duty] ")

    def test_quantity_member_outside_the_superset_stops_at_signal(self, config_factory, capsys):
        path = config_factory(superset={"military_service": ["2"]})
        assert run_cli("run", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage error [signal:active-duty] ")
        assert "fall outside the declared superset" in err


class TestNominalColumnsStayCoded:
    def test_run_sorts_and_matches_no_text_column(self, config_factory, monkeypatch):
        # every stage reads a nominal column's codes, so no text array longer
        # than the largest vocabulary reaches a sort or a set operation
        table = ref.load_quantity_microfile()
        longest = max(np.unique(table.column(a.name)).size
                      for a in table.attributes if a.kind == "nominal")

        def guarded(fn):
            def call(*args, **kwargs):
                for arg in (*args, *kwargs.values()):
                    if (isinstance(arg, np.ndarray) and arg.dtype.kind in "UO"
                            and arg.size > longest):
                        raise AssertionError(f"np.{fn.__name__} over {arg.size} texts")
                return fn(*args, **kwargs)
            return call

        path = config_factory()
        for name in ("unique", "isin", "argsort"):
            monkeypatch.setattr(np, name, guarded(getattr(np, name)))
        assert run_cli("run", "--config", str(path)) == 0


def outputs(out_dir):
    """Every file a run wrote under ``out_dir``; ``report.json`` without its timings and io."""
    files = {p.relative_to(out_dir): p.read_bytes() for p in out_dir.rglob("*") if p.is_file()}
    report = json.loads(files.pop(Path("report/report.json")))
    for group in report["groups"]:
        del group["timings"]
    del report["io"], report["output"]
    return files, report


def write_config(directory, config):
    """``config`` and a fixture copy in ``directory``; the config's path."""
    directory.mkdir(exist_ok=True)
    shutil.copy(ref.fixture_path(), directory / "military.csv")
    (directory / "config.json").write_text(json.dumps(config))
    return directory / "config.json"


def reserve_group(vital=None, superset=None):
    """A declared-target group moving 40 of its members from position 12 to 11.

    Its members default to ``military_service`` = 2; without a superset its
    swap partners are any other records, ``active-duty`` members among them.
    """
    vital = vital or {"military_service": ["2"]}
    spec = GroupSpec.create({k: set(v) for k, v in vital.items()}, "area", ref.AREA_CODES)
    target = quantity_signal(ref.load_quantity_microfile(), spec).values.astype(int)
    target[11] -= 40
    target[10] += 40
    group = {"name": "reserve", "vital": vital, "parameter": "area",
             "parameter_order": list(ref.AREA_CODES), "target": target.tolist()}
    if superset is not None:
        group["superset"] = superset
    return group


def identity_group(kind):
    """The bundled group as a ``kind`` signal whose rows keep the original coefficients."""
    config = base_config()
    group = config["groups"][0]
    group["signal"] = kind
    if kind == "difference":
        group["subordinate_vital"] = {"military_service": ["3"]}
    group["constraints"] = {
        "rows": [{"position": i, "relation": "<=", "bound": "original"} for i in range(1, 17)]}
    del group["solution"]
    group["shift"] = "auto"
    return group


class TestRunGroupOption:
    def test_swap_audit_csv(self, config_factory, tmp_path):
        path = config_factory()
        assert run_cli("run", "--config", str(path), "--group", "active-duty") == 0
        with open(tmp_path / "out/report/active-duty_swaps.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3822
        assert {"member_index", "partner_index", "cost"} <= set(rows[0])
        report = json.loads((tmp_path / "out/report/report.json").read_text())
        assert [g["name"] for g in report["groups"]] == ["active-duty"]

    def test_unknown_group_is_config_error(self, config_factory, tmp_path, capsys):
        path = config_factory()
        assert run_cli("run", "--config", str(path), "--group", "nope") == 2
        assert "no group named 'nope'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_group_runs_alone_on_the_input_table(self, tmp_path):
        # reserve alone from a two-group config writes what a reserve-only config writes
        both = base_config()
        both["groups"].append(reserve_group())
        assert run_cli("run", "--config", str(write_config(tmp_path / "both", both)),
                       "--group", "reserve") == 0
        alone = base_config()
        alone["groups"] = [reserve_group()]
        assert run_cli("run", "--config", str(write_config(tmp_path / "alone", alone))) == 0
        files, report = outputs(tmp_path / "both/out")
        assert sorted(map(str, files)) == ["modified.csv"] + [
            f"report/reserve{suffix}" for suffix in
            ("_after.svg", "_before.svg", "_signal_after.csv", "_signal_before.csv", "_swaps.csv")]
        assert (files, report) == outputs(tmp_path / "alone/out")


class TestFinalRecount:
    def test_later_group_moving_earlier_members_stops_the_run(self, tmp_path, capsys):
        config = base_config()
        config["groups"].append(reserve_group())
        assert run_cli("run", "--config", str(write_config(tmp_path, config))) == 1
        err = capsys.readouterr().err
        assert err.startswith("stage error [recount:active-duty] ")
        assert "moved its members at position 1 ('06010')" in err
        assert not (tmp_path / "out").exists()

    def test_partners_outside_earlier_groups_publish_every_group(self, tmp_path):
        config = base_config()
        config["groups"].append(reserve_group(superset={"military_service": ["0", "2", "3", "4"]}))
        assert run_cli("run", "--config", str(write_config(tmp_path, config))) == 0
        out = load_microfile(tmp_path / "out/modified.csv", ref.FIXTURE_SCHEMA)
        report = json.loads((tmp_path / "out/report/report.json").read_text())
        for gcfg, group in zip(load_pipeline_config(tmp_path / "config.json").groups,
                               report["groups"]):
            assert quantity_signal(out, gcfg.group).values.tolist() == group["signal_after"]
        assert "final_recount" in report["groups"][0]["timings"]
        assert "final_recount" not in report["groups"][1]["timings"]

    @pytest.mark.parametrize("kind, vital, superset, moved", [
        ("concentration", None, {"military_service": ["0", "2", "3", "4"]}, "superset"),
        ("difference", {"military_service": ["2"], "sex": ["1"]},
         {"military_service": ["0", "2", "3", "4"], "sex": ["1"]}, "subordinate concentration"),
    ])
    def test_later_group_moving_earlier_denominators_or_subordinate_stops_the_run(
            self, kind, vital, superset, moved, tmp_path, capsys):
        # the later group's partners leave the earlier group's members alone
        config = base_config()
        config["groups"] = [identity_group(kind), reserve_group(vital, superset)]
        assert run_cli("run", "--config", str(write_config(tmp_path, config))) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage error [recount:active-duty] a later group's swaps "
                              f"moved its {moved} at position ")
        assert not (tmp_path / "out").exists()


class TestRedistributeCommand:
    def test_redistribution_artifacts(self, config_factory, tmp_path):
        path = config_factory()
        assert run_cli("redistribute", "--config", str(path), "--group", "active-duty") == 0
        payload = json.loads((tmp_path / "out/report/active-duty_redistribution.json").read_text())
        assert np.allclose(payload["coefficients"], ref.QUANTITY_SOLUTION)
        assert payload["shift"] == 2150.0
        redistributed = read_signal_csv(
            tmp_path / "out/report/active-duty_signal_redistributed.csv")[1]
        assert np.array_equal(redistributed, ref.QUANTITY_FINAL)
        # the command stops after repair: no swap plan and no published-signal audit
        assert payload["warnings"] == []
        assert not (tmp_path / "out/report/active-duty_swaps.csv").exists()

    def test_constraints_list_every_row_with_its_check(self, config_factory, tmp_path):
        path = config_factory()
        assert run_cli("redistribute", "--config", str(path), "--group", "active-duty") == 0
        payload = json.loads((tmp_path / "out/report/active-duty_redistribution.json").read_text())
        dec = decompose(ref.QUANTITY, get_filter("db2"), 2)
        matrix = reconstruction_matrix(dec.filter, 2, 16)
        expected = []
        for i, (position, relation, bound, _) in enumerate(ref.QUANTITY_SYSTEM):
            row = matrix[position - 1]
            terms = [f"{c:+.3f}*a({j + 1})" for j, c in enumerate(row) if abs(c) >= 5e-4]
            lhs = float(row @ ref.QUANTITY_SOLUTION)
            expected.append((f"rows[{i}]: {' '.join(terms)} {relation} {bound:.3f}", lhs,
                             lhs <= bound + 1e-9 if relation == "<=" else lhs >= bound - 1e-9))
        got = [(c["row"], c["lhs"], c["satisfied"]) for c in payload["constraints"]]
        assert [g[0] for g in got] == [e[0] for e in expected]
        assert [g[2] for g in got] == [e[2] for e in expected] == [True] * 12
        assert np.allclose([g[1] for g in got], [e[1] for e in expected], rtol=1e-12)

    def test_a_declared_target_lists_no_constraints(self, config_factory, tmp_path):
        path = config_factory(target=[int(v) for v in ref.QUANTITY_FINAL], constraints=None,
                              solution=None, shift=None, repair=None)
        assert run_cli("redistribute", "--config", str(path), "--group", "active-duty") == 0
        payload = json.loads((tmp_path / "out/report/active-duty_redistribution.json").read_text())
        assert payload["constraints"] == [] and payload["shift"] == 0.0

    def test_mean_std_repair_needs_no_swap_partners(self, config_factory, tmp_path, caplog):
        # `run` cannot plan this config (test_mean_std_repair_beyond_fixture_capacity_is_surfaced);
        # `redistribute` plans no swaps, so it succeeds
        path = config_factory(repair="mean_std")
        assert run_cli("redistribute", "--config", str(path), "--group", "active-duty") == 0
        payload = json.loads((tmp_path / "out/report/active-duty_redistribution.json").read_text())
        warning = "clamping 5 negative value(s) to zero before conversion"
        assert payload["warnings"] == [warning]
        assert [r.getMessage() for r in caplog.records] == [f"group active-duty: {warning}"]
        redistributed = read_signal_csv(
            tmp_path / "out/report/active-duty_signal_redistributed.csv")[1]
        assert redistributed.sum() == 6272 and redistributed.min() == 0


class TestRowsNamedByIndex:
    """Every message that names a declared row names it ``rows[j]: <text>``, j its config index."""

    def test_redistribution_json_tells_rows_of_one_text_apart(self, config_factory, tmp_path):
        # rows 11-13 all read "<terms> <= 1156.942" once the bound is rounded
        config = base_config()
        config["groups"][0]["constraints"]["rows"] += [
            {"position": 16, "relation": "<=", "bound": 1156.9421},
            {"position": 16, "relation": "<=", "bound": 1156.9424}]
        path = config_factory(config)
        assert run_cli("redistribute", "--config", str(path), "--group", "active-duty") == 0
        payload = json.loads((tmp_path / "out/report/active-duty_redistribution.json").read_text())
        names = [c["row"] for c in payload["constraints"]]
        assert [name.split(": ", 1)[0] for name in names] == [f"rows[{i}]" for i in range(14)]
        assert len({name.split(": ", 1)[1] for name in names[11:]}) == 1

    def test_concentration_warnings_name_rows(self, config_factory, concentration_microfile):
        config = base_config()
        group = config["groups"][0]
        group.update(signal="concentration", shift=ref.CONCENTRATION_SHIFT,
                     solution=[float(v) for v in ref.CONCENTRATION_SOLUTION])
        group["constraints"]["rows"] = [{"position": p, "relation": rel, "bound": b}
                                        for p, rel, b, _ in ref.CONCENTRATION_SYSTEM]
        gcfg = load_pipeline_config(config_factory(config)).groups[0]
        log = pipeline.GroupLog(gcfg.name)
        edit = pipeline.edit_group(concentration_microfile, gcfg, log)
        _, result = pipeline.realize_group(concentration_microfile, gcfg, edit, log)
        declared, published = log.warnings
        assert declared == (f"declared solution violates {edit.lp.describe_row(4)} "
                            f"by {edit.checks.violation[4]:.6g}")
        assert declared.startswith("declared solution violates rows[4]: ")
        worst = result.published_checks.violation[3]
        assert worst == result.published_checks.violation.max()
        assert published.endswith(f"; worst is {edit.lp.describe_row(3)}, off by {worst:.6g}")
        assert "; worst is rows[3]: " in published

    def test_solver_check_names_the_missed_row(self, config_factory, fixture_microfile):
        # the stubbed solver doubles a0: the loose row 0 still holds, row 1 does not
        rows = [{"position": 1, "relation": ">=", "bound": -1e9},
                {"position": 16, "relation": "<=", "bound": "original"}]
        gcfg = load_pipeline_config(config_factory(
            constraints={"rows": rows, "objective": "feasibility"}, solution=None)).groups[0]
        def doubled(lp, warm_start, info):
            return 2 * warm_start

        with (mock.patch.object(redistribute, "solve_constraints", doubled),
              pytest.raises(StageError) as err):
            pipeline.edit_group(fixture_microfile, gcfg, pipeline.GroupLog(gcfg.name))
        lp = redistribute.build_constraints(decompose(ref.QUANTITY, get_filter("db2"), 2),
                                            gcfg.constraints)
        assert str(err.value) == f"[solve:active-duty] solver output violates {lp.describe_row(1)}"
        assert str(err.value).startswith("[solve:active-duty] solver output violates rows[1]: ")


class TestVerifyCommand:
    def test_clean_build_verifies(self, capsys):
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        assert "0 failed" in out
        assert "known discrepancy" in out

    def test_missing_fixture_reported(self, tmp_path, capsys):
        assert run_cli("verify", "--fixture", str(tmp_path / "gone.csv")) == 3
        assert "fixture missing" in capsys.readouterr().out


class TestExitCodes:
    def test_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert run_cli("run", "--config", str(path)) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, path", MALFORMED_GROUPS)
    def test_malformed_field_exits_2_naming_its_path(self, edit, path, config_factory, capsys):
        config = base_config()
        edit(config["groups"][0])
        assert run_cli("run", "--config", str(config_factory(config))) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert path in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, error", NON_FINITE_FIELDS)
    def test_non_finite_number_exits_2_naming_its_path(self, edit, error, config_factory, capsys):
        config = base_config()
        edit(config)
        assert run_cli("run", "--config", str(config_factory(config))) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert error in err and "Traceback" not in err

    @pytest.mark.parametrize("edit, literal, error", OVERFLOWING_NUMBERS)
    def test_overflowing_number_exits_2_naming_its_path(self, edit, literal, error,
                                                        config_factory, capsys):
        config = base_config()
        edit(config)
        path = with_number(config_factory(config), literal)
        assert run_cli("run", "--config", str(path)) == 2
        assert capsys.readouterr().err == f"configuration error: {path}: {error}\n"

    @pytest.mark.parametrize("edit, error", UNUSABLE_WEIGHTS)
    def test_unusable_weights_exit_2_before_the_input_is_read(self, edit, error, config_factory,
                                                              capsys):
        config = base_config()
        edit(config)
        path = config_factory(config)
        (path.parent / config["input"]).unlink()
        assert run_cli("run", "--config", str(path)) == 2
        assert capsys.readouterr().err == f"configuration error: {path}: {error}\n"

    def test_overrides_take_effect(self, config_factory, tmp_path):
        path = config_factory()
        out_alt = tmp_path / "alt.csv"
        assert run_cli("run", "--config", str(path), "--output", str(out_alt)) == 0
        assert out_alt.exists()

    def test_seed_flag_is_gone(self, config_factory, capsys):
        path = config_factory()
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--config", str(path), "--seed", "99")
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 99" in capsys.readouterr().err

    def test_relative_overrides_resolve_against_config_dir(self, config_factory, tmp_path,
                                                           monkeypatch):
        path = config_factory()
        (tmp_path / "in").mkdir()
        (tmp_path / "military.csv").rename(tmp_path / "in/data.csv")
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run_cli("run", "--config", str(path), "--input", "in/data.csv",
                       "--output", "alt/table.csv", "--report", "alt/report") == 0
        assert (tmp_path / "alt/table.csv").exists()
        report = json.loads((tmp_path / "alt/report/report.json").read_text())
        assert report["output"] == str(tmp_path / "alt/table.csv")
        assert report["io"]["bytes_read"] == (tmp_path / "in/data.csv").stat().st_size
        assert list(elsewhere.iterdir()) == []

    @pytest.mark.skipif(locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
                        reason="the platform encoding decodes every byte")
    def test_undecodable_input_is_a_load_error(self, config_factory, tmp_path, capsys):
        path = config_factory()
        table = tmp_path / "military.csv"
        content = table.read_bytes()
        table.write_bytes(content[:1000] + b"\xff" + content[1000:])
        assert run_cli("run", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage error [load:-] {table}: cannot read: 'utf-8' codec can't "
                              "decode byte 0xff")
        assert "Traceback" not in err

    def test_cell_over_the_field_limit_is_a_load_error(self, config_factory, tmp_path, capsys):
        path = config_factory()
        table = tmp_path / "military.csv"
        header, body = table.read_bytes().split(b"\n", 1)
        width = header.count(b",") + 1
        long_row = b",".join([b'"' + b"x" * (csv.field_size_limit() + 1) + b'"'] * width)
        table.write_bytes(header + b"\n" + long_row + b"\n" + body)
        assert run_cli("run", "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"stage error [load:-] {table}: cannot read: field larger than "
                              "field limit")
        assert "Traceback" not in err

    def test_unwritable_output_is_io_error(self, config_factory, capsys):
        path = config_factory()
        assert run_cli("run", "--config", str(path), "--output", "/proc/forbidden/out.csv") == 1
        assert "error" in capsys.readouterr().err
