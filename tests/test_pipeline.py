import dataclasses
import math
import re

import numpy as np
import pytest

from conftest import base_config, mean_fix
from groupanon import reference as ref
from groupanon.config import load_pipeline_config
from groupanon.errors import StageError
from groupanon.microfile import GroupSpec
from groupanon.pipeline import GroupLog, _repair_and_target, edit_group
from groupanon.redistribute import make_nonnegative, round_to_integers
from groupanon.signals import quantity_signal
from groupanon.wavelet import decompose, get_filter


class TestStageTimer:
    def test_repeated_stage_accumulates(self):
        log = GroupLog("g")
        log.stage("check", lambda: None)
        first = log.timings["check"]
        log.stage("check", lambda: None)
        assert set(log.timings) == {"check"}
        assert log.timings["check"] >= first > 0.0

    def test_exception_propagates_and_time_is_kept(self):
        log = GroupLog("g")

        def boom():
            raise KeyError("boom")

        with pytest.raises(KeyError):
            log.stage("solve", boom)
        assert log.timings["solve"] > 0.0


def edit(config_factory, fixture_microfile, config=None, **group_overrides):
    gcfg = load_pipeline_config(config_factory(config, **group_overrides)).groups[0]
    log = GroupLog(gcfg.name)
    return edit_group(fixture_microfile, gcfg, log), log


class TestEditGroup:
    def test_declared_solution_quantity_chain(self, config_factory, fixture_microfile):
        result, log = edit(config_factory, fixture_microfile)
        assert result.shift == 2150.0
        assert np.max(np.abs(result.reassembled - ref.QUANTITY_REASSEMBLED)) < 1e-2
        assert np.array_equal(result.final_signal, ref.QUANTITY_FINAL)
        assert np.array_equal(result.target.values, ref.QUANTITY_FINAL)
        assert result.target.total == 6272
        # reassembled equals matrix image plus details, and the details survive
        redone = decompose(result.reassembled, get_filter("db2"), 2)
        for j in (1, 2):
            assert np.max(np.abs(redone.details[j] - result.decomposition.details[j])) < 1e-6
        assert log.warnings == []
        assert set(log.timings) == {"signal", "decompose", "constraints", "check",
                                    "reassemble", "repair"}

    def test_solver_route_with_auto_shift(self, config_factory, fixture_microfile):
        config = base_config()
        group = config["groups"][0]
        group["constraints"] = {
            "rows": [{"position": i, "relation": "<=", "bound": "original"} for i in range(1, 17)],
            "objective": "feasibility",
        }
        del group["solution"]
        group["shift"] = "auto"
        group["repair"] = "mean_fix"
        result, _ = edit(config_factory, fixture_microfile, config)
        assert result.shift == 0.0
        assert np.max(np.abs(result.reassembled - ref.QUANTITY)) < 1e-9
        assert np.array_equal(result.final_signal, ref.QUANTITY)

    def test_non_number_on_ordinal_vital_is_signal_stage_error(self, config_factory,
                                                               fixture_microfile):
        gcfg = load_pipeline_config(config_factory()).groups[0]
        group = GroupSpec.create({"age": {"old"}}, "area", gcfg.group.parameter_order)
        gcfg = dataclasses.replace(gcfg, group=group)
        with pytest.raises(StageError, match=re.escape(
                "[signal:active-duty] ordinal attribute 'age': 'old' is not a finite number")):
            edit_group(fixture_microfile, gcfg, GroupLog(gcfg.name))


class TestRepairChain:
    def test_quantity_target_is_rescale_then_round(self, config_factory, fixture_microfile):
        # the shared conversion over unit denominators against the direct quantity repair
        base = load_pipeline_config(config_factory()).groups[0]
        before = quantity_signal(fixture_microfile, base.group)
        total = int(before.total)
        rng = np.random.default_rng(13)
        for trial in range(200):
            scale = 10.0 ** rng.uniform(0, 4)
            x = before.values + rng.normal(0.0, scale, before.values.size)
            auto = trial % 2 == 0
            shift = None if auto else math.ceil(max(0.0, -x.min())) + rng.uniform(0, scale)
            margin = rng.uniform(0, 5) if auto else 0.0
            gcfg = dataclasses.replace(base, shift=shift, margin=margin)
            final, used, target = _repair_and_target(fixture_microfile, gcfg, before, x,
                                                     GroupLog(gcfg.name))
            shifted, expected_shift = make_nonnegative(x, shift, margin)
            expected = round_to_integers(mean_fix(shifted, before.values), total)
            assert used == expected_shift
            assert np.array_equal(target.values, expected)
            assert np.array_equal(final, expected)
