import pytest

from groupanon.pipeline import _stage


class TestStageTimer:
    def test_repeated_stage_accumulates(self):
        stages = {}
        with _stage(stages, "check"):
            pass
        first = stages["check"]
        with _stage(stages, "check"):
            pass
        assert set(stages) == {"check"}
        assert stages["check"] >= first > 0.0

    def test_exception_propagates_and_time_is_kept(self):
        stages = {}
        with pytest.raises(KeyError):
            with _stage(stages, "solve"):
                raise KeyError("boom")
        assert stages["solve"] > 0.0
