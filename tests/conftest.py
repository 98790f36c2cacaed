import json
import shutil

import pytest

from groupanon import reference as ref


@pytest.fixture(scope="session")
def fixture_microfile():
    return ref.load_quantity_microfile()


@pytest.fixture(scope="session")
def fixture_group():
    return ref.fixture_group()


@pytest.fixture(scope="session")
def concentration_microfile():
    return ref.build_concentration_microfile()


def base_config() -> dict:
    """Pipeline config for the bundled quantity case (paths relative to the config)."""
    return {
        "input": "military.csv",
        "output": "out/modified.csv",
        "report_dir": "out/report",
        "schema": [
            {"name": "area", "kind": "nominal", "role": "parameter"},
            {"name": "military_service", "kind": "nominal", "role": "vital", "weight": 1.0},
            {"name": "sex", "kind": "nominal", "role": "plain"},
            {"name": "age", "kind": "ordinal", "role": "influential", "weight": 1.0},
            {"name": "income", "kind": "ordinal", "role": "influential", "weight": 1.0},
        ],
        "groups": [
            {
                "name": "active-duty",
                "vital": {"military_service": ["1"]},
                "parameter": "area",
                "parameter_order": list(ref.AREA_CODES),
                "superset": {"sex": ["1"]},
                "signal": "quantity",
                "wavelet": {"family": "db2", "level": 2},
                "constraints": {
                    "rows": [
                        {"position": p, "relation": rel, "bound": b}
                        for p, rel, b, _ in ref.QUANTITY_SYSTEM
                    ],
                    "objective": "feasibility",
                },
                "solution": [float(v) for v in ref.QUANTITY_SOLUTION],
                "shift": 2150,
                "repair": "mean_fix",
            }
        ],
    }


@pytest.fixture
def config_factory(tmp_path):
    """Write a config (with overrides) plus a fixture copy into tmp_path."""

    def make(config: dict | None = None, **group_overrides):
        config = config or base_config()
        if group_overrides:
            config["groups"][0].update(group_overrides)
        shutil.copy(ref.fixture_path(), tmp_path / "military.csv")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config, indent=2))
        return path

    return make
