import json
import math
import os
import re

import numpy as np
import pytest

from conftest import (MALFORMED_GROUPS, NON_FINITE_FIELDS, NUMBER, OVERFLOWING_NUMBERS,
                      UNUSABLE_WEIGHTS, base_config, rows_of, with_number)
from groupanon.config import ROW_FIELDS, _Cursor, _parse_constraints, load_pipeline_config
from groupanon.errors import ConfigError


def write(tmp_path, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


class TestLoadConfig:
    def test_full_config_parses(self, tmp_path):
        config = load_pipeline_config(write(tmp_path, base_config()))
        assert len(config.schema) == 5
        group = config.groups[0]
        assert group.name == "active-duty"
        assert group.level == 2
        assert group.group.parameter == "area"
        assert len(group.constraints.relations) == 12
        assert group.shift == 2150.0
        assert np.allclose(group.solution, [0.0, 379.097, 1000.0, 5464.854])

    def test_json_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "input": "x.csv",\n  "oops"\n}')
        with pytest.raises(ConfigError, match=r"line \d+, column \d+"):
            load_pipeline_config(path)

    def test_missing_field_reports_path(self, tmp_path):
        config = base_config()
        del config["groups"][0]["vital"]
        with pytest.raises(ConfigError, match=r"groups\[0\].*vital"):
            load_pipeline_config(write(tmp_path, config))

    def test_unknown_schema_attribute_in_group(self, tmp_path):
        config = base_config()
        config["groups"][0]["vital"] = {"nope": ["1"]}
        with pytest.raises(ConfigError, match="nope"):
            load_pipeline_config(write(tmp_path, config))

    def test_parameter_role_enforced(self, tmp_path):
        config = base_config()
        config["groups"][0]["parameter"] = "sex"
        with pytest.raises(ConfigError, match="role 'parameter'"):
            load_pipeline_config(write(tmp_path, config))

    def test_constraint_position_bounds_checked(self, tmp_path):
        config = base_config()
        config["groups"][0]["constraints"]["rows"][0]["position"] = 99
        with pytest.raises(ConfigError, match=r"rows\[0\].*99"):
            load_pipeline_config(write(tmp_path, config))

    def test_bad_relation_reported(self, tmp_path):
        config = base_config()
        config["groups"][0]["constraints"]["rows"][0]["relation"] = "=="
        with pytest.raises(ConfigError, match="relation"):
            load_pipeline_config(write(tmp_path, config))

    def test_solution_length_checked(self, tmp_path):
        config = base_config()
        config["groups"][0]["solution"] = [1.0, 2.0]
        with pytest.raises(ConfigError, match="4 coefficients"):
            load_pipeline_config(write(tmp_path, config))

    def test_signal_kind_validated(self, tmp_path):
        config = base_config()
        config["groups"][0]["signal"] = "histogram"
        with pytest.raises(ConfigError, match="histogram"):
            load_pipeline_config(write(tmp_path, config))

    def test_concentration_requires_superset(self, tmp_path):
        config = base_config()
        config["groups"][0]["signal"] = "concentration"
        del config["groups"][0]["superset"]
        with pytest.raises(ConfigError, match="superset"):
            load_pipeline_config(write(tmp_path, config))

    def test_difference_requires_subordinate(self, tmp_path):
        config = base_config()
        config["groups"][0]["signal"] = "difference"
        with pytest.raises(ConfigError, match="subordinate"):
            load_pipeline_config(write(tmp_path, config))

    def test_level_must_divide_order_length(self, tmp_path):
        config = base_config()
        config["groups"][0]["wavelet"]["level"] = 5
        with pytest.raises(ConfigError, match="level 5"):
            load_pipeline_config(write(tmp_path, config))

    def test_identifier_columns_collected(self, tmp_path):
        config = base_config()
        config["schema"].append({"name": "ssn", "kind": "nominal", "role": "identifier"})
        parsed = load_pipeline_config(write(tmp_path, config))
        assert parsed.identifiers == ("ssn",)
        assert all(a.name != "ssn" for a in parsed.schema)

    def test_target_length_validated(self, tmp_path):
        config = base_config()
        config["groups"][0]["target"] = [1, 2, 3]
        with pytest.raises(ConfigError, match="16 values"):
            load_pipeline_config(write(tmp_path, config))

    def test_duplicate_group_names_rejected(self, tmp_path):
        config = base_config()
        config["groups"].append(json.loads(json.dumps(config["groups"][0])))
        with pytest.raises(ConfigError, match="unique"):
            load_pipeline_config(write(tmp_path, config))

    def test_bad_shift_rejected(self, tmp_path):
        config = base_config()
        config["groups"][0]["shift"] = "big"
        with pytest.raises(ConfigError, match="shift"):
            load_pipeline_config(write(tmp_path, config))

    def test_removed_fields_load_with_a_named_warning(self, tmp_path, caplog):
        config = base_config()
        config["seed"] = 20100923
        path = write(tmp_path, config)
        with caplog.at_level("WARNING", logger="groupanon.config"):
            loaded = load_pipeline_config(path)
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: $.seed: field 'seed' was removed and is ignored",
        ]
        assert not hasattr(loaded, "seed")

    def test_candidate_cap_is_an_unknown_field(self, tmp_path):
        config = base_config()
        config["groups"][0]["candidate_cap"] = 0
        path = str(write(tmp_path, config))
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: $.groups[0]: unknown field 'candidate_cap'") + "$"):
            load_pipeline_config(path)

    def test_repair_none_is_an_error(self, tmp_path):
        config = base_config()
        config["groups"][0]["repair"] = "none"
        path = str(write(tmp_path, config))
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: $.groups[0]: repair must be one of ('mean_fix', 'mean_std'), "
                "got 'none'") + "$"):
            load_pipeline_config(path)

    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", f"a{os.sep}b", "/abs"])
    def test_group_name_must_be_a_plain_file_name(self, tmp_path, name):
        config = base_config()
        config["groups"][0]["name"] = name
        with pytest.raises(ConfigError, match=r"\$\.groups\[0\]\.name: .*plain file name"):
            load_pipeline_config(write(tmp_path, config))

    def test_unknown_repair_rejected(self, tmp_path):
        config = base_config()
        config["groups"][0]["repair"] = "median"
        with pytest.raises(ConfigError, match=r"groups\[0\]: repair must be one of"):
            load_pipeline_config(write(tmp_path, config))

    @pytest.mark.parametrize("where, path", [
        (lambda c: c, r"\$"),
        (lambda c: c["schema"][1], r"\$\.schema\[1\]"),
        (lambda c: c["groups"][0], r"\$\.groups\[0\]"),
        (lambda c: c["groups"][0]["wavelet"], r"\$\.groups\[0\]\.wavelet"),
        (lambda c: c["groups"][0]["constraints"], r"\$\.groups\[0\]\.constraints"),
        (lambda c: c["groups"][0]["constraints"]["rows"][2],
         r"\$\.groups\[0\]\.constraints\.rows\[2\]"),
    ], ids=["root", "attribute", "group", "wavelet", "constraints", "row"])
    def test_unknown_field_rejected(self, tmp_path, where, path):
        config = base_config()
        where(config)["repiar"] = "mean_std"
        with pytest.raises(ConfigError, match=path + r": unknown field 'repiar'$"):
            load_pipeline_config(write(tmp_path, config))

    @pytest.mark.parametrize("edit, path", MALFORMED_GROUPS)
    def test_malformed_field_is_config_error_at_its_path(self, tmp_path, edit, path):
        config = base_config()
        edit(config["groups"][0])
        with pytest.raises(ConfigError, match=re.escape(path)):
            load_pipeline_config(write(tmp_path, config))

    @pytest.mark.parametrize("edit, error", NON_FINITE_FIELDS)
    def test_non_finite_number_is_an_error_at_its_path(self, tmp_path, edit, error):
        config = base_config()
        edit(config)
        path = write(tmp_path, config)
        assert re.search(r"\b(NaN|-?Infinity)\b", path.read_text())
        with pytest.raises(ConfigError) as err:
            load_pipeline_config(path)
        assert str(err.value) == f"{path}: {error}"

    @pytest.mark.parametrize("edit, literal, error", OVERFLOWING_NUMBERS)
    def test_overflowing_number_is_an_error_at_its_path(self, tmp_path, edit, literal, error):
        config = base_config()
        edit(config)
        path = with_number(write(tmp_path, config), literal)
        with pytest.raises(ConfigError) as err:
            load_pipeline_config(path)
        assert str(err.value) == f"{path}: {error}"

    def test_finite_float_entries_read_as_their_text(self, tmp_path):
        config = base_config()
        config["groups"][0]["vital"]["military_service"].append(NUMBER)
        config["groups"][0]["parameter_order"][0] = NUMBER
        group = load_pipeline_config(with_number(write(tmp_path, config), "1.5")).groups[0].group
        assert group.vital == (("military_service", frozenset({"1", "1.5"})),)
        assert group.parameter_order[0] == "1.5"

    @pytest.mark.parametrize("edit, error", UNUSABLE_WEIGHTS)
    def test_unusable_weights_are_an_error_at_the_group(self, tmp_path, edit, error):
        config = base_config()
        edit(config)
        path = write(tmp_path, config)
        with pytest.raises(ConfigError) as err:
            load_pipeline_config(path)
        assert str(err.value) == f"{path}: {error}"


def cursor_rows(cur, m):
    """The per-row reader the columns replaced: one cursor and check a row.

    A row reads as ``(position, relation, bound)``, its bound a float or "original".
    """
    rows = []
    for row in cur.child("rows").items():
        row.fields(ROW_FIELDS)
        position = row.field("position", int)
        if not 1 <= position <= m:
            row.fail(f"position {position} outside 1..{m}")
        relation, bound = row.field("relation", str), row.number_or("bound", "original")
        if relation not in ("<=", ">="):
            row.fail("relation must be one of ('<=', '>=')")
        rows.append((position, relation, bound))
    return rows


def generated_rows(rng, m, n):
    """``n`` rows as JSON gives them; bounds are ints, floats, "original", absent or null."""
    rows = []
    for position, relation, kind in zip(rng.integers(1, m + 1, n).tolist(),
                                        rng.choice(["<=", ">="], n).tolist(),
                                        rng.integers(0, 5, n).tolist()):
        row = {"relation": relation, "position": position}
        if kind == 0:
            row["bound"] = int(rng.integers(-10**6, 10**6))
        elif kind == 1:
            row["bound"] = float(rng.normal(scale=10.0 ** rng.integers(-3, 9)))
        elif kind == 2:
            row["bound"] = "original"
        elif kind == 3:
            row["bound"] = None
        rows.append(dict(sorted(row.items(), key=lambda _: rng.random())))
    return json.loads(json.dumps(rows))


def read_both(rows, m):
    """(per-row reader's result, columnar reader's spec), or each one's error text."""
    results = []
    for read in (cursor_rows, _parse_constraints):
        cur = _Cursor({"rows": rows}, "$.groups[0].constraints", "cfg.json")
        try:
            results.append(read(cur, m))
        except ConfigError as exc:
            results.append(str(exc))
    return results


#: Row edits the per-row reader rejects; each is applied to one row of a valid array.
BAD_ROWS = [
    lambda row: 7, lambda row: [row["position"], row["relation"]], lambda row: None,
    lambda row: {**row, "nope": 1}, lambda row: {**row, "position": True},
    lambda row: {**row, "position": 2.0}, lambda row: {**row, "position": 0},
    lambda row: {**row, "position": 65}, lambda row: {**row, "position": 10**30},
    lambda row: {**row, "position": "3"}, lambda row: {**row, "position": None},
    lambda row: {k: v for k, v in row.items() if k != "position"},
    lambda row: {k: v for k, v in row.items() if k != "relation"},
    lambda row: {**row, "relation": "<"}, lambda row: {**row, "relation": 5},
    lambda row: {**row, "relation": ["<="]}, lambda row: {**row, "relation": None},
    lambda row: {**row, "bound": "x"}, lambda row: {**row, "bound": True},
    lambda row: {**row, "bound": "Original"}, lambda row: {**row, "bound": [1.0]},
    lambda row: {**row, "bound": {}}, lambda row: {**row, "relation": "<", "bound": "x"},
]


class TestRowColumns:
    """The columnar row reader against the per-row cursor reader it replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_rows_read_as_the_per_row_reader_reads_them(self, seed):
        rng = np.random.default_rng(seed)
        m = 64
        rows = generated_rows(rng, m, int(rng.integers(1, 300)))
        expected, spec = read_both(rows, m)
        assert rows_of(spec) == expected
        assert spec.positions.tolist() == [position for position, _, _ in expected]
        assert spec.relations == tuple(relation for _, relation, _ in expected)
        assert spec.original.tolist() == [bound == "original" for _, _, bound in expected]
        numbers = [math.nan if bound == "original" else float(bound) for _, _, bound in expected]
        assert spec.bounds.tobytes() == np.array(numbers).tobytes()

    @pytest.mark.parametrize("edit", range(len(BAD_ROWS)))
    @pytest.mark.parametrize("seed", range(3))
    def test_bad_row_fails_with_the_per_row_message(self, edit, seed):
        rng = np.random.default_rng([edit, seed])
        rows = generated_rows(rng, 64, 40)
        bad = int(rng.integers(0, 40))
        rows[bad] = BAD_ROWS[edit](rows[bad])
        if seed == 2:  # a later bad row too: the first one is reported
            rows[-1] = BAD_ROWS[edit - 1](rows[-1]) if bad < 39 else rows[-1]
        expected, got = read_both(rows, 64)
        assert isinstance(expected, str)
        assert got == expected
        assert f"$.groups[0].constraints.rows[{bad}]: " in got

    @pytest.mark.parametrize("rows", [[], {}, "rows", 3])
    def test_rows_that_are_not_an_array_of_rows(self, rows):
        expected, got = read_both(rows, 16)
        assert isinstance(expected, str) or expected == []
        if expected == []:
            assert got == "cfg.json: $.groups[0].constraints: constraint spec must contain at " \
                          "least one row"
        else:
            assert got == expected
