import json
import math
import shutil

import numpy as np
import pytest

from groupanon import reference as ref
from groupanon.errors import ConstraintError
from groupanon.redistribute import ConstraintSpec, Objective


@pytest.fixture(scope="session")
def fixture_microfile():
    return ref.load_quantity_microfile()


@pytest.fixture(scope="session")
def fixture_group():
    return ref.fixture_group()


@pytest.fixture(scope="session")
def concentration_microfile():
    return ref.build_concentration_microfile()


def mean_fix(values, reference) -> np.ndarray:
    """``values`` rescaled so their sum, hence their mean, is ``reference``'s."""
    values = np.asarray(values, dtype=float)
    reference = np.asarray(reference, dtype=float)
    total = values.sum()
    if total == 0:
        raise ConstraintError("cannot fix the mean of a zero-sum signal")
    return values * (reference.sum() / total)


def superset_records(m, g) -> list[int]:
    """The records of group ``g``'s superset population, found from each cell's text."""
    texts = {name: m.column(name).tolist() for name, _ in g.superset_vital}
    return [i for i in range(m.n_records)
            if all(texts[name][i] in values for name, values in g.superset_vital)]


def spec_of(rows, objective=Objective()) -> ConstraintSpec:
    """The spec of ``(position, relation, bound)`` rows; a bound is a number or "original"."""
    positions, relations, bounds = zip(*rows)
    original = [bound == "original" for bound in bounds]
    numbers = [math.nan if o else bound for o, bound in zip(original, bounds)]
    return ConstraintSpec(positions, relations, numbers, original, objective)


def rows_of(spec: ConstraintSpec) -> list:
    """The spec's rows as ``(position, relation, bound)``; a bound is a float or "original"."""
    return [(position, relation, "original" if o else bound) for position, relation, bound, o
            in zip(spec.positions.tolist(), spec.relations, spec.bounds.tolist(),
                   spec.original.tolist())]


def operator_rows(lp) -> list:
    """Every row of ``lp`` in operator form: ``(coefficients, relation, bound)``.

    The coefficients are the row's stored entries times its sign, scattered
    into zeros (``toarray()`` would negate a ">=" row's zeros to -0.0 as well).
    """
    rows = []
    for i, sign in enumerate(lp.sign.tolist()):
        start, end = lp.a_ub.indptr[i], lp.a_ub.indptr[i + 1]
        coeffs = np.zeros(lp.n_vars)
        coeffs[lp.a_ub.indices[start:end]] = lp.a_ub.data[start:end] * sign
        rows.append((coeffs, "<=" if sign > 0 else ">=", float(lp.b_ub[i] * sign)))
    return rows


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


#: Edits that make the bundled group malformed, each with the JSON path its error names.
MALFORMED_GROUPS = [
    pytest.param(lambda g: g.update(solution=["x", 1, 2, 3]),
                 "$.groups[0].solution", id="solution-text"),
    pytest.param(lambda g: g.update(target=["x"] + [1] * 15),
                 "$.groups[0].target", id="target-text"),
    pytest.param(lambda g: g["constraints"].update(objective={"maximize": ["a"]}),
                 "$.groups[0].constraints.objective", id="objective-text-position"),
    pytest.param(lambda g: g.update(solution=[True, "379.097", 1000.0, 5464.854]),
                 "$.groups[0].solution", id="solution-bool-and-numeric-text"),
    pytest.param(lambda g: g["constraints"].update(objective={"maximize": [1.5]}),
                 "$.groups[0].constraints.objective", id="objective-fractional-position"),
    pytest.param(lambda g: g.update(wavelet="haar"),
                 "$.groups[0].wavelet", id="wavelet-not-an-object"),
    pytest.param(lambda g: g.update(wavelet={"family": "db9"}),
                 "$.groups[0].wavelet", id="unknown-family"),
    pytest.param(lambda g: g.update(wavelet={"family": "db4", "level": 3}, solution=None),
                 "$.groups[0].wavelet", id="level-infeasible-for-filter"),
    pytest.param(lambda g: g.update(signal="difference", subordinate_vital={"area": ["06010"]}),
                 "$.groups[0].subordinate_vital", id="subordinate-vital-names-parameter"),
    pytest.param(lambda g: g.update(subordinate_vital={"nope": [True]}),
                 "$.groups[0].subordinate_vital", id="subordinate-vital-on-quantity-group"),
    pytest.param(lambda g: g["vital"].update(age=["30", "old"]),
                 "$.groups[0].vital.age: ordinal attribute 'age': 'old' is not a finite number",
                 id="ordinal-vital-text"),
    pytest.param(lambda g: g["superset"].update(age=["x1"]),
                 "$.groups[0].superset.age: ordinal attribute 'age': 'x1' is not a finite number",
                 id="ordinal-superset-text"),
    pytest.param(lambda g: g.update(signal="difference",
                                    subordinate_vital={"military_service": ["3"], "age": ["inf"]}),
                 "$.groups[0].subordinate_vital.age: ordinal attribute 'age': 'inf' is not a "
                 "finite number", id="ordinal-subordinate-vital-infinite"),
    pytest.param(lambda g: g.update(margin=1.0),
                 "$.groups[0].margin", id="margin-with-declared-shift"),
    pytest.param(lambda g: g.update(signal="difference", shift="auto", margin=1.0,
                                    subordinate_vital={"military_service": ["3"]}),
                 "$.groups[0].margin", id="margin-on-difference-group"),
    pytest.param(lambda g: g.update(shift="auto", margin=-1.0),
                 "$.groups[0].margin", id="negative-margin"),
    pytest.param(lambda g: g.update(signal="concentration", repair="mean_std"),
                 "$.groups[0].repair", id="mean-std-on-concentration-group"),
    pytest.param(lambda g: g.update(target=[int(v) for v in ref.QUANTITY_FINAL], constraints=None,
                                    solution=None, shift=12345),
                 "$.groups[0].shift", id="edit-field-on-target-group"),
    pytest.param(lambda g: g.update(name="units/active"),
                 "$.groups[0].name", id="name-with-a-separator"),
    pytest.param(lambda g: g.update(name="../escaped"),
                 "$.groups[0].name", id="name-outside-the-report-directory"),
    pytest.param(lambda g: g["constraints"]["rows"].__setitem__(3, [4, "<=", 1.0]),
                 "$.groups[0].constraints.rows[3]", id="row-not-an-object"),
    pytest.param(lambda g: g["constraints"]["rows"][1].update(nope=1),
                 "$.groups[0].constraints.rows[1]", id="row-unknown-key"),
    pytest.param(lambda g: g["constraints"]["rows"][2].update(position=True),
                 "$.groups[0].constraints.rows[2]", id="row-bool-position"),
    pytest.param(lambda g: g["constraints"]["rows"][2].update(position=2.0),
                 "$.groups[0].constraints.rows[2]", id="row-float-position"),
    pytest.param(lambda g: g["constraints"]["rows"][5].update(position=0),
                 "$.groups[0].constraints.rows[5]", id="row-position-0"),
    pytest.param(lambda g: g["constraints"]["rows"][11].update(position=17),
                 "$.groups[0].constraints.rows[11]", id="row-position-m-plus-1"),
    pytest.param(lambda g: g["constraints"]["rows"][0].update(relation="<"),
                 "$.groups[0].constraints.rows[0]", id="row-relation-lt"),
    pytest.param(lambda g: g["constraints"]["rows"][7].update(bound="x"),
                 "$.groups[0].constraints.rows[7]", id="row-text-bound"),
    pytest.param(lambda g: g["constraints"]["rows"][7].update(bound=True),
                 "$.groups[0].constraints.rows[7]", id="row-bool-bound"),
]


def _zero_every_weight(c):
    for attr in c["schema"]:
        if "weight" in attr:
            attr["weight"] = 0


def _overflowing_weights(c):
    # each weight is finite, but the largest pair cost sums them past the largest float
    for attr in c["schema"]:
        if attr["name"] in ("age", "military_service"):
            attr["weight"] = 1e308


#: Config edits that leave a group's swap weights unusable, each with the error it gives
#: after the file name.  The weights are built at load, before the input is read.
UNUSABLE_WEIGHTS = [
    pytest.param(lambda c: c["groups"][0].update(chi_same=2, chi_diff=1),
                 "$.groups[0]: category factors must satisfy 0 <= chi_same <= chi_diff: "
                 "matching categories must not cost more than mismatching", id="chi-same-above"),
    pytest.param(lambda c: c["groups"][0].update(chi_same=-3),
                 "$.groups[0]: category factors must satisfy 0 <= chi_same <= chi_diff: "
                 "matching categories must not cost more than mismatching", id="negative-chi-same"),
    pytest.param(_zero_every_weight,
                 "$.groups[0]: at least one influential weight must be positive", id="zero-weights"),
    pytest.param(_overflowing_weights,
                 "$.groups[0]: weights too large: the largest pair cost, the ordinal weights plus "
                 "the nominal weights times chi_diff², overflows", id="overflowing-weights"),
]


def _set_non_finite_target(c):
    c["groups"][0].update(target=[math.inf] + [1] * 15, constraints=None, solution=None,
                          shift=None, repair=None)


#: Config edits that put a JSON ``NaN``, ``Infinity`` or ``-Infinity`` into one field, each
#: with the error it gives after the file name.  ``json.dumps`` writes those literals.
NON_FINITE_FIELDS = [
    pytest.param(lambda c: c["schema"][1].update(weight=math.inf),
                 "$.schema[1]: field 'weight' must be float", id="weight"),
    pytest.param(lambda c: c["groups"][0]["constraints"]["rows"][0].update(bound=math.nan),
                 "$.groups[0].constraints.rows[0]: field 'bound' must be a number or "
                 '"original"', id="bound"),
    pytest.param(lambda c: c["groups"][0]["constraints"]["rows"][3].update(position=math.inf),
                 "$.groups[0].constraints.rows[3]: field 'position' must be int", id="position"),
    pytest.param(lambda c: c["groups"][0]["solution"].__setitem__(1, math.nan),
                 "$.groups[0].solution: expected an array of numbers", id="solution"),
    pytest.param(_set_non_finite_target,
                 "$.groups[0].target: expected an array of numbers", id="target"),
    pytest.param(lambda c: c["groups"][0].update(shift=-math.inf),
                 "$.groups[0]: field 'shift' must be a number or \"auto\"", id="shift"),
    pytest.param(lambda c: c["groups"][0].update(shift="auto", margin=math.nan),
                 "$.groups[0]: field 'margin' must be float", id="margin"),
    pytest.param(lambda c: c["groups"][0].update(chi_same=math.inf),
                 "$.groups[0]: field 'chi_same' must be float", id="chi_same"),
    pytest.param(lambda c: c["groups"][0].update(chi_diff=math.nan),
                 "$.groups[0]: field 'chi_diff' must be float", id="chi_diff"),
    pytest.param(lambda c: c["groups"][0]["wavelet"].update(level=math.inf),
                 "$.groups[0].wavelet: field 'level' must be int", id="level"),
    pytest.param(lambda c: c["groups"][0]["constraints"].update(objective={"minimize": [math.nan]}),
                 "$.groups[0].constraints.objective.minimize: expected an array of integer "
                 "positions",
                 id="objective-position"),
    pytest.param(lambda c: c["groups"][0]["vital"].update(military_service=[math.nan]),
                 "$.groups[0].vital.military_service: expected an array of strings or numbers",
                 id="vital-value"),
    pytest.param(lambda c: c["groups"][0]["parameter_order"].__setitem__(0, -math.inf),
                 "$.groups[0].parameter_order: expected an array of strings or numbers",
                 id="parameter-order-entry"),
    pytest.param(lambda c: c["groups"][0].update(name=math.nan),
                 "$.groups[0]: field 'name' must be str", id="name"),
]


#: Stands for a number literal in a config; ``with_number`` writes the literal in its place.
NUMBER = "@number@"


def with_number(path, literal: str):
    """Put ``literal`` in place of ``NUMBER`` in the config file at ``path``; the path."""
    path.write_text(path.read_text().replace(f'"{NUMBER}"', literal))
    return path


#: Config edits that put ``NUMBER`` where a number goes, a literal with no finite float
#: (or no int) for it, and the error each gives after the file name.
OVERFLOWING_NUMBERS = [
    pytest.param(lambda c: c["schema"][1].update(weight=NUMBER), "1e999",
                 "$.schema[1]: field 'weight' must be float", id="weight-1e999"),
    pytest.param(lambda c: c["groups"][0].update(chi_diff=NUMBER), "1e999",
                 "$.groups[0]: field 'chi_diff' must be float", id="chi_diff-1e999"),
    pytest.param(lambda c: c["groups"][0]["constraints"]["rows"][0].update(bound=NUMBER), "1e999",
                 "$.groups[0].constraints.rows[0]: field 'bound' must be a number or "
                 '"original"', id="bound-1e999"),
    pytest.param(lambda c: c["groups"][0].update(shift=NUMBER), "-1e999",
                 "$.groups[0]: field 'shift' must be a number or \"auto\"",
                 id="shift-minus-1e999"),
    pytest.param(lambda c: c["schema"][1].update(weight=NUMBER), "1" + "0" * 400,
                 "$.schema[1]: field 'weight' must be float", id="weight-401-digits"),
    pytest.param(lambda c: c["groups"][0]["constraints"]["rows"][0].update(bound=NUMBER),
                 "1" + "0" * 400, "$.groups[0].constraints.rows[0]: field 'bound' must be a "
                 'number or "original"', id="bound-401-digits"),
    pytest.param(lambda c: c["groups"][0]["solution"].__setitem__(0, NUMBER), "-1" + "0" * 400,
                 "$.groups[0].solution: expected an array of numbers", id="solution-401-digits"),
    pytest.param(lambda c: c["schema"][1].update(weight=NUMBER), "1" + "0" * 5000,
                 "$.schema[1]: field 'weight' must be float", id="weight-past-the-digit-limit"),
    pytest.param(lambda c: c["groups"][0]["vital"].update(military_service=["1", NUMBER]),
                 "1e999",
                 "$.groups[0].vital.military_service: expected an array of strings or numbers",
                 id="vital-value-1e999"),
    pytest.param(lambda c: c["groups"][0]["parameter_order"].__setitem__(0, NUMBER), "-1e999",
                 "$.groups[0].parameter_order: expected an array of strings or numbers",
                 id="parameter-order-entry-minus-1e999"),
]
