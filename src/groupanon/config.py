"""Pipeline configuration: a single JSON file describing an end-to-end run.

Layout (see README for the full reference):

.. code-block:: json

    {
      "input": "data.csv",
      "output": "out/modified.csv",
      "report_dir": "out/report",
      "schema": [{"name": "area", "kind": "nominal", "role": "parameter"}, ...],
      "groups": [{
        "name": "active-duty",
        "vital": {"military_service": ["1"]},
        "parameter": "area",
        "parameter_order": ["06010", "..."],
        "superset": {"sex": ["1"]},
        "signal": "quantity",
        "wavelet": {"family": "db2", "level": 2},
        "constraints": {"rows": [{"position": 1, "relation": "<=", "bound": "original"}],
                         "objective": "feasibility"},
        "shift": "auto",
        "repair": "mean_fix"
      }]
    }

Errors carry the file name and the JSON path of the offending field.
JSON's ``NaN``, ``Infinity`` and ``-Infinity``, and a number past float64
(``1e999``) or past Python's integer digit limit, are errors wherever a
value is read.  A field an object does not define is an error too, except a
removed root field (``REMOVED_ROOT_FIELDS``), which is ignored with a
warning naming its path.  A value of an ordinal attribute in ``vital``,
``superset`` or ``subordinate_vital`` must be a finite number, as a number
or a text.  A group name must be a plain file name, since the report files
are named after it.  A group field that could not act is an error too: a
``subordinate_vital`` outside a difference group, a ``margin`` beside a
declared shift or on a difference group, a negative ``margin``, and
``"repair": "mean_std"`` on a concentration or difference group, and any
edit field (``EDIT_FIELDS``) on a group with a declared ``target``.  The
library objects a run needs (attributes, groups, constraints, the wavelet
filter, the swap weights and a declared target) are built here, so their
own checks fail at load, tagged with the same path.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import ConfigError, GroupAnonError
from .microfile import Attribute, GroupSpec
from .redistribute import RELATIONS, REPAIRS, ConstraintSpec, Objective
from .remap import InfluentialWeights
from .signals import KINDS as SIGNAL_KINDS, GoalSignal
from .wavelet import FilterPair, check_level, get_filter

__all__ = ["GroupConfig", "PipelineConfig", "load_pipeline_config"]

logger = logging.getLogger(__name__)

ROOT_FIELDS = ("input", "output", "report_dir", "schema", "groups")
ATTRIBUTE_FIELDS = ("name", "kind", "role", "weight")
GROUP_FIELDS = ("name", "vital", "parameter", "parameter_order", "superset", "signal",
                "subordinate_vital", "wavelet", "constraints", "solution", "target", "shift",
                "margin", "repair", "chi_same", "chi_diff")
WAVELET_FIELDS = ("family", "level")
CONSTRAINTS_FIELDS = ("rows", "objective", "nonnegative_coefficients")
ROW_FIELDS = ("position", "relation", "bound")
# What the signal edit reads; a group with a declared target skips the edit.
EDIT_FIELDS = ("constraints", "solution", "shift", "margin", "repair")
# No output ever depended on it; a config that sets it still loads.
REMOVED_ROOT_FIELDS = ("seed",)


@dataclass(frozen=True)
class GroupConfig:
    """Per-group processing directives.

    ``filter`` and ``level`` are checked to decompose the parameter axis.
    ``solution`` injects explicit replacement coefficients (the solver is
    skipped, declared bounds are still checked and violations logged);
    ``target`` bypasses the signal-editing stages entirely and remaps the
    group straight onto the given quantity signal; such a group has no
    ``constraints``, and the other edit fields keep their defaults.
    ``weights`` score record closeness for the swap planner.
    """

    name: str
    group: GroupSpec
    signal: str
    filter: FilterPair
    level: int
    constraints: ConstraintSpec | None
    weights: InfluentialWeights
    subordinate: GroupSpec | None = None
    solution: np.ndarray | None = None
    target: GoalSignal | None = None
    shift: float | None = None
    margin: float = 0.0
    repair: str = "mean_fix"


@dataclass(frozen=True)
class PipelineConfig:
    """A whole run: input and output paths, schema and groups."""

    input: Path
    output: Path
    report_dir: Path
    schema: tuple[Attribute, ...]
    identifiers: tuple[str, ...]
    groups: tuple[GroupConfig, ...]
    base_dir: Path = field(default_factory=Path)

    # ``base_dir / p`` is ``p`` itself when ``p`` is absolute, so relative
    # paths (including command-line overrides) resolve against the config's
    # directory and absolute ones are kept.

    @property
    def input_path(self) -> Path:
        """The input CSV, resolved against the config file's directory."""
        return self.base_dir / self.input

    @property
    def output_path(self) -> Path:
        """The output CSV, resolved against the config file's directory."""
        return self.base_dir / self.output

    @property
    def report_path(self) -> Path:
        """The report directory, resolved against the config file's directory."""
        return self.base_dir / self.report_dir


_REQUIRED = object()
#: What JSON's ``NaN``, ``Infinity`` and ``-Infinity``, an integer past the interpreter's
#: digit limit, and (through ``_as_float``) a number with no finite float load as: neither
#: a number nor a text, so every read that meets one fails at its path.  A float literal
#: past float64 (``1e999``) loads as an infinite float, which every float read and
#: ``_Cursor.array`` reject.
_NON_FINITE = object()


def _parse_int(text: str):
    """A JSON integer, or ``_NON_FINITE`` past the interpreter's digit limit."""
    try:
        return int(text)
    except ValueError:
        return _NON_FINITE


def _as_float(value):
    """An int or float as a finite float, else ``_NON_FINITE``; any other value as it is."""
    if type(value) not in (int, float):
        return value
    try:
        value = float(value)
    except OverflowError:
        return _NON_FINITE
    return value if math.isfinite(value) else _NON_FINITE


class _Cursor:
    """One value of the parsed JSON and its path; each read checks a shape and names the path.

    A field that is absent or null takes its default; when it is required
    that is an error.  A bool is never taken for a number.
    """

    def __init__(self, data, path: str, source: str):
        self.data = data
        self.path = path
        self.source = source

    def fail(self, message: str):
        raise ConfigError(f"{self.source}: {self.path}: {message}")

    def build(self, make, *args):
        """``make(*args)``, a library object whose own checks fail at this path."""
        try:
            return make(*args)
        except GroupAnonError as exc:
            self.fail(str(exc))

    def fields(self, known=None, removed=(), what="field") -> list:
        """This object's keys, rejecting one not in ``known`` (None: any) as an unknown ``what``.

        A key in ``removed`` is ignored, with a warning naming its path.
        """
        if not isinstance(self.data, dict):
            self.fail("expected an object")
        keys = []
        for key in self.data:
            if key in removed:
                logger.warning("%s: %s.%s: field %r was removed and is ignored",
                               self.source, self.path, key, key)
            elif known is not None and key not in known:
                self.fail(f"unknown {what} {key!r}")
            else:
                keys.append(key)
        return keys

    def _get(self, key, default):
        if not isinstance(self.data, dict):
            self.fail("expected an object")
        value = self.data.get(key)
        if value is None and default is _REQUIRED:
            self.fail(f"missing required field {key!r}")
        return value

    def field(self, key, kind, default=_REQUIRED, what=""):
        """Field ``key``, which must be a ``kind`` (an integer counts as a float).

        When it is absent, ``default``; with no default it is required.
        """
        value = self._get(key, default)
        if value is None:
            return default
        if kind is float:
            value = _as_float(value)
        if not isinstance(value, kind) or type(value) is bool and kind is not bool:
            self.fail(f"field {key!r} must be {what or kind.__name__}")
        return value

    def child(self, key, default=_REQUIRED):
        """Field ``key`` as a cursor; when absent, one over ``default``, or None for a None default."""
        value = self._get(key, default)
        if value is None:
            if default is None:
                return None
            value = default
        return _Cursor(value, f"{self.path}.{key}", self.source)

    def forbid(self, key, reason):
        """Fail at field ``key`` when it is set; ``reason`` says why it cannot act here."""
        if self._get(key, None) is not None:
            self.child(key).fail(reason)

    def number_or(self, key, keyword):
        """Field ``key`` as a float, or ``keyword`` when it is that word or absent."""
        value = self._get(key, keyword)
        if value is None or value == keyword:
            return keyword
        value = _as_float(value)
        if type(value) is not float:
            self.fail(f'field {key!r} must be a number or "{keyword}"')
        return value

    def array(self, kind, what):
        """This array as a list of ``kind`` values (an integer counts as a float).

        A float that is not finite (``1e999``) is no value of any kind.
        ``what`` names the elements in the error.
        """
        if isinstance(self.data, list):
            values = list(self.data)
            if kind is float:
                values = list(map(_as_float, values))
            types = set(map(type, values))
            finite = float not in types or all(
                map(math.isfinite, (v for v in values if type(v) is float)))
            if finite and bool not in types and all(map(isinstance, values, repeat(kind))):
                return values
        self.fail(f"expected an array of {what}")

    def items(self):
        if not isinstance(self.data, list):
            self.fail("expected an array")
        for i, item in enumerate(self.data):
            yield _Cursor(item, f"{self.path}[{i}]", self.source)


#: JSON values a vital value or a parameter-order entry may be; each is taken as its text.
_TEXTS = ((str, int, float), "strings or numbers")


def _parse_attribute(cur: _Cursor) -> tuple[Attribute | None, str | None]:
    cur.fields(ATTRIBUTE_FIELDS)
    name = cur.field("name", str)
    kind = cur.field("kind", str)
    role = cur.field("role", str)
    if role == "identifier":
        return None, name
    return cur.build(Attribute, name, kind, role, cur.field("weight", float, None)), None


def _parse_value_map(cur: _Cursor | None, attributes) -> dict | None:
    """``{attribute: [values]}`` as the value texts of each attribute; None for no cursor."""
    if cur is None:
        return None
    out = {}
    for attr in cur.fields(attributes, what="attribute"):
        out[attr] = list(map(str, cur.child(attr).array(*_TEXTS)))
        if attributes[attr].kind == "ordinal":
            cur.child(attr).build(list, map(attributes[attr].number, out[attr]))
    if not out or not all(out.values()):
        cur.fail("expected at least one attribute, each with a non-empty array of values")
    return out


def _parse_objective(cur: _Cursor, m: int) -> Objective:
    """``"feasibility"``, or one ``{kind: [positions]}`` entry, as an ``Objective``."""
    value = cur.field("objective", (str, dict), "feasibility", '"feasibility" or an object')
    obj = cur.child("objective", value)
    if isinstance(value, str):
        return obj.build(Objective, value)
    kinds = obj.fields()
    if len(kinds) != 1:
        obj.fail('expected one entry, {"maximize": [positions]} or {"minimize": [positions]}')
    objective = obj.build(Objective, kinds[0],
                          tuple(obj.child(kinds[0]).array(int, "integer positions")))
    for pos in objective.positions:
        if not 1 <= pos <= m:
            obj.fail(f"objective position {pos} outside 1..{m}")
    return objective


def _check_row(row: _Cursor, m: int) -> None:
    """Raise the error of a bad constraint row at its path; a good row passes."""
    row.fields(ROW_FIELDS)
    position = row.field("position", int)
    if not 1 <= position <= m:
        row.fail(f"position {position} outside 1..{m}")
    relation = row.field("relation", str)
    row.number_or("bound", "original")  # a bad bound is reported before a bad relation
    if relation not in RELATIONS:
        row.fail(f"relation must be one of {RELATIONS}")


def _row_columns(data, m: int):
    """Position, relation and bound columns and the "original" mask of well-formed rows.

    None when any row is not an object of ``ROW_FIELDS`` with an integer
    position in 1..m, a relation of ``RELATIONS`` and a bound that is a
    number, "original" or absent.  A bound that is absent or null is
    "original", as ``_Cursor.number_or`` reads it.  Every check runs over
    a whole column at once; a column of numbers alone is read as one array.
    """
    if not isinstance(data, list) or not set(map(type, data)) <= {dict}:
        return None
    if not set().union(*data) <= set(ROW_FIELDS):
        return None
    positions, relations, bounds = (list(map(dict.get, data, repeat(key))) for key in ROW_FIELDS)
    if (not set(map(type, positions)) <= {int} or not 1 <= min(positions, default=1)
            or max(positions, default=m) > m
            or not set(map(type, relations)) <= {str} or not set(relations) <= set(RELATIONS)):
        return None
    kinds = set(map(type, bounds))
    if kinds <= {float, int}:
        try:
            values = np.array(bounds, dtype=float)
        except OverflowError:
            return None
        if not np.isfinite(values).all():
            return None
        return positions, relations, values, np.zeros(values.size, dtype=bool)
    bounds = list(map(_as_float, bounds))
    kinds = set(map(type, bounds))
    if not kinds <= {float, str, type(None)}:
        return None
    original = np.fromiter(map(isinstance, bounds, repeat((str, type(None)))), bool, len(bounds))
    if str in kinds and set(b for b in bounds if type(b) is str) != {"original"}:
        return None
    values = np.array([0.0 if o else b for o, b in zip(original.tolist(), bounds)], dtype=float)
    return positions, relations, values, original


def _parse_constraints(cur: _Cursor, m: int) -> ConstraintSpec:
    """The group's constraints; rows are read as columns, and a bad row fails at its path."""
    cur.fields(CONSTRAINTS_FIELDS)
    rows = cur.child("rows")
    columns = _row_columns(rows.data, m)
    if columns is None:
        for row in rows.items():
            _check_row(row, m)
        raise AssertionError("every row passed one by one, but not as columns")
    objective = _parse_objective(cur, m)
    return cur.build(ConstraintSpec, *columns, objective,
                     cur.field("nonnegative_coefficients", bool, True))


def _parse_group(cur: _Cursor, schema: tuple[Attribute, ...]) -> GroupConfig:
    cur.fields(GROUP_FIELDS)
    by_name = {a.name: a for a in schema}
    name = cur.field("name", str)
    if name in ("", ".", "..") or any(sep and sep in name for sep in ("/", os.sep, os.altsep)):
        cur.child("name").fail(f"group name {name!r} is not a plain file name, "
                               "and the group's report files are named after it")
    parameter = cur.field("parameter", str)
    order = list(map(str, cur.child("parameter_order").array(*_TEXTS)))
    if parameter not in by_name:
        cur.fail(f"parameter {parameter!r} is not a schema attribute")
    if by_name[parameter].role != "parameter":
        cur.fail(f"attribute {parameter!r} must have role 'parameter'")

    superset = _parse_value_map(cur.child("superset", None), by_name)
    group = cur.build(GroupSpec.create, _parse_value_map(cur.child("vital"), by_name),
                      parameter, order, superset)

    signal = cur.field("signal", str, "quantity")
    if signal not in SIGNAL_KINDS:
        cur.fail(f"signal must be one of {SIGNAL_KINDS}, got {signal!r}")
    if signal in ("concentration", "difference") and superset is None:
        cur.fail(f"signal kind {signal!r} requires a superset population")

    subordinate = None
    if signal == "difference":
        sub = cur.child("subordinate_vital")
        subordinate = sub.build(GroupSpec.create, _parse_value_map(sub, by_name),
                                parameter, order, superset)
    else:
        cur.forbid("subordinate_vital", 'only a "difference" group has a subordinate group')

    wavelet = cur.child("wavelet", {})
    wavelet.fields(WAVELET_FIELDS)
    filter_pair = wavelet.build(get_filter, wavelet.field("family", str, "db2"))
    level = wavelet.field("level", int, 2)
    m = len(order)
    wavelet.build(check_level, m, filter_pair, level)

    target = cur.child("target", None)
    if target is not None:
        target = target.build(GoalSignal, "quantity", target.array(float, "numbers"),
                              group.parameter_order)
        for key in EDIT_FIELDS:
            cur.forbid(key, 'a group with a declared "target" is not edited')
        constraints = None
    else:
        constraints = _parse_constraints(cur.child("constraints"), m)

    solution = cur.child("solution", None)
    if solution is not None:
        coefficients = solution.array(float, "numbers")
        if len(coefficients) != m >> level:
            solution.fail(f"expected {m >> level} coefficients, got {len(coefficients)}")
        solution = np.array(coefficients)

    shift = cur.number_or("shift", "auto")
    if signal == "difference" or shift != "auto":
        cur.forbid("margin", 'margin acts only with "shift": "auto" on a non-difference group')
    margin = cur.field("margin", float, 0.0)
    if margin < 0:
        cur.child("margin").fail("margin must be non-negative")
    repair = cur.field("repair", str, "mean_fix")
    if repair not in REPAIRS:
        cur.fail(f"repair must be one of {REPAIRS}, got {repair!r}")
    if repair == "mean_std" and signal != "quantity":
        cur.child("repair").fail('"mean_std" repairs only a quantity group')

    return GroupConfig(
        name=name,
        group=group,
        signal=signal,
        filter=filter_pair,
        level=level,
        constraints=constraints,
        weights=cur.build(InfluentialWeights.from_attributes, schema,
                          cur.field("chi_same", float, 0.0), cur.field("chi_diff", float, 1.0)),
        subordinate=subordinate,
        solution=solution,
        target=target,
        shift=None if shift == "auto" else shift,
        margin=margin,
        repair=repair,
    )


def _parse_json(text: str):
    """The JSON value of ``text``, with ``NaN``, ``Infinity`` and ``-Infinity`` as ``_NON_FINITE``.

    Numbers are read by the JSON module's own C parse, with no Python call
    per number.  An integer past the interpreter's digit limit stops that
    parse, and the text is read again with it as ``_NON_FINITE``.
    """
    def constant(literal):
        return _NON_FINITE

    try:
        return json.loads(text, parse_constant=constant)
    except json.JSONDecodeError:
        raise
    except ValueError:
        return json.loads(text, parse_int=_parse_int, parse_constant=constant)


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a pipeline configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        data = _parse_json(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    root = _Cursor(data, "$", str(path))
    root.fields(ROOT_FIELDS, REMOVED_ROOT_FIELDS)
    input_path = Path(root.field("input", str))
    output = Path(root.field("output", str))
    report_dir = Path(root.field("report_dir", str, "report"))

    schema, identifiers = [], []
    for attr_cur in root.child("schema").items():
        attr, ident = _parse_attribute(attr_cur)
        if ident is not None:
            identifiers.append(ident)
        else:
            schema.append(attr)
    if not schema:
        root.fail('field "schema" must declare at least one non-identifier attribute')

    groups = [_parse_group(cur, tuple(schema)) for cur in root.child("groups").items()]
    if not groups:
        root.fail('field "groups" must declare at least one group')
    names = [g.name for g in groups]
    if len(set(names)) != len(names):
        root.fail("group names must be unique")

    return PipelineConfig(
        input=input_path,
        output=output,
        report_dir=report_dir,
        schema=tuple(schema),
        identifiers=tuple(identifiers),
        groups=tuple(groups),
        base_dir=path.parent,
    )
