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

Errors carry the file name and the JSON path of the offending field.  A
field an object does not define is an error too, except a removed one
(``REMOVED_ROOT_FIELDS``, ``REMOVED_GROUP_FIELDS``), which is ignored with a
warning naming its path.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .microfile import Attribute, GroupSpec
from .redistribute import RELATIONS, REPAIRS, ConstraintRow, ConstraintSpec, Objective
from .signals import KINDS as SIGNAL_KINDS

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
# No output ever depended on these; a config that sets one still loads.
REMOVED_ROOT_FIELDS = ("seed",)
REMOVED_GROUP_FIELDS = ("candidate_cap",)


@dataclass(frozen=True)
class GroupConfig:
    """Per-group processing directives.

    ``solution`` injects explicit replacement coefficients (the solver is
    skipped, declared bounds are still checked and violations logged);
    ``target`` bypasses the signal-editing stages entirely and remaps the
    group straight onto the given quantity signal.
    """

    name: str
    group: GroupSpec
    signal: str
    wavelet_family: str
    level: int
    constraints: ConstraintSpec
    subordinate: GroupSpec | None = None
    solution: np.ndarray | None = None
    target: np.ndarray | None = None
    shift: float | None = None
    margin: float = 0.0
    repair: str = "mean_fix"
    chi_same: float = 0.0
    chi_diff: float = 1.0


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


class _Cursor:
    """Typed access into parsed JSON with path-tagged errors."""

    def __init__(self, data, path: str, source: str):
        self.data = data
        self.path = path
        self.source = source

    def fail(self, message: str):
        raise ConfigError(f"{self.source}: {self.path}: {message}")

    def child(self, key):
        if isinstance(key, int):
            return _Cursor(self.data[key], f"{self.path}[{key}]", self.source)
        return _Cursor(self.data[key], f"{self.path}.{key}", self.source)

    def known(self, fields, removed=()):
        """Reject a field of this object that is not in ``fields``, naming it.

        A field in ``removed`` is ignored, with a warning naming its path.
        """
        if isinstance(self.data, dict):
            for key in self.data:
                if key in removed:
                    logger.warning("%s: %s.%s: field %r was removed and is ignored",
                                   self.source, self.path, key, key)
                elif key not in fields:
                    self.fail(f"unknown field {key!r}")

    def require(self, key, kind, what=""):
        if not isinstance(self.data, dict):
            self.fail("expected an object")
        if key not in self.data:
            self.fail(f"missing required field {key!r}")
        return self._typed(key, kind, what)

    def optional(self, key, kind, default=None, what=""):
        if not isinstance(self.data, dict) or key not in self.data or self.data[key] is None:
            return default
        return self._typed(key, kind, what)

    def _typed(self, key, kind, what):
        value = self.data[key]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if kind is not None and (not isinstance(value, kind) or isinstance(value, bool) and kind is not bool):
            self.fail(f"field {key!r} must be {what or getattr(kind, '__name__', kind)}")
        return value

    def items(self):
        if not isinstance(self.data, list):
            self.fail("expected an array")
        for i, item in enumerate(self.data):
            yield _Cursor(item, f"{self.path}[{i}]", self.source)


def _parse_attribute(cur: _Cursor) -> tuple[Attribute | None, str | None]:
    cur.known(ATTRIBUTE_FIELDS)
    name = cur.require("name", str)
    kind = cur.require("kind", str)
    role = cur.require("role", str)
    if role == "identifier":
        return None, name
    weight = cur.optional("weight", float)
    try:
        return Attribute(name=name, kind=kind, role=role, weight=weight), None
    except Exception as exc:
        cur.fail(str(exc))


def _parse_value_map(cur: _Cursor, key: str, required: bool) -> dict | None:
    raw = cur.data.get(key) if isinstance(cur.data, dict) else None
    if raw is None:
        if required:
            cur.fail(f"missing required field {key!r}")
        return None
    if not isinstance(raw, dict) or not raw:
        cur.fail(f"field {key!r} must be a non-empty object of attribute: [values]")
    out = {}
    for attr, values in raw.items():
        if not isinstance(values, list) or not values:
            cur.fail(f"field {key!r}: values for {attr!r} must be a non-empty array")
        out[attr] = {str(v) for v in values}
    return out


def _parse_objective(cur: _Cursor) -> Objective:
    raw = cur.data.get("objective", "feasibility") if isinstance(cur.data, dict) else "feasibility"
    if raw == "feasibility":
        return Objective()
    if isinstance(raw, dict) and len(raw) == 1:
        kind, positions = next(iter(raw.items()))
        if kind in ("maximize", "minimize") and isinstance(positions, list):
            return Objective(kind=kind, positions=tuple(int(p) for p in positions))
    cur.fail('field "objective" must be "feasibility", {"maximize": [positions]} '
             'or {"minimize": [positions]}')


def _parse_constraints(cur: _Cursor, m: int) -> ConstraintSpec:
    cur.known(CONSTRAINTS_FIELDS)
    rows = []
    rows_cur = cur.child("rows") if isinstance(cur.data, dict) and "rows" in cur.data else None
    if rows_cur is None:
        cur.fail('missing required field "rows"')
    for row_cur in rows_cur.items():
        row_cur.known(ROW_FIELDS)
        position = row_cur.require("position", int)
        if not 1 <= position <= m:
            row_cur.fail(f"position {position} outside 1..{m}")
        relation = row_cur.require("relation", str)
        if relation not in RELATIONS:
            row_cur.fail(f"relation must be one of {RELATIONS}, got {relation!r}")
        bound = row_cur.data.get("bound", "original")
        if not (bound == "original" or isinstance(bound, (int, float)) and not isinstance(bound, bool)):
            row_cur.fail('bound must be a number or "original"')
        rows.append(ConstraintRow(position=position, relation=relation,
                                  bound=bound if bound == "original" else float(bound)))
    objective = _parse_objective(cur)
    for pos in objective.positions:
        if not 1 <= pos <= m:
            cur.fail(f"objective position {pos} outside 1..{m}")
    nonneg = cur.optional("nonnegative_coefficients", bool, True)
    if not rows:
        cur.fail('field "rows" must contain at least one row')
    return ConstraintSpec(rows=tuple(rows), objective=objective, nonnegative=nonneg)


def _parse_group(cur: _Cursor, schema: tuple[Attribute, ...]) -> GroupConfig:
    cur.known(GROUP_FIELDS, REMOVED_GROUP_FIELDS)
    by_name = {a.name: a for a in schema}
    name = cur.require("name", str)
    parameter = cur.require("parameter", str)
    order = cur.require("parameter_order", list)
    if parameter not in by_name:
        cur.fail(f"parameter {parameter!r} is not a schema attribute")
    if by_name[parameter].role != "parameter":
        cur.fail(f"attribute {parameter!r} must have role 'parameter'")

    vital = _parse_value_map(cur, "vital", required=True)
    superset = _parse_value_map(cur, "superset", required=False)
    for attr in list(vital) + list(superset or {}):
        if attr not in by_name:
            cur.fail(f"attribute {attr!r} is not declared in the schema")

    signal = cur.optional("signal", str, "quantity")
    if signal not in SIGNAL_KINDS:
        cur.fail(f"signal must be one of {SIGNAL_KINDS}, got {signal!r}")
    if signal in ("concentration", "difference") and superset is None:
        cur.fail(f"signal kind {signal!r} requires a superset population")

    subordinate = None
    if signal == "difference":
        sub_vital = _parse_value_map(cur, "subordinate_vital", required=True)
        for attr in sub_vital:
            if attr not in by_name:
                cur.fail(f"attribute {attr!r} is not declared in the schema")
        subordinate = GroupSpec.create(sub_vital, parameter, [str(v) for v in order], superset)

    wavelet_cur = cur.child("wavelet") if "wavelet" in cur.data else None
    family, level = "db2", 2
    if wavelet_cur is not None:
        wavelet_cur.known(WAVELET_FIELDS)
        family = wavelet_cur.optional("family", str, "db2")
        level = wavelet_cur.optional("level", int, 2)
    m = len(order)
    if level < 1 or m % (1 << level):
        cur.fail(f"level {level} does not divide the {m}-value parameter order")

    constraints_cur = cur.child("constraints") if "constraints" in cur.data else None
    if constraints_cur is None:
        cur.fail('missing required field "constraints"')
    constraints = _parse_constraints(constraints_cur, m)

    solution = cur.optional("solution", list)
    if solution is not None:
        expected = m >> level
        if len(solution) != expected:
            cur.fail(f"solution must list {expected} coefficients, got {len(solution)}")
        solution = np.array([float(v) for v in solution])

    target = cur.optional("target", list)
    if target is not None:
        if len(target) != m:
            cur.fail(f"target must list {m} values, got {len(target)}")
        target = np.array([float(v) for v in target])
        if np.any(target < 0) or np.any(target != np.floor(target)):
            cur.fail("target must hold non-negative integers")

    shift = cur.data.get("shift", "auto")
    if shift == "auto":
        shift = None
    elif not (isinstance(shift, (int, float)) and not isinstance(shift, bool)):
        cur.fail('field "shift" must be a number or "auto"')
    else:
        shift = float(shift)

    repair = cur.optional("repair", str, "mean_fix")
    if repair not in REPAIRS:
        cur.fail(f"repair must be one of {REPAIRS}, got {repair!r}")

    chi_same = cur.optional("chi_same", float, 0.0)
    chi_diff = cur.optional("chi_diff", float, 1.0)

    try:
        group = GroupSpec.create(vital, parameter, [str(v) for v in order], superset)
    except Exception as exc:
        cur.fail(str(exc))
    return GroupConfig(
        name=name,
        group=group,
        signal=signal,
        wavelet_family=family,
        level=level,
        constraints=constraints,
        subordinate=subordinate,
        solution=solution,
        target=target,
        shift=shift,
        margin=cur.optional("margin", float, 0.0),
        repair=repair,
        chi_same=chi_same,
        chi_diff=chi_diff,
    )


def load_pipeline_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a pipeline configuration file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc

    root = _Cursor(data, "$", str(path))
    root.known(ROOT_FIELDS, REMOVED_ROOT_FIELDS)
    input_path = Path(root.require("input", str))
    output = Path(root.require("output", str))
    report_dir = Path(root.optional("report_dir", str, "report"))

    schema_cur = root.child("schema") if "schema" in data else None
    if schema_cur is None:
        root.fail('missing required field "schema"')
    schema, identifiers = [], []
    for attr_cur in schema_cur.items():
        attr, ident = _parse_attribute(attr_cur)
        if ident is not None:
            identifiers.append(ident)
        else:
            schema.append(attr)
    if not schema:
        root.fail('field "schema" must declare at least one non-identifier attribute')

    groups_cur = root.child("groups") if "groups" in data else None
    if groups_cur is None:
        root.fail('missing required field "groups"')
    groups = [_parse_group(cur, tuple(schema)) for cur in groups_cur.items()]
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
