"""Tabular respondent data with attribute-role metadata.

A microfile is a rectangular table of records over named attributes.  Each
attribute is either ordinal (stored as float64) or nominal (stored as
strings) and carries a role:

* ``vital``       - defines protected respondent groups; always carries an
                    influential-metric weight,
* ``parameter``   - the attribute whose ordered values index goal signals
                    and the only one record swaps may touch,
* ``influential`` - weighted in the record-closeness metric,
* ``plain``       - everything else.

Identifier columns never make it into a microfile: ingestion drops any
column declared as an identifier and logs a warning.  Instances are
immutable; modification happens by constructing a new table.
"""

from __future__ import annotations

import csv
import gc
import logging
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import islice
from operator import itemgetter, not_
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomic import atomic_write
from .errors import ParseError, SchemaError

__all__ = [
    "Attribute",
    "Microfile",
    "GroupSpec",
    "load_microfile",
    "write_microfile",
    "members",
    "record_view",
    "axis_positions",
    "values_outside_order",
]

logger = logging.getLogger(__name__)

KINDS = ("ordinal", "nominal")
ROLES = ("vital", "parameter", "influential", "plain")
_WEIGHTED_ROLES = ("vital", "influential")


@dataclass(frozen=True)
class Attribute:
    """Column description: name, value kind, role, optional metric weight."""

    name: str
    kind: str
    role: str
    weight: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise SchemaError(f"attribute {self.name!r}: unknown role {self.role!r}")
        if self.role in _WEIGHTED_ROLES:
            if self.weight is None or self.weight < 0:
                raise SchemaError(
                    f"attribute {self.name!r}: role {self.role!r} requires a "
                    "non-negative weight"
                )
        elif self.weight is not None:
            raise SchemaError(
                f"attribute {self.name!r}: weight is only meaningful for roles "
                f"{_WEIGHTED_ROLES}"
            )


@dataclass(frozen=True)
class Microfile:
    """Immutable table: attribute metadata plus one column array per attribute."""

    attributes: tuple[Attribute, ...]
    columns: dict[str, np.ndarray]

    def __post_init__(self):
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("attribute names must be unique")
        if set(names) != set(self.columns):
            raise SchemaError("columns must match declared attributes exactly")
        lengths = {col.shape[0] for col in self.columns.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        for col in self.columns.values():
            col.setflags(write=False)

    @property
    def n_records(self) -> int:
        if not self.columns:
            return 0
        return next(iter(self.columns.values())).shape[0]

    def attribute(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise SchemaError(f"no attribute named {name!r}")

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def with_column(self, name: str, values: np.ndarray) -> "Microfile":
        """New microfile with one column replaced."""
        self.attribute(name)
        if values.shape[0] != self.n_records:
            raise SchemaError("replacement column has wrong length")
        cols = dict(self.columns)
        cols[name] = values
        return replace(self, columns=cols)


def record_view(m: Microfile, index: int) -> dict[str, object]:
    """One record as an attribute-name to value mapping."""
    return {name: col[index] for name, col in m.columns.items()}


@dataclass(frozen=True)
class GroupSpec:
    """A respondent group: vital value combination plus a parameter axis.

    ``vital`` maps attribute names to accepted value sets; a record belongs
    to the group when it matches every pair.  ``parameter_order`` fixes the
    goal-signal axis.  ``superset_vital``, when given, defines the wider
    population used for concentration denominators and swap partners; the
    group must be contained in it.
    """

    vital: tuple[tuple[str, frozenset], ...]
    parameter: str
    parameter_order: tuple[str, ...]
    superset_vital: tuple[tuple[str, frozenset], ...] | None = None

    def __post_init__(self):
        vital_names = [name for name, _ in self.vital]
        if len(set(vital_names)) != len(vital_names):
            raise SchemaError("duplicate attribute in vital combination")
        if self.parameter in vital_names:
            raise SchemaError(
                f"parameter attribute {self.parameter!r} cannot also be vital"
            )
        if len(self.parameter_order) < 4:
            raise SchemaError("parameter order must list at least 4 values")
        if len(set(self.parameter_order)) != len(self.parameter_order):
            raise SchemaError("parameter order contains duplicate values")

    @classmethod
    def create(
        cls,
        vital: Mapping[str, Iterable],
        parameter: str,
        parameter_order: Sequence[str],
        superset_vital: Mapping[str, Iterable] | None = None,
    ) -> "GroupSpec":
        def freeze(mapping):
            return tuple((name, frozenset(vals)) for name, vals in mapping.items())

        return cls(
            vital=freeze(vital),
            parameter=parameter,
            parameter_order=tuple(parameter_order),
            superset_vital=None if superset_vital is None else freeze(superset_vital),
        )


def _match_mask(m: Microfile, pairs: tuple[tuple[str, frozenset], ...]) -> np.ndarray:
    mask = np.ones(m.n_records, dtype=bool)
    for name, values in pairs:
        attr = m.attribute(name)
        col = m.column(name)
        wanted = [float(v) for v in values] if attr.kind == "ordinal" else [str(v) for v in values]
        mask &= np.isin(col, wanted)
    return mask


def members(m: Microfile, g: GroupSpec) -> np.ndarray:
    """Indices of records matching every vital (attribute, value-set) pair.

    An empty vital combination matches every record.
    """
    for name, _ in g.vital:
        m.attribute(name)
    m.attribute(g.parameter)
    return np.flatnonzero(_match_mask(m, g.vital))


def superset_members(m: Microfile, g: GroupSpec) -> np.ndarray:
    """Indices of records in the superset population (requires superset_vital)."""
    if g.superset_vital is None:
        raise SchemaError("group spec declares no superset population")
    return np.flatnonzero(_match_mask(m, g.superset_vital))


def check_group_in_superset(m: Microfile, g: GroupSpec) -> None:
    """Raise unless every group member also matches the superset combination."""
    if g.superset_vital is None:
        return
    inside = _match_mask(m, g.superset_vital)
    outside = np.flatnonzero(_match_mask(m, g.vital) & ~inside)
    if outside.size:
        raise SchemaError(
            f"{outside.size} group member(s) fall outside the declared superset "
            f"(first record index {int(outside[0])})"
        )


@contextmanager
def _gc_paused():
    """Keep the cyclic garbage collector off inside the block, then restore its state.

    Loading allocates one list per row and one string per cell of each
    chunk; none can form a cycle, but their sheer number triggers
    collections, which cost about a fifth of a large load even though only
    one chunk's rows are alive at a time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


#: Body rows parsed at a time.  The load's transient (one chunk's row lists
#: and cell strings) scales with this rather than with the file; 16,384 rows
#: loaded as fast as 4,096 and faster than 65,536.
_CHUNK_ROWS = 16_384


def load_microfile(
    path: str | Path,
    schema: Sequence[Attribute],
    identifiers: Sequence[str] = (),
) -> Microfile:
    """Read a header-bearing CSV file against a declared schema.

    ``schema`` must name a subset of the header columns; columns listed in
    ``identifiers`` are dropped with a warning, undeclared columns are
    ignored.  Ordinal cells must parse as finite float64 values; empty
    cells are allowed (as missing values, NaN in ordinal columns) only in
    plain columns.  Any other cell is a ``ParseError`` naming its row.

    The body is parsed ``_CHUNK_ROWS`` rows at a time into per-column
    arrays that are joined at the end, so only one chunk's rows are held
    as Python lists.  Errors come in the order of a reader that takes in
    the whole file before checking it: read errors, then header and schema
    errors, then the first ragged row, then the first bad cell of the first
    schema column that has one.
    """
    path = Path(path)
    if not schema:
        raise SchemaError("schema must declare at least one attribute")
    with _gc_paused():
        try:
            with path.open(newline="") as fh:
                reader = csv.reader(fh)
                try:
                    header = next(reader)
                except StopIteration:
                    raise ParseError(f"{path}: file is empty") from None
                try:
                    positions = _check_header(path, header, schema, identifiers)
                except SchemaError:
                    deque(reader, maxlen=0)  # a read error further on still comes first
                    raise
                columns = _read_columns(path, reader, len(header), schema, positions)
        except OSError as exc:
            raise ParseError(f"{path}: cannot read: {exc}") from exc

    return Microfile(attributes=tuple(schema), columns=columns)


def _check_header(path: Path, header: list[str], schema: Sequence[Attribute],
                  identifiers: Sequence[str]) -> list[int]:
    """Each schema column's position in ``header``; drops identifiers with a warning."""
    positions = {name: i for i, name in enumerate(header)}
    for ident in identifiers:
        if ident in positions:
            logger.warning("%s: dropping identifier column %r", path, ident)
    schema_names = {a.name for a in schema}
    if overlap := schema_names & set(identifiers):
        raise SchemaError(f"attributes {sorted(overlap)} declared both in schema and as identifiers")
    missing = [a.name for a in schema if a.name not in positions]
    if missing:
        raise SchemaError(f"{path}: declared columns missing from header: {missing}")
    return [positions[a.name] for a in schema]


def _read_columns(path: Path, reader, width: int, schema: Sequence[Attribute],
                  positions: list[int]) -> dict[str, np.ndarray]:
    """The body's schema columns, parsed chunk by chunk and joined per column.

    An error is held, and the parts dropped, while the rest of the file is
    read: a read error further on outranks everything, a later ragged row
    outranks a bad cell, and a bad cell in an earlier schema column
    outranks one found before it.  So after a bad cell, later chunks keep
    checking row widths and the columns before the failing one.
    """
    parts: list[list[np.ndarray]] | None = [[] for _ in schema]
    error: ParseError | None = None
    checked = len(schema)  # schema columns still checked; a bad cell lowers it
    first_row = 2  # file row number of the chunk's first row
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        if set(map(len, chunk)) - {width}:
            rownum, row = next((i, row) for i, row in enumerate(chunk, start=first_row)
                               if len(row) != width)
            error = ParseError(f"{path}: row {rownum} has {len(row)} fields, expected {width}")
            deque(reader, maxlen=0)
            break
        for j in range(checked):
            raw = list(map(itemgetter(positions[j]), chunk))
            try:
                part = _parse_cells(path, schema[j], raw, first_row)
            except ParseError as exc:
                error, parts, checked = exc, None, j
                break
            if parts is not None:
                parts[j].append(part)
        first_row += len(chunk)
    if error is not None:
        raise error

    columns: dict[str, np.ndarray] = {}
    for attr, column_parts in zip(schema, parts):
        if not column_parts:
            columns[attr.name] = np.empty(0, dtype="<U1" if attr.kind == "nominal" else float)
        elif len(column_parts) == 1:
            columns[attr.name] = column_parts[0]
        else:
            columns[attr.name] = np.concatenate(column_parts)
        column_parts.clear()
    return columns


def _parse_cells(path: Path, attr: Attribute, raw: list[str], first_row: int) -> np.ndarray:
    """One chunk of one column's cells; ``first_row`` is the file row of ``raw[0]``."""
    if attr.kind == "ordinal":
        return _parse_ordinal(path, attr, raw, first_row)
    if attr.role != "plain" and "" in raw:
        raise _empty_cell_error(path, first_row + raw.index(""), attr)
    return np.array(raw, dtype=str)


#: Stands in for an empty cell of a plain ordinal column while parsing.
_EMPTY_AS_NAN = {"": "nan"}


def _parse_ordinal(path: Path, attr: Attribute, raw: list[str], first_row: int) -> np.ndarray:
    """Ordinal cells as float64, NaN where a plain cell is empty.

    ``first_row`` is the file row number of ``raw[0]``, for error messages.
    """
    missing = attr.role == "plain" and "" in raw
    cells = map(_EMPTY_AS_NAN.get, raw, raw) if missing else raw
    try:
        values = np.fromiter(map(float, cells), float, len(raw))
    except ValueError:
        _raise_first_bad_cell(path, attr, raw, first_row)
    ok = np.isfinite(values)
    if missing:
        ok |= np.fromiter(map(not_, raw), bool, len(raw))
    if not ok.all():
        _raise_first_bad_cell(path, attr, raw, first_row)
    return values


def _raise_first_bad_cell(path: Path, attr: Attribute, raw: list[str], first_row: int) -> None:
    """Raise for the first cell of ordinal cells ``raw`` that is not a finite float.

    Only called once ``raw`` is known to hold such a cell; the row scan
    names the same row as a reader that checks cell by cell.
    """
    for rownum, value in enumerate(raw, start=first_row):
        if value == "":
            if attr.role != "plain":
                raise _empty_cell_error(path, rownum, attr)
            continue
        try:
            parsed = float(value)
        except ValueError:
            raise ParseError(
                f"{path}: row {rownum}: non-numeric value {value!r} in "
                f"ordinal column {attr.name!r}"
            ) from None
        if not math.isfinite(parsed):
            raise ParseError(
                f"{path}: row {rownum}: non-finite value {value!r} in "
                f"ordinal column {attr.name!r}"
            )
    raise AssertionError("no bad cell found in a column that failed to parse")


def _empty_cell_error(path: Path, rownum: int, attr: Attribute) -> ParseError:
    return ParseError(
        f"{path}: row {rownum}: empty value in {attr.role} column {attr.name!r}"
    )


def _format_cell(attr: Attribute, value) -> str:
    if attr.kind == "nominal":
        return str(value)
    v = float(value)
    if math.isnan(v):
        return ""
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _distinct_cells(attr: Attribute, col: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The texts of ``col``'s distinct values, and each cell's index into them.

    ``_format_cell`` runs once per distinct value.  ``np.unique`` merges
    -0.0 with 0.0 and every NaN with every other NaN; each merged group
    formats to one text ("0" and ""), so the result equals formatting cell
    by cell.  The distinct values go in as Python scalars, which format
    several times faster than numpy ones.
    """
    distinct, inverse = np.unique(col, return_inverse=True)
    return [_format_cell(attr, v) for v in distinct.tolist()], inverse


def _format_column(attr: Attribute, col: np.ndarray) -> list[str]:
    """``_format_cell`` of every value in ``col``."""
    text, inverse = _distinct_cells(attr, col)
    return np.array(text, dtype=object)[inverse].tolist()


def axis_positions(m: Microfile, g: GroupSpec, records: np.ndarray | None = None) -> np.ndarray:
    """Each record's index in ``g.parameter_order``, -1 where its value is not in it.

    A parameter cell belongs to the order entry equal to the text
    ``write_microfile`` gives it, so an ordinal 2000.0 sits at "2000".
    ``records`` are record indices; None means every record, in table
    order.  The column is formatted once per distinct value.
    """
    col = m.column(g.parameter)
    if records is not None:
        col = col[records]
    text, inverse = _distinct_cells(m.attribute(g.parameter), col)
    index = {value: i for i, value in enumerate(g.parameter_order)}
    return np.array([index.get(t, -1) for t in text], dtype=np.int64)[inverse]


def values_outside_order(m: Microfile, g: GroupSpec, records: np.ndarray) -> list[str]:
    """The sorted distinct texts of the ``records``' parameter cells missing from the order."""
    text, _ = _distinct_cells(m.attribute(g.parameter), m.column(g.parameter)[records])
    return sorted(set(text).difference(g.parameter_order))


def write_microfile(m: Microfile, path: str | Path) -> None:
    """Emit CSV with the header first; order of records and columns preserved.

    Integer-valued ordinals are written without a decimal point, so a file
    of integer codes round-trips textually.  The file is replaced atomically:
    if writing fails, ``path`` keeps its previous content.
    """
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in m.attributes])
        writer.writerows(zip(*[_format_column(a, m.columns[a.name]) for a in m.attributes]))
