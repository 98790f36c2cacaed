"""Tabular respondent data with attribute-role metadata.

A microfile is a rectangular table of records over named attributes.  Each
attribute is either ordinal (stored as float64) or nominal (stored as int32
codes into a vocabulary of its distinct texts) and carries a role:

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
from dataclasses import dataclass, field
from itertools import islice, repeat
from operator import itemgetter, not_
from pathlib import Path
from types import SimpleNamespace
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


@dataclass(frozen=True, init=False, eq=False)
class Microfile:
    """Immutable table: attribute metadata plus one stored array per attribute.

    An ordinal column is stored as its float64 values.  A nominal column is
    stored as int32 codes into its vocabulary: the sorted, distinct texts of
    its cells.  ``column`` and ``columns`` give a nominal column's texts,
    ``vocabulary[codes]``, built when asked for; the table's own functions
    read the codes and never sort or compare a text column.
    """

    attributes: tuple[Attribute, ...]
    _cells: Mapping[str, np.ndarray] = field(repr=False)
    _vocabularies: Mapping[str, np.ndarray] = field(repr=False)

    def __init__(self, attributes: Sequence[Attribute], columns: Mapping[str, np.ndarray]):
        """Table of ``columns``: float values for ordinal, texts for nominal attributes.

        Each nominal column is encoded once, here.
        """
        _check_names(attributes, columns)
        cells, vocabularies = {}, {}
        for attr in attributes:
            cells[attr.name], vocab = _encode(attr, columns[attr.name])
            if vocab is not None:
                vocabularies[attr.name] = vocab
        self._store(attributes, cells, vocabularies)

    @classmethod
    def from_cells(cls, attributes: Sequence[Attribute], cells: Mapping[str, np.ndarray],
                   vocabularies: Mapping[str, np.ndarray]) -> "Microfile":
        """Table of stored arrays, as ``cells`` and ``vocabulary`` return them.

        Every vocabulary must be sorted and distinct, and every code index it.
        """
        _check_names(attributes, cells)
        m = cls.__new__(cls)
        m._store(attributes, cells, vocabularies)
        return m

    def _store(self, attributes, cells, vocabularies) -> None:
        lengths = {col.shape[0] for col in cells.values()}
        if len(lengths) > 1:
            raise SchemaError(f"ragged columns: lengths {sorted(lengths)}")
        for array in (*cells.values(), *vocabularies.values()):
            array.setflags(write=False)
        object.__setattr__(self, "attributes", tuple(attributes))
        object.__setattr__(self, "_cells", dict(cells))
        object.__setattr__(self, "_vocabularies", dict(vocabularies))

    @property
    def n_records(self) -> int:
        if not self._cells:
            return 0
        return next(iter(self._cells.values())).shape[0]

    def attribute(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise SchemaError(f"no attribute named {name!r}")

    def cells(self, name: str) -> np.ndarray:
        """The column's stored array: float64 values, or codes into its ``vocabulary``."""
        try:
            return self._cells[name]
        except KeyError:
            raise SchemaError(f"no attribute named {name!r}") from None

    def vocabulary(self, name: str) -> np.ndarray | None:
        """A nominal column's sorted distinct texts; None for an ordinal column."""
        self.cells(name)
        return self._vocabularies.get(name)

    def column(self, name: str) -> np.ndarray:
        """The column's values: float64 for ordinal, a read-only text array for nominal."""
        cells, vocab = self.cells(name), self.vocabulary(name)
        if vocab is None:
            return cells
        texts = vocab[cells]
        texts.setflags(write=False)
        return texts

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """Every column's values by attribute name, as ``column`` gives them."""
        return {a.name: self.column(a.name) for a in self.attributes}

    def with_column(self, name: str, values: np.ndarray) -> "Microfile":
        """New microfile with one column replaced by ``values`` (texts if nominal)."""
        return self._replaced(name, *_encode(self.attribute(name), values))

    def with_cells(self, name: str, cells: np.ndarray) -> "Microfile":
        """New microfile with one stored array replaced; a nominal column keeps its vocabulary."""
        return self._replaced(name, cells, self.vocabulary(name))

    def _replaced(self, name: str, cells: np.ndarray, vocab: np.ndarray | None) -> "Microfile":
        if cells.shape[0] != self.n_records:
            raise SchemaError("replacement column has wrong length")
        vocabularies = dict(self._vocabularies)
        if vocab is not None:
            vocabularies[name] = vocab
        return Microfile.from_cells(self.attributes, {**self._cells, name: cells}, vocabularies)


def _check_names(attributes: Sequence[Attribute], columns: Mapping[str, object]) -> None:
    names = [a.name for a in attributes]
    if len(set(names)) != len(names):
        raise SchemaError("attribute names must be unique")
    if set(names) != set(columns):
        raise SchemaError("columns must match declared attributes exactly")


def _encode(attr: Attribute, values: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """A column's stored array and vocabulary (None if ordinal) from its values."""
    if attr.kind == "ordinal":
        return values, None
    vocab, codes = np.unique(np.asarray(values, dtype=str), return_inverse=True)
    return codes.reshape(-1).astype(np.int32), vocab


def record_view(m: Microfile, index: int) -> dict[str, object]:
    """One record as an attribute-name to value mapping."""
    view = {}
    for a in m.attributes:
        cell, vocab = m.cells(a.name)[index], m.vocabulary(a.name)
        view[a.name] = cell if vocab is None else vocab[cell]
    return view


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
        cells, vocab = m.cells(name), m.vocabulary(name)
        if vocab is None:
            mask &= np.isin(cells, [float(v) for v in values])
        else:
            mask &= np.isin(vocab, [str(v) for v in values])[cells]
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


#: Body rows parsed, and rows written, at a time.  The load's transient (one
#: chunk's row lists and cell strings) and the write's row texts scale with
#: this rather than with the file; 16,384 rows loaded as fast as 4,096 and
#: faster than 65,536.
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
                table = _read_columns(path, reader, len(header), schema, positions)
        except OSError as exc:
            raise ParseError(f"{path}: cannot read: {exc}") from exc

    return table


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
                  positions: list[int]) -> Microfile:
    """The table of the body's schema columns, parsed chunk by chunk and joined per column.

    An error is held, and the parts dropped, while the rest of the file is
    read: a read error further on outranks everything, a later ragged row
    outranks a bad cell, and a bad cell in an earlier schema column
    outranks one found before it.  So after a bad cell, later chunks keep
    checking row widths and the columns before the failing one.
    """
    parts: list[list[np.ndarray]] | None = [[] for _ in schema]
    vocabs: list[dict[str, int]] = [{} for _ in schema]
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
                part = _parse_cells(path, schema[j], raw, first_row, vocabs[j])
            except ParseError as exc:
                error, parts, checked = exc, None, j
                break
            if parts is not None:
                parts[j].append(part)
        first_row += len(chunk)
    if error is not None:
        raise error

    cells, vocabularies = {}, {}
    for attr, column_parts, vocab in zip(schema, parts, vocabs):
        nominal = attr.kind == "nominal"
        if len(column_parts) == 1:
            joined = column_parts[0]
        else:
            joined = np.concatenate(column_parts or [np.empty(0, np.int32 if nominal else float)])
        column_parts.clear()
        if nominal:
            # renumber the codes in sorted text order, merging texts that
            # NumPy's fixed-width strings make equal
            vocabularies[attr.name], sorted_code = np.unique(np.array(list(vocab), dtype=str),
                                                             return_inverse=True)
            joined = sorted_code.astype(np.int32)[joined]
        cells[attr.name] = joined
    return Microfile.from_cells(schema, cells, vocabularies)


def _parse_cells(path: Path, attr: Attribute, raw: list[str], first_row: int,
                 vocab: dict[str, int]) -> np.ndarray:
    """One chunk of one column's cells; ``first_row`` is the file row of ``raw[0]``.

    A nominal cell becomes its text's code in ``vocab``, the column's texts
    in order of first appearance, which gains each text it lacks.
    """
    if attr.kind == "ordinal":
        return _parse_ordinal(path, attr, raw, first_row)
    if attr.role != "plain" and "" in raw:
        raise _empty_cell_error(path, first_row + raw.index(""), attr)
    # len(vocab) is taken before setdefault adds the text, so a new text gets the next code
    return np.fromiter(map(vocab.setdefault, raw, map(len, repeat(vocab))), np.int32, len(raw))


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
    if math.isinf(v):
        raise SchemaError(f"non-finite value {v!r} in ordinal column {attr.name!r} has no text")
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _distinct_cells(m: Microfile, name: str,
                    records: np.ndarray | None = None) -> tuple[list[str], np.ndarray]:
    """The texts of a column's distinct values, and each cell's index into them.

    ``records`` are record indices; None means every record, in table
    order.  ``_format_cell`` runs once per distinct value.  A nominal
    column's distinct values are its vocabulary, which its codes already
    index.  An ordinal column's come from ``np.unique``, which merges -0.0
    with 0.0 and every NaN with every other NaN; each merged group formats
    to one text ("0" and ""), so the result equals formatting cell by cell.
    The distinct values go in as Python scalars, which format several times
    faster than numpy ones.
    """
    attr, cells, distinct = m.attribute(name), m.cells(name), m.vocabulary(name)
    if records is not None:
        cells = cells[records]
    if distinct is None:
        distinct, cells = np.unique(cells, return_inverse=True)
    return [_format_cell(attr, v) for v in distinct.tolist()], cells


def axis_positions(m: Microfile, g: GroupSpec, records: np.ndarray | None = None) -> np.ndarray:
    """Each record's index in ``g.parameter_order``, -1 where its value is not in it.

    A parameter cell belongs to the order entry equal to the text
    ``write_microfile`` gives it, so an ordinal 2000.0 sits at "2000".
    ``records`` are record indices; None means every record, in table
    order.  Each distinct value is looked up once.
    """
    text, inverse = _distinct_cells(m, g.parameter, records)
    index = {value: i for i, value in enumerate(g.parameter_order)}
    return np.array([index.get(t, -1) for t in text], dtype=np.int64)[inverse]


def values_outside_order(m: Microfile, g: GroupSpec, records: np.ndarray) -> list[str]:
    """The sorted distinct texts of the ``records``' parameter cells missing from the order."""
    text, inverse = _distinct_cells(m, g.parameter, records)
    return sorted({text[i] for i in np.unique(inverse).tolist()}.difference(g.parameter_order))


def _written(texts: list[str], last: bool, alone: bool) -> np.ndarray:
    """``texts`` as csv writes them in a row, as an object array.

    Each text goes once through a csv writer whose file hands back the
    line instead of writing it, so the quoting is csv's own.  The texts of
    the last column end with the line terminator, so a row is its fields
    joined by the delimiter.  A table's only column keeps csv's rule for a
    row of one field, which quotes an empty field.
    """
    line = csv.writer(SimpleNamespace(write=str)).writerow
    if alone:
        written = list(map(line, zip(texts)))
    else:
        # the line of ("", text) is a delimiter, the field and the terminator
        cut = 0 if last else len(line(()))
        written = [row[1:len(row) - cut] for row in map(line, zip(repeat(""), texts))]
    return np.array(written, dtype=object)


def write_microfile(m: Microfile, path: str | Path) -> None:
    """Emit CSV with the header first; order of records and columns preserved.

    Integer-valued ordinals are written without a decimal point, so a file
    of integer codes round-trips textually.  Each column's distinct values
    are formatted and quoted once; rows are then joined ``_CHUNK_ROWS`` at
    a time.  Besides one chunk, the write holds one index per ordinal
    column; a nominal column's codes are its index.  The file is replaced
    atomically: if writing fails, ``path`` keeps its previous content.
    """
    width = len(m.attributes)
    columns = []
    for j, attr in enumerate(m.attributes):
        text, inverse = _distinct_cells(m, attr.name)
        columns.append((_written(text, j == width - 1, width == 1), inverse))
    with atomic_write(path, newline="") as fh:
        csv.writer(fh).writerow([a.name for a in m.attributes])
        for start in range(0, m.n_records, _CHUNK_ROWS):
            parts = [text[inverse[start:start + _CHUNK_ROWS]].tolist() for text, inverse in columns]
            fh.write("".join(map(",".join, zip(*parts))))
