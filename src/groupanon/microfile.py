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

import codecs
import csv
import gc
import locale
import logging
import math
import stat
from collections import deque
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, repeat
from operator import itemgetter, not_
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .atomic import atomic_write
from .errors import ParseError, SchemaError

__all__ = [
    "Attribute",
    "Microfile",
    "GroupSpec",
    "load_microfile",
    "write_microfile",
    "write_columns",
    "text_cells",
    "integer_cells",
    "formatted_cells",
    "group_census",
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
            if self.weight is None or not 0 <= self.weight < math.inf:
                raise SchemaError(
                    f"attribute {self.name!r}: role {self.role!r} requires a "
                    "finite, non-negative weight"
                )
        elif self.weight is not None:
            raise SchemaError(
                f"attribute {self.name!r}: weight is only meaningful for roles "
                f"{_WEIGHTED_ROLES}"
            )

    def number(self, value) -> float:
        """The number ``value`` selects in this ordinal column: its finite ``float``."""
        with suppress(TypeError, ValueError):
            if math.isfinite(number := float(value)):
                return number
        raise SchemaError(f"ordinal attribute {self.name!r}: {value!r} is not a finite number")


@dataclass(frozen=True, init=False, eq=False)
class Microfile:
    """Immutable table: attribute metadata plus one stored array per attribute.

    An ordinal column is stored as its float64 values.  A nominal column is
    stored as int32 codes into its vocabulary: the distinct texts of its
    cells, as a read-only object array of Python ``str`` in code-point
    order.  ``column`` and ``columns`` give a nominal column's texts,
    ``vocabulary[codes]``, built when asked for; the table's own functions
    read the codes and never sort or compare a text column.
    """

    attributes: tuple[Attribute, ...]
    _cells: Mapping[str, np.ndarray] = field(repr=False)
    _vocabularies: Mapping[str, np.ndarray] = field(repr=False)

    def __init__(self, attributes: Sequence[Attribute], columns: Mapping[str, np.ndarray]):
        """Table of ``columns``: float values for ordinal, texts for nominal attributes.

        Each nominal column is encoded once, here, a value as its ``str``.
        """
        _check_names(attributes, columns)
        cells, vocabularies = {}, {}
        for attr in attributes:
            values = columns[attr.name]
            if attr.kind == "nominal":
                first: dict[str, int] = {}
                codes = _first_codes(first, map(str, values), len(values))
                vocabularies[attr.name], rank = _sorted_vocabulary(list(first))
                values = rank[codes]
            cells[attr.name] = values
        self._store(attributes, cells, vocabularies)

    @classmethod
    def from_cells(cls, attributes: Sequence[Attribute], cells: Mapping[str, np.ndarray],
                   vocabularies: Mapping[str, np.ndarray]) -> "Microfile":
        """Table of stored arrays, as ``cells`` and ``vocabulary`` return them.

        Every vocabulary must be an object array of distinct ``str`` in
        code-point order, and every code index it.
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

    def with_cells(self, name: str, cells: np.ndarray) -> "Microfile":
        """New microfile with one stored array replaced; a nominal column keeps its vocabulary."""
        if cells.shape[0] != self.n_records:
            raise SchemaError("replacement column has wrong length")
        return Microfile.from_cells(self.attributes, {**self._cells, name: cells},
                                    self._vocabularies)


def _check_names(attributes: Sequence[Attribute], columns: Mapping[str, object]) -> None:
    names = [a.name for a in attributes]
    if len(set(names)) != len(names):
        raise SchemaError("attribute names must be unique")
    if set(names) != set(columns):
        raise SchemaError("columns must match declared attributes exactly")


def _first_codes(first: dict, keys: Iterable, n: int) -> np.ndarray:
    """Each of the ``n`` keys' index in ``first``, its keys in order of first appearance."""
    # len(first) is taken before setdefault adds a key, so a new key gets the next index
    return np.fromiter(map(first.setdefault, keys, map(len, repeat(first))), np.int32, n)


def _sorted_vocabulary(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Distinct ``texts`` as a read-only object array in code-point order, and each one's index."""
    vocab, rank = np.unique(np.array(texts, dtype=object), return_inverse=True)
    vocab.setflags(write=False)
    return vocab, rank.astype(np.int32)


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
            mask &= np.isin(cells, list(map(m.attribute(name).number, sorted(values, key=str))))
        else:
            wanted = set(map(str, values))
            mask &= np.fromiter(map(wanted.__contains__, vocab), bool, vocab.size)[cells]
    return mask


@contextmanager
def _gc_paused():
    """Keep the cyclic garbage collector off inside the block, then restore its state.

    The csv reader allocates one list per row and one string per cell of
    each chunk; none can form a cycle, but their sheer number triggers
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


#: Body rows parsed (the byte path's blocks hold as many on average), and
#: rows written, at a time.  The load's transient (one
#: chunk's bytes and offsets, or its row lists and cell strings) and the
#: write's (one chunk's cell positions and padded byte matrix) scale with
#: this rather than with the file; 16,384 rows loaded as fast as 4,096 and
#: faster than 65,536.
_CHUNK_ROWS = 16_384


def load_microfile(
    path: str | Path,
    schema: Sequence[Attribute],
    identifiers: Sequence[str] = (),
    *,
    info: dict | None = None,
) -> Microfile:
    """Read a header-bearing CSV file against a declared schema.

    ``schema`` must name a subset of the header columns; columns listed in
    ``identifiers`` are dropped with a warning, undeclared columns are
    ignored.  Ordinal cells must parse as finite float64 values; empty
    cells are allowed (as missing values, NaN in ordinal columns) only in
    plain columns.  Any other cell is a ``ParseError`` naming its row.

    A plain file (see ``_read_plain``) is parsed by a byte path that fills
    columns allocated once, at their full length, in place, and builds no
    cell string for a chunk whose nominal cells fit in 8 bytes.  Any other
    file is read again from the start by ``csv.reader``, which builds the
    same table and raises every parse error.  It parses the body
    ``_CHUNK_ROWS`` rows at a time into per-column arrays that are joined
    at the end, so only one chunk's rows are held as Python lists.  Errors
    come in the order of a reader that takes in the whole file before
    checking it: read errors, then header and schema errors, then the first
    ragged row, then the first bad cell of the first schema column that has
    one.

    If ``info`` is given, ``info["reader"]`` is set to the path that built
    the table: ``"bytes"`` or ``"csv"``.
    """
    path = Path(path)
    if not schema:
        raise SchemaError("schema must declare at least one attribute")
    with _gc_paused():
        try:
            table, reader = _read_plain(path, schema, identifiers), "bytes"
            if table is None:
                table, reader = _read_csv(path, schema, identifiers), "csv"
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise ParseError(f"{path}: cannot read: {exc}") from exc
    if info is not None:
        info["reader"] = reader
    return table


def _read_csv(path: Path, schema: Sequence[Attribute], identifiers: Sequence[str]) -> Microfile:
    """The table as ``csv.reader`` reads the file; the source of every parse error.

    Under a UTF-8 platform encoding the file is read as ``utf-8-sig``, which
    drops a leading byte order mark (as spreadsheet "CSV UTF-8" exports
    write) and reads a file without one exactly as UTF-8 does.
    """
    utf8 = locale.getpreferredencoding(False).lower().replace("-", "").replace("_", "") == "utf8"
    with path.open(newline="", encoding="utf-8-sig" if utf8 else None) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: file is empty") from None
        _warn_identifiers(path, header, identifiers)
        try:
            positions = _check_header(path, header, schema, identifiers)
        except SchemaError:
            deque(reader, maxlen=0)  # a read error further on still comes first
            raise
        return _read_columns(path, reader, len(header), schema, positions)


def _warn_identifiers(path: Path, header: list[str], identifiers: Sequence[str]) -> None:
    for ident in identifiers:
        if ident in header:
            logger.warning("%s: dropping identifier column %r", path, ident)


def _check_header(path: Path, header: list[str], schema: Sequence[Attribute],
                  identifiers: Sequence[str]) -> list[int]:
    """Each schema column's position in ``header``."""
    positions = {name: i for i, name in enumerate(header)}
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
            vocabularies[attr.name], rank = _sorted_vocabulary(list(vocab))
            joined = rank[joined]
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
    return _first_codes(vocab, raw, len(raw))


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


#: Every ASCII byte, once.
_ASCII = bytes(range(128))


def _ascii_compatible(encoding: str) -> bool:
    """Whether ``encoding`` decodes ASCII bytes to the same text as ASCII does.

    A platform encoding is stateless, so one probe of every ASCII byte
    answers for every ASCII string; it rules out UTF-16 and EBCDIC.
    """
    try:
        return _ASCII.decode(encoding) == _ASCII.decode("ascii")
    except (LookupError, UnicodeDecodeError):
        return False


def _read_plain(path: Path, schema: Sequence[Attribute],
                identifiers: Sequence[str]) -> Microfile | None:
    """The table of a plain file; None as soon as a chunk shows the file is not plain.

    A file is plain when ``csv.reader``'s rows of it are its lines split on
    commas, and it holds nothing that ``_read_csv`` would reject:

    * the platform encoding is ASCII-compatible and the file is ASCII;
    * it holds no quote and no NUL, and every carriage return ends a line
      before its line feed;
    * no line is empty, and each has as many fields as the header;
    * no field is longer than ``csv.field_size_limit()``;
    * no cell of a schema column that is not plain is empty, and every
      ordinal cell is a finite number.

    The file must also be a regular one, so that the csv path can read it
    again.  One streaming pass counts the body's lines, so that each column
    is allocated once, at its full length, and gives the body's average
    line length.  The body is then read in blocks of about ``_CHUNK_ROWS``
    average lines' bytes, each finished to the end of its last line (see
    ``_line_blocks``), so no object is built per line; a chunk's fields
    are found by one scan for delimiters and gathered by offset, and each
    column's cells are written into the chunk's slice of it.  A nominal
    column's cells are codes into its distinct texts as bytes, in order of
    first appearance, until every chunk is read; then the column is
    renumbered in place into its vocabulary.  So the load holds the table
    and one chunk.  If the second pass reads another number of lines than
    the first counted, the file is not taken as plain.
    """
    if not _ascii_compatible(locale.getpreferredencoding(False)):
        return None
    try:
        if not stat.S_ISREG(path.stat().st_mode):
            return None
    except OSError:
        return None  # the csv path reports it
    limit = csv.field_size_limit()
    with path.open("rb") as fh:
        header = _plain_header(fh.readline(), limit)
        if header is None:
            return None
        try:
            positions = _check_header(path, header, schema, identifiers)
        except SchemaError:
            return None
        body = fh.tell()
        n = _count_lines(fh)
        # about _CHUNK_ROWS lines' bytes at a time
        block = max(1, (fh.tell() - body) * _CHUNK_ROWS // max(n, 1))
        fh.seek(body)
        columns = [np.empty(n, np.int32 if attr.kind == "nominal" else float) for attr in schema]
        # each nominal column's distinct texts, as bytes, in order of first appearance
        texts: list[dict[bytes, int]] = [{} for _ in schema]
        at = 0
        for chunk in _line_blocks(fh, block):
            lines = chunk.count(b"\n") + (not chunk.endswith(b"\n"))
            rows = slice(at, at + lines)
            at = rows.stop
            if at > n:
                return None
            fields = _plain_fields(chunk, lines, len(header), limit)
            del chunk
            if fields is None:
                return None
            data, starts, lengths = fields
            for attr, pos, column, first in zip(schema, positions, columns, texts):
                if attr.role != "plain" and not lengths[:, pos].all():
                    return None
                if attr.kind == "nominal":
                    column[rows] = _plain_nominal(data, starts[:, pos], lengths[:, pos], first)
                else:
                    values = _plain_ordinal(data, starts[:, pos], lengths[:, pos])
                    if values is None:
                        return None
                    column[rows] = values
        if at != n:
            return None
    _warn_identifiers(path, header, identifiers)
    cells, vocabularies = {}, {}
    for attr, column, first in zip(schema, columns, texts):
        cells[attr.name] = column
        if attr.kind == "nominal":
            vocabularies[attr.name] = _renumber(column, first)
    return Microfile.from_cells(schema, cells, vocabularies)


def _count_lines(fh) -> int:
    """The lines from ``fh``'s position to its end, read in blocks, as iterating it splits them."""
    block = bytearray(2**16)
    lines, last = 0, ord("\n")
    while size := fh.readinto(block):
        lines += block.count(b"\n", 0, size)
        last = block[size - 1]
    return lines + (last != ord("\n"))


def _line_blocks(fh, size: int) -> Iterator[bytes]:
    """The rest of ``fh`` in blocks of whole lines: reads of ``size`` bytes finished to a line end.

    ``readline`` finishes the read's last line, or reads the whole next
    line when the read already ends at a line feed, so no bytes are carried
    from one block to the next.  The last block ends at the file's end,
    whether or not a line feed ends it.
    """
    while data := fh.read(size):
        yield data + fh.readline()


def _plain_header(line: bytes, limit: int) -> list[str] | None:
    """The fields of the header line, or None if the line is not plain."""
    if line.endswith(b"\n"):
        line = line[:-2] if line.endswith(b"\r\n") else line[:-1]
    if not line or not line.isascii() or b'"' in line or b"\0" in line or b"\r" in line:
        return None
    fields = line.decode("ascii").split(",")
    return fields if max(map(len, fields)) <= limit else None


def _plain_fields(chunk: bytes, lines: int, width: int,
                  limit: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The chunk's bytes, and each field's offset and length as (lines, width) arrays.

    ``chunk`` holds ``lines`` whole lines; without a final line feed, its
    last line is the file's.  None unless every line is plain.  The bytes
    go on with eight zeros, so that an eight-byte word starting at any
    field lies inside them.
    """
    if not chunk.isascii() or b'"' in chunk or b"\0" in chunk:
        return None
    if not chunk.endswith(b"\n"):
        chunk += b"\n"
    data = np.frombuffer(chunk, np.uint8)
    delimiter = data == ord(",")
    delimiter |= data == ord("\n")
    ends = np.flatnonzero(delimiter)
    del delimiter
    if ends.size != lines * width:
        return None
    # each of the ``lines`` line feeds ends a row of ``width`` delimiters, so the others are commas
    ends = ends.reshape(lines, width)
    if not (data[ends[:, -1]] == ord("\n")).all():
        return None
    crlf = data[ends[:, -1] - 1] == ord("\r")
    if chunk.count(b"\r") != np.count_nonzero(crlf):
        return None
    starts = np.empty_like(ends)
    starts.flat[0] = 0
    np.add(ends.reshape(-1)[:-1], 1, out=starts.reshape(-1)[1:])
    ends[:, -1] -= crlf
    lengths = np.subtract(ends, starts, out=ends)
    if int(lengths.max()) > limit or (width == 1 and not lengths.all()):
        return None
    return np.concatenate((data, np.zeros(8, np.uint8))), starts, lengths


def _words(data: np.ndarray) -> np.ndarray:
    """The big-endian 8-byte word at every offset of ``data``, as a strided view."""
    return np.ndarray((data.size - 7,), ">u8", data, strides=(1,))


#: For n = 0..8: a mask of a word's last n bytes, the shift that moves its
#: first n bytes there, and a mask of its first n bytes.
_LAST = np.array([2**(8 * n) - 1 for n in range(9)], np.uint64)
_SHIFT = np.array([0] + [64 - 8 * n for n in range(1, 9)], np.uint64)
_FIRST = _LAST << _SHIFT


def _plain_nominal(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                   first: dict[bytes, int]) -> np.ndarray:
    """Each cell's index in ``first``, the column's texts as bytes, which gains each it lacks.

    When no cell is wider than 8 bytes, each becomes the big-endian integer
    of its bytes, zero-padded, and one ``np.unique`` of those finds the
    chunk's texts, each looked up once; no plain cell holds NUL, so the
    padding never merges two.  Otherwise each cell is looked up by its
    bytes, as the csv path looks up a text, so no cell is padded.
    """
    if int(lengths.max()) <= 8:
        keys = _words(data)[starts].astype(np.uint64) & _FIRST[lengths]
        distinct, codes = np.unique(keys, return_inverse=True)
        chunk_texts = distinct.astype(">u8").view("S8").tolist()
        return _first_codes(first, chunk_texts, len(chunk_texts))[codes.reshape(-1)]
    chunk = data.tobytes()
    cells = map(chunk.__getitem__, map(slice, starts.tolist(), (starts + lengths).tolist()))
    return _first_codes(first, cells, starts.size)


#: Cells of up to this many ASCII digits are read by arithmetic: below
#: 10**15 < 2**53 every integer is exact in float64, as ``float()`` gives it.
_EXACT_DIGITS = 15
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII "0"
_SIXES = np.uint64(0x0606060606060606)
_HIGH_NIBBLES = np.uint64(0xF0F0F0F0F0F0F0F0)
_PAIRS = np.uint64(0x00FF00FF00FF00FF)
_QUADS = np.uint64(0x0000FFFF0000FFFF)
_HALF = np.uint64(0x00000000FFFFFFFF)


def _eight_digits(words: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each cell's first ``lengths`` (at most 8) bytes are ASCII digits, and their number.

    The bytes are moved to the end of a word whose other bytes are "0",
    checked eight at a time, and combined in pairs, quads and halves.  No
    bytes at all read as 0.
    """
    last = _LAST[lengths]
    text = (words[starts].astype(np.uint64) >> _SHIFT[lengths]) & last | (_ZEROS & ~last)
    ok = ((text & _HIGH_NIBBLES) == _ZEROS) & (((text + _SIXES) & _HIGH_NIBBLES) == _ZEROS)
    n = text - _ZEROS
    n = (n >> np.uint64(8) & _PAIRS) * np.uint64(10) + (n & _PAIRS)
    n = (n >> np.uint64(16) & _QUADS) * np.uint64(100) + (n & _QUADS)
    n = (n >> np.uint64(32)) * np.uint64(10_000) + (n & _HALF)
    return ok, n


def _plain_ordinal(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The chunk's ordinal cells as float64, NaN where a cell is empty.

    A cell of 1 to ``_EXACT_DIGITS`` ASCII digits is worked out from its
    digits, as a head of up to 7 and a tail of up to 8; any other goes
    through ``float()``, as in the csv path.  None if such a cell is not a
    finite number.  When no cell is wider than 8 bytes every head is empty
    and reads as 0, so its pass is skipped.
    """
    words = _words(data)
    tail = np.minimum(lengths, 8)
    if int(lengths.max(initial=0)) > 8:
        head_ok, high = _eight_digits(words, starts, np.minimum(lengths - tail, 8))
    else:
        head_ok, high = True, np.uint64(0)
    tail_ok, low = _eight_digits(words, starts + lengths - tail, tail)
    exact = head_ok & tail_ok & (lengths > 0) & (lengths <= _EXACT_DIGITS)
    values = np.where(exact, high * np.uint64(10**8) + low, np.nan)
    other = np.flatnonzero(~exact & (lengths > 0))
    for i, start, length in zip(other.tolist(), starts[other].tolist(), lengths[other].tolist()):
        try:
            value = float(data[start:start + length].tobytes().decode("ascii"))
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
        values[i] = value
    return values


def _renumber(codes: np.ndarray, first: dict[bytes, int]) -> np.ndarray:
    """The vocabulary of ASCII texts ``first``, which ``codes`` index and are renumbered into.

    Each text is decoded once; codes change in place, ``_CHUNK_ROWS`` at a time.
    """
    vocab, rank = _sorted_vocabulary([text.decode("ascii") for text in first])
    for at in range(0, codes.size, _CHUNK_ROWS):
        codes[at:at + _CHUNK_ROWS] = rank[codes[at:at + _CHUNK_ROWS]]
    return vocab


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


def _distinct_cells(m: Microfile, name: str) -> tuple[list[str], np.ndarray]:
    """The texts of a column's distinct values, and each cell's index into them.

    A nominal column's distinct values are its vocabulary, which its codes
    already index, and ``_format_cell`` writes each as it is.  An ordinal
    column's are formatted once each; they come from ``np.unique``, which
    merges -0.0 with 0.0 and every NaN with every other NaN; each merged
    group formats to one text ("0" and ""), so the result equals
    formatting cell by cell.  The distinct values go in as Python scalars,
    which format several times faster than numpy ones.
    """
    attr, cells, distinct = m.attribute(name), m.cells(name), m.vocabulary(name)
    if distinct is not None:
        return distinct.tolist(), cells
    distinct, cells = np.unique(cells, return_inverse=True)
    return [_format_cell(attr, v) for v in distinct.tolist()], cells


def group_census(m: Microfile, g: GroupSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Where group ``g`` counts each record: ``(positions, member, superset)``.

    ``positions`` is each record's int32 index in ``g.parameter_order``,
    -1 where its value is not in it.  A parameter cell belongs to the order
    entry equal to the text ``write_microfile`` gives it, so an ordinal
    2000.0 sits at "2000"; each distinct value is looked up once.
    ``member`` and ``superset`` are boolean masks over the records;
    ``superset`` is None when the group declares no superset population.

    Raises ``SchemaError`` when a member falls outside the declared
    superset or sits at a parameter value outside the order.
    """
    member = _match_mask(m, g.vital)
    superset = None
    if g.superset_vital is not None:
        superset = _match_mask(m, g.superset_vital)
        outside = np.flatnonzero(member & ~superset)
        if outside.size:
            raise SchemaError(
                f"{outside.size} group member(s) fall outside the declared superset "
                f"(first record index {int(outside[0])})"
            )
    text, inverse = _distinct_cells(m, g.parameter)
    index = dict(zip(g.parameter_order, range(len(g.parameter_order))))
    positions = np.fromiter(map(index.get, text, repeat(-1)), np.int32, len(text))[inverse]
    outside = member & (positions < 0)
    if outside.any():
        bad = sorted({text[i] for i in np.unique(inverse[outside]).tolist()})
        raise SchemaError(f"members at parameter values outside the order: {bad}")
    return positions, member, superset


#: A chunk of a written column: a uint8 buffer, and for each row of the chunk
#: where its cell's bytes start in the buffer and how many there are.  The
#: counts, not any terminator, say where a cell ends, so a cell may hold or
#: end with a NUL byte.
Cells = tuple[np.ndarray, np.ndarray, np.ndarray]
#: A written column: its cells in a slice of the rows.
Column = Callable[[slice], Cells]

_DELIMITER = ord(",")
_QUOTE = ord('"')
#: The characters that make csv quote a field, and NUL, which some Pythons' csv rejects.
_SPECIAL = (csv.excel.delimiter, csv.excel.quotechar, "\r", "\n", "\0")
_ROW_END = np.frombuffer(csv.excel.lineterminator.encode("ascii"), np.uint8)
#: The most bytes the padded rows of one ``_joined`` call may take.
_JOIN_BYTES = 2**20
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _cell_encoding() -> str:
    """The encoding cell texts are encoded in: the platform's if it writes ASCII as ASCII.

    The digits, delimiters and line ends are ASCII bytes.  Under any other
    platform encoding cells are encoded in UTF-8, and ``write_columns``
    turns each chunk into the platform encoding.
    """
    encoding = locale.getpreferredencoding(False)
    return encoding if _ascii_compatible(encoding) else "utf-8"


def _csv_line(fields: Iterable[str]) -> str:
    """The line, terminator included, that a csv writer writes for the row ``fields``."""
    return csv.writer(SimpleNamespace(write=str)).writerow(fields)


def _quoted(texts: Sequence[str]) -> Sequence[str]:
    """Each text as csv writes it as a field of a row of several, quoted by csv's own rule.

    csv quotes a field only when it holds a delimiter, a quote, CR or LF,
    so texts holding none of them, nor a NUL, come back as they are.
    Otherwise csv writes each: the line of ("", text) is a delimiter, the
    field and the terminator.
    """
    joined = "".join(texts)
    if not any(char in joined for char in _SPECIAL):
        return texts
    line = csv.writer(SimpleNamespace(write=str)).writerow
    end = len(csv.excel.lineterminator)
    return [row[1:-end] for row in map(line, zip(repeat(""), texts))]


def _encoded(texts: Sequence[str], encoding: str) -> Cells:
    """The texts' bytes laid end to end, and where each text starts and how long it is.

    The buffer ends with as many zero bytes as the longest text has, and
    at least 8, so a window of that width, or an 8-byte word, from any
    start stays inside it.
    """
    data = [text.encode(encoding) for text in texts]
    lengths = np.fromiter(map(len, data), np.int64, len(data))
    buffer = b"".join(data) + bytes(max(8, int(lengths.max(initial=0))))
    return np.frombuffer(buffer, np.uint8), np.cumsum(lengths) - lengths, lengths


def text_cells(texts: Sequence[str], codes: np.ndarray) -> Column:
    """The column whose cell i is ``texts[codes[i]]``.

    Each text is quoted and encoded once, into one buffer; a chunk picks its
    cells' starts and lengths by code.
    """
    data, starts, lengths = _encoded(_quoted(texts), _cell_encoding())

    def cells(rows: slice) -> Cells:
        chunk = codes[rows]
        return data, starts[chunk], lengths[chunk]

    return cells


def integer_cells(values: np.ndarray) -> Column:
    """The column of int64 ``values``, written as ``str`` writes a Python int."""
    return lambda rows: _digits(values[rows])


def formatted_cells(values: np.ndarray, fmt: Callable[[float], str]) -> Column:
    """The column of float ``values``, each written as the ASCII text ``fmt`` gives it."""
    values = np.asarray(values, dtype=np.float64)
    return lambda rows: _formatted(values[rows], fmt)


def _digits(values: np.ndarray) -> Cells:
    """Integers as ``str`` writes them: a minus sign, then the magnitude's digits.

    The digits are worked out by integer arithmetic on the whole chunk, at
    the right end of one row per value of a (values + 8, width) matrix; the
    last 8 rows are padding.
    """
    magnitude, negative = np.abs(values), values < 0
    lengths = np.searchsorted(_POWERS_OF_TEN, magnitude, side="right") + 1 + negative
    width = int(lengths.max(initial=1))
    text = np.zeros((values.size + 8, width), np.uint8)
    for j in range(width - 1, -1, -1):
        magnitude, digit = np.divmod(magnitude, 10)
        text[:values.size, j] = digit + ord("0")
    ends = width * np.arange(1, values.size + 1)
    text.reshape(-1)[ends[negative] - lengths[negative]] = ord("-")
    return text.reshape(-1), ends - lengths, lengths


def _formatted(values: np.ndarray, fmt: Callable[[float], str]) -> Cells:
    """The float ``values`` as the ASCII texts ``fmt`` gives them.

    ``fmt`` runs once per distinct value of the chunk, as a Python float.
    Values are told apart by their bits, so -0.0 and 0.0 are formatted
    apart.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    data, starts, lengths = _encoded([fmt(v) for v in bits.view(np.float64).tolist()], "ascii")
    codes = inverse.reshape(-1)
    return data, starts[codes], lengths[codes]


def _joined(columns: list[Cells], n: int) -> bytes:
    """``n`` rows of ``columns``' cells, as csv writes them.

    Cells are joined by the delimiter and every row ends with the
    terminator.  Each column's cells are copied, padded to its longest one,
    side by side into the rows of one (n, bytes) matrix, one window of the
    column's buffer per cell; the matrix's kept bytes, read row by row, are
    the rows.  If the matrix would exceed ``_JOIN_BYTES``, the rows are
    joined in two halves instead, so a long cell pads only the few rows
    around it.  As csv does, a row of one field writes an empty field
    quoted.
    """
    widths = [int(lengths.max(initial=0)) for _, _, lengths in columns]
    one_field = len(columns) == 1
    width = sum(widths) + len(columns) - 1 + 2 * one_field + _ROW_END.size
    if n > 1 and n * width > _JOIN_BYTES:
        half = n // 2
        return b"".join(_joined([(data, starts[rows], lengths[rows])
                                 for data, starts, lengths in columns], size)
                        for rows, size in ((slice(half), half), (slice(half, None), n - half)))
    matrix, keep = np.empty((n, width), np.uint8), np.empty((n, width), bool)
    at = 0
    for j, ((data, starts, lengths), w) in enumerate(zip(columns, widths)):
        if j:
            matrix[:, at], keep[:, at] = _DELIMITER, True
            at += 1
        if data.size < int(starts.max()) + max(w, 8):
            data = np.concatenate([data, np.zeros(max(w, 8), np.uint8)])
        if w <= 8:
            # one 8-byte word per cell: numpy gathers those faster than short windows
            cells = _words(data)[starts].view(np.uint8).reshape(n, 8)[:, :w]
        else:
            cells = np.lib.stride_tricks.sliding_window_view(data, w)[starts]
        matrix[:, at:at + w] = cells
        # built as (bytes, rows): numpy compares long rows faster than many short ones
        keep[:, at:at + w] = (np.arange(w)[:, None] < lengths).T
        at += w
    if one_field:
        matrix[:, at:at + 2], keep[:, at:at + 2] = _QUOTE, (columns[0][2] == 0)[:, None]
        at += 2
    matrix[:, at:], keep[:, at:] = _ROW_END, True
    return matrix[keep].tobytes()


def write_columns(path: str | Path, header: Sequence[str], columns: Sequence[Column],
                  n_rows: int) -> None:
    """Write a CSV file of ``header`` and ``n_rows`` rows of ``columns``' cells, atomically.

    The bytes are those a csv writer writes, in the encoding ``open``
    writes text in, for the rows of the cells' texts.  Rows are assembled
    ``_CHUNK_ROWS`` at a time, and at most ``_JOIN_BYTES`` of padded row
    bytes at a time, so besides what the columns hold the write holds one
    chunk's cell positions and about that many bytes.  If writing fails,
    ``path`` keeps its previous content.
    """
    encoding, cell_encoding = locale.getpreferredencoding(False), _cell_encoding()
    # one incremental encoder, as a text file has one, so a byte order mark is written once
    recode = None if encoding == cell_encoding else codecs.getincrementalencoder(encoding)().encode
    with atomic_write(path, binary=True) as fh:
        def write(data: bytes) -> None:
            fh.write(data if recode is None else recode(data.decode(cell_encoding)))

        write(_csv_line(header).encode(cell_encoding))
        for start in range(0, n_rows, _CHUNK_ROWS):
            rows = slice(start, min(start + _CHUNK_ROWS, n_rows))
            write(_joined([column(rows) for column in columns], rows.stop - start))


def _ordinal_cells(attr: Attribute, values: np.ndarray) -> Column:
    """The column of an ordinal attribute's float64 ``values``, as ``_format_cell`` writes them.

    An integral cell below 1e15 in magnitude is written as its digits, and
    a NaN cell as nothing; any other goes through ``_format_cell``, which
    raises for an infinite one.
    """
    fmt = partial(_format_cell, attr)

    def cells(rows: slice) -> Cells:
        v = values[rows]
        integral = (np.abs(v) < 1e15) & (np.trunc(v) == v)
        data, starts, lengths = _digits(np.where(integral, v, 0).astype(np.int64))
        nan = np.isnan(v)
        lengths[nan] = 0
        other = ~integral & ~nan
        if other.any():
            text, text_starts, lengths[other] = _formatted(v[other], fmt)
            starts[other] = data.size + text_starts
            data = np.concatenate([data, text])
        return data, starts, lengths

    return cells


def write_microfile(m: Microfile, path: str | Path) -> None:
    """Emit CSV with the header first; order of records and columns preserved.

    Every cell is written as ``_format_cell`` gives its text, so
    integer-valued ordinals are written without a decimal point and a file
    of integer codes round-trips textually.  A nominal column's vocabulary
    is quoted and encoded once, and its codes gather the bytes; an ordinal
    column is worked out chunk by chunk, so no index over the whole column
    is built.  The file is replaced atomically: if writing fails, ``path``
    keeps its previous content.
    """
    columns = []
    for attr in m.attributes:
        cells, vocab = m.cells(attr.name), m.vocabulary(attr.name)
        columns.append(_ordinal_cells(attr, cells) if vocab is None
                       else text_cells(vocab.tolist(), cells))
    write_columns(path, [a.name for a in m.attributes], columns, m.n_records)
