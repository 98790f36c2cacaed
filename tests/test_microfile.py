import csv
import gc
import io
import locale
import logging
import math
import os
import re
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import superset_records
from groupanon import microfile
from groupanon import reference as ref
from groupanon.errors import ParseError, SchemaError
from groupanon.microfile import (
    Attribute,
    GroupSpec,
    Microfile,
    group_census,
    load_microfile,
    write_microfile,
)
from groupanon.remap import InfluentialWeights, SwapPlan, _PairCost, apply_swaps

TOY_SCHEMA = (
    Attribute("area", "nominal", "parameter"),
    Attribute("service", "nominal", "vital", weight=1.0),
    Attribute("pay", "ordinal", "influential", weight=1.0),
)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def toy_file(tmp_path, rows=None):
    rows = rows if rows is not None else [
        ["a1", "1", "100"],
        ["a2", "0", "200"],
        ["a1", "1", "150"],
    ]
    return write_csv(tmp_path / "toy.csv", ["area", "service", "pay"], rows)


def reference_load(path, schema, identifiers=()):
    """Row-by-row, cell-by-cell loader: the reference for ``load_microfile``."""
    path = Path(path)
    if not schema:
        raise SchemaError("schema must declare at least one attribute")
    # a UTF-8 file may open with a byte order mark, which is not part of the header
    utf8 = locale.getpreferredencoding(False).lower().replace("-", "").replace("_", "") == "utf8"
    try:
        with path.open(newline="", encoding="utf-8-sig" if utf8 else None) as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: file is empty") from None
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc

    positions = {name: i for i, name in enumerate(header)}
    schema_names = {a.name for a in schema}
    if overlap := schema_names & set(identifiers):
        raise SchemaError(f"attributes {sorted(overlap)} declared both in schema and as identifiers")
    missing = [a.name for a in schema if a.name not in positions]
    if missing:
        raise SchemaError(f"{path}: declared columns missing from header: {missing}")

    width = len(header)
    for rownum, row in enumerate(rows, start=2):
        if len(row) != width:
            raise ParseError(
                f"{path}: row {rownum} has {len(row)} fields, expected {width}"
            )

    columns = {}
    for attr in schema:
        pos = positions[attr.name]
        raw = [row[pos] for row in rows]
        if attr.kind == "nominal":
            empty_ok = attr.role == "plain"
            for rownum, value in enumerate(raw, start=2):
                if value == "" and not empty_ok:
                    raise ParseError(
                        f"{path}: row {rownum}: empty value in "
                        f"{attr.role} column {attr.name!r}"
                    )
            columns[attr.name] = np.array(raw, dtype=object)
        else:
            values = np.empty(len(raw))
            for i, value in enumerate(raw):
                if value == "":
                    if attr.role != "plain":
                        raise ParseError(
                            f"{path}: row {i + 2}: empty value in "
                            f"{attr.role} column {attr.name!r}"
                        )
                    values[i] = np.nan
                    continue
                try:
                    values[i] = float(value)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {i + 2}: non-numeric value {value!r} in "
                        f"ordinal column {attr.name!r}"
                    ) from None
                if not math.isfinite(values[i]):
                    raise ParseError(
                        f"{path}: row {i + 2}: non-finite value {value!r} in "
                        f"ordinal column {attr.name!r}"
                    )
            columns[attr.name] = values

    return Microfile(attributes=tuple(schema), columns=columns)


def reference_write(m, path):
    """Row-by-row writer: the reference for ``write_microfile``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in m.attributes])
        cols = [m.columns[a.name] for a in m.attributes]
        for i in range(m.n_records):
            writer.writerow(
                [microfile._format_cell(a, col[i]) for a, col in zip(m.attributes, cols)]
            )


def stored(array):
    """An array as its dtype and content: the texts of an object array, else its bytes."""
    return array.dtype, array.tolist() if array.dtype == object else array.tobytes()


def load_outcome(loader, path, schema):
    """Columns as ``stored`` per name, or the (type, message) of the error raised."""
    try:
        m = loader(path, schema)
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc)
    return {name: stored(col) for name, col in m.columns.items()}


def read_with(info):
    """``load_microfile`` that records in ``info`` which path built the table."""
    return lambda path, schema: load_microfile(path, schema, info=info)


def csv_reads_nul() -> bool:
    """Whether this Python's csv reader reads a NUL in a field (3.11 on) rather than rejecting it."""
    try:
        return next(csv.reader(["a\0b"])) == ["a\0b"]
    except csv.Error:
        return False


# Cells the differential tests draw from: text that needs quoting, unicode,
# codes with leading zeros and surrounding spaces, and NULs, trailing ones
# too, where the csv reader can read them back; ordinals at the edges of
# integer formatting (1e15) and of float repr.  Generated text leaves out
# lone surrogates, which no text encoding writes.
NOMINAL_CELLS = st.one_of(
    st.sampled_from(["06010", " a ", "a,b", 'say "hi"', "line\nbreak", "cr\rlf\r\n",
                     "ünïcødé", "中文", "😀", "0", "-0.0", "nan", " "]
                    + (["a\x00b", "\x00x", 'q"\x00,', "a\x00", "a\x00\x00", "\x00"]
                       if csv_reads_nul() else [])),
    st.text(st.characters(min_codepoint=0 if csv_reads_nul() else 1, max_codepoint=0xD7FF),
            max_size=6),
)
# Padded bytes per row assembly: a small budget joins the rows of a chunk in halves.
JOIN_BYTES = st.sampled_from([1, 64, microfile._JOIN_BYTES])
ORDINAL_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.1, 1 / 3, 1e15 - 1, 1e15, 1e16, -1e15, -7.0, -2.5, 42.0,
                     5e-324, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(float),
)
ROLES = {"plain": None, "vital": 1.0, "influential": 0.5, "parameter": None}


@st.composite
def tables(draw):
    """A random microfile; NaN (a missing value) only in plain ordinal columns."""
    n = draw(st.integers(0, 25))
    attributes, columns = [], {}
    for j in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["nominal", "ordinal"]))
        role = draw(st.sampled_from(sorted(ROLES)))
        attr = Attribute(f"c{j}", kind, role, ROLES[role])
        if kind == "nominal":
            cells = NOMINAL_CELLS if role == "plain" else NOMINAL_CELLS.filter(bool)
            col = np.array(draw(st.lists(cells, min_size=n, max_size=n)), dtype=object)
        else:
            values = st.one_of(ORDINAL_VALUES, st.just(np.nan)) if role == "plain" else ORDINAL_VALUES
            col = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)
        attributes.append(attr)
        columns[attr.name] = col.reshape(n)
    return Microfile(tuple(attributes), columns)


ORDINAL_TEXT = st.one_of(
    ORDINAL_VALUES.map(repr),
    st.sampled_from(["", "1e3", " 7", "+5", "1_000", ".5", "5.", "-0", "0x10", "abc", "1,5"]),
)


# Cells of plain files: ASCII without NUL, quote, comma or line end.  The
# ordinal texts besides digit strings are read by float() inside the byte path.
PLAIN_TEXT = st.text("".join(chr(c) for c in range(1, 128) if chr(c) not in '\r\n",'),
                     max_size=12)
PLAIN_ORDINAL_TEXT = st.one_of(
    st.integers(0, 10**16).map(str),
    st.sampled_from(["40.5", "-3", " 7", "+5", "1_000", "-0", "007", "1e3", ".5", "5.",
                     "1234567890123456", "999999999999999", "12345678"]),
    ORDINAL_VALUES.map(repr),
)


@st.composite
def plain_texts(draw):
    """(file bytes, schema) of a plain file: every line splits on commas and loads."""
    width = draw(st.integers(1, 5))
    kinds = [draw(st.sampled_from(["nominal", "ordinal"])) for _ in range(width)]
    roles = [draw(st.sampled_from(sorted(ROLES))) for _ in range(width)]
    schema = tuple(Attribute(f"c{j}", k, r, ROLES[r]) for j, (k, r) in enumerate(zip(kinds, roles)))
    lines = [",".join(a.name for a in schema)]
    for _ in range(draw(st.integers(0, 12))):
        row = []
        for a in schema:
            cell = PLAIN_ORDINAL_TEXT if a.kind == "ordinal" else PLAIN_TEXT.filter(bool)
            # an empty cell is plain in a plain column, but a line of one empty cell is blank
            if a.role == "plain" and width > 1 and draw(st.integers(0, 4)) == 0:
                cell = st.just("")
            row.append(draw(cell))
        lines.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return text.encode("ascii"), schema


@st.composite
def csv_texts(draw):
    """(header, rows, schema) of a CSV file whose cells may be malformed or ragged."""
    width = draw(st.integers(1, 4))
    kinds = [draw(st.sampled_from(["nominal", "ordinal"])) for _ in range(width)]
    roles = [draw(st.sampled_from(sorted(ROLES))) for _ in range(width)]
    schema = tuple(Attribute(f"c{j}", k, r, ROLES[r]) for j, (k, r) in enumerate(zip(kinds, roles)))
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(ORDINAL_TEXT if k == "ordinal" else NOMINAL_CELLS) for k in kinds]
        if draw(st.integers(0, 30)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["extra"]
        rows.append(row)
    return [a.name for a in schema], rows, schema


class TestColumnwiseIOAgainstRowReference:
    @settings(max_examples=200, deadline=None)
    @given(m=tables(), chunk=st.integers(1, 8), join=JOIN_BYTES)
    def test_write_is_byte_equal_and_loads_equal(self, tmp_path_factory, m, chunk, join):
        d = tmp_path_factory.mktemp("diff")
        # a few rows per chunk, so that cells change width from one chunk to the next
        with mock.patch.multiple(microfile, _CHUNK_ROWS=chunk, _JOIN_BYTES=join):
            write_microfile(m, d / "new.csv")
        reference_write(m, d / "ref.csv")
        assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()
        got = load_outcome(load_microfile, d / "new.csv", m.attributes)
        assert got == load_outcome(reference_load, d / "new.csv", m.attributes)
        assert isinstance(got, dict)

    @settings(max_examples=200, deadline=None)
    @given(table=plain_texts())
    def test_plain_files_take_the_byte_path(self, tmp_path_factory, table):
        content, schema = table
        path = tmp_path_factory.mktemp("plain") / "in.csv"
        path.write_bytes(content)
        info = {}
        got = load_outcome(read_with(info), path, schema)
        assert got == load_outcome(reference_load, path, schema)
        assert isinstance(got, dict)
        assert info == {"reader": "bytes"}

    @settings(max_examples=200, deadline=None)
    @given(table=csv_texts())
    def test_load_matches_reference_on_arbitrary_cells(self, tmp_path_factory, table):
        header, rows, schema = table
        path = write_csv(tmp_path_factory.mktemp("diff") / "in.csv", header, rows)
        assert load_outcome(load_microfile, path, schema) == load_outcome(reference_load, path, schema)

    @pytest.mark.parametrize("rows", [
        [["a1", "1", "10"], ["a2", "0"], ["a3"]],                # ragged
        [["a1", "1", "10"], ["a2", "", "11"]],                   # empty vital nominal
        [["a1", "1", "10"], ["a2", "0", ""]],                    # empty influential ordinal
        [["a1", "1", "10"], ["a2", "0", "lots"]],                # non-numeric ordinal
        [["a1", "1", "ten"], ["a2", "0", ""]],                   # non-numeric before empty
        [["a1", "1", ""], ["a2", "0", "ten"]],                   # empty before non-numeric
        [["a1", "", "ten"]],                                     # first failing column wins
    ])
    def test_error_parity(self, tmp_path, rows):
        path = toy_file(tmp_path, rows)
        outcome = load_outcome(load_microfile, path, TOY_SCHEMA)
        assert outcome == load_outcome(reference_load, path, TOY_SCHEMA)
        assert outcome[0] is ParseError


class TestChunkedIOAgainstRowReference(TestColumnwiseIOAgainstRowReference):
    """The differential cases again, parsed in chunks of 1, 2 and 3 rows."""

    @pytest.fixture(autouse=True, params=[1, 2, 3])
    def tiny_chunks(self, request, monkeypatch):
        monkeypatch.setattr(microfile, "_CHUNK_ROWS", request.param)


@st.composite
def coded_cases(draw):
    """Texts of three nominal columns, each drawn from a few cells so that cells repeat.

    Returns the columns and each column's pool of cells.
    """
    n = draw(st.integers(0, 30))
    texts, pools = {}, {}
    for name in CODED_SCHEMA_NAMES:
        pools[name] = draw(st.lists(NOMINAL_CELLS, min_size=1, max_size=5))
        texts[name] = draw(st.lists(st.sampled_from(pools[name]), min_size=n, max_size=n))
    return texts, pools


CODED_SCHEMA_NAMES = ("p", "v", "s")
CODED_SCHEMA = tuple(Attribute(name, "nominal", "plain") for name in CODED_SCHEMA_NAMES)


class TestCodedColumnsAgainstTexts:
    """Functions reading codes against the obvious computation on each cell's text."""

    @settings(max_examples=150, deadline=None)
    @given(case=coded_cases(), data=st.data())
    def test_coded_table_matches_per_cell_texts(self, case, data):
        texts, pools = case
        n = len(texts["p"])
        m = Microfile(CODED_SCHEMA, {name: np.array(col, dtype=object)
                                     for name, col in texts.items()})
        for name, col in texts.items():
            assert m.column(name).tolist() == col

        def values_of(name):
            return data.draw(st.frozensets(st.one_of(st.sampled_from(pools[name]), NOMINAL_CELLS),
                                           max_size=3))

        vital, superset = values_of("v"), values_of("s")
        order = data.draw(st.lists(st.one_of(st.sampled_from(pools["p"]), NOMINAL_CELLS),
                                   min_size=4, max_size=7, unique=True))
        g = GroupSpec.create({"v": vital}, "p", order, superset_vital={"s": superset})
        member = [texts["v"][i] in vital for i in range(n)]

        positions = [order.index(t) if t in order else -1 for t in texts["p"]]
        outside = sorted({t for t, inside in zip(texts["p"], member) if inside} - set(order))
        wider = [texts["s"][i] in superset for i in range(n)]
        escaped = [i for i in range(n) if member[i] and not wider[i]]
        for spec, within in ((g, wider), (GroupSpec.create({"v": vital}, "p", order), None)):
            if within is not None and escaped:
                with pytest.raises(SchemaError, match=re.escape(
                        f"{len(escaped)} group member(s) fall outside the declared superset "
                        f"(first record index {escaped[0]})")):
                    group_census(m, spec)
            elif outside:
                with pytest.raises(SchemaError, match=re.escape(
                        f"members at parameter values outside the order: {outside}")):
                    group_census(m, spec)
            else:
                got, got_member, got_superset = group_census(m, spec)
                assert got.dtype == np.int32
                assert got.tolist() == positions
                assert got_member.tolist() == member
                assert within is None and got_superset is None or got_superset.tolist() == within

        weight = st.sampled_from([0.5, 1.0, 2.0])
        w = InfluentialWeights(ordinal={}, nominal={"v": data.draw(weight), "s": data.draw(weight)},
                               chi_same=data.draw(st.sampled_from([0.0, 0.5])), chi_diff=1.0)
        size = data.draw(st.integers(0, 12)) if n else 0
        left, right = (np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=size,
                                                    max_size=size)) if n else [],
                                dtype=np.int64) for _ in range(2))
        expected = []
        for a, b in zip(left.tolist(), right.tolist()):
            cost = 0.0
            for name, wt in w.nominal.items():
                cost += wt * (w.chi_same**2 if texts[name][a] == texts[name][b] else w.chi_diff**2)
            expected.append(cost)
        assert _PairCost(m, w)(left, right).tolist() == expected

        perm = data.draw(st.permutations(range(n)))
        k = data.draw(st.integers(0, n // 2))
        swaps = tuple((perm[2 * i], perm[2 * i + 1]) for i in range(k))
        swapped = list(texts["p"])
        for a, b in swaps:
            swapped[a], swapped[b] = swapped[b], swapped[a]
        out = apply_swaps(m, SwapPlan("p", swaps, (0.0,) * k))
        assert out.column("p").tolist() == swapped
        for name in CODED_SCHEMA_NAMES:
            assert np.array_equal(out.vocabulary(name), m.vocabulary(name))
            if name != "p":
                assert out.column(name).tolist() == texts[name]

    @settings(max_examples=150, deadline=None)
    @given(case=coded_cases())
    def test_loaded_table_equals_the_table_built_from_texts(self, tmp_path_factory, case):
        texts, _ = case
        built = Microfile(CODED_SCHEMA, {name: np.array(col, dtype=object)
                                         for name, col in texts.items()})
        path = write_csv(tmp_path_factory.mktemp("coded") / "in.csv", CODED_SCHEMA_NAMES,
                         zip(*texts.values()))
        loaded = load_microfile(path, CODED_SCHEMA)
        for name in CODED_SCHEMA_NAMES:
            for got, want in ((loaded.cells(name), built.cells(name)),
                              (loaded.vocabulary(name), built.vocabulary(name)),
                              (loaded.column(name), built.column(name))):
                assert stored(got) == stored(want)


class TestChunkBoundaries:
    """Two-row chunks: an error held from one chunk against what later chunks hold."""

    @pytest.fixture(autouse=True)
    def two_row_chunks(self, monkeypatch):
        monkeypatch.setattr(microfile, "_CHUNK_ROWS", 2)

    @staticmethod
    def outcome(path, schema=TOY_SCHEMA):
        got = load_outcome(load_microfile, path, schema)
        assert got == load_outcome(reference_load, path, schema)
        return got

    def test_ragged_row_in_chunk_3_outranks_bad_ordinal_in_chunk_1(self, tmp_path):
        path = toy_file(tmp_path, [["a1", "1", "lots"], ["a2", "0", "5"],
                                   ["a1", "1", "6"], ["a2", "0", "7"],
                                   ["a1", "1", "8"], ["a2", "0"]])
        assert self.outcome(path) == (ParseError, f"{path}: row 7 has 2 fields, expected 3")

    def test_ragged_row_outranks_bad_cell_in_first_column(self, tmp_path):
        path = toy_file(tmp_path, [["", "1", "5"], ["a2", "0", "5"],
                                   ["a1", "1", "6"], ["a2", "0", "7", "extra"]])
        assert self.outcome(path) == (ParseError, f"{path}: row 5 has 4 fields, expected 3")

    def test_earlier_column_in_later_chunk_outranks_later_column(self, tmp_path):
        path = toy_file(tmp_path, [["a1", "1", "5"], ["a2", "0", "lots"],
                                   ["a1", "", "6"], ["a2", "0", "7"]])
        assert self.outcome(path) == (
            ParseError, f"{path}: row 4: empty value in vital column 'service'")

    def test_empty_vital_nominal_names_the_file_row(self, tmp_path):
        rows = [["a1", "1", "5"]] * 4 + [["a2", "", "5"]]
        path = toy_file(tmp_path, rows)
        assert self.outcome(path) == (
            ParseError, f"{path}: row 6: empty value in vital column 'service'")

    @pytest.mark.parametrize("cell, what", [("lots", "non-numeric"), ("inf", "non-finite")])
    def test_bad_ordinal_names_the_file_row(self, tmp_path, cell, what):
        path = toy_file(tmp_path, [["a1", "1", "5"]] * 3 + [["a2", "0", cell]])
        assert load_outcome(load_microfile, path, TOY_SCHEMA) == (
            ParseError, f"{path}: row 5: {what} value {cell!r} in ordinal column 'pay'")

    def test_parts_of_different_widths_join_to_the_full_width(self, tmp_path):
        path = toy_file(tmp_path, [["a", "1", "5"], ["b", "0", "5"], ["a-long-code", "1", "6"]])
        got = self.outcome(path)
        assert got["area"] == (np.dtype(object), ["a", "b", "a-long-code"])

    @pytest.mark.parametrize("header", [["area", "service", "pay"], ["area", "service"]],
                             ids=["ragged_first", "schema_error_first"])
    def test_read_error_in_a_later_chunk_comes_first(self, tmp_path, header):
        huge = "x" * (csv.field_size_limit() + 1)
        path = write_csv(tmp_path / "f.csv", header,
                         [["a1", "1"], ["a2", "0", "5"], ["a1", "1", "6"], ["a2", "0", huge]])
        for loader in (load_microfile, reference_load):
            with pytest.raises(ParseError, match="cannot read: field larger than field limit"):
                loader(path, TOY_SCHEMA)


class TestReaderChoice:
    """Which path reads a file; either way the outcome is the row reference's."""

    @pytest.fixture(autouse=True)
    def two_row_chunks(self, monkeypatch):
        monkeypatch.setattr(microfile, "_CHUNK_ROWS", 2)

    HEADER = b"area,service,pay\n"
    GOOD = b"a1,1,10\na2,0,5\na1,1,6\na2,0,7\n"

    @pytest.fixture
    def csv_reads(self, monkeypatch):
        """The paths that the csv path reads, also when it raises."""
        calls, read = [], microfile._read_csv

        def spy(path, *args):
            calls.append(path)
            return read(path, *args)

        monkeypatch.setattr(microfile, "_read_csv", spy)
        return calls

    @pytest.mark.parametrize("body, reader", [
        (b'a1,"1",10\n', "csv"),                                  # a quoted cell
        (b"a1,1,10\ra2,0,5\n", "csv"),                            # a lone carriage return
        (b"a\x001,1,10\n", "csv"),                                # a NUL
        ("ä1,1,10\n".encode(), "csv"),                            # a non-ASCII cell
        (b"a1,1,10\na2,0\n", "csv"),                              # a ragged row
        (b"x" * (csv.field_size_limit() + 1) + b",1,10\n", "csv"),  # a field over the limit
        (b"x" * csv.field_size_limit() + b",1,10\n", "bytes"),      # a field at the limit
        (b"a1,,10\n", "csv"),                                     # an empty vital cell
        (b"a1,1,inf\n", "csv"),                                   # a non-finite ordinal
        (b"a1,1,lots\n", "csv"),                                  # a bad cell in the last chunk only
        (b"a1,1,1234567890123456\n", "bytes"),                    # 16 digits: read by float()
        (b"a1,1,123456789012345\n", "bytes"),                     # 15 digits: by arithmetic
    ], ids=["quoted", "lone-cr", "nul", "non-ascii", "ragged", "over-field-limit", "at-field-limit",
            "empty-vital", "inf", "bad-cell-in-last-chunk", "16-digits", "15-digits"])
    def test_each_file_takes_its_path_with_the_reference_outcome(self, tmp_path, csv_reads,
                                                                 body, reader):
        path = tmp_path / "f.csv"
        path.write_bytes(self.HEADER + self.GOOD + body)
        got = load_outcome(load_microfile, path, TOY_SCHEMA)
        assert csv_reads == ([path] if reader == "csv" else [])
        assert got == load_outcome(reference_load, path, TOY_SCHEMA)

    @pytest.mark.parametrize("content", [b'"area",service\n', b"name\n", b"",
                                         "área\na\n".encode(), b"area\na\n\nb\n"],
                             ids=["quoted-header", "schema-error", "empty", "non-ascii-header",
                                  "blank-line"])
    def test_header_and_width_one_files_fall_back(self, tmp_path, csv_reads, content):
        schema = (Attribute("area", "nominal", "plain"),)
        path = tmp_path / "f.csv"
        path.write_bytes(content)
        got = load_outcome(load_microfile, path, schema)
        assert csv_reads == [path]
        assert got == load_outcome(reference_load, path, schema)

    @pytest.mark.parametrize("quoted", [False, True], ids=["bytes", "csv"])
    def test_identifier_warning_is_logged_once(self, tmp_path, caplog, quoted):
        rows = [["123", "a1", "1", "10"], ["456", "a2", "0", "5"]] * 3
        path = tmp_path / "f.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, quoting=csv.QUOTE_ALL if quoted else csv.QUOTE_MINIMAL)
            writer.writerows([["ssn", "area", "service", "pay"], *rows])
        info = {}
        with caplog.at_level(logging.WARNING):
            load_microfile(path, TOY_SCHEMA, identifiers=["ssn"], info=info)
        assert info["reader"] == ("csv" if quoted else "bytes")
        assert [rec.getMessage() for rec in caplog.records] == [
            f"{path}: dropping identifier column 'ssn'"]

    def test_a_pipe_is_read_once_by_the_csv_path(self, tmp_path):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no named pipes on this platform")
        path = tmp_path / "pipe.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(self.HEADER + self.GOOD,),
                                  daemon=True)
        writer.start()
        info = {}
        try:
            m = load_microfile(path, TOY_SCHEMA, info=info)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert (m.n_records, info["reader"]) == (4, "csv")

    @pytest.mark.parametrize("encoding, compatible", [
        ("utf-8", True), ("latin-1", True), ("cp1252", True), ("cp932", True),
        ("utf-16", False), ("cp037", False), ("no-such-codec", False)])
    def test_ascii_compatible_encodings(self, encoding, compatible):
        assert microfile._ascii_compatible(encoding) is compatible

    def test_an_encoding_that_is_not_ascii_compatible_takes_the_csv_path(self, tmp_path,
                                                                         monkeypatch):
        path = tmp_path / "f.csv"
        path.write_bytes(self.HEADER + self.GOOD)
        monkeypatch.setattr(microfile.locale, "getpreferredencoding", lambda *_: "utf-16")
        info = {}
        assert load_microfile(path, TOY_SCHEMA, info=info).n_records == 4
        assert info["reader"] == "csv"

    @pytest.mark.skipif(locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
                        reason="the platform encoding decodes every byte")
    def test_undecodable_byte_is_a_parse_error(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(self.HEADER + self.GOOD + b"a\xff,1,10\n")
        got = load_outcome(load_microfile, path, TOY_SCHEMA)
        assert got == load_outcome(reference_load, path, TOY_SCHEMA)
        assert got[0] is ParseError
        assert got[1].startswith(f"{path}: cannot read: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.skipif(locale.getpreferredencoding(False).lower().replace("-", "") != "utf8",
                        reason="a byte order mark is dropped only under a UTF-8 platform encoding")
    def test_utf8_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start the file with one
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        content = b"area,age\n06010,30\n06020,40\n"
        plain.write_bytes(content)
        marked.write_bytes(b"\xef\xbb\xbf" + content)
        schema = (Attribute("area", "nominal", "parameter"), Attribute("age", "ordinal", "plain"))
        info = {}
        got = load_outcome(read_with(info), marked, schema)
        assert info["reader"] == "csv"
        assert got == load_outcome(load_microfile, plain, schema)
        assert got == load_outcome(reference_load, marked, schema)
        assert isinstance(got, dict)

    def test_quoted_cell_over_the_field_limit_is_a_read_error(self, tmp_path):
        path = tmp_path / "f.csv"
        # a ragged row comes first, but a read error outranks it
        path.write_bytes(self.HEADER + b"a1,1\n" + self.GOOD + b'"'
                         + b"x" * (csv.field_size_limit() + 1) + b'",1,10\n')
        got = load_outcome(load_microfile, path, TOY_SCHEMA)
        assert got == load_outcome(reference_load, path, TOY_SCHEMA)
        assert got == (ParseError, f"{path}: cannot read: field larger than field limit "
                                   f"({csv.field_size_limit()})")

    @pytest.mark.skipif(csv_reads_nul(), reason="this Python's csv reads a NUL")
    def test_nul_is_a_read_error_where_csv_rejects_it(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_bytes(self.HEADER + self.GOOD + b"a\x001,1,10\n")
        got = load_outcome(load_microfile, path, TOY_SCHEMA)
        assert got == load_outcome(reference_load, path, TOY_SCHEMA)
        assert got[0] is ParseError and got[1].startswith(f"{path}: cannot read: ")


@pytest.mark.skipif(not csv_reads_nul(), reason="this Python's csv rejects a NUL")
class TestTrailingNul:
    """A nominal text ending in NUL loads as written and round-trips.

    Only an empty cell of a column that is not plain is named, however
    many NULs come before it.
    """

    SCHEMA = (*TOY_SCHEMA, Attribute("note", "nominal", "plain"))

    @pytest.mark.parametrize("chunk_rows", [2, 16_384])
    @pytest.mark.parametrize("rows, error", [
        ([["a\0", "1", "1", ""], ["a", "1", "2", ""], ["b\0\0", "0", "3", ""]], None),
        ([["a", "1", "1", ""], ["a", "1", "2", "x\0"], ["b", "0", "3", ""]], None),
        ([["a", "", "1", ""], ["a", "1\0", "2", ""], ["b", "0", "3", ""]],
         "row 2: empty value in vital column 'service'"),
        ([["a", "1", "1", ""], ["a", "1\0", "2", ""], ["b", "", "3", ""]],
         "row 4: empty value in vital column 'service'"),
        ([["a", "1", "1", "x\0"], ["a\0", "1", "2", ""], ["b", "0", "3", ""]], None),
    ], ids=["parameter", "plain", "empty-first", "nul-first", "earlier-column-wins"])
    def test_first_bad_cell_is_named(self, tmp_path, monkeypatch, chunk_rows, rows, error):
        monkeypatch.setattr(microfile, "_CHUNK_ROWS", chunk_rows)
        path = write_csv(tmp_path / "f.csv", ["area", "service", "pay", "note"], rows)
        got = load_outcome(load_microfile, path, self.SCHEMA)
        assert got == load_outcome(reference_load, path, self.SCHEMA)
        if error is not None:
            assert got == (ParseError, f"{path}: {error}")
            return
        m = load_microfile(path, self.SCHEMA)
        for j, name in ((0, "area"), (1, "service"), (3, "note")):
            assert m.column(name).tolist() == [row[j] for row in rows]
        write_microfile(m, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == path.read_bytes()

    def test_interior_nuls_load_and_round_trip(self, tmp_path):
        rows = [["a\0b", "1", "1", "\0x"], ["a", "1", "2", ""], ["\0b", "0", "3", "x"]]
        path = write_csv(tmp_path / "f.csv", ["area", "service", "pay", "note"], rows)
        m = load_microfile(path, self.SCHEMA)
        assert m.vocabulary("area").tolist() == ["\0b", "a", "a\0b"]
        write_microfile(m, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_bytes() == path.read_bytes()


class TestColumnsFilledInPlace:
    """The byte path counts the body's lines, then fills each column chunk by chunk.

    Each file's outcome is the row reference's; the files that are plain
    are read by the byte path, at the module's own chunk size.
    """

    HEADER = b"area,service,pay\n"

    @staticmethod
    def rows(n, start=0):
        return b"".join(b"a%d,%d,%d\n" % (i % 7, i % 2, 10 + i % 13) for i in range(start, n))

    @pytest.mark.parametrize("content", [
        HEADER + b"a1,1,10\na2,0,5",
        HEADER.replace(b"\n", b"\r\n") + b"a1,1,10\r\na2,0,5\r\n",
        HEADER + b"a1,1,10\n",
        HEADER,
        HEADER[:-1],
    ], ids=["no-final-newline", "crlf", "one-row", "header-only", "header-without-newline"])
    def test_small_files(self, tmp_path, content):
        path = tmp_path / "f.csv"
        path.write_bytes(content)
        info = {}
        got = load_outcome(read_with(info), path, TOY_SCHEMA)
        assert got == load_outcome(reference_load, path, TOY_SCHEMA)
        assert isinstance(got, dict) and info == {"reader": "bytes"}

    @pytest.mark.parametrize("extra", [0, 1, -1], ids=["exactly-one-chunk", "one-more", "one-less"])
    def test_a_chunk_of_rows(self, tmp_path, extra):
        n = microfile._CHUNK_ROWS + extra
        path = tmp_path / "f.csv"
        path.write_bytes(self.HEADER + self.rows(n))
        info = {}
        got = load_outcome(read_with(info), path, TOY_SCHEMA)
        assert got == load_outcome(reference_load, path, TOY_SCHEMA)
        assert info == {"reader": "bytes"} and len(got["pay"][1]) == 8 * n

    def test_ragged_row_in_a_later_chunk_raises_the_csv_error(self, tmp_path):
        n = microfile._CHUNK_ROWS
        path = tmp_path / "f.csv"
        path.write_bytes(self.HEADER + self.rows(n + 3) + b"a1,1\n" + self.rows(n + 10, n + 4))
        got = load_outcome(load_microfile, path, TOY_SCHEMA)
        assert got == load_outcome(reference_load, path, TOY_SCHEMA)
        assert got == (ParseError, f"{path}: row {n + 5} has 2 fields, expected 3")

    @pytest.mark.parametrize("miscount", [1, -1], ids=["grew", "shrank"])
    def test_a_line_count_that_changes_falls_back(self, tmp_path, monkeypatch, miscount):
        # the file changed between the count and the read, as the read sees it
        path = tmp_path / "f.csv"
        path.write_bytes(self.HEADER + self.rows(5))
        count = microfile._count_lines
        monkeypatch.setattr(microfile, "_count_lines", lambda fh: count(fh) + miscount)
        monkeypatch.setattr(microfile, "_CHUNK_ROWS", 2)
        info = {}
        got = load_outcome(read_with(info), path, TOY_SCHEMA)
        assert got == load_outcome(reference_load, path, TOY_SCHEMA)
        assert info == {"reader": "csv"}


class TestLineBlocks:
    """The byte path reads the body in blocks of whole lines, about ``_CHUNK_ROWS`` lines each.

    Whatever the blocks, a plain file loads as the csv path loads it.
    """

    HEADER = b"area,service,pay\n"

    @staticmethod
    def expected(data: bytes, size: int) -> tuple[list[int], list[int]]:
        """Offsets at which the reads of ``data`` and its blocks end.

        Each block is a read of ``size`` bytes finished to its line end: through
        the first line feed at or after the read's end, or to the end of ``data``.
        """
        reads, ends, at = [], [], 0
        while at < len(data):
            reads.append(min(at + size, len(data)))
            at = data.find(b"\n", at + size) + 1 or len(data)
            ends.append(at)
        return reads, ends

    @staticmethod
    def read_size(body: bytes, chunk_rows: int) -> int:
        """The byte path's read size for ``body``: ``chunk_rows`` average lines' bytes."""
        lines = body.count(b"\n") + (not body.endswith(b"\n"))
        return max(1, len(body) * chunk_rows // lines)

    @pytest.mark.parametrize("data", [
        b"", b"\n", b"a\n", b"a", b"ab\r\ncd\r\n", b"ab\r\ncde", b"\n\nx\n",
        b"x" * 40 + b"\ny\nzz\r\n" + b"w" * 17,
    ], ids=["empty", "one-line-feed", "one-line", "no-line-feed", "crlf", "crlf-then-tail",
            "blank-lines", "long-line"])
    def test_each_block_is_a_read_finished_to_its_line_end(self, data):
        for size in range(1, len(data) + 2):
            blocks = list(microfile._line_blocks(io.BytesIO(data), size))
            assert b"".join(blocks) == data and all(blocks)
            assert np.cumsum([len(b) for b in blocks]).tolist() == self.expected(data, size)[1]
            # every block but the file's last ends a line
            assert all(b.endswith(b"\n") for b in blocks[:-1])

    # lines of 9, 10, 10, 9, 9 and 9 bytes: at 1, 2 and 3 lines a block, a read ends
    # between a CR and its LF
    CRLF = b"".join(b"a2,0,100\r\n" if i in (1, 2) else b"a1,1,10\r\n" for i in range(6))
    # one line far longer than a block
    LONG = b"a1,1,10\n" + b"b" * 300 + b",0,5\n" + b"a2,1,7\n" * 5

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    @pytest.mark.parametrize("body", [CRLF, CRLF[:-2], LONG, LONG[:-1], b"a1,1,10\na2,0,5"],
                             ids=["crlf", "crlf-no-final-line-feed", "long-line",
                                  "long-line-no-final-line-feed", "no-final-line-feed"])
    def test_blocks_load_like_the_csv_path(self, tmp_path, monkeypatch, chunk_rows, body):
        monkeypatch.setattr(microfile, "_CHUNK_ROWS", chunk_rows)
        header = self.HEADER.replace(b"\n", b"\r\n") if b"\r" in body else self.HEADER
        path = tmp_path / "f.csv"
        path.write_bytes(header + body)
        info, blocks, split = {}, [], microfile._plain_fields
        monkeypatch.setattr(microfile, "_plain_fields",
                            lambda chunk, *args: blocks.append(chunk) or split(chunk, *args))
        got = load_outcome(read_with(info), path, TOY_SCHEMA)
        assert info == {"reader": "bytes"}
        assert got == load_outcome(lambda p, s: microfile._read_csv(p, s, ()), path, TOY_SCHEMA)
        assert b"".join(blocks) == body
        reads, ends = self.expected(body, self.read_size(body, chunk_rows))
        assert np.cumsum([len(b) for b in blocks]).tolist() == ends
        if body.endswith(b"\r\n"):
            assert any(body[end - 1:end + 1] == b"\r\n" for end in reads)
        if b"b" * 300 in body:
            assert max(map(len, blocks)) > 300 > reads[0]


class TestAttribute:
    def test_rejects_unknown_kind(self):
        with pytest.raises(SchemaError, match="kind"):
            Attribute("x", "continuous", "plain")

    def test_rejects_unknown_role(self):
        with pytest.raises(SchemaError, match="role"):
            Attribute("x", "nominal", "key")

    @pytest.mark.parametrize("role", ["vital", "influential"])
    def test_weighted_roles_require_weight(self, role):
        with pytest.raises(SchemaError, match="weight"):
            Attribute("x", "nominal", role)
        with pytest.raises(SchemaError, match="weight"):
            Attribute("x", "nominal", role, weight=-1.0)

    @pytest.mark.parametrize("weight", [math.inf, math.nan, -math.inf])
    @pytest.mark.parametrize("role", ["vital", "influential"])
    def test_weighted_roles_reject_a_non_finite_weight(self, role, weight):
        with pytest.raises(SchemaError, match="requires a finite, non-negative weight"):
            Attribute("x", "ordinal", role, weight=weight)

    def test_plain_role_rejects_weight(self):
        with pytest.raises(SchemaError, match="weight"):
            Attribute("x", "nominal", "plain", weight=1.0)


class TestLoad:
    def test_identifier_column_dropped(self, tmp_path, caplog):
        path = write_csv(
            tmp_path / "f.csv",
            ["ssn", "area", "service", "pay"],
            [["123", "a1", "1", "10"]],
        )
        with caplog.at_level(logging.WARNING):
            m = load_microfile(path, TOY_SCHEMA, identifiers=["ssn"])
        assert len(m.attributes) == 3
        assert "ssn" not in m.columns
        assert any("identifier" in rec.message for rec in caplog.records)

    def test_fixture_counts_match_reference(self):
        # independent oracle: count members per area straight off the CSV
        counts = {code: 0 for code in ref.AREA_CODES}
        with open(ref.fixture_path()) as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if row["military_service"] == "1":
                counts[row["area"]] += 1
        oracle = np.array([counts[code] for code in ref.AREA_CODES], dtype=float)
        assert np.array_equal(oracle, ref.QUANTITY)

        m = ref.load_quantity_microfile()
        assert m.n_records == len(rows)

    def test_ragged_row_names_the_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("area,service,pay\na1,1,10\na2,0\n")
        with pytest.raises(ParseError, match="row 3"):
            load_microfile(path, TOY_SCHEMA)

    def test_missing_declared_column(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", ["area", "service"], [["a1", "1"]])
        with pytest.raises(SchemaError, match="pay"):
            load_microfile(path, TOY_SCHEMA)

    def test_non_numeric_ordinal_names_row(self, tmp_path):
        path = toy_file(tmp_path, [["a1", "1", "100"], ["a2", "0", "lots"]])
        with pytest.raises(ParseError, match="row 3"):
            load_microfile(path, TOY_SCHEMA)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_microfile(path, TOY_SCHEMA)

    def test_empty_value_rejected_outside_plain_columns(self, tmp_path):
        path = toy_file(tmp_path, [["a1", "", "100"]])
        with pytest.raises(ParseError, match="vital"):
            load_microfile(path, TOY_SCHEMA)

    def test_empty_value_allowed_in_plain_ordinal(self, tmp_path):
        schema = TOY_SCHEMA[:2] + (Attribute("pay", "ordinal", "plain"),)
        path = toy_file(tmp_path, [["a1", "1", ""]])
        m = load_microfile(path, schema)
        assert np.isnan(m.column("pay")[0])

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", "1e400", "nan", "NaN"])
    @pytest.mark.parametrize("role", ["influential", "plain"])
    def test_non_finite_ordinal_names_row_and_column(self, tmp_path, cell, role):
        plain = role == "plain"
        schema = TOY_SCHEMA[:2] + (Attribute("pay", "ordinal", role, None if plain else 1.0),)
        path = toy_file(tmp_path, [["a1", "1", "100"], ["a2", "0", "" if plain else "200"],
                                   ["a1", "1", cell]])
        with pytest.raises(ParseError, match=f"row 4: non-finite value '{cell}' in ordinal column 'pay'"):
            load_microfile(path, schema)

    def test_nan_in_vital_ordinal_is_rejected(self, tmp_path):
        schema = (Attribute("area", "nominal", "parameter"),
                  Attribute("service", "ordinal", "vital", weight=1.0),
                  Attribute("pay", "ordinal", "plain"))
        path = toy_file(tmp_path, [["a1", "1", ""], ["a2", "nan", "5"]])
        with pytest.raises(ParseError, match="row 3: non-finite value 'nan' in ordinal column 'service'"):
            load_microfile(path, schema)

    @pytest.mark.parametrize("bad", [False, True], ids=["loads", "parse_error"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    def test_gc_paused_while_loading_and_restored(self, tmp_path, monkeypatch, enabled, bad):
        path = toy_file(tmp_path, [["a1", "1", "100"], ["a2", "0", "lots" if bad else "5"]])
        seen = []

        def spy(name):
            parse = getattr(microfile, name)

            def parse_and_record(*args):
                seen.append((name, gc.isenabled()))
                return parse(*args)

            monkeypatch.setattr(microfile, name, parse_and_record)

        spy("_plain_ordinal")  # the byte path's ordinal step
        spy("_parse_ordinal")  # the csv path's, after the byte path met the bad cell
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if bad:
                with pytest.raises(ParseError, match="row 3"):
                    load_microfile(path, TOY_SCHEMA)
            else:
                assert load_microfile(path, TOY_SCHEMA).n_records == 2
            assert seen == [("_plain_ordinal", False)] + [("_parse_ordinal", False)] * bad
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_load_transient_is_bounded_by_the_chunk(self, tmp_path):
        n = 200_000
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            fh.write("area,age\n")
            fh.writelines(f"{6000 + i % 97:05d},{18 + i % 71}\n" for i in range(n))
        schema = (Attribute("area", "nominal", "parameter"),
                  Attribute("age", "ordinal", "influential", weight=1.0))
        tracemalloc.start()
        try:
            m = load_microfile(path, schema)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(col.nbytes for col in m.columns.values())
        assert m.n_records == n
        # the kept columns, their chunk parts while they are joined, and one
        # 16,384-row chunk of row lists and cell strings (~3 MB here)
        assert peak < 3 * kept + 8 * 2**20

    def test_load_holds_the_columns_and_one_chunk(self, tmp_path, monkeypatch):
        # a chunk much shorter than the table, so a second copy of a column shows
        monkeypatch.setattr(microfile, "_CHUNK_ROWS", 1024)
        n = 200_000
        path = tmp_path / "big.csv"
        with open(path, "w") as fh:
            fh.write("area,service,age,income\n")
            fh.writelines(f"{6000 + i % 97:05d},{i % 3},{18 + i % 71},{(i * 7919) % 100_000}\n"
                          for i in range(n))
        schema = (Attribute("area", "nominal", "parameter"),
                  Attribute("service", "nominal", "vital", weight=1.0),
                  Attribute("age", "ordinal", "influential", weight=1.0),
                  Attribute("income", "ordinal", "influential", weight=1.0))
        info = {}
        tracemalloc.start()
        try:
            m = load_microfile(path, schema, info=info)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(m.cells(a.name).nbytes for a in schema)
        assert info == {"reader": "bytes"} and m.n_records == n
        assert m.vocabulary("area").size == 97 and m.cells("income")[:3].tolist() == [0, 7919, 15838]
        # the columns (4.8 MB), and one chunk's lines, bytes, field offsets
        # and parse temporaries: about 270 bytes per row of the chunk here.
        # Parts joined at the end would add the largest column again (1.6 MB)
        assert peak < kept + 400 * microfile._CHUNK_ROWS

    def test_a_long_cell_costs_only_its_own_bytes(self, tmp_path):
        # one 20,000-character cell among 4,096 rows: padding each text, or
        # each cell of its chunk, to the longest would take hundreds of MB
        n = 4096
        cells = [f"a{i % 7}" for i in range(n)]
        cells[1234] = "x" * 20_000
        path = tmp_path / "wide.csv"
        path.write_text("area,service,pay\n"
                        + "".join(f"{c},{i % 2},{i}\n" for i, c in enumerate(cells)))
        info = {}
        tracemalloc.start()
        try:
            m = load_microfile(path, TOY_SCHEMA, info=info)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert info == {"reader": "bytes"}
        assert m.column("area").tolist() == cells
        assert peak < 16 * 2**20

    def test_undeclared_columns_ignored(self, tmp_path):
        path = write_csv(
            tmp_path / "f.csv",
            ["area", "service", "pay", "note"],
            [["a1", "1", "10", "hello"]],
        )
        m = load_microfile(path, TOY_SCHEMA)
        assert set(m.columns) == {"area", "service", "pay"}


class TestWrite:
    def test_roundtrip_identity(self, tmp_path):
        m = load_microfile(toy_file(tmp_path), TOY_SCHEMA)
        out = tmp_path / "copy.csv"
        write_microfile(m, out)
        m2 = load_microfile(out, TOY_SCHEMA)
        assert m2.attributes == m.attributes
        for name in m.columns:
            assert np.array_equal(m.columns[name], m2.columns[name])

    def test_roundtrip_preserves_text(self, tmp_path):
        path = toy_file(tmp_path)
        m = load_microfile(path, TOY_SCHEMA)
        out = tmp_path / "copy.csv"
        write_microfile(m, out)
        assert out.read_text() == path.read_text()

    def test_empty_record_set_writes_header_only(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", ["area", "service", "pay"], [])
        m = load_microfile(path, TOY_SCHEMA)
        assert m.n_records == 0
        out = tmp_path / "empty_out.csv"
        write_microfile(m, out)
        assert out.read_text().strip() == "area,service,pay"

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        m = load_microfile(toy_file(tmp_path), TOY_SCHEMA)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / "copy.csv"
        write_microfile(m, out)
        previous = out.read_bytes()

        # one row per chunk, so the first chunk is written before the second fails
        monkeypatch.setattr(microfile, "_CHUNK_ROWS", 1)
        joined, calls = microfile._joined, []

        def failing(columns, n):
            calls.append(n)
            if len(calls) > 1:
                raise RuntimeError("row assembly failed")
            return joined(columns, n)

        monkeypatch.setattr(microfile, "_joined", failing)
        with pytest.raises(RuntimeError, match="row assembly failed"):
            write_microfile(m.with_cells("pay", np.array([1.0, 2.0, 3.0])), out)
        assert calls == [1, 1]
        assert out.read_bytes() == previous
        assert list(out_dir.iterdir()) == [out]

    @pytest.mark.parametrize("encoding", ["utf-16", "cp037"])
    def test_platform_encoding_that_is_not_ascii_compatible(self, tmp_path, monkeypatch,
                                                            encoding):
        m = Microfile((Attribute("name", "nominal", "plain"), Attribute("n", "ordinal", "plain")),
                      {"name": np.array(["é", "a,b", ""]), "n": np.array([1.0, -2.5, np.nan])})
        with open(tmp_path / "ref.csv", "w", newline="", encoding=encoding) as fh:
            csv.writer(fh).writerows([["name", "n"], ["é", "1"], ["a,b", "-2.5"], ["", ""]])
        monkeypatch.setattr(microfile.locale, "getpreferredencoding", lambda *_: encoding)
        # one row per chunk: a byte order mark is still written once
        monkeypatch.setattr(microfile, "_CHUNK_ROWS", 1)
        write_microfile(m, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_record_count_invariant(self, tmp_path, fixture_microfile):
        out = tmp_path / "again.csv"
        write_microfile(fixture_microfile, out)
        m2 = load_microfile(out, ref.FIXTURE_SCHEMA)
        assert m2.n_records == fixture_microfile.n_records

    def test_write_transient_is_bounded_by_the_chunk(self, tmp_path, monkeypatch):
        # a chunk much shorter than the table, so an array over a whole column shows
        monkeypatch.setattr(microfile, "_CHUNK_ROWS", 4096)
        n = 200_000
        i = np.arange(n)
        schema = (Attribute("area", "nominal", "parameter"),
                  Attribute("service", "nominal", "vital", weight=1.0),
                  Attribute("sex", "nominal", "plain"),
                  Attribute("age", "ordinal", "influential", weight=1.0))
        m = Microfile(schema, {"area": np.char.zfill((6000 + i % 97).astype(str), 5),
                               "service": (i % 5).astype(str), "sex": (1 + i % 2).astype(str),
                               "age": (18 + i % 71).astype(float)})
        tracemalloc.start()
        try:
            write_microfile(m, tmp_path / "big.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one chunk's cell positions, digit arithmetic, padded byte matrix,
        # kept-byte mask and row bytes, about 130 bytes per row of the chunk
        # here, however long the table: a single int64 array over a whole
        # column (1.6 MB) would exceed it
        assert peak < 160 * microfile._CHUNK_ROWS
        assert load_microfile(tmp_path / "big.csv", schema).n_records == n

    def test_long_cell_pads_only_the_rows_around_it(self, tmp_path):
        n = 40_000
        wide = "x" * 131_000  # about the csv module's field size limit
        schema = (Attribute("text", "nominal", "plain"), Attribute("age", "ordinal", "plain"))
        codes = np.where(np.arange(n) == 23_456, 2, np.arange(n) % 2).astype(np.int32)
        m = Microfile.from_cells(schema, {"text": codes, "age": 18.0 + np.arange(n) % 71},
                                 {"text": np.array(["a", "b", wide], dtype=object)})
        tracemalloc.start()
        try:
            write_microfile(m, tmp_path / "new.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the rows joined with the long cell hold at most _JOIN_BYTES padded
        # bytes, in a few copies (matrix, mask, windows, kept bytes), beside
        # a few copies of the text itself; padding every row of its chunk to
        # its width would take 2 GB
        assert peak < 8 * microfile._JOIN_BYTES + 10 * len(wide)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["text", "age"]] + [
                [text, microfile._format_cell(schema[1], v)]
                for text, v in zip(m.column("text").tolist(), m.cells("age").tolist())])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_packaged_fixture_matches_its_generator(self, tmp_path):
        # the committed CSV must be reproducible byte for byte
        out = tmp_path / "regen.csv"
        write_microfile(ref.build_quantity_microfile(), out)
        with open(ref.fixture_path(), "rb") as fh:
            assert out.read_bytes() == fh.read()


def member_records(m, g):
    """The records of group ``g``: its census member mask as indices."""
    return np.flatnonzero(group_census(m, g)[1])


class TestMembers:
    def test_empty_vital_matches_everything(self, tmp_path):
        m = load_microfile(toy_file(tmp_path), TOY_SCHEMA)
        g = GroupSpec.create({}, "area", ["a1", "a2", "a3", "a4"])
        assert list(member_records(m, g)) == [0, 1, 2]

    def test_fixture_member_total(self, fixture_microfile, fixture_group):
        assert member_records(fixture_microfile, fixture_group).size == 6272

    def test_absent_vital_value_matches_nothing(self, tmp_path):
        m = load_microfile(toy_file(tmp_path), TOY_SCHEMA)
        g = GroupSpec.create({"service": {"9"}}, "area", ["a1", "a2", "a3", "a4"])
        assert member_records(m, g).size == 0

    def test_group_is_subset_of_superset(self, fixture_microfile, fixture_group):
        _, member, superset = group_census(fixture_microfile, fixture_group)
        service = fixture_microfile.column("military_service").tolist()
        assert np.flatnonzero(member).tolist() == [i for i, t in enumerate(service) if t == "1"]
        assert np.flatnonzero(superset).tolist() == superset_records(fixture_microfile,
                                                                     fixture_group)
        assert not (member & ~superset).any()

    def test_ordinal_value_matches_its_number(self, fixture_microfile):
        ages = fixture_microfile.cells("age")
        want = np.flatnonzero(ages == ages[0]).tolist()
        for value in (ages[0], int(ages[0]), str(int(ages[0])), f"{ages[0]:.1f}"):
            g = GroupSpec.create({"age": {value}}, "area", ref.AREA_CODES)
            assert member_records(fixture_microfile, g).tolist() == want

    @pytest.mark.parametrize("value", ["old", "x1", "nan", "inf", None])
    @pytest.mark.parametrize("where", ["vital", "superset"])
    def test_non_number_on_ordinal_attribute_is_schema_error(self, fixture_microfile, value,
                                                             where):
        values = {"age": {"30", value}}
        g = GroupSpec.create(values if where == "vital" else {"military_service": {"1"}},
                             "area", ref.AREA_CODES, values if where == "superset" else None)
        with pytest.raises(SchemaError, match=re.escape(
                f"ordinal attribute 'age': {value!r} is not a finite number")):
            group_census(fixture_microfile, g)

    def test_group_outside_superset_detected(self, tmp_path):
        schema = TOY_SCHEMA + (Attribute("sex", "nominal", "plain"),)
        path = write_csv(
            tmp_path / "f.csv",
            ["area", "service", "pay", "sex"],
            [["a1", "1", "10", "2"]],
        )
        m = load_microfile(path, schema)
        g = GroupSpec.create(
            {"service": {"1"}}, "area", ["a1", "a2", "a3", "a4"], superset_vital={"sex": {"1"}}
        )
        with pytest.raises(SchemaError, match="outside"):
            group_census(m, g)


class TestGroupSpec:
    def test_parameter_cannot_be_vital(self):
        with pytest.raises(SchemaError, match="parameter"):
            GroupSpec.create({"area": {"a1"}}, "area", ["a1", "a2", "a3", "a4"])

    def test_parameter_order_needs_four_values(self):
        with pytest.raises(SchemaError, match="at least 4"):
            GroupSpec.create({"v": {"1"}}, "area", ["a1", "a2"])

    def test_parameter_order_must_be_distinct(self):
        with pytest.raises(SchemaError, match="duplicate"):
            GroupSpec.create({"v": {"1"}}, "area", ["a1", "a1", "a2", "a3"])


def positions_cell_by_cell(m, g, records):
    """Each record's order index found from its written text, one record at a time."""
    attr, col, order = m.attribute(g.parameter), m.column(g.parameter), g.parameter_order
    texts = [microfile._format_cell(attr, col[r]) for r in records]
    return [order.index(t) if t in order else -1 for t in texts]


# the order holds written texts, and texts that no cell is written as
# ("2000.0", "1000000000000000"), so a match on anything but the text fails
AXIS_NOMINAL_CELLS = ["06010", "06020", "a1", " a1", "", "zz", "6010", "é"]
AXIS_NOMINAL_ORDER = ("06010", "a1", "", "é", "06030")
AXIS_ORDINAL_CELLS = [2000.0, 2001.0, 2002.5, -0.0, 0.0, 1e15, 1e16, 7.0, -3.0, float("nan")]
AXIS_ORDINAL_ORDER = ("2000", "2000.0", "2002.5", "0", "1e+15", "1000000000000000", "-3", "",
                 "2003")


class TestAxisPositions:
    @pytest.mark.parametrize("kind, cells, order", [
        ("nominal", AXIS_NOMINAL_CELLS, AXIS_NOMINAL_ORDER),
        ("ordinal", AXIS_ORDINAL_CELLS, AXIS_ORDINAL_ORDER),
    ], ids=["nominal", "ordinal"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_written_text_cell_by_cell(self, kind, cells, order, seed):
        rng = np.random.default_rng(seed)
        column = np.array(rng.choice(np.array(cells, dtype=object), 60).tolist(),
                          dtype=str if kind == "nominal" else float)
        expected = positions_cell_by_cell(
            Microfile((Attribute("p", kind, "plain"),), {"p": column}),
            GroupSpec.create({}, "p", order), range(60))
        half = rng.random(60) < 0.5
        for records in (rng.choice(60, 25), np.flatnonzero(half),
                        np.flatnonzero(half & (np.array(expected) >= 0)),
                        np.array([], dtype=np.int64)):
            member = np.zeros(60, dtype=bool)
            member[records] = True
            m = Microfile((Attribute("p", kind, "plain"), Attribute("v", "nominal", "plain")),
                          {"p": column, "v": np.where(member, "1", "0")})
            g = GroupSpec.create({"v": {"1"}}, "p", order)
            attr = m.attribute("p")
            outside = sorted({microfile._format_cell(attr, column[r]) for r in records.tolist()}
                             - set(order))
            if outside:
                with pytest.raises(SchemaError, match=re.escape(
                        f"members at parameter values outside the order: {outside}")):
                    group_census(m, g)
                continue
            got, got_member, _ = group_census(m, g)
            assert got.dtype == np.int32
            assert got.tolist() == expected
            assert got_member.tolist() == member.tolist()

    def test_integer_years_sit_at_their_written_text(self):
        m = Microfile((Attribute("year", "ordinal", "parameter"), Attribute("v", "nominal", "plain")),
                      {"year": np.array([2001.0, 2000.0, 2003.0, 1999.0]),
                       "v": np.array(["1", "1", "1", "0"])})
        g = GroupSpec.create({"v": {"1"}}, "year", ["2000", "2001", "2002", "2003"])
        assert group_census(m, g)[0].tolist() == [1, 0, 3, -1]


class TestNonFiniteOrdinal:
    @pytest.mark.parametrize("inf", [np.inf, -np.inf])
    def test_infinite_cell_is_a_schema_error_naming_the_column(self, tmp_path, inf):
        m = Microfile((Attribute("year", "ordinal", "parameter"),),
                      {"year": np.array([1.0, inf])})
        message = f"non-finite value {inf!r} in ordinal column 'year' has no text"
        with pytest.raises(SchemaError, match=message):
            write_microfile(m, tmp_path / "out.csv")
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(SchemaError, match=message):
            group_census(m, GroupSpec.create({}, "year", ["1", "2", "3", "4"]))


class TestMicrofileInvariants:
    def test_columns_must_match_attributes(self):
        with pytest.raises(SchemaError, match="columns"):
            Microfile(TOY_SCHEMA, {"area": np.array(["a1"])})

    def test_ragged_columns_rejected(self):
        cols = {
            "area": np.array(["a1", "a2"]),
            "service": np.array(["1", "0"]),
            "pay": np.array([1.0]),
        }
        with pytest.raises(SchemaError, match="ragged"):
            Microfile(TOY_SCHEMA, cols)

    def test_columns_are_read_only(self, fixture_microfile):
        with pytest.raises(ValueError):
            fixture_microfile.column("area")[0] = "zzz"

    def test_texts_differing_in_trailing_nuls_stay_apart(self):
        m = Microfile((Attribute("a", "nominal", "plain"),),
                      {"a": np.array(["a\0", "a", "b\0\0"], dtype=object)})
        assert m.vocabulary("a").tolist() == ["a", "a\0", "b\0\0"]
        assert m.cells("a").tolist() == [1, 0, 2]
        assert m.column("a").tolist() == ["a\0", "a", "b\0\0"]
        wanted = (("a", frozenset({"a\0", "b\0\0"})),)
        assert microfile._match_mask(m, wanted).tolist() == [True, False, True]

    def test_with_cells_rejects_wrong_length(self, fixture_microfile):
        with pytest.raises(SchemaError, match="length"):
            fixture_microfile.with_cells("area", np.array([0], dtype=np.int32))
