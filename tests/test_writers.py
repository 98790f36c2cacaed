"""The run's report writers against the row-by-row writers they replaced, byte for byte."""

import csv
import io
from unittest import mock
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from groupanon import microfile
from groupanon import reference as ref
from groupanon import charts
from groupanon.charts import svg_line_chart
from groupanon.cli import main
from groupanon.pipeline import _write_plan_csv, write_coefficients_csv, write_signal_csv
from groupanon.remap import SwapPlan
from groupanon.wavelet import decompose, get_filter


def reference_plan_csv(path, plan):
    """Row-by-row swap audit writer: the reference for ``_write_plan_csv``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["member_index", "partner_index", "cost"])
        writer.writerows([a, b, f"{cost:.12g}"]
                         for (a, b), cost in zip(plan.swaps.tolist(), plan.costs.tolist()))


def reference_coefficients_csv(path, dec):
    """Row-by-row coefficient writer: the reference for ``write_coefficients_csv``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["component", "index", "value"])
        for i, v in enumerate(dec.approx, start=1):
            writer.writerow([f"approx{dec.level}", i, f"{v:.12g}"])
        for j in dec.detail_levels():
            for i, v in enumerate(dec.details[j], start=1):
                writer.writerow([f"detail{j}", i, f"{v:.12g}"])


def reference_signal_csv(path, order, values):
    """Row-by-row signal writer: the reference for ``write_signal_csv``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["parameter_value", "value"])
        writer.writerows([value, f"{float(v):.12g}"] for value, v in zip(order, values))


def reference_svg_line_chart(labels, values, path, title=""):
    """Point-by-point chart writer: the reference for ``svg_line_chart``."""
    width, height = 720, 360
    margin_l, margin_r, margin_t, margin_b = 70, 20, 40, 60
    values = [float(v) for v in values]
    labels = [str(x) for x in labels]
    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    plot_w = width - margin_l - margin_r
    plot_h = height - margin_t - margin_b

    def x_at(i):
        if len(values) == 1:
            return margin_l + plot_w / 2
        return margin_l + plot_w * i / (len(values) - 1)

    def y_at(v):
        return margin_t + plot_h * (1.0 - (v - lo) / (hi - lo))

    points = " ".join(f"{x_at(i):.1f},{y_at(v):.1f}" for i, v in enumerate(values))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(f'<text x="{width / 2}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">{escape(title)}</text>')
    axis_y = margin_t + plot_h
    parts.append(f'<line x1="{margin_l}" y1="{margin_t}" x2="{margin_l}" y2="{axis_y}" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{margin_l}" y1="{axis_y}" x2="{margin_l + plot_w}" y2="{axis_y}" '
                 'stroke="black" stroke-width="1"/>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = y_at(v)
        parts.append(f'<line x1="{margin_l - 4}" y1="{y:.1f}" x2="{margin_l}" y2="{y:.1f}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{margin_l - 8}" y="{y + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{v:.4g}</text>')
    step = max(1, len(labels) // 16)
    for i in range(0, len(labels), step):
        x = x_at(i)
        parts.append(f'<line x1="{x:.1f}" y1="{axis_y}" x2="{x:.1f}" y2="{axis_y + 4}" '
                     'stroke="black"/>')
        parts.append(f'<text x="{x:.1f}" y="{axis_y + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10" '
                     f'transform="rotate(45 {x:.1f} {axis_y + 16})">{escape(labels[i])}</text>')
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>')
    for i, v in enumerate(values):
        parts.append(f'<circle cx="{x_at(i):.1f}" cy="{y_at(v):.1f}" r="2.5" fill="#1f6fb2"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def csv_writes_nul() -> bool:
    """Whether this Python's csv writer writes a NUL in a field (3.11 on) rather than rejecting it."""
    try:
        csv.writer(io.StringIO()).writerow(["a\0b"])
    except csv.Error:
        return False
    return True


# Record indices at the edges of each digit count, up to the largest int64.
INDICES = st.one_of(
    st.integers(0, 2**63 - 1),
    st.sampled_from([0, 9, 10, 99, 100, 10**15 - 1, 10**15, 10**18 - 1, 10**18, 2**63 - 1]),
)
# Labels that csv quotes, unicode, and interior NULs where csv writes them; lone
# surrogates have no encoding.
LABELS = st.one_of(
    st.sampled_from(["06010", "a,b", 'say "hi"', "line\nbreak", "cr\r", "", " ", "中文"]
                    + (["a\x00b"] if csv_writes_nul() else [])),
    st.text(st.characters(min_codepoint=1, max_codepoint=0xD7FF), max_size=6),
)
VALUES = st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, 1.0, 1e12, 1e-5, 5e-324]))
# A few rows per chunk, so that cells change width from one chunk to the next.
CHUNK_ROWS = st.integers(1, 8)
# Padded bytes per row assembly: a small budget joins the rows of a chunk in halves.
JOIN_BYTES = st.sampled_from([1, 64, microfile._JOIN_BYTES])


@st.composite
def plans(draw):
    records = draw(st.lists(INDICES, unique=True, max_size=40))
    k = len(records) // 2
    costs = draw(st.lists(VALUES, min_size=k, max_size=k))
    return SwapPlan("p", np.array(records[:2 * k], dtype=np.int64).reshape(-1, 2), costs)


class TestAgainstRowByRowWriters:
    @settings(max_examples=150, deadline=None)
    @given(plan=plans(), chunk=CHUNK_ROWS, join=JOIN_BYTES)
    def test_swap_audit(self, tmp_path_factory, plan, chunk, join):
        d = tmp_path_factory.mktemp("plan")
        with mock.patch.multiple(microfile, _CHUNK_ROWS=chunk, _JOIN_BYTES=join):
            _write_plan_csv(d / "new.csv", plan)
        reference_plan_csv(d / "ref.csv", plan)
        assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), chunk=CHUNK_ROWS, join=JOIN_BYTES)
    def test_signal(self, tmp_path_factory, data, chunk, join):
        order = data.draw(st.lists(LABELS, unique=True, max_size=30))
        values = data.draw(st.lists(VALUES, min_size=len(order), max_size=len(order)))
        d = tmp_path_factory.mktemp("signal")
        with mock.patch.multiple(microfile, _CHUNK_ROWS=chunk, _JOIN_BYTES=join):
            write_signal_csv(d / "new.csv", tuple(order), np.array(values, dtype=float))
        reference_signal_csv(d / "ref.csv", tuple(order), np.array(values, dtype=float))
        assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), title=st.sampled_from(["", "g: goal signal (before)", "<&>"]))
    def test_svg_chart(self, tmp_path_factory, data, title):
        labels = data.draw(st.lists(LABELS, min_size=1, max_size=70))
        values = data.draw(st.one_of(
            st.lists(st.floats(-1e12, 1e12), min_size=len(labels), max_size=len(labels)),
            st.lists(st.integers(0, 5000), min_size=len(labels), max_size=len(labels)),
            st.just([3.0] * len(labels)),
        ))
        d = tmp_path_factory.mktemp("svg")
        svg_line_chart(labels, np.array(values, dtype=float), d / "new.svg", title=title)
        reference_svg_line_chart(labels, np.array(values, dtype=float), d / "ref.svg", title=title)
        assert (d / "new.svg").read_bytes() == (d / "ref.svg").read_bytes()

    def test_long_axis_sized_chart(self, tmp_path):
        rng = np.random.default_rng(7)
        labels = [f"L{i:05d}" for i in range(4096)]
        values = rng.integers(0, 40, 4096).astype(float)
        svg_line_chart(labels, values, tmp_path / "new.svg", title="long")
        reference_svg_line_chart(labels, values, tmp_path / "ref.svg", title="long")
        assert (tmp_path / "new.svg").read_bytes() == (tmp_path / "ref.svg").read_bytes()

    def test_charts_over_the_same_labels_format_the_axis_once(self, tmp_path):
        rng = np.random.default_rng(8)
        labels = [f"L{i:05d}" for i in range(300)]
        series = [rng.integers(0, 40, 300).astype(float), np.full(300, 2.0)]
        charts._x_axis.cache_clear()
        for i, values in enumerate(series):
            svg_line_chart(labels, values, tmp_path / f"new{i}.svg", title=f"chart {i}")
        assert charts._x_axis.cache_info()[:2] == (1, 1)  # (hits, misses)
        for i, values in enumerate(series):
            ref_path = tmp_path / f"ref{i}.svg"
            reference_svg_line_chart(labels, values, ref_path, title=f"chart {i}")
            assert (tmp_path / f"new{i}.svg").read_bytes() == ref_path.read_bytes()
        # other labels get their own axis
        svg_line_chart(labels[:-1], series[0][:-1], tmp_path / "new2.svg", title="chart 2")
        reference_svg_line_chart(labels[:-1], series[0][:-1], tmp_path / "ref2.svg",
                                 title="chart 2")
        assert (tmp_path / "new2.svg").read_bytes() == (tmp_path / "ref2.svg").read_bytes()
        with pytest.raises(ValueError, match="equally long"):
            svg_line_chart(labels, series[0][:-1], tmp_path / "short.svg")

    def test_a_run_formats_each_group_axis_once(self, config_factory):
        path = config_factory()
        charts._x_axis.cache_clear()
        assert main(["run", "--config", str(path)]) == 0
        assert charts._x_axis.cache_info()[:2] == (1, 1)  # (hits, misses)
        report = path.parent / "out/report"
        assert (report / "active-duty_before.svg").exists()
        assert (report / "active-duty_after.svg").exists()

    def test_coefficients_of_the_bundled_config(self, config_factory, tmp_path):
        path = config_factory()
        assert main(["decompose", "--config", str(path), "--group", "active-duty"]) == 0
        reference_coefficients_csv(tmp_path / "ref.csv",
                                   decompose(ref.QUANTITY.astype(float), get_filter("db2"), 2))
        written = tmp_path / "out/report/active-duty_coefficients.csv"
        assert written.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_coefficients_of_a_long_axis(self, tmp_path):
        rng = np.random.default_rng(11)
        dec = decompose(rng.integers(0, 40, 4096).astype(float), get_filter("db4"), 5)
        with mock.patch.object(microfile, "_CHUNK_ROWS", 1000):
            write_coefficients_csv(tmp_path / "new.csv", dec)
        reference_coefficients_csv(tmp_path / "ref.csv", dec)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def csv_field(text):
    """``text`` as csv writes it as the second field of a row."""
    line = io.StringIO()
    csv.writer(line).writerow(["", text])
    return line.getvalue()[1:-len(csv.excel.lineterminator)]


class TestQuotedLabels:
    """``_quoted`` against csv's own writer, which it skips for texts csv leaves alone."""

    @pytest.mark.parametrize("texts", [
        ["06010", "L00001", "a b", " lead", "trail ", "x'y", "a;b", "tab\t"],
        [""], ["", "x"], [],
        ["é", "中文", "naïve façade", "\u2028", "😀"],
        *[["plain", f"a{char}b", "more"] for char in ',"\r\n'],
        *[[char] for char in ',"\r\n'],
        ["ü,", "中\n文", '"'],
    ])
    def test_matches_csv_writer(self, texts):
        assert list(microfile._quoted(texts)) == [csv_field(t) for t in texts]

    def test_texts_csv_leaves_alone_come_back_unchanged(self):
        texts = [f"L{i:05d}" for i in range(4096)] + ["", "é"]
        assert microfile._quoted(texts) is texts

    @settings(max_examples=200, deadline=None)
    @given(texts=st.lists(LABELS, max_size=20))
    def test_drawn_labels(self, texts):
        assert list(microfile._quoted(texts)) == [csv_field(t) for t in texts]
