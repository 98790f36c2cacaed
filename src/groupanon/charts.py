"""Minimal static SVG line charts for goal signals.

Hand-rolled on purpose: a polyline with axes and labels is all the
reporting needs, so no plotting dependency is pulled in.
"""

from __future__ import annotations

from html import escape
from pathlib import Path

import numpy as np

from .atomic import atomic_write

__all__ = ["svg_line_chart"]

_WIDTH, _HEIGHT = 720, 360
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 40, 60


def svg_line_chart(labels, values, path: str | Path, title: str = "") -> None:
    """Write a single-series line chart, atomically; one x position per label."""
    values = [float(v) for v in values]
    labels = [str(x) for x in labels]
    if len(labels) != len(values) or not values:
        raise ValueError("labels and values must be equally long and non-empty")

    lo, hi = min(values), max(values)
    if lo == hi:
        lo, hi = lo - 1.0, hi + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def y_at(v):
        return _MARGIN_T + plot_h * (1.0 - (v - lo) / (hi - lo))

    n = len(values)
    if n == 1:
        x = np.array([_MARGIN_L + plot_w / 2])
    else:
        x = _MARGIN_L + plot_w * np.arange(n) / (n - 1)
    # each point is formatted once, for the polyline and its circle
    xs = list(map("{:.1f}".format, x.tolist()))
    ys = list(map("{:.1f}".format, y_at(np.array(values)).tolist()))
    points = " ".join(map(",".join, zip(xs, ys)))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>'
        )
    axis_y = _MARGIN_T + plot_h
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{_MARGIN_T}" x2="{_MARGIN_L}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_L}" y1="{axis_y}" x2="{_MARGIN_L + plot_w}" y2="{axis_y}" '
        'stroke="black" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = y_at(v)
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{y:.1f}" x2="{_MARGIN_L}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{v:.4g}</text>'
        )
    step = max(1, len(labels) // 16)
    for i in range(0, len(labels), step):
        parts.append(
            f'<line x1="{xs[i]}" y1="{axis_y}" x2="{xs[i]}" y2="{axis_y + 4}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{xs[i]}" y="{axis_y + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10" '
            f'transform="rotate(45 {xs[i]} {axis_y + 16})">{escape(labels[i], quote=False)}</text>'
        )
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="#1f6fb2" stroke-width="2"/>'
    )
    parts.extend(f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="#1f6fb2"/>' for cx, cy in zip(xs, ys))
    parts.append("</svg>")

    with atomic_write(path) as fh:
        fh.write("\n".join(parts))
