"""Minimal SVG line plots rendered from a table's columns.

A plot takes the same {column: values} mapping its CSV table is written
from. The CSV holds each float in its shortest round-trip form, so the
plot has the same bytes as one drawn from that file's text would. It is
a pure function of the values and the styling arguments: same input,
same bytes out. That keeps figure artifacts reproducible and diffable
without pulling in a plotting dependency. Only line plots are provided;
histograms are drawn as precomputed bin profiles.
"""

from __future__ import annotations

import math
import sys
from xml.sax.saxutils import escape

__all__ = ["line_plot"]

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
    "#e377c2",
)

_WIDTH = 720
_HEIGHT = 440
_MARGIN_LEFT = 68.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 34.0
_MARGIN_BOTTOM = 52.0


def _values(column) -> list:
    """A column (list or 1-d array) as a list of Python scalars."""
    return column.tolist() if hasattr(column, "tolist") else list(column)


def _floats(column) -> list[float]:
    """A column as floats; None reads as NaN, as its blank CSV cell does."""
    return [math.nan if v is None else float(v) for v in _values(column)]


def _nice_step(rough: float) -> float:
    """Round a step up to 1, 2, or 5 times a power of ten."""
    exponent = math.floor(math.log10(rough))
    base = rough / 10.0**exponent
    for nice in (1.0, 2.0, 5.0):
        if base <= nice + 1e-12:
            return nice * 10.0**exponent
    return 10.0 ** (exponent + 1)


def _linear_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not hi > lo:
        return [lo]
    rough = (hi - lo) / max(target, 1)
    # A span beyond the double range, one too narrow to divide, or one of a
    # few ulps has no step that doubles can add: label its ends.
    if not 0.0 < rough < math.inf:
        return [lo, hi]
    step = _nice_step(rough)
    if step < math.ulp(max(abs(lo), abs(hi))):
        return [lo, hi]
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        if value + step == value:
            return [lo, hi]
        value += step
    return ticks


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """The ends of a zero span moved apart by 0.5, or by one ulp where 0.5
    would not move them, and kept within the finite doubles."""
    if hi != lo:
        return lo, hi
    width = max(0.5, math.ulp(lo))
    return max(lo - width, -sys.float_info.max), min(hi + width, sys.float_info.max)


def _fraction(v: float, start: float, end: float) -> float:
    """(v - start) / (end - start): where far-apart finite ends make the
    span overflow, every term is halved first, so the result stays finite."""
    span = end - start
    if math.isinf(span):
        return (v / 2 - start / 2) / (end / 2 - start / 2)
    return (v - start) / span


def _fmt_tick(value: float) -> str:
    text = f"{value:.6g}"
    return "0" if text in ("-0", "-0.0") else text


def _collect_series(columns, x, y, group):
    names = (x, y) + (() if group is None else (group,))
    for name in names:
        if name not in columns:
            raise ValueError(f"column {name!r} not in CSV header")
    if len({len(columns[name]) for name in names}) > 1:
        raise ValueError("plotted columns must all have the same length")
    xs = _floats(columns[x])
    ys = _floats(columns[y])
    labels = [str(v) for v in _values(columns[group])] if group is not None else [y] * len(xs)
    series: dict[str, list[tuple[float, float]]] = {}
    for xv, yv, label in zip(xs, ys, labels):
        if math.isfinite(xv) and math.isfinite(yv):
            series.setdefault(label, []).append((xv, yv))
    if not series:
        raise ValueError("no finite data points to plot")
    return series


def line_plot(
    columns: dict,
    x: str,
    y: str,
    *,
    group: str | None = None,
    dashed: tuple[str, ...] = (),
    title: str = "",
    x_label: str | None = None,
    y_label: str | None = None,
    log_x: bool = False,
) -> str:
    """Render one SVG line plot from a table's {column: values} mapping.

    Each column is a list or 1-d array, all of one length, and the keys
    are the table's CSV header. x and y name the coordinate columns; group
    names a column whose distinct values become separate lines (legend
    order follows first appearance), and without it the table is one line.
    Series listed in `dashed` are stroked with a dash pattern, which is how
    theory overlays are distinguished from empirical curves.
    Points whose x or y is NaN, None or infinite are dropped point-wise, so
    a missing "theory" value simply leaves a gap in that series.
    """
    series = _collect_series(columns, x, y, group)
    if log_x:
        series = {
            label: [(math.log10(px), py) for px, py in pts if px > 0.0]
            for label, pts in series.items()
        }
        series = {k: v for k, v in series.items() if v}
        if not series:
            raise ValueError("log_x requires positive x values")

    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = _widen(min(xs), max(xs))
    y_lo, y_hi = _widen(min(ys), max(ys))
    pad = 0.05 * (y_hi - y_lo)
    if math.isinf(pad):  # the span overflows: take it from halved ends
        pad = 0.1 * (y_hi / 2 - y_lo / 2)
    y_lo, y_hi = max(y_lo - pad, -sys.float_info.max), min(y_hi + pad, sys.float_info.max)

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(v: float) -> float:
        return _MARGIN_LEFT + _fraction(v, x_lo, x_hi) * plot_w

    def py(v: float) -> float:
        return _MARGIN_TOP + _fraction(v, y_hi, y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT:.2f}" y="{_MARGIN_TOP:.2f}" width="{plot_w:.2f}" '
        f'height="{plot_h:.2f}" fill="none" stroke="#333333"/>',
    ]

    if log_x:
        decades = range(math.ceil(x_lo - 1e-9), math.floor(x_hi + 1e-9) + 1)
        x_ticks = [(float(d), f"1e{d}") for d in decades]
        if len(x_ticks) < 2:
            x_ticks = [(v, _fmt_tick(10.0**v)) for v in _linear_ticks(x_lo, x_hi)]
    else:
        x_ticks = [(v, _fmt_tick(v)) for v in _linear_ticks(x_lo, x_hi)]
    for value, text in x_ticks:
        gx = px(value)
        base = _MARGIN_TOP + plot_h
        out.append(
            f'<line x1="{gx:.2f}" y1="{base:.2f}" x2="{gx:.2f}" y2="{base + 5:.2f}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{gx:.2f}" y="{base + 18:.2f}" text-anchor="middle">{escape(text)}</text>'
        )
    for value in _linear_ticks(y_lo, y_hi):
        gy = py(value)
        out.append(
            f'<line x1="{_MARGIN_LEFT - 5:.2f}" y1="{gy:.2f}" x2="{_MARGIN_LEFT:.2f}" y2="{gy:.2f}" stroke="#333333"/>'
        )
        out.append(
            f'<text x="{_MARGIN_LEFT - 8:.2f}" y="{gy + 4:.2f}" text-anchor="end">'
            f"{escape(_fmt_tick(value))}</text>"
        )

    if title:
        out.append(
            f'<text x="{_WIDTH / 2:.2f}" y="20" text-anchor="middle" font-size="14">'
            f"{escape(title)}</text>"
        )
    x_text = x_label if x_label is not None else x
    y_text = y_label if y_label is not None else y
    out.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 12:.2f}" '
        f'text-anchor="middle">{escape(x_text)}</text>'
    )
    out.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:.2f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:.2f})">{escape(y_text)}</text>'
    )

    for i, (label, points) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="6,4"' if label in dashed else ""
        coords = " ".join(["%.2f,%.2f" % (px(a), py(b)) for a, b in points])
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"{dash}/>'
        )

    legend_x = _MARGIN_LEFT + plot_w - 150.0
    legend_y = _MARGIN_TOP + 10.0
    for i, label in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="6,4"' if label in dashed else ""
        gy = legend_y + 16.0 * i
        out.append(
            f'<line x1="{legend_x:.2f}" y1="{gy:.2f}" x2="{legend_x + 22:.2f}" y2="{gy:.2f}" '
            f'stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        out.append(f'<text x="{legend_x + 28:.2f}" y="{gy + 4:.2f}">{escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"
