"""Dependency-free SVG renderer: structure checked through an XML parser.

Coordinate assertions recompute the affine data-to-pixel map from the module
margins, so they break if the layout constants drift.
"""

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from analogdist.svgplot import PALETTE, line_plot

SVG_NS = "{http://www.w3.org/2000/svg}"

TABLE = {"x": [0, 1, 2], "emp": [0.0, 1.0, 0.5], "theory": [0.1, math.nan, 0.4]}
# The two curves of TABLE in long form, one line per value of `series`.
GROUPED = {
    "series": ["emp"] * 3 + ["theory"] * 3,
    "x": TABLE["x"] * 2,
    "value": TABLE["emp"] + TABLE["theory"],
}


def _polylines(svg: str) -> list[ET.Element]:
    root = ET.fromstring(svg)
    return list(root.iter(f"{SVG_NS}polyline"))


def _texts(svg: str) -> list[str]:
    root = ET.fromstring(svg)
    return [el.text or "" for el in root.iter(f"{SVG_NS}text")]


class TestLinePlot:
    def test_is_well_formed_xml(self):
        ET.fromstring(line_plot(TABLE, "x", "emp"))

    def test_deterministic(self):
        kwargs = dict(group="series", dashed=("theory",), title="t")
        assert line_plot(GROUPED, "x", "value", **kwargs) == line_plot(
            GROUPED, "x", "value", **kwargs
        )

    def test_one_polyline_per_series(self):
        svg = line_plot(GROUPED, "x", "value", group="series")
        lines = _polylines(svg)
        assert len(lines) == 2
        # The NaN theory value at x=1 drops that point only.
        assert len(lines[0].get("points").split()) == 3
        assert len(lines[1].get("points").split()) == 2

    def test_pixel_coordinates_match_margin_arithmetic(self):
        # Unit-square data, default 720x440 canvas: x spans the 636 px plot
        # width, y gets a 5% pad on both ends of the 354 px plot height.
        svg = line_plot({"x": [0, 1], "y": [0, 1]}, "x", "y")
        (line,) = _polylines(svg)
        x0, x1 = 68.0, 68.0 + 636.0
        y0 = 34.0 + (1.05 / 1.1) * 354.0
        y1 = 34.0 + (0.05 / 1.1) * 354.0
        assert line.get("points") == f"{x0:.2f},{y0:.2f} {x1:.2f},{y1:.2f}"

    def test_group_column_splits_series_in_first_seen_order(self):
        table = {"x": [0, 0, 1, 1], "v": [1, 2, 3, 4], "tag": ["b", "a", "b", "a"]}
        svg = line_plot(table, "x", "v", group="tag")
        assert len(_polylines(svg)) == 2
        labels = [t for t in _texts(svg) if t in ("a", "b")]
        assert labels == ["b", "a"]

    def test_palette_cycles_in_series_order(self):
        svg = line_plot(GROUPED, "x", "value", group="series")
        assert [ln.get("stroke") for ln in _polylines(svg)] == list(PALETTE[:2])

    def test_dashed_applies_to_named_series_only(self):
        svg = line_plot(GROUPED, "x", "value", group="series", dashed=("theory",))
        emp, theory = _polylines(svg)
        assert emp.get("stroke-dasharray") is None
        assert theory.get("stroke-dasharray") == "6,4"

    def test_title_and_labels_escaped(self):
        svg = line_plot(TABLE, "x", "emp", title="a<b & c", x_label="r>0", y_label="p&q")
        texts = _texts(svg)
        assert "a<b & c" in texts and "r>0" in texts and "p&q" in texts
        ET.fromstring(svg)

    def test_axis_labels_default_to_column_names(self):
        texts = _texts(line_plot(GROUPED, "x", "value", group="series"))
        assert "x" in texts
        assert "value" in texts

    def test_no_negative_zero_tick(self):
        svg = line_plot({"x": [-1, 1], "y": [-1, 1]}, "x", "y")
        assert "-0" not in _texts(svg)
        assert "0" in _texts(svg)

    def test_log_x_decade_ticks(self):
        table = {"x": [1, 10, 100, 1000], "y": [0, 1, 2, 3]}
        texts = _texts(line_plot(table, "x", "y", log_x=True))
        for label in ("1e0", "1e1", "1e2", "1e3"):
            assert label in texts

    def test_log_x_drops_nonpositive_points(self):
        svg = line_plot({"x": [-1, 0, 1, 10], "y": [5, 6, 0, 1]}, "x", "y", log_x=True)
        (line,) = _polylines(svg)
        assert len(line.get("points").split()) == 2

    def test_single_point_still_renders(self):
        svg = line_plot({"x": [2], "y": [3]}, "x", "y")
        assert len(_polylines(svg)) == 1

    def test_non_numeric_cells_leave_gaps(self):
        svg = line_plot({"x": [0, 1, 2, 3], "y": [1, None, 3, math.inf]}, "x", "y")
        (line,) = _polylines(svg)
        assert len(line.get("points").split()) == 2

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"x": "missing", "y": "emp"}, "not in CSV header"),
            ({"x": "x", "y": "missing"}, "not in CSV header"),
        ],
    )
    def test_bad_column_selection(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            line_plot(TABLE, **kwargs)

    def test_columns_of_different_lengths_raise(self):
        with pytest.raises(ValueError, match="same length"):
            line_plot({"x": [0, 1, 2], "y": [0, 1]}, "x", "y")

    def test_all_cells_non_finite_raises(self):
        with pytest.raises(ValueError, match="no finite data"):
            line_plot({"x": [0, 1], "y": [math.nan, math.inf]}, "x", "y")

    def test_list_and_array_columns_give_identical_bytes(self):
        x = np.linspace(-1.0, 3.0, 9)
        y = np.where(x > 2.5, np.nan, np.sin(x))
        tag = np.array(["a", "b", "c"] * 3)
        style = dict(group="tag", dashed=("b",), title="t")
        as_arrays = line_plot({"x": x, "y": y, "tag": tag}, "x", "y", **style)
        as_lists = line_plot({"x": x.tolist(), "y": y.tolist(), "tag": tag.tolist()}, "x", "y",
                             **style)
        assert as_arrays == as_lists
        assert len(_polylines(as_arrays)) == 3

    def test_log_x_without_positive_values_raises(self):
        with pytest.raises(ValueError, match="positive x"):
            line_plot({"x": [-2, -1], "y": [0, 1]}, "x", "y", log_x=True)


@pytest.mark.parametrize("value", [0.05, 1.0, 2.5, 123.4])
def test_ticks_cover_span_with_nice_steps(value):
    # Ticks land on 1/2/5 x 10^n multiples inside the padded y range.
    svg = line_plot({"x": [0, 1], "y": [0, value]}, "x", "y")
    numeric = [float(t) for t in _texts(svg) if _is_number(t)]
    assert numeric, "expected numeric tick labels"
    for tick in numeric:
        if tick == 0.0:
            continue
        mantissa = abs(tick) / 10.0 ** math.floor(math.log10(abs(tick)))
        assert any(
            math.isclose(mantissa * mult, round(mantissa * mult), rel_tol=1e-9)
            for mult in (1.0, 2.0, 5.0, 10.0)
        )


# The address-space cap turns a runaway tick loop into a MemoryError within
# a second or two, instead of letting it take the host's memory.
_NARROW_SPAN_PROBE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))
from analogdist.svgplot import line_plot
print(line_plot({"x": [0.0, 1.0], "y": [1e15, 1e15 + 0.125]}, "x", "y"), end="\\0")
print(line_plot({"x": [1e15, 1e15 + 0.125], "y": [0.0, 1.0]}, "x", "y"), end="\\0")
"""


def test_span_of_a_few_ulps_gets_its_end_ticks():
    # Around 1e15 doubles are 0.125 apart, so a tick step of 0.05 cannot be
    # added to a tick: the axis is labelled at its two ends instead.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _NARROW_SPAN_PROBE],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 0, run.stderr
    svgs = run.stdout.split("\0")[:-1]
    assert len(svgs) == 2
    for svg in svgs:
        (line,) = _polylines(svg)
        assert len(line.get("points").split()) == 2
        assert _texts(svg).count("1e+15") == 2


def _y_tick_labels(svg: str) -> list[str]:
    root = ET.fromstring(svg)
    return [el.text or "" for el in root.iter(f"{SVG_NS}text") if el.get("text-anchor") == "end"]


def test_span_beyond_the_double_range_gets_its_end_ticks():
    # hi - lo overflows to inf, so no tick step exists: the axis is labelled
    # at its two ends instead of raising OverflowError.
    svg = line_plot({"x": [0.0, 1.0], "y": [-1e308, 1e308]}, "x", "y")
    (line,) = _polylines(svg)
    assert len(line.get("points").split()) == 2
    assert len(_y_tick_labels(svg)) == 2


@pytest.mark.parametrize(
    "table",
    [
        {"x": [0.0, 1.0], "y": [-1e308, 1e308]},
        {"x": [-1e308, 1e308], "y": [0.0, 1.0]},
        {"x": [-1.7e308, 1.7e308], "y": [-1.7e308, 1.7e308]},
    ],
    ids=["y", "x", "both-near-the-largest-double"],
)
def test_span_beyond_the_double_range_draws_finite_ends(table):
    # hi - lo and the y padding overflow to inf; the axis ends, their tick
    # labels and the point coordinates must all stay finite.
    svg = line_plot(table, "x", "y")
    (line,) = _polylines(svg)
    points = [tuple(float(v) for v in p.split(",")) for p in line.get("points").split()]
    assert [x for x, _ in points] == [68.0, 704.0]
    assert all(34.0 < y < 388.0 for _, y in points)
    ticks = [float(t) for t in _texts(svg) if _is_number(t)]
    assert len(ticks) >= 4 and all(math.isfinite(t) for t in ticks)
    if max(table["y"]) < 1.7e308:
        # Halved ends map each point where the unit square's lands.
        unit = line_plot({"x": [0, 1], "y": [0, 1]}, "x", "y")
        assert line.get("points") == _polylines(unit)[0].get("points")


@pytest.mark.parametrize("value", [1e16, sys.float_info.max, -sys.float_info.max],
                         ids=["1e16", "largest", "most-negative"])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_constant_column_beyond_a_half_ulp_draws_finite_ends(axis, value):
    # Widening by 0.5 would not move these ends; by one ulp it does, and
    # at the largest doubles the widened end is clamped to stay finite.
    pair = [value, value]
    table = {"x": pair, "y": [0.0, 1.0]} if axis == "x" else {"x": [0.0, 1.0], "y": pair}
    svg = line_plot(table, "x", "y")
    (line,) = _polylines(svg)
    points = [tuple(float(v) for v in p.split(",")) for p in line.get("points").split()]
    assert all(68.0 <= x <= 704.0 and 34.0 <= y <= 388.0 for x, y in points)
    ticks = [float(t) for t in _texts(svg) if _is_number(t)]
    assert len(ticks) >= 4 and all(math.isfinite(t) for t in ticks)
    constant = {px if axis == "x" else py for px, py in points}
    assert len(constant) == 1
    if abs(value) < sys.float_info.max:
        assert constant == ({386.0} if axis == "x" else {211.0})


def test_span_below_the_smallest_step_gets_its_end_ticks():
    # A span of one subnormal divides to 0, which has no logarithm: the
    # axis is labelled at its two ends instead of raising ValueError.
    svg = line_plot({"x": [0.0, 1.0], "y": [0.0, 5e-324]}, "x", "y")
    (line,) = _polylines(svg)
    assert len(line.get("points").split()) == 2
    assert _y_tick_labels(svg) == ["0", "4.94066e-324"]


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
