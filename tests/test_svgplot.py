"""Dependency-free SVG renderer: structure checked through an XML parser.

Coordinate assertions recompute the affine data-to-pixel map from the module
margins, so they break if the layout constants drift.
"""

import csv
import io
import math
import xml.etree.ElementTree as ET

import pytest

from analogdist.svgplot import PALETTE, line_plot, read_csv_columns

SVG_NS = "{http://www.w3.org/2000/svg}"

CSV = "x,emp,theory\n0,0.0,0.1\n1,1.0,\n2,0.5,0.4\n"


def _polylines(svg: str) -> list[ET.Element]:
    root = ET.fromstring(svg)
    return list(root.iter(f"{SVG_NS}polyline"))


def _texts(svg: str) -> list[str]:
    root = ET.fromstring(svg)
    return [el.text or "" for el in root.iter(f"{SVG_NS}text")]


class TestReadCsvColumns:
    def test_parses_columns(self):
        cols = read_csv_columns(CSV)
        assert cols == {
            "x": ["0", "1", "2"],
            "emp": ["0.0", "1.0", "0.5"],
            "theory": ["0.1", "", "0.4"],
        }

    def test_comment_and_blank_lines_skipped(self):
        text = "# analogdist-csv/v1\n\nx,y\n# mid comment\n1,2\n"
        assert read_csv_columns(text) == {"x": ["1"], "y": ["2"]}

    def test_header_only_gives_empty_columns(self):
        assert read_csv_columns("a,b\n") == {"a": [], "b": []}

    @pytest.mark.parametrize("text", ["", "# only comments\n"])
    def test_no_rows_raises(self, text):
        with pytest.raises(ValueError, match="no CSV rows"):
            read_csv_columns(text)

    @pytest.mark.parametrize(
        "text",
        [
            "a,b,c\n1,2\n3\n4,5,6\n",
            "a,b\n1,2,3,4\n5,6\n7,8,9\n",
            "a,b,a\n1,2,3\n4,5\n6\n7,8,9,10\n",
            'name,v\n"x, y",1\n"say ""hi""",2\n",",\n',
            "# schema line\nx,y\n# mid comment\n1,2\n\n3,4\n#tail\n",
            "x,y,z\n,,\n1,,3\n,2,\n",
            "a,a,a\n1,2\n3,4,5\n",
        ],
        ids=["short-rows", "long-rows", "duplicate-header", "quoted-commas",
             "comment-lines", "blank-cells", "triple-duplicate"],
    )
    def test_equals_dict_reader_reference(self, text):
        assert read_csv_columns(text) == _dict_reader_columns(text)


def _dict_reader_columns(csv_text: str) -> dict[str, list[str]]:
    """Reference parse through csv.DictReader: for each header name, the cell
    DictReader maps to it in every row, with a missing cell read as ""."""
    lines = [ln for ln in csv_text.splitlines() if ln and not ln.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    columns = {name: [] for name in reader.fieldnames}
    for row in reader:
        for name in columns:
            columns[name].append(row.get(name) or "")
    return columns


class TestLinePlot:
    def test_is_well_formed_xml(self):
        ET.fromstring(line_plot(CSV, "x", "emp"))

    def test_deterministic(self):
        kwargs = dict(group=None, dashed=("theory",), title="t")
        assert line_plot(CSV, "x", ("emp", "theory"), **kwargs) == line_plot(
            CSV, "x", ("emp", "theory"), **kwargs
        )

    def test_one_polyline_per_y_column(self):
        svg = line_plot(CSV, "x", ("emp", "theory"))
        lines = _polylines(svg)
        assert len(lines) == 2
        # Blank theory cell at x=1 drops that point only.
        assert len(lines[0].get("points").split()) == 3
        assert len(lines[1].get("points").split()) == 2

    def test_pixel_coordinates_match_margin_arithmetic(self):
        # Unit-square data, default 720x440 canvas: x spans the 636 px plot
        # width, y gets a 5% pad on both ends of the 354 px plot height.
        svg = line_plot("x,y\n0,0\n1,1\n", "x", "y")
        (line,) = _polylines(svg)
        x0, x1 = 68.0, 68.0 + 636.0
        y0 = 34.0 + (1.05 / 1.1) * 354.0
        y1 = 34.0 + (0.05 / 1.1) * 354.0
        assert line.get("points") == f"{x0:.2f},{y0:.2f} {x1:.2f},{y1:.2f}"

    def test_group_column_splits_series_in_first_seen_order(self):
        text = "x,v,tag\n0,1,b\n0,2,a\n1,3,b\n1,4,a\n"
        svg = line_plot(text, "x", "v", group="tag")
        assert len(_polylines(svg)) == 2
        labels = [t for t in _texts(svg) if t in ("a", "b")]
        assert labels == ["b", "a"]

    def test_palette_cycles_in_series_order(self):
        svg = line_plot(CSV, "x", ("emp", "theory"))
        assert [ln.get("stroke") for ln in _polylines(svg)] == list(PALETTE[:2])

    def test_dashed_applies_to_named_series_only(self):
        svg = line_plot(CSV, "x", ("emp", "theory"), dashed=("theory",))
        emp, theory = _polylines(svg)
        assert emp.get("stroke-dasharray") is None
        assert theory.get("stroke-dasharray") == "6,4"

    def test_title_and_labels_escaped(self):
        svg = line_plot(CSV, "x", "emp", title="a<b & c", x_label="r>0", y_label="p&q")
        texts = _texts(svg)
        assert "a<b & c" in texts and "r>0" in texts and "p&q" in texts
        ET.fromstring(svg)

    def test_axis_labels_default_to_column_names(self):
        texts = _texts(line_plot(CSV, "x", ("emp", "theory")))
        assert "x" in texts
        assert "emp, theory" in texts

    def test_no_negative_zero_tick(self):
        svg = line_plot("x,y\n-1,-1\n1,1\n", "x", "y")
        assert "-0" not in _texts(svg)
        assert "0" in _texts(svg)

    def test_log_x_decade_ticks(self):
        text = "x,y\n1,0\n10,1\n100,2\n1000,3\n"
        texts = _texts(line_plot(text, "x", "y", log_x=True))
        for label in ("1e0", "1e1", "1e2", "1e3"):
            assert label in texts

    def test_log_x_drops_nonpositive_points(self):
        svg = line_plot("x,y\n-1,5\n0,6\n1,0\n10,1\n", "x", "y", log_x=True)
        (line,) = _polylines(svg)
        assert len(line.get("points").split()) == 2

    def test_single_point_still_renders(self):
        svg = line_plot("x,y\n2,3\n", "x", "y")
        assert len(_polylines(svg)) == 1

    def test_non_numeric_cells_leave_gaps(self):
        svg = line_plot("x,y\n0,1\n1,oops\n2,3\n", "x", "y")
        (line,) = _polylines(svg)
        assert len(line.get("points").split()) == 2

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"x": "missing", "y": "emp"}, "not in CSV header"),
            ({"x": "x", "y": "missing"}, "not in CSV header"),
            ({"x": "x", "y": ("emp", "theory"), "group": "x"}, "not both"),
        ],
    )
    def test_bad_column_selection(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            line_plot(CSV, **kwargs)

    def test_all_cells_non_finite_raises(self):
        with pytest.raises(ValueError, match="no finite data"):
            line_plot("x,y\n0,nan\n1,inf\n", "x", "y")

    def test_log_x_without_positive_values_raises(self):
        with pytest.raises(ValueError, match="positive x"):
            line_plot("x,y\n-2,0\n-1,1\n", "x", "y", log_x=True)


@pytest.mark.parametrize("value", [0.05, 1.0, 2.5, 123.4])
def test_ticks_cover_span_with_nice_steps(value):
    # Ticks land on 1/2/5 x 10^n multiples inside the padded y range.
    svg = line_plot(f"x,y\n0,0\n1,{value}\n", "x", "y")
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


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True
