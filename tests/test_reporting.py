"""Unit tests for tables and ASCII charts."""

import numpy as np
import pytest

from repro.reporting import format_float, render_table, scatter_chart
from repro.utils.errors import ValidationError


class TestFormatFloat:
    def test_compact(self):
        assert format_float(0.123456) == "0.1235"
        assert format_float(1234567.0) == "1.235e+06"

    def test_specials(self):
        assert format_float(float("nan")) == "nan"
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"


class TestTable:
    def test_alignment(self):
        text = render_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(set(len(l) for l in lines[:2])) == 1  # header/rule aligned

    def test_title(self):
        text = render_table(["x"], [[1.0]], title="Table 1")
        assert text.splitlines()[0] == "Table 1"

    def test_row_width_mismatch(self):
        with pytest.raises(ValidationError):
            render_table(["a", "b"], [[1.0]])

    def test_empty_headers_rejected(self):
        with pytest.raises(ValidationError):
            render_table([], [])

    def test_no_rows_ok(self):
        text = render_table(["a"], [])
        assert "a" in text


class TestCharts:
    def test_single_series_contains_markers(self):
        xs = np.linspace(1, 10, 20)
        text = scatter_chart({"y": (xs, xs**2)}, width=40, height=10)
        assert "o" in text
        assert "+" + "-" * 40 in text

    def test_logx(self):
        xs = np.geomspace(1, 1e6, 30)
        text = scatter_chart(
            {"y": (xs, np.log(xs))}, logx=True, width=40, height=8
        )
        assert "1e+06" in text

    def test_multiple_series_get_legend(self):
        data = {
            "rise": ([1, 2, 3], [1, 2, 3]),
            "fall": ([1, 2, 3], [3, 2, 1]),
        }
        text = scatter_chart(data, width=30, height=8)
        assert "o=rise" in text
        assert "x=fall" in text

    def test_non_finite_points_dropped(self):
        text = scatter_chart(
            {"y": ([1, 2, 3], [1, float("nan"), 3])}, width=20, height=5
        )
        assert isinstance(text, str)

    def test_all_bad_points_rejected(self):
        with pytest.raises(ValidationError):
            scatter_chart({"y": ([1], [float("nan")])}, width=10, height=5)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            scatter_chart({})
