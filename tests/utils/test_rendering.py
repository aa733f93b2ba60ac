"""Tests for ASCII tables and plots."""

import numpy as np
import pytest

from repro.utils.asciiplot import Series, scatter_plot, step_plot
from repro.utils.tables import format_table


class TestFormatTable:
    def test_alignment_and_content(self):
        out = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = out.splitlines()
        assert "name" in lines[1]
        assert "1.50" in out
        assert "22.25" in out  # honoring .2f (trailing 5 kept)

    def test_title(self):
        out = format_table(["h"], [["x"]], title="Table IV")
        assert out.startswith("Table IV")

    def test_none_renders_dash(self):
        out = format_table(["a"], [[None]])
        assert " - " in out

    def test_bool_renders_yes_no(self):
        out = format_table(["a", "b"], [[True, False]])
        assert "yes" in out and "no" in out

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])


class TestScatterPlot:
    def test_renders_points(self):
        out = scatter_plot([1.0, 2.0, 3.0], [1.0, 4.0, 9.0], width=20, height=8)
        assert out.count("o") >= 3

    def test_title_and_labels(self):
        out = scatter_plot([1.0], [1.0], title="Fig 1", xlabel="wm", ylabel="sb")
        assert "Fig 1" in out
        assert "wm" in out and "sb" in out

    def test_log_axes(self):
        out = scatter_plot([0.1, 1.0, 10.0], [0.1, 1.0, 10.0], logx=True, logy=True)
        assert "o" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            scatter_plot([], [])

    def test_mismatched_rejected(self):
        with pytest.raises(ValueError):
            scatter_plot([1.0, 2.0], [1.0])

    def test_constant_data_ok(self):
        out = scatter_plot([1.0, 1.0], [2.0, 2.0])
        assert "o" in out


class TestStepPlot:
    def test_legend_lists_series(self):
        s1 = Series("RS", [1.0, 10.0], [5.0, 4.0], marker="r")
        s2 = Series("RSb", [1.0, 5.0], [5.0, 3.0], marker="b")
        out = step_plot([s1, s2], width=30, height=10)
        assert "r RS" in out and "b RSb" in out

    def test_empty_series_list_rejected(self):
        with pytest.raises(ValueError):
            step_plot([])

    def test_monotone_series_draws_steps(self):
        times = np.linspace(1, 100, 10)
        best = np.linspace(5, 1, 10)
        out = step_plot([Series("RS", times, best, marker="*")])
        assert out.count("*") > 10  # horizontal runs drawn, not just points
