"""Tests for the ASCII plot renderers."""

import numpy as np
import pytest

from repro.util.stats import EmpiricalCDF
from repro.util.textplot import render_bars, render_cdf


class TestRenderCdf:
    def _cdfs(self):
        rng = np.random.default_rng(0)
        return {
            "low": EmpiricalCDF(rng.normal(0.0, 1.0, 200).tolist()),
            "high": EmpiricalCDF(rng.normal(5.0, 1.0, 200).tolist()),
        }

    def test_contains_title_and_legend(self):
        chart = render_cdf(self._cdfs(), title="demo")
        assert chart.startswith("demo")
        assert "o low" in chart
        assert "x high" in chart

    def test_fixed_width(self):
        chart = render_cdf(self._cdfs(), width=40, height=8)
        body_lines = [l for l in chart.splitlines() if "|" in l]
        assert len(body_lines) == 8
        assert all(len(l) <= 40 + 7 for l in body_lines)

    def test_separated_series_occupy_different_columns(self):
        chart = render_cdf(self._cdfs(), width=60, height=10)
        # The 0.5-probability row should show 'o' left of 'x'.
        mid_rows = [l for l in chart.splitlines() if "|" in l]
        middle = mid_rows[len(mid_rows) // 2]
        assert "o" in middle and "x" in middle
        assert middle.index("o") < middle.index("x")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_cdf({})
        with pytest.raises(ValueError):
            render_cdf({"a": EmpiricalCDF([])})

    def test_degenerate_range_handled(self):
        chart = render_cdf({"flat": EmpiricalCDF([3.0, 3.0, 3.0])})
        assert "flat" in chart


class TestRenderBars:
    def test_proportional_lengths(self):
        chart = render_bars({"a": 10.0, "b": 20.0}, width=20)
        line_a = next(l for l in chart.splitlines() if l.startswith("a"))
        line_b = next(l for l in chart.splitlines() if l.startswith("b"))
        assert line_b.count("#") > line_a.count("#")

    def test_unit_suffix(self):
        chart = render_bars({"x": 5.0}, unit=" Mbps")
        assert "5.0 Mbps" in chart

    def test_zero_value(self):
        chart = render_bars({"zero": 0.0, "one": 1.0})
        assert "zero" in chart
