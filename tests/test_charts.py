"""Tests for the ASCII chart renderers."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import bar_chart, log_curve, step_curve


class TestBarChart:
    def test_scales_to_peak(self):
        text = bar_chart({"a": 10, "b": 5}, width=10)
        lines = text.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_labels_aligned(self):
        text = bar_chart({"long-label": 1, "x": 2})
        lines = text.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bar_chart({"a": -1})

    def test_all_zero_ok(self):
        text = bar_chart({"a": 0, "b": 0})
        assert "0" in text

    def test_unit_suffix(self):
        assert "7ms" in bar_chart({"a": 7}, unit="ms")


class TestLogCurve:
    def test_geometric_series_is_linear_staircase(self):
        series = {f"r{k}": 2.0 ** (8 - k) for k in range(8)}
        lines = log_curve(series, width=35).splitlines()
        lengths = [line.count("█") for line in lines]
        steps = [a - b for a, b in zip(lengths, lengths[1:])]
        # Uniform decrements up to integer/float-log quantisation (±2 chars).
        assert max(steps) - min(steps) <= 2
        assert all(step > 0 for step in steps)

    def test_zero_values_marked_exact(self):
        text = log_curve({"a": 1.0, "b": 0})
        assert "0 (exact)" in text

    def test_all_zero(self):
        text = log_curve({"a": 0, "b": 0})
        assert text.count("0 (exact)") == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_curve({})

    @given(
        values=st.lists(
            st.floats(min_value=1e-9, max_value=1e9), min_size=1, max_size=10
        )
    )
    def test_never_crashes_on_positive_floats(self, values):
        series = {f"k{i}": v for i, v in enumerate(values)}
        text = log_curve(series)
        assert len(text.splitlines()) == len(values)


class TestStepCurve:
    def test_marker_positions_span(self):
        text = step_curve({"lo": 0.0, "hi": 1.0}, width=20, lo=0.0, hi=1.0)
        lines = text.splitlines()
        assert lines[0].index("o") < lines[1].index("o")

    def test_pinned_scale(self):
        text = step_curve({"a": 0.5}, width=21, lo=0.0, hi=1.0)
        # Marker at the middle column of the plotting area.
        plot = text.split("|")[1]
        assert plot[len(plot) // 2] == "o"

    def test_flat_series_ok(self):
        text = step_curve({"a": 3, "b": 3})
        assert text.count("o") == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            step_curve({})

