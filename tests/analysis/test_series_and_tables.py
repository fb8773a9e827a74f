"""Analysis helper tests."""

import pytest

from repro.analysis.series import is_decreasing, is_increasing, rises_then_falls
from repro.analysis.tables import format_series_table, format_table


class TestSeriesPredicates:
    def test_increasing(self):
        assert is_increasing([1, 2, 3])
        assert is_increasing([1, 1, 2])
        assert not is_increasing([1, 3, 2])

    def test_increasing_with_tolerance(self):
        assert is_increasing([100, 98, 150], tolerance=0.05)
        assert not is_increasing([100, 80, 150], tolerance=0.05)

    def test_decreasing(self):
        assert is_decreasing([3, 2, 1])
        assert not is_decreasing([1, 2])
        assert is_decreasing([100, 102, 50], tolerance=0.05)

    def test_rises_then_falls(self):
        assert rises_then_falls([1, 5, 9, 6, 2])
        assert not rises_then_falls([1, 2, 3])  # peak at the edge
        assert not rises_then_falls([3, 2, 1])
        assert not rises_then_falls([1, 2])  # too short

    def test_rises_then_falls_with_noise(self):
        assert rises_then_falls([10, 30, 29, 50, 20, 5], tolerance=0.1)


class TestTables:
    def test_format_table_aligns(self):
        rows = [{"a": 1, "b": 22.5}, {"a": 333, "b": 0.001}]
        text = format_table(rows, ["a", "b"], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5  # title + header + rule + 2 rows

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], ["x"])

    def test_missing_column_blank(self):
        text = format_table([{"a": 1}], ["a", "b"])
        assert text  # renders without KeyError

    def test_format_series_table(self):
        text = format_series_table("µ", [1, 2], {"load": [10, 20], "ratio": [0.5, 0.25]})
        assert "µ" in text and "load" in text and "ratio" in text
        assert "10" in text and "0.2500" in text

    def test_large_numbers_comma_separated(self):
        text = format_table([{"n": 1234567.0}], ["n"])
        assert "1,234,567" in text
