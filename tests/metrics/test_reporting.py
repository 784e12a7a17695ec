"""Tests for report rendering."""

from repro.metrics.reporting import format_table, sparkline


class TestFormatTable:
    def test_contains_headers_and_rows(self):
        text = format_table(["round", "median"], [("LOGIN1", 0.1), ("JOIN", 0.2)])
        assert "round" in text
        assert "LOGIN1" in text
        assert "0.2" in text

    def test_alignment(self):
        text = format_table(["a", "b"], [("xxxxxx", 1), ("y", 22)])
        lines = text.splitlines()
        assert len({line.index("  ") for line in lines if "  " in line}) >= 1
        assert len(lines) == 4  # header, rule, two rows

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_length_bounded(self):
        assert len(sparkline(list(range(1000)), width=60)) <= 70

    def test_flat_series(self):
        line = sparkline([5.0] * 10)
        assert len(set(line)) == 1

    def test_peak_visible(self):
        line = sparkline([0.0, 0.0, 10.0, 0.0])
        assert line[2] != line[0]
