"""Tests for the ASCII map rendering helpers."""

import numpy as np
import pytest

from repro.analysis.thermal_map import difference_map, render_grid, render_heat_bar, to_csv


@pytest.fixture
def values4(mesh4):
    """Row-major per-PE values ``x + 10 y``."""
    return np.array([float(x + 10 * y) for x, y in mesh4.coordinates()])


class TestRenderGrid:
    def test_contains_all_values(self, mesh4, values4):
        text = render_grid(mesh4, values4, title="test", unit="C")
        assert "test (C)" in text
        assert "33.00" in text  # value at (3, 3)

    def test_row_order_top_down(self, mesh4, values4):
        text = render_grid(mesh4, values4)
        lines = text.splitlines()
        # First printed row is y = 3 (values 30..33), last is y = 0.
        assert lines[0].split() == ["30.00", "31.00", "32.00", "33.00"]
        assert lines[-1].split() == ["0.00", "1.00", "2.00", "3.00"]

    def test_missing_value_rejected(self, mesh4, values4):
        with pytest.raises(ValueError, match="one per PE"):
            render_grid(mesh4, values4[:-1])


class TestHeatBar:
    def test_one_character_per_pe(self, mesh4, values4):
        art = render_heat_bar(mesh4, values4)
        lines = art.splitlines()
        assert len(lines) == 4
        assert all(len(line) == 4 for line in lines)

    def test_hottest_uses_densest_character(self, mesh4, values4):
        levels = " .:-=+*#%@"
        art = render_heat_bar(mesh4, values4, levels=levels)
        assert "@" in art.splitlines()[0]  # hottest row printed first

    def test_flat_map_does_not_crash(self, mesh4):
        art = render_heat_bar(mesh4, np.ones(mesh4.num_nodes))
        assert len(art.splitlines()) == 4


class TestCsvAndDifference:
    def test_csv_row_count(self, mesh4, values4):
        csv_text = to_csv(mesh4, values4, value_name="temp")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "x,y,temp"
        assert len(lines) == 1 + 16
        assert lines[1 + mesh4.node_id((2, 1))] == "2,1,12.0"

    def test_difference_map(self, mesh4, values4):
        diff = difference_map(2 * values4, values4)
        assert np.array_equal(diff, values4)

    def test_difference_map_mismatched_keys(self, values4):
        with pytest.raises(ValueError):
            difference_map(values4, values4[1:])
