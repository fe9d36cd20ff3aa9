"""Tests for the Figure 1 report generator."""

import pytest

from repro.analysis.report import (
    Figure1Report,
    generate_figure1,
    run_figure1_cell,
    table1_rows,
)
from repro.chips import get_configuration
from repro.core.experiment import ExperimentSettings


FAST = ExperimentSettings(num_epochs=21, mode="steady", settle_epochs=20)


@pytest.fixture(scope="module")
def small_report():
    """Figure 1 restricted to configurations A and E and two schemes."""
    configurations = [get_configuration("A"), get_configuration("E")]
    return generate_figure1(
        configurations=configurations,
        schemes=("rotation", "xy-shift"),
        period_us=109.0,
        settings=FAST,
    )


class TestFigure1Report:
    def test_cell_count(self, small_report):
        assert len(small_report.cells) == 4

    def test_lookup(self, small_report):
        value = small_report.reduction("A", "xy-shift")
        assert isinstance(value, float)
        with pytest.raises(KeyError):
            small_report.reduction("Z", "xy-shift")

    def test_schemes_and_configurations_ordered(self, small_report):
        assert small_report.schemes() == ["rotation", "xy-shift"]
        assert small_report.configurations() == ["A", "E"]

    def test_average_reduction(self, small_report):
        avg = small_report.average_reduction("xy-shift")
        values = [c.reduction_celsius for c in small_report.cells if c.scheme == "xy-shift"]
        assert avg == pytest.approx(sum(values) / len(values))
        with pytest.raises(KeyError):
            small_report.average_reduction("warp")

    def test_best_scheme_is_xy_shift(self, small_report):
        """The paper's headline: X-Y shift has the highest average reduction."""
        assert small_report.best_scheme() == "xy-shift"

    def test_rows_and_table_formatting(self, small_report):
        rows = small_report.to_rows()
        assert len(rows) == 4
        assert {"configuration", "scheme", "reduction_c"} <= set(rows[0])
        table = small_report.format_table()
        assert "xy-shift" in table
        assert "A(85.44)" in table

    def test_baseline_peaks_match_paper(self, small_report):
        assert small_report._baseline("A") == pytest.approx(85.44, abs=0.01)
        assert small_report._baseline("E") == pytest.approx(75.98, abs=0.01)


class TestSingleCell:
    def test_run_figure1_cell(self, chip_a):
        result = run_figure1_cell(chip_a, "xy-shift", period_us=109.0, settings=FAST)
        assert result.configuration_name == "A"
        assert result.scheme_name == "periodic-xy-shift"
        assert result.peak_reduction_celsius > 0


class TestTable1:
    def test_rows_match_paper(self):
        rows = table1_rows(mesh_size=4)
        by_operation = {row["operation"]: row for row in rows}
        assert by_operation["Rotation"] == {
            "operation": "Rotation",
            "new_x": "4-1-Y",
            "new_y": "X",
        }
        assert by_operation["Rotation"]["new_x"] == "4-1-Y"
        assert by_operation["Rotation"]["new_y"] == "X"
        assert by_operation["X Mirroring"]["new_x"] == "4-1-X"
        assert by_operation["X Mirroring"]["new_y"] == "Y"
        assert by_operation["X Translation"]["new_x"] == "X + Offset"
        assert by_operation["X Translation"]["new_y"] == "Y"
