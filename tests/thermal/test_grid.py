"""Tests for the grid-mode (refined) thermal model."""

import numpy as np
import pytest

from repro.thermal.floorplan import mesh_floorplan
from repro.thermal.grid import GridThermalModel, parent_block_name, refine_floorplan
from repro.thermal.hotspot import HotSpotModel


class TestRefineFloorplan:
    def test_cell_count(self, mesh4):
        plan = mesh_floorplan(mesh4)
        refined = refine_floorplan(plan, resolution=3)
        assert len(refined) == 16 * 9

    def test_resolution_one_is_identity(self, mesh4):
        plan = mesh_floorplan(mesh4)
        refined = refine_floorplan(plan, resolution=1)
        assert refined.names() == plan.names()

    def test_total_area_preserved(self, mesh4):
        plan = mesh_floorplan(mesh4)
        refined = refine_floorplan(plan, resolution=4)
        assert refined.total_area == pytest.approx(plan.total_area, rel=1e-9)

    def test_cells_do_not_overlap(self, mesh5):
        refined = refine_floorplan(mesh_floorplan(mesh5), resolution=2)
        refined.validate_no_overlap()

    def test_parent_names_recoverable(self, mesh4):
        refined = refine_floorplan(mesh_floorplan(mesh4), resolution=2)
        parents = {parent_block_name(cell.name) for cell in refined}
        assert parents == set(mesh_floorplan(mesh4).names())

    def test_rejects_bad_resolution(self, mesh4):
        with pytest.raises(ValueError):
            refine_floorplan(mesh_floorplan(mesh4), resolution=0)


class TestGridThermalModel:
    @pytest.fixture(scope="class")
    def grid3(self):
        from repro.noc.topology import MeshTopology

        return GridThermalModel(MeshTopology(4, 4), resolution=3)

    def test_num_cells(self, grid3):
        assert grid3.num_cells == 16 * 9

    def test_uniform_power_nearly_uniform_temperature(self, grid3, mesh4):
        power = np.full((1, mesh4.num_nodes), 2.0)
        peaks = grid3.steady_temperatures(power, statistic="peak")
        means = grid3.steady_temperatures(power, statistic="mean")
        assert peaks.max() - means.min() < 2.0

    def test_hotspot_block_is_hottest(self, grid3, mesh4):
        power = np.ones(mesh4.num_nodes)
        power[mesh4.node_id((2, 1))] = 6.0
        peaks = grid3.steady_temperatures(power[np.newaxis, :])[0]
        assert mesh4.coordinate(int(np.argmax(peaks))) == (2, 1)

    def test_peak_at_least_block_mean(self, grid3, mesh4):
        power = np.ones((1, mesh4.num_nodes))
        power[0, mesh4.node_id((1, 1))] = 5.0
        peaks = grid3.steady_temperatures(power, statistic="peak")
        means = grid3.steady_temperatures(power, statistic="mean")
        assert np.all(peaks >= means - 1e-9)

    def test_close_to_block_model(self, mesh4):
        """The grid model's block means track the block model's temperatures
        (same physics, finer discretisation)."""
        power = np.full((1, mesh4.num_nodes), 1.5)
        power[0, mesh4.node_id((3, 2))] = 4.0
        block_temps = HotSpotModel(mesh4).steady_temperatures(power)
        grid_means = GridThermalModel(mesh4, resolution=2).steady_temperatures(
            power, statistic="mean"
        )
        np.testing.assert_allclose(grid_means, block_temps, rtol=0, atol=2.5)

    def test_grid_reveals_intra_block_gradient(self, mesh4):
        """A hot unit next to cool neighbours shows an internal gradient: its
        peak cell is hotter than its mean."""
        grid_model = GridThermalModel(mesh4, resolution=3)
        power = np.full((1, mesh4.num_nodes), 0.5)
        hot = mesh4.node_id((1, 2))
        power[0, hot] = 6.0
        peaks = grid_model.steady_temperatures(power, statistic="peak")[0]
        means = grid_model.steady_temperatures(power, statistic="mean")[0]
        assert peaks[hot] > means[hot] + 0.05

    def test_by_coord_statistics(self, mesh4):
        grid_model = GridThermalModel(mesh4, resolution=2)
        power = np.full((1, mesh4.num_nodes), 2.0)
        peaks = grid_model.steady_temperatures(power, statistic="peak")
        means = grid_model.steady_temperatures(power, statistic="mean")
        assert peaks.shape == means.shape == (1, mesh4.num_nodes)
        assert np.all(peaks >= means - 1e-9)

    def test_input_validation(self, mesh4):
        grid_model = GridThermalModel(mesh4, resolution=2)
        with pytest.raises(ValueError, match="units per row"):
            grid_model.steady_temperatures(np.ones((1, 25)))
        negative = np.ones((1, mesh4.num_nodes))
        negative[0, 0] = -1.0
        with pytest.raises(ValueError, match="negative"):
            grid_model.steady_temperatures(negative)
        with pytest.raises(ValueError):
            GridThermalModel(mesh4, resolution=0)
