"""Tests for the placement cost model."""

import pytest

from repro.placement.cost import PlacementCostModel
from repro.placement.mapping import Mapping
from repro.thermal.hotspot import HotSpotModel


@pytest.fixture
def skewed_powers():
    """One very hot task, the rest cool."""
    powers = {task: 1.0 for task in range(16)}
    powers[0] = 6.0
    return powers


@pytest.fixture
def cost_model(mesh4, thermal4, skewed_powers):
    return PlacementCostModel(
        topology=mesh4,
        per_task_power=skewed_powers,
        thermal_model=thermal4,
    )


class TestValidation:
    def test_requires_full_task_coverage(self, mesh4, thermal4):
        with pytest.raises(ValueError):
            PlacementCostModel(
                topology=mesh4,
                per_task_power={0: 1.0},
                thermal_model=thermal4,
            )

    def test_rejects_negative_power(self, mesh4, thermal4):
        powers = {task: 1.0 for task in range(16)}
        powers[3] = -2.0
        with pytest.raises(ValueError):
            PlacementCostModel(topology=mesh4, per_task_power=powers, thermal_model=thermal4)


class TestCosts:
    def test_power_map_follows_mapping(self, cost_model, mesh4):
        mapping = Mapping.identity(mesh4)
        power = cost_model.power_vector(mapping)
        assert power[mesh4.node_id((0, 0))] == 6.0
        swapped = Mapping.from_permutation(mesh4, [1, 0] + list(range(2, 16)))
        assert cost_model.power_vector(swapped)[mesh4.node_id((1, 0))] == 6.0

    def test_peak_temperature_positive(self, cost_model, mesh4):
        assert cost_model.peak_temperature(Mapping.identity(mesh4)) > 40.0

    def test_corner_hot_task_is_hotter_than_center(self, cost_model, mesh4):
        """A hot task in the mesh corner has less silicon to spread into than
        the same task in the centre, so the corner placement runs hotter."""
        identity = Mapping.identity(mesh4)  # task 0 at corner (0, 0)
        permutation = list(range(16))
        center_id = mesh4.node_id((1, 1))
        permutation[0], permutation[center_id] = permutation[center_id], permutation[0]
        center = Mapping.from_permutation(mesh4, permutation)
        assert cost_model.peak_temperature(identity) > cost_model.peak_temperature(center)

    def test_communication_cost_zero_without_workload(self, cost_model, mesh4):
        assert cost_model.communication_cost(Mapping.identity(mesh4)) == 0.0

    def test_combined_cost_reduces_to_thermal(self, cost_model, mesh4):
        mapping = Mapping.identity(mesh4)
        assert cost_model.combined_cost(mapping) == pytest.approx(
            cost_model.peak_temperature(mapping)
        )

    def test_communication_cost_with_workload(self, mesh4, thermal4, small_workload):
        powers = {task: 1.0 for task in range(16)}
        model = PlacementCostModel(
            topology=mesh4,
            per_task_power=powers,
            thermal_model=thermal4,
            workload=small_workload,
        )
        mapping = Mapping.identity(mesh4)
        assert model.communication_cost(mapping) > 0
        assert model.combined_cost(mapping, comm_weight=0.01) > model.peak_temperature(mapping)

    def test_workload_adds_communication_power(self, mesh4, thermal4, small_workload):
        powers = {task: 1.0 for task in range(16)}
        bare = PlacementCostModel(
            topology=mesh4, per_task_power=powers, thermal_model=thermal4
        )
        with_comm = PlacementCostModel(
            topology=mesh4,
            per_task_power=powers,
            thermal_model=thermal4,
            workload=small_workload,
        )
        mapping = Mapping.identity(mesh4)
        assert with_comm.power_vector(mapping).sum() > bare.power_vector(mapping).sum()
