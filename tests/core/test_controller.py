"""Tests for the runtime reconfiguration controller."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.chips import get_configuration
from repro.core.controller import RuntimeReconfigurationController
from repro.migration.transforms import (
    FIGURE1_SCHEMES,
    RotationTransform,
    XYShiftTransform,
    make_transform,
)
from repro.migration.unit import MigrationUnit

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import migration_oracle  # noqa: E402


@pytest.fixture
def controller_a(chip_a):
    return RuntimeReconfigurationController(chip_a)


class TestMigrationApplication:
    def test_starts_at_static_mapping(self, controller_a, chip_a):
        assert (
            controller_a.current_permutation.tolist()
            == chip_a.static_mapping.to_permutation()
        )

    def test_apply_migration_updates_mapping(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        controller_a.apply_migration(transform)
        expected = chip_a.static_mapping.apply_transform(transform)
        assert controller_a.current_permutation.tolist() == expected.to_permutation()
        assert controller_a.migrations_performed == 1

    def test_migration_history_accumulates(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        for _ in range(3):
            controller_a.apply_migration(transform)
        assert controller_a.migrations_performed == 3
        assert controller_a.total_migration_cycles > 0
        assert controller_a.total_migration_energy_j > 0

    def test_io_translator_tracks_migrations(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        controller_a.apply_migration(transform)
        assert controller_a.io_translator.migrations_applied == 1
        assert controller_a.io_translator.current_location((0, 0)) == transform((0, 0))

    def test_event_records_moved_tasks(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        controller_a.apply_migration(transform)
        assert controller_a.events[0].moved_tasks == chip_a.num_units

    def test_rotation_on_odd_mesh_leaves_one_task(self, chip_e):
        controller = RuntimeReconfigurationController(chip_e)
        controller.apply_migration(RotationTransform(chip_e.topology))
        assert controller.events[0].moved_tasks == chip_e.num_units - 1

    def test_reset(self, controller_a, chip_a):
        controller_a.apply_migration(XYShiftTransform(chip_a.topology))
        controller_a.reset()
        assert (
            controller_a.current_permutation.tolist()
            == chip_a.static_mapping.to_permutation()
        )
        assert controller_a.migrations_performed == 0
        assert controller_a.io_translator.migrations_applied == 0


class TestMigrationCostCache:
    def test_orbit_computes_each_mapping_once(self, controller_a, chip_a):
        """A periodic transform revisits its orbit: one computation per step.

        xy-shift on the 4x4 mesh has order 4, so 12 applications see only 4
        distinct (transform, mapping) pairs — the rest are cache hits.
        """
        transform = XYShiftTransform(chip_a.topology)
        for _ in range(12):
            controller_a.apply_migration(transform)
        assert controller_a.migration_cost_computations == 4
        assert controller_a.migration_cache_hits == 8
        assert controller_a.migrations_performed == 12

    def test_periodic_experiment_engages_the_cache(self, chip_a):
        """41 epochs of xy-shift (order 4 on the 4x4 mesh): 40 migrations
        from 4 computed plans."""
        from repro.core.experiment import ExperimentSettings, ThermalExperiment
        from repro.core.policy import PeriodicMigrationPolicy

        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(num_epochs=41, mode="steady", settle_epochs=40)
        experiment = ThermalExperiment(chip_a, policy, settings=settings)
        experiment.run()
        controller = experiment.controller
        assert controller.migrations_performed == 40
        assert controller.migration_cost_computations <= 4
        assert controller.migration_cache_hits >= 36

    def test_cache_survives_reset(self, controller_a, chip_a):
        """Costs are pure functions of (transform, mapping): reuse across runs."""
        transform = XYShiftTransform(chip_a.topology)
        for _ in range(4):
            controller_a.apply_migration(transform)
        computed = controller_a.migration_cost_computations
        controller_a.reset()
        for _ in range(4):
            controller_a.apply_migration(transform)
        assert controller_a.migration_cost_computations == computed

    @pytest.mark.parametrize("chip", ["A", "E"])
    @pytest.mark.parametrize("scheme", FIGURE1_SCHEMES)
    def test_cached_stage_costs_match_fresh_migration_cost(self, chip, scheme):
        """Oracle: every served stage cost along an orbit — lowered on the
        first lap, cached on the next two — equals the coordinate-walking
        reference cost at the mapping it was applied to."""
        configuration = get_configuration(chip)
        controller = RuntimeReconfigurationController(configuration)
        unit = MigrationUnit(configuration.topology, library=configuration.library)
        transform = make_transform(scheme, configuration.topology)
        laps = 3
        for _ in range(laps * transform.order()):
            nodes_per_pe = migration_oracle.tanner_nodes_per_pe(
                configuration, controller.current_permutation
            )
            cost = controller.apply_migration(transform)
            (fresh,) = migration_oracle.lower(unit, transform, nodes_per_pe)
            assert cost.cycles == fresh.cycles
            assert cost.total_energy_j == fresh.energy_j
            assert np.array_equal(
                cost.energy_vector,
                migration_oracle.energy_vector(
                    configuration.topology, fresh.energy_per_unit_j
                ),
            )
            assert unit.migration_cost(transform, nodes_per_pe).energy_j == fresh.energy_j
        assert controller.migration_cost_computations == transform.order()
        assert controller.migration_cache_hits == (laps - 1) * transform.order()

    def test_distinct_transforms_not_conflated(self, controller_a, chip_a):
        """Two transforms from the same mapping must cache separately."""
        shift = XYShiftTransform(chip_a.topology)
        rotation = RotationTransform(chip_a.topology)
        cost_shift = controller_a.apply_migration(shift)
        controller_a.reset()
        cost_rotation = controller_a.apply_migration(rotation)
        assert controller_a.migration_cost_computations == 2
        assert cost_shift.cycles != cost_rotation.cycles or (
            cost_shift.total_energy_j != cost_rotation.total_energy_j
        )


class TestEnergyAccounting:
    def test_energy_disabled_when_requested(self, chip_a):
        controller = RuntimeReconfigurationController(chip_a, include_migration_energy=False)
        controller.apply_migration(XYShiftTransform(chip_a.topology))
        assert controller.total_migration_energy_j == 0.0

    def test_epoch_power_map_adds_migration_energy(self, controller_a, chip_a):
        transform = XYShiftTransform(chip_a.topology)
        cost = controller_a.apply_migration(transform)
        period_s = 109e-6
        with_energy = controller_a.epoch_power_vector(period_s, cost)
        without_energy = controller_a.epoch_power_vector(period_s, None)
        assert with_energy.sum() > without_energy.sum()
        extra = with_energy.sum() - without_energy.sum()
        assert extra == pytest.approx(cost.total_energy_j / period_s, rel=1e-6)

    def test_epoch_power_map_moves_with_tasks(self, controller_a, chip_a):
        topology = chip_a.topology
        static_power = controller_a.epoch_power_vector(109e-6)
        transform = XYShiftTransform(topology)
        controller_a.apply_migration(transform)
        migrated_power = controller_a.epoch_power_vector(109e-6)
        # The hottest unit's power moved to its transformed location.
        hottest = topology.coordinate(int(np.argmax(static_power)))
        moved_to = topology.node_id(transform(hottest))
        assert migrated_power[moved_to] >= static_power.max() - 1e-9

    def test_epoch_power_requires_positive_period(self, controller_a):
        with pytest.raises(ValueError):
            controller_a.epoch_power_vector(0.0)

    def test_static_power_map_matches_configuration(self, controller_a, chip_a):
        assert np.array_equal(controller_a.static_power_vector(), chip_a.power_vector())
