"""Tests for congestion-free migration scheduling."""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.migration.plan import schedule_moves
from repro.migration.scheduler import MigrationScheduler
from repro.migration.state_transfer import StateTransferModel
from repro.migration.transforms import (
    RightShiftTransform,
    RotationTransform,
    XYShiftTransform,
    make_transform,
)
from repro.migration.unit import MigrationUnit
from repro.noc.routing import XYRouting

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from migration_oracle import tanner_nodes_per_pe  # noqa: E402


@pytest.fixture
def scheduler4(mesh4):
    return MigrationScheduler(mesh4)


@pytest.fixture
def scheduler5(mesh5):
    return MigrationScheduler(mesh5)


def _moves(topology, transform, nodes=None):
    """The sudden plan's one stage: every node's move, in node-id order."""
    return MigrationUnit(topology).migration_cost(transform, nodes)


def _hops(topology, source, destination):
    return topology.manhattan_distance(
        topology.coordinate(source), topology.coordinate(destination)
    )


class TestMoves:
    def test_one_move_per_pe(self, scheduler4, mesh4):
        stage = _moves(mesh4, XYShiftTransform(mesh4))
        assert stage.sources.tolist() == list(range(16))
        assert sorted(stage.destinations.tolist()) == list(range(16))

    def test_fixed_point_is_local_move(self, scheduler5, mesh5):
        stage = _moves(mesh5, RotationTransform(mesh5))
        local = stage.sources[stage.sources == stage.destinations]
        assert local.tolist() == [mesh5.node_id((2, 2))]

    def test_state_sizing_included(self, scheduler4, mesh4):
        nodes = {coord: 10 for coord in mesh4.coordinates()}
        flits = scheduler4.payload_flits(nodes)
        plain = scheduler4.payload_flits()
        assert flits[0] > 0
        assert (flits >= plain).all()
        assert flits[0] == StateTransferModel().payload_flits(10)


class TestScheduleCorrectness:
    @pytest.mark.parametrize("scheme", ["rotation", "x-mirror", "xy-mirror", "right-shift", "xy-shift"])
    def test_phases_are_link_disjoint(self, scheduler5, mesh5, scheme):
        transform = make_transform(scheme, mesh5)
        schedule = scheduler5.schedule_for_transform(transform)
        routing = XYRouting(mesh5)
        for phase in schedule.phases:
            used = set()
            for source in phase:
                route = routing.path(
                    mesh5.coordinate(source), transform(mesh5.coordinate(source))
                )
                links = {(route[i], route[i + 1]) for i in range(len(route) - 1)}
                assert not (links & used), "two moves in one phase share a link"
                used |= links

    def test_all_moves_scheduled(self, scheduler4, mesh4):
        transform = RotationTransform(mesh4)
        schedule = scheduler4.schedule_for_transform(transform)
        scheduled = sorted(source for phase in schedule.phases for source in phase)
        # The 4x4 rotation has no fixed point: every PE moves.
        assert scheduled == list(range(mesh4.num_nodes))

    def test_local_moves_cost_no_network_time(self, scheduler5, mesh5):
        transform = RotationTransform(mesh5)
        schedule = scheduler5.schedule_for_transform(transform)
        scheduled = [source for phase in schedule.phases for source in phase]
        assert mesh5.node_id((2, 2)) not in scheduled
        assert len(scheduled) == mesh5.num_nodes - 1

    def test_total_cycles_positive_and_deterministic(self, scheduler4, mesh4):
        transform = XYShiftTransform(mesh4)
        a = scheduler4.schedule_for_transform(transform).total_cycles
        b = scheduler4.schedule_for_transform(transform).total_cycles
        assert a == b > 0

    def test_phase_cycles_cover_serialization_and_hops(self, scheduler4, mesh4):
        state = StateTransferModel()
        transform = XYShiftTransform(mesh4)
        schedule = scheduler4.schedule_for_transform(transform)
        permutation = transform.node_permutation()
        flits = state.payload_flits(0)
        for phase, cycles in zip(schedule.phases, schedule.cycles_per_phase):
            slowest = max(
                flits
                + _hops(mesh4, source, permutation[source])
                * scheduler4.router_pipeline_cycles
                for source in phase
            )
            assert cycles == slowest


class TestPhasedVersusNaive:
    def test_phased_schedule_is_faster_than_naive(self, scheduler5, mesh5):
        """The congestion-free phasing must beat full serialisation — this is
        the benefit Section 2.2 claims."""
        schedule = scheduler5.schedule_for_transform(XYShiftTransform(mesh5))
        assert schedule.total_cycles < schedule.serialised_cycles

    def test_rotation_schedule_longer_than_shift(self, scheduler5, mesh5):
        """Rotation moves payloads further, so its deterministic migration
        time is at least as long as the short-hop shift's."""
        rotation = scheduler5.schedule_for_transform(RotationTransform(mesh5))
        shift = scheduler5.schedule_for_transform(RightShiftTransform(mesh5))
        assert rotation.total_cycles >= shift.total_cycles

    def test_migration_fits_in_paper_period(self, scheduler5, mesh5, chip_e):
        """The whole migration must fit comfortably inside the paper's
        shortest period (109 us = 54 500 cycles at 500 MHz), otherwise the
        reported ~1.6 % throughput penalty would be impossible."""
        nodes = tanner_nodes_per_pe(chip_e)
        schedule = scheduler5.schedule_for_transform(XYShiftTransform(mesh5), nodes)
        period_cycles = chip_e.block_period_cycles(109.0)
        assert schedule.total_cycles < 0.2 * period_cycles


class TestPeMove:
    """A single move, priced by node id (the former ``PeMove`` record)."""

    def test_hops(self, scheduler4, mesh4):
        source, destination = mesh4.node_id((0, 0)), mesh4.node_id((2, 3))
        schedule = schedule_moves(
            scheduler4, np.array([source]), np.array([destination]), np.array([4])
        )
        assert schedule.phases == ((source,),)
        assert schedule.move_cycles == ((scheduler4.move_cycles(4, 5),),)

    def test_local_move(self, scheduler4, mesh4):
        node = mesh4.node_id((1, 1))
        schedule = schedule_moves(
            scheduler4, np.array([node]), np.array([node]), np.array([4])
        )
        assert schedule.num_phases == 0
        assert schedule.total_cycles == 0

    def test_scheduler_rejects_bad_pipeline(self, mesh4):
        with pytest.raises(ValueError):
            MigrationScheduler(mesh4, router_pipeline_cycles=0)
