"""Tests for staged migration plans (lowering, invariants, pricing)."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.migration.plan import (
    MIGRATION_STYLES,
    MigrationPlan,
    congestion_factor,
    lower_transform,
    priced_stage_cycles,
)
from repro.migration.transforms import (
    IdentityTransform,
    RotationTransform,
    XYShiftTransform,
    make_transform,
)
from repro.migration.unit import MigrationUnit
from repro.noc.topology import MeshTopology
from repro.placement.mapping import Mapping
from repro.scenarios.noc_cost import NocCostModel

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import migration_oracle  # noqa: E402


@pytest.fixture
def unit4(mesh4):
    return MigrationUnit(mesh4)


@pytest.fixture
def unit5(mesh5):
    return MigrationUnit(mesh5)


def _oracle_move_key(topology, move):
    return (
        topology.node_id(move.source),
        topology.node_id(move.destination),
        move.payload_flits,
    )


def _staged_move_keys(plan):
    """Every stage's moves as (source, destination, flits) node-id triples."""
    return [
        move
        for stage in plan.stages
        for move in zip(
            stage.sources.tolist(),
            stage.destinations.tolist(),
            stage.payload_flits.tolist(),
        )
    ]


def _apply(step, mapping):
    """A ``task -> node`` mapping after a stage's ``node -> node`` step."""
    return step[mapping]


class TestSuddenLowering:
    """A sudden plan is the legacy whole-transform cost, restaged as 1 stage."""

    def test_single_stage(self, unit4, mesh4):
        plan = lower_transform(XYShiftTransform(mesh4), unit4, style="sudden")
        assert plan.num_stages == 1
        assert plan.style == "sudden"
        assert plan.units_per_epoch is None

    @pytest.mark.parametrize("scheme", ["xy-shift", "rotation", "x-mirror"])
    def test_bit_identical_to_legacy_cost(self, unit4, mesh4, scheme):
        """Same schedule, same float accumulation order as the coordinate
        walk — bit equality, not approx."""
        transform = make_transform(scheme, mesh4)
        nodes = {coord: 7 for coord in mesh4.coordinates()}
        (legacy,) = migration_oracle.lower(unit4, transform, nodes)
        plan = lower_transform(
            transform, unit4, unit4.scheduler.payload_flits(nodes), style="sudden"
        )
        stage = plan.stages[0]
        assert stage.cycles == legacy.cycles
        assert stage.energy_j == legacy.energy_j
        assert np.array_equal(
            stage.energy_vector,
            migration_oracle.energy_vector(mesh4, legacy.energy_per_unit_j),
        )
        assert unit4.migration_cost(transform, nodes) == stage

    def test_identity_transform_is_cost_only(self, unit4, mesh4):
        plan = lower_transform(IdentityTransform(mesh4), unit4, style="sudden")
        assert plan.num_stages == 1
        assert plan.total_cycles == 0
        assert plan.total_moved == 0
        assert plan.total_energy_j > 0  # fixed per-PE overhead still charged

    def test_rejects_unknown_style(self, unit4, mesh4):
        with pytest.raises(ValueError):
            lower_transform(XYShiftTransform(mesh4), unit4, style="teleport")
        with pytest.raises(ValueError):
            lower_transform(
                XYShiftTransform(mesh4), unit4, style="fluid", units_per_epoch=0
            )


class TestStagePartition:
    """Every style's stages partition the transform's move set exactly."""

    @pytest.mark.parametrize("style", MIGRATION_STYLES)
    @pytest.mark.parametrize("scheme", ["xy-shift", "rotation", "right-shift"])
    def test_moves_partition(self, unit5, mesh5, style, scheme):
        transform = make_transform(scheme, mesh5)
        reference = migration_oracle.moves_for_transform(unit5.scheduler, transform)
        plan = lower_transform(
            transform, unit5, style=style, units_per_epoch=3
        )
        staged = _staged_move_keys(plan)
        assert sorted(staged) == sorted(
            _oracle_move_key(mesh5, move) for move in reference
        )
        # No move appears in two stages.
        assert len(staged) == len(set(staged))

    @pytest.mark.parametrize("style", MIGRATION_STYLES)
    def test_composed_permutation_matches_transform(self, unit5, mesh5, style):
        transform = RotationTransform(mesh5)
        plan = lower_transform(transform, unit5, style=style, units_per_epoch=2)
        composed = np.arange(mesh5.num_nodes)
        for stage in plan.stages:
            composed = _apply(stage.node_step(mesh5), composed)
        assert np.array_equal(composed, transform.node_permutation())


class TestFluidLowering:
    def test_budget_respected(self, unit5, mesh5):
        plan = lower_transform(
            XYShiftTransform(mesh5), unit5, style="fluid", units_per_epoch=4
        )
        assert plan.num_stages > 1
        longest_cycle = max(
            len(cycle)
            for cycle in _cycles_of(unit5, XYShiftTransform(mesh5))
        )
        for stage in plan.stages:
            assert stage.moved <= max(4, longest_cycle)

    def test_large_budget_collapses_to_one_stage(self, unit4, mesh4):
        plan = lower_transform(
            XYShiftTransform(mesh4), unit4, style="fluid", units_per_epoch=999
        )
        assert plan.num_stages == 1

    def test_mid_plan_mapping_stays_bijective(self, unit5, mesh5):
        plan = lower_transform(
            RotationTransform(mesh5), unit5, style="fluid", units_per_epoch=2
        )
        mapping = Mapping.identity(mesh5)
        for stage in plan.stages:
            # Closed relocation: sources and destinations are the same set.
            assert set(stage.sources.tolist()) == set(stage.destinations.tolist())
            # Mapping.from_permutation validates bijectivity.
            mapping = Mapping.from_permutation(
                mesh5, _apply(stage.node_step(mesh5), np.array(mapping.to_permutation())).tolist()
            )
        final = RotationTransform(mesh5).as_permutation()
        assert {
            task: final[coord]
            for task, coord in Mapping.identity(mesh5).physical_of_task.items()
        } == mapping.physical_of_task


def _stage_moves(topology, stage):
    """A stage's moves as oracle :class:`PeMove` records."""
    coordinate = topology.coordinate
    return [
        migration_oracle.PeMove(coordinate(source), coordinate(destination), flits)
        for source, destination, flits in zip(
            stage.sources.tolist(),
            stage.destinations.tolist(),
            stage.payload_flits.tolist(),
        )
    ]


def _stage_cycle_links(unit, stage):
    """Per permutation cycle of the stage, the union of its route links."""
    remote = [move for move in _stage_moves(unit.topology, stage) if not move.is_local]
    link_sets = []
    for cycle in migration_oracle.permutation_cycles(remote):
        links = set()
        for move in cycle:
            links |= migration_oracle.links_of_route(
                unit.routing.path(move.source, move.destination)
            )
        link_sets.append(links)
    return link_sets


def _assert_cycles_disjoint(unit, plan):
    """Batched invariant: the cycles grouped into one stage never share a
    link (moves *within* a cycle may — cycles are atomic and the stage's
    internal schedule phases them)."""
    for stage in plan.stages:
        link_sets = _stage_cycle_links(unit, stage)
        for i, links in enumerate(link_sets):
            for other in link_sets[i + 1:]:
                assert not (links & other)


class TestBatchedLowering:
    def test_cycles_within_stage_are_link_disjoint(self, unit5, mesh5):
        plan = lower_transform(RotationTransform(mesh5), unit5, style="batched")
        _assert_cycles_disjoint(unit5, plan)

    def test_stage_cycles_bounded_by_move_account(self, unit5, mesh5):
        """Each stage's duration sits between its slowest move and the fully
        serialised baseline (the shared move_cycles account both ways)."""
        plan = lower_transform(RotationTransform(mesh5), unit5, style="batched")
        scheduler = unit5.scheduler
        for stage in plan.stages:
            remote = stage.sources != stage.destinations
            if remote.any():
                hops = np.array(
                    [
                        mesh5.manhattan_distance(
                            mesh5.coordinate(source), mesh5.coordinate(destination)
                        )
                        for source, destination in zip(
                            stage.sources[remote].tolist(),
                            stage.destinations[remote].tolist(),
                        )
                    ]
                )
                move_cycles = scheduler.move_cycles(stage.payload_flits[remote], hops)
                assert move_cycles.max() <= stage.cycles <= move_cycles.sum()


class TestMoveCyclesAccount:
    """Satellite regression: one shared per-move cycle function."""

    def test_phase_cycles_routes_through_move_cycles(self, unit4, mesh4):
        scheduler = unit4.scheduler
        schedule = scheduler.schedule_for_transform(XYShiftTransform(mesh4))
        oracle = migration_oracle.moves_for_transform(scheduler, XYShiftTransform(mesh4))
        by_source = {mesh4.node_id(move.source): move for move in oracle}
        for phase, cycles in zip(schedule.phases, schedule.move_cycles):
            for source, move_cycles in zip(phase, cycles):
                move = by_source[source]
                assert move_cycles == scheduler.move_cycles(
                    move.payload_flits, move.hops
                )
                assert move_cycles == migration_oracle.move_cycles(scheduler, move)

    def test_naive_cycles_is_sum_of_move_cycles(self, unit4, mesh4):
        scheduler = unit4.scheduler
        schedule = scheduler.schedule_for_transform(RotationTransform(mesh4))
        moves = migration_oracle.moves_for_transform(scheduler, RotationTransform(mesh4))
        assert schedule.serialised_cycles == migration_oracle.naive_cycles(
            scheduler, moves
        )

    def test_move_cycles_components(self, unit4):
        scheduler = unit4.scheduler
        # (0, 0) -> (3, 2): five hops.
        expected = (
            10 * scheduler.state_model.serialization_cycles_per_flit
            + 5 * scheduler.router_pipeline_cycles
        )
        assert scheduler.move_cycles(10, 5) == expected
        assert scheduler.move_cycles(np.array([10, 10]), np.array([5, 0])).tolist() == [
            expected,
            10 * scheduler.state_model.serialization_cycles_per_flit,
        ]


class TestPlanCodec:
    @pytest.mark.parametrize("style", MIGRATION_STYLES)
    def test_round_trip(self, unit5, mesh5, style):
        nodes = {coord: 5 for coord in mesh5.coordinates()}
        plan = lower_transform(
            RotationTransform(mesh5),
            unit5,
            unit5.scheduler.payload_flits(nodes),
            style=style,
            units_per_epoch=3,
        )
        restored = MigrationPlan.from_dict(plan.to_dict(), mesh5)
        assert restored == plan


class TestCongestionPricing:
    def test_unpriced_is_unity(self):
        assert congestion_factor(None, 0.5) == 1.0
        model = NocCostModel(width=4, height=4)
        assert congestion_factor(model, None) == 1.0
        assert congestion_factor(model, 0.0) == 1.0
        assert congestion_factor(model, float("nan")) == 1.0

    def test_monotone_and_at_least_one(self):
        model = NocCostModel(width=4, height=4)
        low = congestion_factor(model, 0.01)
        high = congestion_factor(model, model.saturation_rate * 0.9)
        assert 1.0 <= low <= high
        assert high > 1.0

    def test_saturated_rate_caps(self):
        model = NocCostModel(width=4, height=4)
        at_cap = congestion_factor(model, model.saturation_rate)
        beyond = congestion_factor(model, model.saturation_rate * 10)
        assert math.isfinite(at_cap)
        assert beyond == at_cap

    def test_priced_stage_cycles_ceils(self, unit4, mesh4):
        plan = lower_transform(XYShiftTransform(mesh4), unit4, style="sudden")
        stage = plan.stages[0]
        assert priced_stage_cycles(stage, 1.0) == stage.cycles
        assert priced_stage_cycles(stage, 0.5) == stage.cycles
        assert priced_stage_cycles(stage, 1.5) == math.ceil(stage.cycles * 1.5)


def _cycles_of(unit, transform):
    moves = migration_oracle.moves_for_transform(unit.scheduler, transform)
    return migration_oracle.permutation_cycles(
        [move for move in moves if not move.is_local]
    )


# ----------------------------------------------------------------------
# Property tests: arbitrary permutations, arbitrary budgets
# ----------------------------------------------------------------------
@st.composite
def permutations(draw):
    width = draw(st.integers(2, 5))
    height = draw(st.integers(2, 5))
    topology = MeshTopology(width, height)
    coords = list(topology.coordinates())
    images = draw(st.permutations(coords))
    return topology, dict(zip(coords, images))


class TestPlanProperties:
    @given(data=permutations(), units=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_fluid_partitions_and_stays_bijective(self, data, units):
        topology, permutation = data
        unit = MigrationUnit(topology)
        transform = migration_oracle.PermutationTransform(topology, permutation)
        plan = lower_transform(
            transform, unit, style="fluid", units_per_epoch=units
        )
        reference = migration_oracle.moves_for_transform(unit.scheduler, transform)
        assert sorted(_staged_move_keys(plan)) == sorted(
            _oracle_move_key(topology, move) for move in reference
        )
        mapping = Mapping.identity(topology)
        for stage in plan.stages:
            mapping = Mapping.from_permutation(
                topology,
                _apply(
                    stage.node_step(topology), np.array(mapping.to_permutation())
                ).tolist(),
            )
        assert {
            task: permutation[coord]
            for task, coord in Mapping.identity(topology).physical_of_task.items()
        } == mapping.physical_of_task

    @given(data=permutations())
    @settings(max_examples=25, deadline=None)
    def test_batched_stages_link_disjoint(self, data):
        topology, permutation = data
        unit = MigrationUnit(topology)
        plan = lower_transform(
            migration_oracle.PermutationTransform(topology, permutation), unit, style="batched"
        )
        _assert_cycles_disjoint(unit, plan)

    @given(data=permutations())
    @settings(max_examples=25, deadline=None)
    def test_sudden_equals_legacy_cost(self, data):
        topology, permutation = data
        unit = MigrationUnit(topology)
        transform = migration_oracle.PermutationTransform(topology, permutation)
        (legacy,) = migration_oracle.lower(unit, transform)
        plan = lower_transform(transform, unit, style="sudden")
        assert plan.stages[0].cycles == legacy.cycles
        assert plan.stages[0].energy_j == legacy.energy_j
