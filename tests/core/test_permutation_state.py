"""The controller's int-permutation state against coordinate-walking references.

The controller keeps the mapping as one ``task -> node`` array and the I/O
translator keeps its cumulative map as one ``original node -> current node``
array.  These properties replay random sequences of Table 1 transforms and
fluid/batched plan stages, and after every step compare both arrays with a
reference that walks coordinates the way the dict-based code did, and the
epoch power row with the per-coordinate formula.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chips import get_configuration
from repro.core.controller import RuntimeReconfigurationController
from repro.migration.io_interface import IoAddressTranslator
from repro.migration.plan import MigrationStage, lower_transform
from repro.migration.transforms import FIGURE1_SCHEMES, make_transform

PERIOD_S = 5e-4

#: One step: a sudden transform, a plan started in some style (its first
#: stage runs at once), a stage, or a mid-plan checkpoint round trip.  Steps that do not fit the controller's
#: state (a stage with no plan in flight, a transform mid-plan) advance the
#: plan instead, as the epoch loop does.
steps = st.lists(
    st.one_of(
        st.tuples(st.just("sudden"), st.sampled_from(FIGURE1_SCHEMES)),
        st.tuples(
            st.just("plan"),
            st.sampled_from(FIGURE1_SCHEMES),
            st.sampled_from(("fluid", "batched")),
            st.integers(min_value=1, max_value=5),
        ),
        st.tuples(st.just("stage")),
        st.tuples(st.just("checkpoint")),
    ),
    min_size=1,
    max_size=14,
)


class Reference:
    """The mapping and I/O map kept as coordinate dicts, walked per move."""

    def __init__(self, configuration):
        self.configuration = configuration
        self.mapping = dict(configuration.static_mapping.physical_of_task)
        self.current_of_original = {
            coord: coord for coord in configuration.topology.coordinates()
        }

    def move(self, relocate) -> None:
        self.mapping = {task: relocate(coord) for task, coord in self.mapping.items()}
        self.current_of_original = {
            original: relocate(current)
            for original, current in self.current_of_original.items()
        }

    def power_vector(self, cost) -> np.ndarray:
        """The per-coordinate epoch power formula."""
        topology = self.configuration.topology
        power = np.zeros(topology.num_nodes)
        for task, watts in self.configuration.per_task_power().items():
            power[topology.node_id(self.mapping[task])] = watts
        if cost is not None:
            for node, energy in enumerate(cost.energy_vector.tolist()):
                if energy == 0.0:
                    continue
                power[node] += energy / PERIOD_S
        return power


def _relocation(topology, stage):
    """A stage's moves as a coordinate -> coordinate function."""
    coordinate = topology.coordinate
    moves = {
        coordinate(source): coordinate(destination)
        for source, destination in zip(
            stage.sources.tolist(), stage.destinations.tolist()
        )
    }
    return lambda coord: moves.get(coord, coord)


def _check(controller, reference, cost) -> None:
    permutation = controller.current_permutation
    assert {
        task: controller.topology.coordinate(int(node))
        for task, node in enumerate(permutation)
    } == reference.mapping
    translator = controller.io_translator
    for original, current in reference.current_of_original.items():
        assert translator.current_location(original) == current
        assert translator.original_location(current) == original
    power = controller.epoch_power_vector(PERIOD_S, cost)
    assert power.tobytes() == reference.power_vector(cost).tobytes()
    with pytest.raises(ValueError):
        permutation[0] = permutation[1]  # the state array is read-only


def _step(controller, reference, action):
    """Execute one action on the controller and mirror it on the reference."""
    topology = controller.topology
    kind = action[0]
    if controller.migration_in_progress or kind == "stage":
        if not controller.migration_in_progress:
            return None
        plan = controller.active_plan
        relocate = _relocation(topology, plan.stages[controller.plan_next_stage])
        cost = controller.advance_plan(congestion=1.25)
        reference.move(relocate)
        return cost
    if kind == "sudden":
        transform = make_transform(action[1], topology)
        cost = controller.apply_migration(transform)
        reference.move(transform)
        return cost
    if kind == "plan":
        _, name, style, units = action
        transform = make_transform(name, topology)
        # Payloads only size cycles and energy; the stage partition is the
        # same without them.
        expected = lower_transform(
            transform, controller.migration_unit, style=style, units_per_epoch=units
        )
        relocate = _relocation(topology, expected.stages[0])
        cost = controller.apply_migration(
            transform, style=style, units_per_epoch=units, congestion=1.25
        )
        assert cost.stage_count == expected.num_stages
        reference.move(relocate)
        return cost
    return None


@pytest.mark.parametrize("chip", ["A", "E"])
@settings(max_examples=30, deadline=None)
@given(actions=steps)
def test_permutation_state_tracks_coordinate_walk(chip, actions):
    configuration = get_configuration(chip)
    controller = RuntimeReconfigurationController(configuration)
    reference = Reference(configuration)
    _check(controller, reference, None)
    for action in actions:
        if action[0] == "checkpoint":
            state = json.loads(json.dumps(controller.state_dict()))
            resumed = RuntimeReconfigurationController(configuration)
            resumed.restore_state(state)
            assert resumed.state_dict() == state
            twin = Reference(configuration)
            twin.mapping = dict(reference.mapping)
            twin.current_of_original = dict(reference.current_of_original)
            # Drain any in-flight plan on both; they must stay in lockstep.
            while controller.migration_in_progress:
                expected = _step(controller, reference, ("stage",))
                actual = _step(resumed, twin, ("stage",))
                assert (actual.cycles, actual.total_energy_j) == (
                    expected.cycles,
                    expected.total_energy_j,
                )
                assert (
                    resumed.epoch_power_vector(PERIOD_S, actual).tobytes()
                    == controller.epoch_power_vector(PERIOD_S, expected).tobytes()
                )
            assert not resumed.migration_in_progress
            assert resumed.state_dict() == controller.state_dict()
            _check(resumed, twin, None)
            controller, reference = resumed, twin
            continue
        cost = _step(controller, reference, action)
        _check(controller, reference, cost)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_non_closed_stage_moves_are_rejected(data):
    configuration = get_configuration("A")
    topology = configuration.topology
    coords = list(topology.coordinates())
    sources = data.draw(st.lists(st.sampled_from(coords), min_size=1, unique=True))
    destinations = data.draw(
        st.lists(
            st.sampled_from(coords),
            min_size=len(sources),
            max_size=len(sources),
            unique=True,
        )
    )
    moves = dict(zip(sources, destinations))
    stage = MigrationStage(
        sources=np.array([topology.node_id(source) for source in moves]),
        destinations=np.array([topology.node_id(dest) for dest in moves.values()]),
        payload_flits=np.ones(len(moves), dtype=np.int64),
        cycles=0,
        energy_j=0.0,
        energy_vector=np.zeros(topology.num_nodes),
    )
    if set(moves) == set(moves.values()):
        translator = IoAddressTranslator(topology)
        translator.record_step(stage.node_step(topology), "closed")
        for source, destination in moves.items():
            assert translator.current_location(source) == destination
    else:
        with pytest.raises(ValueError, match="closed relocation"):
            stage.node_step(topology)
