"""The array-native lowering against the coordinate-walking oracle.

Every stage of :func:`repro.migration.plan.lower_transform` — its cycles,
``energy_j``, ``energy_vector``, ``node_step`` and its move arrays — must
equal what :mod:`migration_oracle` computes by walking coordinates, with
exact ``==``: the lowering's in-order sums are defined to be the same
floats, not merely close ones.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chips import get_configuration
from repro.migration.plan import MIGRATION_STYLES, lower_transform
from repro.migration.transforms import (
    FIGURE1_SCHEMES,
    available_transforms,
    make_transform,
)
from repro.migration.unit import MigrationUnit
from repro.noc.topology import MeshTopology

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import migration_oracle  # noqa: E402

MESHES = ((3, 5), (4, 4), (5, 5))


def _transforms(topology):
    transforms = []
    for name in available_transforms():
        try:
            transforms.append(make_transform(name, topology))
        except ValueError:  # rotation needs a square mesh
            continue
    return transforms


def assert_plan_matches_oracle(unit, transform, tanner_nodes_per_pe, style, units):
    topology = unit.topology
    plan = lower_transform(
        transform,
        unit,
        unit.scheduler.payload_flits(tanner_nodes_per_pe),
        style=style,
        units_per_epoch=units,
    )
    expected = migration_oracle.lower(
        unit, transform, tanner_nodes_per_pe, style=style, units_per_epoch=units
    )
    assert plan.num_stages == len(expected)
    node_id = topology.node_id
    for stage, oracle in zip(plan.stages, expected):
        assert stage.sources.tolist() == [node_id(m.source) for m in oracle.moves]
        assert stage.destinations.tolist() == [
            node_id(m.destination) for m in oracle.moves
        ]
        assert stage.payload_flits.tolist() == [m.payload_flits for m in oracle.moves]
        assert stage.cycles == oracle.cycles
        assert stage.energy_j == oracle.energy_j
        assert np.array_equal(
            stage.energy_vector,
            migration_oracle.energy_vector(topology, oracle.energy_per_unit_j),
        )
        assert np.array_equal(
            stage.node_step(topology), migration_oracle.node_step(topology, oracle.moves)
        )
    # The phases themselves, not only their total: the schedule takes moves
    # by source coordinate (x, y), which is not node-id order.
    schedule = unit.scheduler.schedule_for_transform(transform, tanner_nodes_per_pe)
    expected_schedule = migration_oracle.schedule(
        unit.scheduler,
        migration_oracle.moves_for_transform(
            unit.scheduler, transform, tanner_nodes_per_pe
        ),
    )
    assert schedule.phases == tuple(
        tuple(node_id(move.source) for move in phase)
        for phase in expected_schedule.phases
    )
    assert list(schedule.cycles_per_phase) == expected_schedule.cycles_per_phase


@st.composite
def lowering_cases(draw):
    width, height = draw(st.sampled_from(MESHES))
    topology = MeshTopology(width, height)
    coords = list(topology.coordinates())
    # A random task -> PE mapping carrying random Tanner-node counts.
    placement = draw(st.permutations(coords))
    sizes = draw(
        st.lists(
            st.integers(0, 400), min_size=len(coords), max_size=len(coords)
        )
    )
    transform = draw(
        st.one_of(
            st.sampled_from(_transforms(topology)),
            st.permutations(coords).map(
                lambda images: migration_oracle.PermutationTransform(
                    topology, dict(zip(coords, images))
                )
            ),
        )
    )
    style = draw(st.sampled_from(MIGRATION_STYLES))
    units = draw(st.integers(1, 5))
    return topology, dict(zip(placement, sizes)), transform, style, units


@given(case=lowering_cases())
@settings(max_examples=300, deadline=None)
def test_array_lowering_equals_oracle(case):
    topology, tanner_nodes_per_pe, transform, style, units = case
    unit = MigrationUnit(topology)
    assert_plan_matches_oracle(unit, transform, tanner_nodes_per_pe, style, units)


@pytest.mark.parametrize("chip", ["A", "B", "C", "D", "E"])
@pytest.mark.parametrize("scheme", FIGURE1_SCHEMES)
def test_paper_chips_equal_oracle(chip, scheme):
    """The five paper chips, at their static mappings, in every style."""
    configuration = get_configuration(chip)
    unit = MigrationUnit(configuration.topology, library=configuration.library)
    transform = make_transform(scheme, configuration.topology)
    for style in MIGRATION_STYLES:
        for units in (1, 2, 3):
            assert_plan_matches_oracle(
                unit,
                transform,
                migration_oracle.tanner_nodes_per_pe(configuration),
                style,
                units,
            )
