"""The checkpoint format of an in-flight migration plan, pinned.

``plan_checkpoint_golden.json`` holds the ``state_dict()`` of a chip E
controller one stage into a ``rotation`` plan (the 5x5 centre is a fixed
point, so its local move rides the first stage), once fluid with two units
per epoch and once batched.  A streaming run writes exactly this JSON into
its checkpoints, so it must stay byte-identical, and resuming from it must
finish the plan exactly as the uninterrupted run does.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.chips import get_configuration
from repro.core.controller import RuntimeReconfigurationController
from repro.migration.transforms import make_transform

GOLDEN = Path(__file__).with_name("plan_checkpoint_golden.json")
STYLES = ("fluid", "batched")
PERIOD_S = 109e-6


def _in_flight(style):
    """A chip E controller that has run the first stage of a rotation plan."""
    configuration = get_configuration("E")
    controller = RuntimeReconfigurationController(configuration)
    controller.apply_migration(
        make_transform("rotation", configuration.topology),
        style=style,
        units_per_epoch=2,
    )
    assert controller.migration_in_progress
    return controller


def test_state_dict_is_byte_identical_to_the_pinned_file():
    emitted = json.dumps(
        {style: _in_flight(style).state_dict() for style in STYLES}, indent=1
    )
    assert emitted + "\n" == GOLDEN.read_text()


@pytest.mark.parametrize("style", STYLES)
def test_resume_from_pinned_state_equals_uninterrupted_run(style):
    uninterrupted = _in_flight(style)
    resumed = RuntimeReconfigurationController(get_configuration("E"))
    resumed.restore_state(json.loads(GOLDEN.read_text())[style])
    assert resumed.state_dict() == uninterrupted.state_dict()
    while uninterrupted.migration_in_progress:
        expected = uninterrupted.advance_plan(congestion=1.25)
        actual = resumed.advance_plan(congestion=1.25)
        assert actual == expected
        assert np.array_equal(actual.energy_vector, expected.energy_vector)
        assert np.array_equal(
            resumed.epoch_power_vector(PERIOD_S, actual),
            uninterrupted.epoch_power_vector(PERIOD_S, expected),
        )
    assert not resumed.migration_in_progress
    assert resumed.state_dict() == uninterrupted.state_dict()
