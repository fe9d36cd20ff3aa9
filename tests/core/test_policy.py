"""Tests for the reconfiguration policies."""

import numpy as np
import pytest

from repro.core.metrics import ThermalMetrics
from repro.core.policy import (
    AdaptiveMigrationPolicy,
    NoMigrationPolicy,
    PeriodicMigrationPolicy,
    PolicyContext,
    ThresholdMigrationPolicy,
    make_policy,
)
from repro.migration.transforms import MigrationTransform


def _context(mesh, epoch=1, peak=90.0, hottest=(2, 2)):
    per_unit = np.full(mesh.num_nodes, 60.0)
    per_unit[mesh.node_id(hottest)] = peak
    return PolicyContext(
        epoch_index=epoch,
        current_thermal=ThermalMetrics.from_vector(mesh, per_unit),
        topology=mesh,
        current_power_vector=np.ones(mesh.num_nodes),
    )


class TestNoMigration:
    def test_never_migrates(self, mesh4):
        policy = NoMigrationPolicy()
        for epoch in range(5):
            assert policy.decide(_context(mesh4, epoch=epoch)) is None


class TestPeriodic:
    def test_applies_same_transform_every_epoch(self, mesh4):
        policy = PeriodicMigrationPolicy(mesh4, "xy-shift", period_us=109.0)
        first = policy.decide(_context(mesh4, epoch=1))
        second = policy.decide(_context(mesh4, epoch=2))
        assert first is second
        assert first.name == "xy-shift"

    def test_skips_first_epoch_by_default(self, mesh4):
        policy = PeriodicMigrationPolicy(mesh4, "rotation")
        assert policy.decide(_context(mesh4, epoch=0)) is None
        assert policy.decide(_context(mesh4, epoch=1)) is not None

    def test_no_skip_option(self, mesh4):
        policy = PeriodicMigrationPolicy(mesh4, "rotation", skip_first=False)
        assert policy.decide(_context(mesh4, epoch=0)) is not None

    def test_invalid_period(self, mesh4):
        with pytest.raises(ValueError):
            PeriodicMigrationPolicy(mesh4, "rotation", period_us=0)

    def test_name_embeds_scheme(self, mesh4):
        assert PeriodicMigrationPolicy(mesh4, "x-mirror").name == "periodic-x-mirror"


class TestThreshold:
    def test_migrates_only_above_trigger(self, mesh4):
        policy = ThresholdMigrationPolicy(mesh4, "xy-shift", trigger_celsius=80.0)
        hot = _context(mesh4, peak=92.0)
        cool = _context(mesh4, peak=70.0)
        assert policy.decide(hot) is not None
        assert policy.decide(cool) is None
        assert policy.migrations_triggered == 1

    def test_no_thermal_info_no_migration(self, mesh4):
        policy = ThresholdMigrationPolicy(mesh4, "xy-shift", trigger_celsius=80.0)
        context = PolicyContext(epoch_index=0, current_thermal=None, topology=mesh4)
        assert policy.decide(context) is None

    def test_reset_clears_counter(self, mesh4):
        policy = ThresholdMigrationPolicy(mesh4, "xy-shift", trigger_celsius=80.0)
        policy.decide(_context(mesh4, peak=95.0))
        policy.reset()
        assert policy.migrations_triggered == 0


class TestAdaptive:
    def test_picks_a_candidate(self, mesh5):
        policy = AdaptiveMigrationPolicy(mesh5)
        transform = policy.decide(_context(mesh5, hottest=(2, 2)))
        assert transform is not None
        assert transform.name in {t.name for t in policy.candidates}

    def test_avoids_fixed_point_on_central_hotspot(self, mesh5):
        """With the hotspot at the 5x5 centre (a fixed point of rotation and
        mirroring), the adaptive policy must pick a translation."""
        policy = AdaptiveMigrationPolicy(mesh5)
        transform = policy.decide(_context(mesh5, hottest=(2, 2)))
        assert transform.name in ("right-shift", "xy-shift")

    def test_moves_corner_hotspot_far(self, mesh4):
        policy = AdaptiveMigrationPolicy(mesh4)
        transform = policy.decide(_context(mesh4, hottest=(3, 3)))
        moved = transform((3, 3))
        assert mesh4.manhattan_distance((3, 3), moved) >= 2

    def test_non_square_mesh_drops_rotation(self, mesh3x2):
        policy = AdaptiveMigrationPolicy(mesh3x2)
        names = {t.name for t in policy.candidates}
        assert "rotation" not in names
        assert names  # still has candidates

    def test_choices_recorded_and_reset(self, mesh5):
        policy = AdaptiveMigrationPolicy(mesh5)
        policy.decide(_context(mesh5))
        policy.decide(_context(mesh5))
        assert len(policy.choices) == 2
        policy.reset()
        assert policy.choices == []

    @pytest.mark.parametrize("mesh_name", ["mesh4", "mesh5"])
    def test_decide_never_walks_fixed_points(self, mesh_name, request, monkeypatch):
        """The fixed-point penalty is fixed per candidate at construction:
        ``decide`` makes the choice the per-call coordinate walk made, without
        walking."""
        mesh = request.getfixturevalue(mesh_name)
        policy = AdaptiveMigrationPolicy(mesh)

        def walked_choice(hottest):
            scores = [
                mesh.manhattan_distance(hottest, transform(hottest))
                - len(transform.fixed_points()) * 0.25
                for transform in policy.candidates
            ]
            return policy.candidates[scores.index(max(scores))].name

        expected = [walked_choice(coord) for coord in mesh.coordinates()]

        def refuse(self):
            raise AssertionError("decide walked fixed_points()")

        monkeypatch.setattr(MigrationTransform, "fixed_points", refuse)
        chosen = [
            policy.decide(_context(mesh, hottest=coord)).name
            for coord in mesh.coordinates()
        ]
        assert chosen == expected

    def test_requires_candidates(self, mesh3x2):
        with pytest.raises(ValueError):
            AdaptiveMigrationPolicy(mesh3x2, candidate_schemes=["rotation"])


class TestFactory:
    def test_static(self, mesh4):
        assert isinstance(make_policy("static", mesh4), NoMigrationPolicy)

    def test_scheme_names(self, mesh4):
        policy = make_policy("xy-shift", mesh4, period_us=437.2)
        assert isinstance(policy, PeriodicMigrationPolicy)
        assert policy.period_us == 437.2

    def test_adaptive(self, mesh4):
        assert isinstance(make_policy("adaptive", mesh4), AdaptiveMigrationPolicy)

    def test_threshold(self, mesh4):
        policy = make_policy("threshold-xy-shift", mesh4, trigger_celsius=85.0)
        assert isinstance(policy, ThresholdMigrationPolicy)
        assert policy.trigger_celsius == 85.0
