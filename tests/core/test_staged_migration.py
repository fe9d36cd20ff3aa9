"""Staged-migration equivalence suite.

Every migration is a plan run by one stage step: ``apply_migration`` lowers
the transform, arms the plan and runs stage 0 (a ``sudden`` plan has only
that stage), and ``advance_plan`` runs each later stage from the epoch
loop.  A fluid plan whose budget collapses it to one stage reproduces the
sudden trajectory to <1e-9.  The rest of the suite covers the genuinely
staged behaviours: plan accounting, stall semantics, the
``migration_in_progress`` policy flag, the solve-count guarantee, the NoC
pricing rule and the validation of checkpointed plans.
"""

import dataclasses
import json

import numpy as np
import pytest

import repro.core.experiment as experiment_module
from repro import obs
from repro.chips import get_configuration
from repro.core.controller import RuntimeReconfigurationController
from repro.core.experiment import ExperimentSettings, ThermalExperiment
from repro.core.policy import (
    AdaptiveMigrationPolicy,
    PeriodicMigrationPolicy,
    PolicyContext,
    ThresholdMigrationPolicy,
)
from repro.migration.transforms import XYShiftTransform
from repro.scenarios.compile import compile_scenario
from repro.scenarios.registry import get_scenario
from repro.thermal.grid import GridThermalModel

STEADY = dict(num_epochs=13, mode="steady", settle_epochs=10)
TRANSIENT = dict(
    num_epochs=9, mode="transient", settle_epochs=6, transient_steps_per_epoch=4
)


def _policy(kind, topology):
    if kind == "threshold":
        return ThresholdMigrationPolicy(
            topology, "xy-shift", trigger_celsius=70.0, period_us=109.0
        )
    return AdaptiveMigrationPolicy(topology, period_us=109.0)


def _run(chip, policy_kind, mode_kwargs, thermal_model=None, **setting_overrides):
    settings = ExperimentSettings(**{**mode_kwargs, **setting_overrides})
    experiment = ThermalExperiment(
        chip,
        _policy(policy_kind, chip.topology),
        settings=settings,
        thermal_model=thermal_model,
    )
    return experiment, experiment.run()


def _assert_trajectories_match(result, reference, abs_tol=1e-9):
    assert result.migrations_performed == reference.migrations_performed
    assert result.throughput_penalty == pytest.approx(
        reference.throughput_penalty, abs=abs_tol
    )
    assert result.settled_peak_celsius == pytest.approx(
        reference.settled_peak_celsius, abs=abs_tol
    )
    assert result.settled_mean_celsius == pytest.approx(
        reference.settled_mean_celsius, abs=abs_tol
    )
    assert len(result.epochs) == len(reference.epochs)
    for record, expected in zip(result.epochs, reference.epochs):
        assert record.transform_applied == expected.transform_applied
        # The power row follows the tasks, so it pins the mapping too.
        np.testing.assert_allclose(
            record.power_w, expected.power_w, rtol=0, atol=abs_tol
        )
        assert record.thermal.peak_celsius == pytest.approx(
            expected.thermal.peak_celsius, abs=abs_tol
        )
        assert record.thermal.mean_celsius == pytest.approx(
            expected.thermal.mean_celsius, abs=abs_tol
        )


@pytest.mark.parametrize("config_name", ["A", "E"])
@pytest.mark.parametrize("policy_kind", ["threshold", "adaptive"])
class TestSingleStageParity:
    """Fluid with a one-stage budget must match the sudden plan."""

    @pytest.mark.parametrize("mode_kwargs", [STEADY, TRANSIENT], ids=["steady", "transient"])
    def test_hotspot_model_parity(self, config_name, policy_kind, mode_kwargs):
        chip = get_configuration(config_name)
        _, sudden = _run(chip, policy_kind, mode_kwargs)
        _, staged = _run(
            chip,
            policy_kind,
            mode_kwargs,
            migration_style="fluid",
            units_per_epoch=chip.topology.num_nodes,
        )
        _assert_trajectories_match(staged, sudden)

    def test_grid_model_parity(self, config_name, policy_kind):
        chip = get_configuration(config_name)
        model = GridThermalModel(chip.topology, resolution=2)
        _, sudden = _run(chip, policy_kind, STEADY, thermal_model=model)
        _, staged = _run(
            chip,
            policy_kind,
            STEADY,
            thermal_model=model,
            migration_style="fluid",
            units_per_epoch=chip.topology.num_nodes,
        )
        _assert_trajectories_match(staged, sudden)


class TestSuddenDefault:
    def test_default_style_is_sudden(self):
        assert ExperimentSettings().migration_style == "sudden"
        assert ExperimentSettings().units_per_epoch == 2

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            ExperimentSettings(migration_style="teleport")
        with pytest.raises(ValueError):
            ExperimentSettings(units_per_epoch=0)

    def test_explicit_sudden_is_bit_identical_to_default(self, chip_a):
        _, default = _run(chip_a, "threshold", STEADY)
        _, explicit = _run(chip_a, "threshold", STEADY, migration_style="sudden")
        for record, expected in zip(explicit.epochs, default.epochs):
            assert record.thermal.peak_celsius == expected.thermal.peak_celsius
            assert record.migration_cycles == expected.migration_cycles
            assert record.migration_energy_j == expected.migration_energy_j


class TestStagedExecution:
    def test_plan_counts_as_one_migration(self, chip_a):
        """A fluid plan spanning several epochs is still ONE migration."""
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(
            num_epochs=13,
            settle_epochs=10,
            migration_style="fluid",
            units_per_epoch=1,
        )
        experiment = ThermalExperiment(chip_a, policy, settings=settings)
        result = experiment.run()
        events = experiment.controller.events
        stage_counts = {event.stage_count for event in events}
        assert max(stage_counts) > 1  # genuinely staged
        plans = sum(1 for event in events if event.stage_index == 0)
        assert result.migrations_performed == plans
        # Per-event cycle/energy accounting folds back to the totals.
        assert sum(event.cycles for event in events) == sum(
            record.migration_cycles for record in result.epochs
        )

    def test_staged_final_mapping_matches_sudden(self, chip_a):
        """However a single plan unfolds, it composes to the same mapping."""
        def final_mapping(style, units):
            policy = PeriodicMigrationPolicy(
                chip_a.topology, "rotation", period_us=109.0
            )
            settings = ExperimentSettings(
                num_epochs=2,
                settle_epochs=1,
                migration_style=style,
                units_per_epoch=units,
            )
            experiment = ThermalExperiment(chip_a, policy, settings=settings)
            experiment.run()
            # Drain the in-flight plan so every style completes its one plan.
            while experiment.controller.migration_in_progress:
                experiment.controller.advance_plan()
            return experiment.controller.current_permutation.tolist()

        sudden = final_mapping("sudden", 2)
        assert final_mapping("fluid", 1) == sudden
        assert final_mapping("batched", 2) == sudden

    def test_policy_sees_migration_in_progress(self, chip_a):
        seen = []

        class RecordingPolicy(PeriodicMigrationPolicy):
            def decide(self, context: PolicyContext):
                seen.append(context.migration_in_progress)
                return super().decide(context)

        policy = RecordingPolicy(chip_a.topology, "rotation", period_us=109.0)
        settings = ExperimentSettings(
            num_epochs=8,
            settle_epochs=4,
            migration_style="fluid",
            units_per_epoch=1,
        )
        ThermalExperiment(chip_a, policy, settings=settings).run()
        assert any(seen)  # mid-plan epochs advertise the in-flight plan
        assert not seen[0]  # nothing in flight before the first decision

    def test_stalled_epochs_counted(self, chip_a):
        """Decisions that wanted a migration while a plan is in flight bump
        the ``migration.stalled_epochs`` counter."""
        registry = obs.get_registry()
        stalled = registry.counter("migration.stalled_epochs")
        obs.enable()
        try:
            before = stalled.value
            policy = PeriodicMigrationPolicy(
                chip_a.topology, "rotation", period_us=109.0
            )
            settings = ExperimentSettings(
                num_epochs=10,
                settle_epochs=5,
                migration_style="fluid",
                units_per_epoch=1,
            )
            ThermalExperiment(chip_a, policy, settings=settings).run()
            assert stalled.value > before
        finally:
            obs.disable()

    def test_staged_steady_run_is_one_batched_solve(self, chip_a):
        solver = chip_a.thermal_model.solver
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(
            num_epochs=13,
            settle_epochs=10,
            migration_style="fluid",
            units_per_epoch=2,
        )
        experiment = ThermalExperiment(chip_a, policy, settings=settings)
        before = solver.steady_solve_count
        experiment.run()
        assert solver.steady_solve_count - before == 1


    def test_one_cycle_per_epoch_fluid_keeps_one_solve(self, chip_a):
        """The maximally staged plan (one permutation cycle per epoch) still
        costs one batched steady solve, as the sudden run does, and spans
        several epochs per plan."""
        solver = chip_a.thermal_model.solver

        def run(style):
            policy = PeriodicMigrationPolicy(chip_a.topology, "rotation", period_us=109.0)
            settings = ExperimentSettings(
                num_epochs=64, settle_epochs=32, migration_style=style, units_per_epoch=1
            )
            before = solver.steady_solve_count
            result = ThermalExperiment(chip_a, policy, settings=settings).run()
            return result, solver.steady_solve_count - before

        sudden, sudden_solves = run("sudden")
        fluid, fluid_solves = run("fluid")
        assert sudden_solves == fluid_solves == 1
        assert 0 < fluid.migrations_performed < sudden.migrations_performed


class TestCyclesRunCheckpoint:
    def test_state_dict_round_trips_cycles_run(self, chip_a):
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(num_epochs=12, settle_epochs=6)
        experiment = ThermalExperiment(chip_a, policy, settings=settings)
        experiment.prepare(collect_records=False)
        experiment.step_window(6)
        state = experiment.state_dict()
        assert state["cycles_run"] == experiment._cycles_run
        assert state["cycles_run"] > 0

        resumed = ThermalExperiment(
            chip_a,
            PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0),
            settings=settings,
        )
        resumed.prepare(collect_records=False)
        resumed.restore_state(state)
        assert resumed._cycles_run == experiment._cycles_run

    def test_old_checkpoints_without_cycles_run_reconstruct(self, chip_a):
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(num_epochs=12, settle_epochs=6)
        experiment = ThermalExperiment(chip_a, policy, settings=settings)
        experiment.prepare(collect_records=False)
        experiment.step_window(6)
        state = experiment.state_dict()
        del state["cycles_run"]

        resumed = ThermalExperiment(
            chip_a,
            PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0),
            settings=settings,
        )
        resumed.prepare(collect_records=False)
        resumed.restore_state(state)
        # No period schedule ran, so the legacy product reconstructs exactly.
        assert resumed._cycles_run == experiment._cycles_run


class TestPeriodSchedule:
    def test_period_scale_shapes_validated(self, chip_a):
        settings = ExperimentSettings(num_epochs=4, settle_epochs=2)
        with pytest.raises(ValueError):
            ThermalExperiment(
                chip_a,
                PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0),
                settings=settings,
                period_scale=np.ones(3),
            )
        with pytest.raises(ValueError):
            ThermalExperiment(
                chip_a,
                PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0),
                settings=settings,
                period_scale=np.array([1.0, 0.0, 1.0, 1.0]),
            )

    def test_unit_schedule_matches_unscheduled_run(self, chip_a):
        policy = PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0)
        settings = ExperimentSettings(num_epochs=8, settle_epochs=4)
        plain = ThermalExperiment(
            chip_a,
            PeriodicMigrationPolicy(chip_a.topology, "xy-shift", period_us=109.0),
            settings=settings,
        )
        scheduled = ThermalExperiment(
            chip_a, policy, settings=settings, period_scale=np.ones(8)
        )
        plain_result = plain.run()
        scheduled_result = scheduled.run()
        assert scheduled._cycles_run == plain._cycles_run
        assert scheduled_result.settled_peak_celsius == pytest.approx(
            plain_result.settled_peak_celsius, abs=1e-9
        )

    def test_longer_periods_lower_throughput_penalty(self, chip_a):
        """Stretching the epochs amortises the same migration downtime over
        more workload cycles, so the penalty must drop."""
        def penalty(scale):
            policy = PeriodicMigrationPolicy(
                chip_a.topology, "xy-shift", period_us=109.0
            )
            settings = ExperimentSettings(num_epochs=8, settle_epochs=4)
            experiment = ThermalExperiment(
                chip_a, policy, settings=settings,
                period_scale=np.full(8, scale),
            )
            return experiment.run().throughput_penalty

        assert penalty(4.0) < penalty(1.0)


def _stage_cycles(compiled, priced):
    """Per-event stage cycles of one scenario run, NoC-priced or not."""
    if not priced:
        compiled = dataclasses.replace(compiled, noc_model=None, noc_rates=None)
    experiment = compiled.experiment()
    experiment.run()
    return [event.cycles for event in experiment.controller.events]


class TestCongestionPricingRule:
    """A sudden plan halts the whole array, so its one stage is priced
    congestion-free; fluid and batched stages pay the epoch's NoC load."""

    def test_sudden_burst_migrations_are_congestion_free(self, monkeypatch):
        compiled = compile_scenario(get_scenario("noc-congestion-burst"))
        assert compiled.settings.migration_style == "sudden"
        # The bursts do congest the NoC on migrating epochs (every epoch
        # after the static epoch 0) ...
        factors = [
            experiment_module.congestion_factor(compiled.noc_model, rate)
            for rate in compiled.noc_rates[1:]
        ]
        assert max(factors) > 1.0
        calls = []
        original = experiment_module.congestion_factor

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(experiment_module, "congestion_factor", counting)
        priced = _stage_cycles(compiled, priced=True)
        # ... yet no stage is probed or inflated.
        assert calls == []
        assert priced == _stage_cycles(compiled, priced=False)
        assert len(priced) == compiled.settings.num_epochs - 1

    def test_fluid_burst_stages_are_inflated(self):
        compiled = compile_scenario(get_scenario("fluid-under-burst"))
        assert compiled.settings.migration_style == "fluid"
        priced = _stage_cycles(compiled, priced=True)
        free = _stage_cycles(compiled, priced=False)
        assert len(priced) == len(free)
        assert all(p >= f for p, f in zip(priced, free))
        assert any(p > f for p, f in zip(priced, free))


class TestCheckpointedPlanValidation:
    """``restore_state`` rejects a malformed in-flight plan up front."""

    @pytest.fixture
    def state(self, chip_a):
        controller = RuntimeReconfigurationController(chip_a)
        controller.apply_migration(
            XYShiftTransform(chip_a.topology), style="fluid", units_per_epoch=2
        )
        assert controller.migration_in_progress
        return json.loads(json.dumps(controller.state_dict()))

    def _assert_rejected(self, chip_a, state, match):
        controller = RuntimeReconfigurationController(chip_a)
        before = controller.state_dict()
        with pytest.raises(ValueError, match=match):
            controller.restore_state(state)
        assert controller.state_dict() == before
        assert not controller.migration_in_progress

    def test_valid_plan_restores(self, chip_a, state):
        controller = RuntimeReconfigurationController(chip_a)
        controller.restore_state(state)
        assert controller.plan_next_stage == 1
        assert controller.state_dict() == state

    def test_next_stage_past_the_end_rejected(self, chip_a, state):
        state["plan"]["next_stage"] = 99
        self._assert_rejected(chip_a, state, "next_stage 99 is out of range")

    def test_negative_next_stage_rejected(self, chip_a, state):
        state["plan"]["next_stage"] = -1
        self._assert_rejected(chip_a, state, "next_stage -1 is out of range")

    def test_plan_without_stages_rejected(self, chip_a, state):
        state["plan"]["plan"]["stages"] = []
        self._assert_rejected(chip_a, state, "0-stage plan")

    def test_non_closed_stage_rejected(self, chip_a, state):
        moves = state["plan"]["plan"]["stages"][1]["moves"]
        moves[0][1] = moves[0][0]  # one PE of the cycle stays put
        self._assert_rejected(chip_a, state, "closed relocation")

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("cycles", -5, "cycles -5 must be non-negative"),
            ("energy_j", float("nan"), "energy_j nan must be finite"),
            ("payload_flits", -3, "payload flits must be non-negative"),
            ("energy_per_unit", float("inf"), r"energy_per_unit\[\d+\] inf must be finite"),
            ("source", 16, r"node ids 0\.\.15"),
            ("energy_node", "-1", "names node -1 outside"),
        ],
    )
    def test_malformed_stage_value_rejected(self, chip_a, state, field, value, match):
        """A number no lowering produces is refused before it can skew the
        running totals or the power rows."""
        stage = state["plan"]["plan"]["stages"][1]
        if field == "payload_flits":
            stage["moves"][0][2] = value
        elif field == "source":
            stage["moves"][0][0] = value
        elif field == "energy_per_unit":
            stage["energy_per_unit"][next(iter(stage["energy_per_unit"]))] = value
        elif field == "energy_node":
            stage["energy_per_unit"][value] = 1e-9
        else:
            stage[field] = value
        self._assert_rejected(chip_a, state, match)
