"""Experiment E3 (part 2) — migration-energy accounting ablation.

Section 3: "the rotational migration has the largest energy penalty for
performing reconfiguration, resulting in an increase in average chip
temperature of 0.3 C".  This benchmark quantifies, per migration scheme, the
energy of one full-chip migration, its average-temperature cost at the 109 us
period, and the with/without-energy ablation on configuration E.
"""

import pytest

import perf_utils
from conftest import print_rows

from repro.analysis.sweep import run_energy_ablation
from repro.migration.transforms import FIGURE1_SCHEMES, make_transform
from repro.migration.unit import MigrationUnit


def test_migration_cost_per_scheme(benchmark, chip_e):
    """Benchmark the migration cost model across all Figure 1 schemes."""
    unit = MigrationUnit(chip_e.topology, library=chip_e.library)
    nodes = chip_e.tanner_nodes_per_pe()

    def all_costs():
        return {
            scheme: unit.migration_cost(make_transform(scheme, chip_e.topology), nodes)
            for scheme in FIGURE1_SCHEMES
        }

    costs = benchmark(all_costs)
    period_s = 109e-6
    rows = [
        {
            "scheme": scheme,
            "migration_cycles": cost.cycles,
            "phases": unit.scheduler.schedule_for_transform(
                make_transform(scheme, chip_e.topology), nodes
            ).num_phases,
            "energy_uJ": round(cost.energy_j * 1e6, 2),
            "avg_power_overhead_W": round(cost.energy_j / period_s, 3),
        }
        for scheme, cost in costs.items()
    ]
    print_rows("Migration cost per scheme (configuration E, 109 us period)", rows)

    # Rotation is clearly more expensive than the cheap single-direction
    # schemes (right shift, X mirror).  In our distance-based model the X-Y
    # mirror and the wrap-around X-Y shift move payloads comparably far, so
    # they land within a few percent of rotation rather than clearly below it
    # as the paper implies — see EXPERIMENTS.md for the discussion.
    assert costs["rotation"].energy_j > costs["right-shift"].energy_j
    assert costs["rotation"].energy_j > costs["x-mirror"].energy_j


def test_energy_ablation_rotation_on_E(benchmark, chip_e):
    """Average-temperature increase attributable to migration energy."""
    with perf_utils.timed() as timer:
        ablation = benchmark.pedantic(
            run_energy_ablation,
            kwargs={
                "configuration": chip_e,
                "scheme": "rotation",
                "period_us": 109.0,
                "num_epochs": 41,
            },
            rounds=1,
            iterations=1,
        )
    perf_utils.record_perf(
        "analysis.energy_ablation.rotation_E",
        timer.seconds,
        throughput=2 / timer.seconds,
        throughput_unit="experiments/s",
    )
    rows = [
        {
            "quantity": "mean temperature increase (deg C)",
            "measured": round(ablation.mean_temperature_penalty_celsius, 3),
            "paper": 0.3,
        },
        {
            "quantity": "peak temperature increase (deg C)",
            "measured": round(ablation.peak_temperature_penalty_celsius, 3),
            "paper": "-",
        },
    ]
    print_rows("Migration-energy ablation: rotation on configuration E", rows)
    assert 0.0 < ablation.mean_temperature_penalty_celsius < 1.0


def test_energy_penalty_ordering_across_schemes(chip_e):
    """Rotation's energy penalty exceeds the translations' penalties."""
    penalties = {}
    for scheme in ("rotation", "xy-shift", "right-shift"):
        ablation = run_energy_ablation(chip_e, scheme=scheme, num_epochs=21)
        penalties[scheme] = ablation.mean_temperature_penalty_celsius
    rows = [
        {"scheme": scheme, "mean_increase_c": round(value, 3)}
        for scheme, value in penalties.items()
    ]
    print_rows("Mean-temperature penalty of migration energy per scheme", rows)
    assert penalties["rotation"] > penalties["right-shift"]
