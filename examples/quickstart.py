"""Quickstart: reproduce one bar of Figure 1.

Runs the paper's headline experiment on chip configuration A (4x4 mesh,
baseline peak 85.44 C): periodic X-Y shift migration every 109 microseconds,
starting from the thermally-optimised static mapping.  Prints the peak
temperature with and without migration, the throughput penalty, and ASCII
heat maps of the die before and after.

Run with:

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    ExperimentSettings,
    PeriodicMigrationPolicy,
    ThermalExperiment,
    get_configuration,
)
from repro.analysis import render_grid, render_heat_bar


def main() -> None:
    chip = get_configuration("A")
    print(f"Configuration {chip.name}: {chip.topology.width}x{chip.topology.height} mesh, "
          f"{chip.total_power_w:.1f} W total, ambient {chip.thermal_model.ambient_celsius:.0f} C")
    print(f"Workload: LDPC decoder, {chip.workload.partition.graph.num_nodes} Tanner nodes "
          f"over {chip.num_units} PEs, "
          f"{chip.workload.total_flits_per_iteration()} flits per decoding iteration")
    print()

    # Baseline: the thermally-aware static mapping, no migration.
    # Per-unit power and temperature are row-major vectors over the mesh.
    baseline_temps = chip.thermal_model.steady_temperatures(
        chip.power_vector()[np.newaxis, :]
    )[0]
    print(render_grid(chip.topology, baseline_temps,
                      title="Baseline steady-state temperatures", unit="deg C"))
    print()
    print("Baseline heat map (denser = hotter):")
    print(render_heat_bar(chip.topology, baseline_temps))
    print()

    # Periodic X-Y shift migration at the paper's 109 us period.
    policy = PeriodicMigrationPolicy(chip.topology, "xy-shift", period_us=109.0)
    settings = ExperimentSettings(num_epochs=41, mode="steady", settle_epochs=40)
    result = ThermalExperiment(chip, policy, settings=settings).run()

    print(f"Baseline peak temperature      : {result.baseline_peak_celsius:7.2f} C")
    print(f"Peak with X-Y shift migration  : {result.settled_peak_celsius:7.2f} C")
    print(f"Reduction in peak temperature  : {result.peak_reduction_celsius:7.2f} C")
    print(f"Average-temperature increase   : {result.mean_increase_celsius:7.3f} C "
          f"(migration energy)")
    print(f"Throughput penalty             : {100 * result.throughput_penalty:7.2f} %")
    print(f"Migrations performed           : {result.migrations_performed}")
    print()

    # Settled temperatures under migration: the time-averaged power map of the
    # final epochs drives the die.
    averaged = np.mean([epoch.power_w for epoch in result.epochs[-40:]], axis=0)
    migrated_temps = chip.thermal_model.steady_temperatures(
        averaged[np.newaxis, :]
    )[0]
    print(render_grid(chip.topology, migrated_temps,
                      title="Settled temperatures with X-Y shift migration", unit="deg C"))
    print()
    print("Migrated heat map (denser = hotter):")
    print(render_heat_bar(chip.topology, migrated_temps))


if __name__ == "__main__":
    main()
