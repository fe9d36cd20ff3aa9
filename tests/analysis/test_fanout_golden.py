"""Golden gate for the sweep, ablation, DTM and scenario-suite paths.

The outputs below were captured from the implementation that fanned these
grids out through a worker-pool runner; they pin every reported float so a
change to how the grids are executed cannot move a result.

The last bits of a float depend on the numeric stack (numpy/scipy builds and
the BLAS kernels the CPU selects), so the exact ``==`` comparison runs where
the stack matches the one the golden was captured on, and a ``rel 1e-9``
comparison (the tolerance of ``perfbench``'s references) runs everywhere.
Regenerate (only for an intended change of the science) with::

    PYTHONPATH=src python tests/analysis/test_fanout_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis import run_energy_ablation, run_period_sweep
from repro.analysis.report import compare_scenarios
from repro.analysis.sweep import PAPER_PERIODS_US
from repro.chips import get_configuration
from repro.core.dtm import compare_with_migration
from repro.scenarios.registry import get_scenario

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from golden_stack import assert_close, numeric_stack  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("fanout_golden.json")

SUITE = ("steady-baseline", "pe-fault-transient", "adaptive-diurnal")

SECTIONS = (
    "period_sweep_steady",
    "period_sweep_transient",
    "ablation_e_rotation",
    "dtm_a",
    "scenarios_serial",
    "scenarios_n_jobs2",
)


def _experiment(result) -> Dict[str, object]:
    return {
        "baseline_peak_c": result.baseline_peak_celsius,
        "baseline_mean_c": result.baseline_mean_celsius,
        "settled_peak_c": result.settled_peak_celsius,
        "settled_mean_c": result.settled_mean_celsius,
        "migration_energy_j": result.total_migration_energy_j,
        "throughput_penalty": result.throughput_penalty,
        "migrations": result.migrations_performed,
        "migration_cycles": result.performance.migration_cycles,
        "peak_series": [float(value) for value in result.peak_series()],
    }


def _period_sweep(mode: str) -> List[Dict[str, float]]:
    sweep = run_period_sweep(
        get_configuration("A"),
        scheme="xy-shift",
        periods_us=PAPER_PERIODS_US,
        mode=mode,
        num_epochs=41,
    )
    return [
        {
            "period_us": point.period_us,
            "throughput_penalty": point.throughput_penalty,
            "settled_peak_c": point.settled_peak_celsius,
            "peak_reduction_c": point.peak_reduction_celsius,
            "migration_cycles_per_period": point.migration_cycles_per_period,
        }
        for point in sweep.points
    ]


def _scenario_suite(n_jobs) -> List[Dict[str, object]]:
    specs = [get_scenario(name) for name in SUITE]
    comparison = compare_scenarios(specs, n_jobs=n_jobs)
    rows = []
    for entry in comparison.results:
        rows.append(
            {
                "scenario": entry.spec.name,
                "experiment": _experiment(entry.experiment),
                "ambient_offset_min_c": entry.ambient_offset_min_celsius,
                "ambient_offset_max_c": entry.ambient_offset_max_celsius,
                "decoder": None
                if entry.decoder is None
                else {
                    "mean_iterations": float(entry.decoder.mean_iterations),
                    "success_rate": float(entry.decoder.success_rate),
                    "throughput_factor": float(entry.decoder.throughput_factor),
                },
                "noc_mean_latency_cycles": None
                if entry.noc is None
                else float(entry.noc.mean_latency_cycles),
            }
        )
    return rows


def snapshot() -> Dict[str, object]:
    """Every golden-pinned output, as JSON-exact plain data."""
    ablation = run_energy_ablation(
        get_configuration("E"), scheme="rotation", period_us=109.0, num_epochs=41
    )
    dtm = compare_with_migration(get_configuration("A"))
    return {
        "period_sweep_steady": _period_sweep("steady"),
        "period_sweep_transient": _period_sweep("transient"),
        "ablation_e_rotation": {
            "with_energy": _experiment(ablation.with_energy),
            "without_energy": _experiment(ablation.without_energy),
        },
        "dtm_a": {
            "target_peak_c": dtm.target_peak_celsius,
            "migration_penalty": dtm.migration_penalty,
            "migration_peak_c": dtm.migration_peak_celsius,
            "stop_go_penalty": dtm.stop_go_penalty,
            "dvfs_penalty": dtm.dvfs_penalty,
        },
        "scenarios_serial": _scenario_suite(None),
        "scenarios_n_jobs2": _scenario_suite(2),
    }


@pytest.fixture(scope="module")
def current():
    # Round-trip through JSON so the comparison sees exactly what the golden
    # file can hold (tuples become lists; floats keep their repr).
    return json.loads(json.dumps(snapshot()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("section", SECTIONS)
def test_matches_golden_exactly(current, golden, section):
    if golden["numeric_stack"] != numeric_stack():
        pytest.skip("golden captured on another numeric stack; see the close test")
    assert current[section] == golden["outputs"][section]


@pytest.mark.parametrize("section", SECTIONS)
def test_matches_golden_closely(current, golden, section):
    assert_close(current[section], golden["outputs"][section], section)


def test_golden_covers_every_section(current, golden):
    assert set(current) == set(golden["outputs"]) == set(SECTIONS)


def test_parallel_suite_equals_serial(current):
    assert current["scenarios_n_jobs2"] == current["scenarios_serial"]


if __name__ == "__main__":
    payload = {"numeric_stack": numeric_stack(), "outputs": snapshot()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
