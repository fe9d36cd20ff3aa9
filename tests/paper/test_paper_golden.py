"""Paper golden: the 25 Figure 1 cells and the Table 1 transform properties.

Every Figure 1 cell (chips A-E x the five schemes at ``FIGURE1_SETTINGS``)
runs a periodic migration policy through the whole epoch loop, so this file
pins the migration path end to end: baseline peak, settled peak and mean,
peak reduction, throughput penalty, migration count and migration energy.
It also keeps the paper's Section 3 shape claims (the ones
``benchmarks/bench_figure1_peak_reduction.py`` prints), the migration-period
sweep and chip-wide DTM comparisons (``bench_period_sweep.py`` and
``bench_dtm_comparison.py``), and Table 1's transform properties on the 4x4
and 5x5 meshes.

The numeric-stack rule is the one in ``tests/golden_stack.py``: exact ``==``
where the stack matches the capture machine, ``rel 1e-9`` everywhere.
Regenerate (only for an intended change of the science) with::

    PYTHONPATH=src python tests/paper/test_paper_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.analysis.report import (
    FIGURE1_SETTINGS,
    Figure1Cell,
    Figure1Report,
    run_figure1_cell,
)
from repro.analysis.sweep import PAPER_PERIODS_US, run_period_sweep
from repro.chips import all_configurations, get_configuration
from repro.core.dtm import DvfsThrottling, StopGoThrottling, compare_with_migration
from repro.migration.transforms import FIGURE1_SCHEMES, make_transform
from repro.noc.topology import MeshTopology

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from golden_stack import assert_close, numeric_stack  # noqa: E402

GOLDEN_PATH = Path(__file__).with_name("paper_golden.json")

#: The paper's mesh sizes, for the Table 1 transform properties.
TABLE1_SIZES = (4, 5)


def _figure1() -> List[Dict[str, object]]:
    cells = []
    for configuration in all_configurations():
        for scheme in FIGURE1_SCHEMES:
            result = run_figure1_cell(configuration, scheme, settings=FIGURE1_SETTINGS)
            cells.append(
                {
                    "configuration": configuration.name,
                    "scheme": scheme,
                    "baseline_peak_c": result.baseline_peak_celsius,
                    "settled_peak_c": result.settled_peak_celsius,
                    "settled_mean_c": result.settled_mean_celsius,
                    "reduction_c": result.peak_reduction_celsius,
                    "mean_increase_c": result.mean_increase_celsius,
                    "throughput_penalty": result.throughput_penalty,
                    "migrations": result.migrations_performed,
                    "migration_energy_j": result.total_migration_energy_j,
                }
            )
    return cells


def _table1() -> List[Dict[str, object]]:
    rows = []
    for size in TABLE1_SIZES:
        topology = MeshTopology(size, size)
        coordinates = list(topology.coordinates())
        for scheme in FIGURE1_SCHEMES:
            transform = make_transform(scheme, topology)
            images = {transform(coord) for coord in coordinates}
            rows.append(
                {
                    "mesh": f"{size}x{size}",
                    "scheme": scheme,
                    "bijection": images == set(coordinates),
                    "fixed_points": len(transform.fixed_points()),
                    "order": transform.order(),
                }
            )
    return rows


def snapshot() -> Dict[str, object]:
    """Every golden-pinned output, as JSON-exact plain data."""
    return {"figure1": _figure1(), "table1": _table1()}


@pytest.fixture(scope="module")
def current():
    return json.loads(json.dumps(snapshot()))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def report(current) -> Figure1Report:
    cells = [
        Figure1Cell(
            configuration=cell["configuration"],
            scheme=cell["scheme"],
            baseline_peak_celsius=cell["baseline_peak_c"],
            settled_peak_celsius=cell["settled_peak_c"],
            reduction_celsius=cell["reduction_c"],
            mean_increase_celsius=cell["mean_increase_c"],
            throughput_penalty=cell["throughput_penalty"],
        )
        for cell in current["figure1"]
    ]
    return Figure1Report(cells=cells, period_us=109.0)


@pytest.mark.parametrize("section", ["figure1", "table1"])
def test_matches_golden_exactly(current, golden, section):
    if golden["numeric_stack"] != numeric_stack():
        pytest.skip("golden captured on another numeric stack; see the close test")
    assert current[section] == golden["outputs"][section]


@pytest.mark.parametrize("section", ["figure1", "table1"])
def test_matches_golden_closely(current, golden, section):
    assert_close(current[section], golden["outputs"][section], section)


def test_figure1_covers_every_cell(current):
    pairs = {(cell["configuration"], cell["scheme"]) for cell in current["figure1"]}
    assert len(pairs) == len(current["figure1"]) == 25
    # One static epoch, then one migration per 109 us period.
    assert all(cell["migrations"] == 40 for cell in current["figure1"])


# ----------------------------------------------------------------------
# The paper's Section 3 shape claims
# ----------------------------------------------------------------------
def test_xy_shift_wins(report):
    assert report.best_scheme() == "xy-shift"
    assert 3.0 < report.max_reduction() < 12.0


def test_average_ordering(report):
    averages = {scheme: report.average_reduction(scheme) for scheme in report.schemes()}
    assert averages["rotation"] > averages["x-mirror"]
    assert averages["rotation"] > averages["right-shift"]


def test_rotation_at_most_half_a_degree_on_e(report):
    assert report.reduction("E", "rotation") < 0.5


def test_right_shift_trails_xy_shift(report):
    for configuration in ("A", "B", "C", "D"):
        assert report.reduction(configuration, "right-shift") < report.reduction(
            configuration, "xy-shift"
        )


@pytest.mark.parametrize("scheme", ["rotation", "xy-mirror"])
def test_rotation_and_mirroring_lose_their_edge_on_5x5(report, scheme):
    even = (report.reduction("A", scheme) + report.reduction("B", scheme)) / 2
    odd = sum(report.reduction(config, scheme) for config in ("C", "D", "E")) / 3
    assert even > odd


# ----------------------------------------------------------------------
# The period sweep: the penalty falls as 1/period (1.6 %, <0.4 %, <0.2 %)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def sweep_penalties() -> Dict[float, float]:
    sweep = run_period_sweep(
        get_configuration("A"),
        scheme="xy-shift",
        periods_us=PAPER_PERIODS_US,
        mode="steady",
        num_epochs=41,
    )
    return sweep.penalties()


def test_penalty_falls_with_period(sweep_penalties):
    assert sweep_penalties[109.0] > sweep_penalties[437.2] > sweep_penalties[874.4]


def test_penalty_scales_inversely_with_period(sweep_penalties):
    assert 3.0 < sweep_penalties[109.0] / sweep_penalties[437.2] < 5.0
    assert 6.0 < sweep_penalties[109.0] / sweep_penalties[874.4] < 10.0


# ----------------------------------------------------------------------
# Migration vs chip-wide DTM (the introduction's argument)
# ----------------------------------------------------------------------
DTM_LEVELS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5)


def test_dtm_peaks_fall_monotonically_with_throughput():
    chip = get_configuration("A")
    stop_go = [StopGoThrottling(chip).operating_point(d).peak_celsius for d in DTM_LEVELS]
    dvfs = [DvfsThrottling(chip).operating_point(f).peak_celsius for f in DTM_LEVELS]
    assert all(a >= b for a, b in zip(stop_go, stop_go[1:]))
    assert all(a >= b for a, b in zip(dvfs, dvfs[1:]))
    # Voltage scaling cools faster per unit of throughput given up.
    assert dvfs[-1] <= stop_go[-1]


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_migration_reaches_its_peak_cheaper_than_global_dtm(name):
    comparison = compare_with_migration(
        get_configuration(name), scheme="xy-shift", num_epochs=41
    )
    assert comparison.migration_penalty < 0.05
    assert comparison.stop_go_penalty > comparison.migration_penalty
    assert comparison.dvfs_penalty > comparison.migration_penalty


# ----------------------------------------------------------------------
# Table 1 transform properties
# ----------------------------------------------------------------------
def test_table1_transforms_are_bijections(current):
    assert all(row["bijection"] for row in current["table1"])


def test_table1_centre_fixed_point_on_5x5(current):
    rows = {(row["mesh"], row["scheme"]): row for row in current["table1"]}
    # Rotation and X-Y mirroring fix the centre of an odd mesh and nothing
    # on an even one; the shifts move every PE.
    for scheme in ("rotation", "xy-mirror"):
        assert rows[("4x4", scheme)]["fixed_points"] == 0
        assert rows[("5x5", scheme)]["fixed_points"] == 1
    for mesh in ("4x4", "5x5"):
        assert rows[(mesh, "xy-shift")]["fixed_points"] == 0
        assert rows[(mesh, "right-shift")]["fixed_points"] == 0
        assert rows[(mesh, "rotation")]["order"] == 4
        assert rows[(mesh, "xy-mirror")]["order"] == 2


if __name__ == "__main__":
    payload = {"numeric_stack": numeric_stack(), "outputs": snapshot()}
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
