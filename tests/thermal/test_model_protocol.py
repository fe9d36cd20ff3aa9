"""Tests for the shared ThermalModel protocol and the batch fast paths.

``HotSpotModel`` and ``GridThermalModel`` implement the same array-native
interface: multi-RHS steady batches against the cached factorisation, and
sequenced transients with the propagator cache and the spectral sampler.
The grid model must pass the same cache/spectral parity guards as the block
model — the resolution ablation has no physical reason to be slower.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.noc.topology import MeshTopology
from repro.power.trace import PowerTrace
from repro.thermal.grid import GridThermalModel
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.model import ThermalModel

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import block_oracle  # noqa: E402


@pytest.fixture(scope="module")
def mesh():
    return MeshTopology(4, 4)


@pytest.fixture(scope="module")
def block_model(mesh):
    return HotSpotModel(mesh)


@pytest.fixture(scope="module")
def grid_model(mesh):
    return GridThermalModel(mesh, resolution=3)


def _power_rows(mesh, count=5):
    rows = np.ones((count, mesh.num_nodes))
    for index in range(count):
        rows[index, index % mesh.num_nodes] = 4.0 + 0.5 * index
    return rows


def _trace(mesh, count=5, duration=1e-3):
    rows = _power_rows(mesh, count)
    return PowerTrace.from_arrays(mesh, np.full(count, duration), rows)


class TestProtocolConformance:
    def test_both_models_satisfy_protocol(self, block_model, grid_model):
        assert isinstance(block_model, ThermalModel)
        assert isinstance(grid_model, ThermalModel)


class TestSteadyBatch:
    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    def test_batch_matches_per_map_solves(self, model_fixture, mesh, request):
        model = request.getfixturevalue(model_fixture)
        rows = _power_rows(mesh)
        batch = model.steady_temperatures(rows)
        assert batch.shape == (rows.shape[0], mesh.num_nodes)
        coords = list(mesh.coordinates())
        for row_index in range(rows.shape[0]):
            power = block_oracle.as_map(mesh, rows[row_index])
            reference = block_oracle.steady_by_coord(model, power)
            for unit_index, coord in enumerate(coords):
                assert batch[row_index, unit_index] == pytest.approx(
                    reference[coord], abs=1e-9
                )

    def test_batch_counts_as_one_solve(self, mesh):
        model = HotSpotModel(mesh)
        before = model.solver.steady_solve_count
        model.steady_temperatures(_power_rows(mesh, count=16))
        assert model.solver.steady_solve_count - before == 1

    def test_batch_rejects_negative_power(self, block_model, mesh):
        rows = _power_rows(mesh)
        rows[0, 0] = -1.0
        with pytest.raises(ValueError):
            block_model.steady_temperatures(rows)

    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_power_is_a_clear_error(self, model_fixture, bad, mesh, request):
        model = request.getfixturevalue(model_fixture)
        rows = _power_rows(mesh)
        rows[1, 3] = bad
        with pytest.raises(ValueError, match="non-finite power"):
            model.steady_temperatures(rows)
        with pytest.raises(ValueError, match="non-finite power"):
            model.peak_temperature(rows[1])
        with pytest.raises(ValueError, match="non-finite power"):
            model.warm_state(rows[1])

    def test_grid_statistics_ordering(self, grid_model, mesh):
        rows = _power_rows(mesh)
        peaks = grid_model.steady_temperatures(rows, statistic="peak")
        means = grid_model.steady_temperatures(rows, statistic="mean")
        assert (peaks >= means - 1e-9).all()


class TestSequencedTransient:
    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    def test_trace_equals_dict_intervals(self, model_fixture, mesh, request):
        """The PowerTrace scatter and the solver's block-name intervals agree
        exactly."""
        model = request.getfixturevalue(model_fixture)
        trace = _trace(mesh)
        state = model.warm_state(trace.powers.mean(axis=0))
        from_trace = model.transient_sequence(
            trace, initial_state=state, time_step_s=2e-4
        )
        maps = [block_oracle.as_map(mesh, row) for row in trace.powers]
        block_intervals = [
            (float(duration), block_oracle.block_power(model, power))
            for duration, power in zip(trace.durations, maps)
        ]
        from_dicts = model.solver.transient_sequence(
            block_intervals, initial_state=state, time_step_s=2e-4
        )
        assert from_trace.interval_ranges == from_dicts.interval_ranges
        for name in from_trace.block_celsius:
            assert np.array_equal(
                from_trace.block_celsius[name], from_dicts.block_celsius[name]
            )

    def test_grid_propagator_cache_single_factorisation(self, mesh):
        """The grid model inherits the propagator cache: one factorisation
        for a whole multi-interval trace (the solver-level regression guard
        the block model already has)."""
        model = GridThermalModel(mesh, resolution=3)
        trace = _trace(mesh, count=8)
        model.transient_sequence(trace, time_step_s=2e-4)
        assert model.solver.step_factorization_count == 1
        model.transient_sequence(trace, time_step_s=2e-4)
        assert model.solver.step_factorization_count == 1

    def test_grid_spectral_matches_euler(self, mesh):
        """Spectral sampling on the refined network reproduces the stepped
        implicit-Euler trajectory to <1e-9 (the block-solver parity bar)."""
        model = GridThermalModel(mesh, resolution=2)
        trace = _trace(mesh, count=6)
        state = model.warm_state(trace.powers.mean(axis=0))
        euler = model.transient_sequence(
            trace, initial_state=state, time_step_s=2e-4
        )
        spectral = model.transient_sequence(
            trace, initial_state=state, time_step_s=2e-4, method="spectral"
        )
        for name in euler.block_celsius:
            assert np.allclose(
                euler.block_celsius[name], spectral.block_celsius[name], atol=1e-9
            )

    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    def test_interval_ranges_partition_samples(self, model_fixture, mesh, request):
        model = request.getfixturevalue(model_fixture)
        trace = _trace(mesh, count=4)
        result = model.transient_sequence(trace, time_step_s=2e-4)
        ranges = result.interval_ranges
        assert ranges[0][0] == 0
        assert ranges[-1][1] == result.times_s.size
        for (_start_a, stop_a), (start_b, _stop_b) in zip(ranges, ranges[1:]):
            assert stop_a == start_b

    @pytest.mark.parametrize("model_fixture", ["block_model", "grid_model"])
    def test_unit_series_shape_and_final_state(self, model_fixture, mesh, request):
        model = request.getfixturevalue(model_fixture)
        trace = _trace(mesh, count=3)
        result = model.transient_sequence(trace, time_step_s=2e-4)
        series = model.unit_series(result)
        assert series.shape == (mesh.num_nodes, result.times_s.size)
        assert np.isfinite(series).all()

    def test_grid_warm_state_matches_oracle(self, grid_model, mesh):
        vector = np.linspace(0.5, 3.0, mesh.num_nodes)
        as_dict = block_oracle.as_map(mesh, vector)
        reference = block_oracle.warm_state(grid_model, as_dict)
        assert np.array_equal(grid_model.warm_state(vector), reference)

    def test_grid_time_constant_positive(self, grid_model):
        assert grid_model.thermal_time_constant_s() > 0
