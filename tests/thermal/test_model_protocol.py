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

from repro.chips import get_configuration
from repro.noc.topology import MeshTopology
from repro.power.trace import PowerTrace
from repro.thermal.grid import GridThermalModel
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.model import ThermalModel, as_solver_intervals

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
        """The PowerTrace scatter and the block-name reference's dict
        intervals agree exactly."""
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
        from_dicts = block_oracle.oracle(model).transient_sequence(
            block_intervals, initial_state=state, time_step_s=2e-4
        )
        assert from_trace.interval_ranges == from_dicts.interval_ranges
        assert np.array_equal(
            model.unit_series(from_trace), block_oracle.unit_series(model, from_dicts)
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
        assert np.allclose(euler.node_kelvin, spectral.node_kelvin, atol=1e-9)

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


# ----------------------------------------------------------------------
# Exact unit-series parity with the block-name reference
# ----------------------------------------------------------------------
_GRIDS = {}


def _models_of(chip_name):
    chip = get_configuration(chip_name)
    if chip_name not in _GRIDS:
        _GRIDS[chip_name] = GridThermalModel(chip.topology, resolution=3)
    return chip, {"block": chip.thermal_model, "grid": _GRIDS[chip_name]}


def _case(topology, case):
    """(trace, time step, ambient offsets) of one parity case."""
    rng = np.random.default_rng(sum(map(ord, case)))
    rows = rng.uniform(0.5, 3.0, size=(6, topology.num_nodes))
    if case == "mixed":
        durations = np.array([1e-3, 2e-3, 7e-4, 1.5e-3, 3e-4, 1e-3])
        time_step = None  # each duration resolves its own default step
    else:
        durations = np.full(6, 109e-6)
        time_step = 109e-6 / 8
    offsets = np.array([0.0, 2.5, -1.0, 4.0, 0.0, 1.25]) if case == "offsets" else None
    return PowerTrace.from_arrays(topology, durations, rows), time_step, offsets


@pytest.mark.parametrize("method", ["euler", "spectral"])
@pytest.mark.parametrize("case", ["shared", "offsets", "mixed"])
@pytest.mark.parametrize("chip_name", ["A", "B", "C", "D", "E"])
class TestExactUnitSeriesParity:
    """``unit_series`` indexes the node history bit for bit like the seed.

    The seed models stacked per-block Celsius dicts by block name (a grid
    unit: ``(units, cells, samples)`` reduced over the cell axis).  The
    node-history indexing must reproduce that stack exactly — ``==``, not a
    tolerance — on every chip, for a shared step, a shared step with
    per-interval ambient offsets, and mixed durations at the default step.
    Euler and the mixed-step spectral fallback also match the independent
    ``lu_solve`` reference exactly; the whole-trace spectral jump matches
    it to 1e-9.
    """

    def test_matches_block_dict_stack(self, chip_name, case, method):
        chip, models = _models_of(chip_name)
        trace, time_step, offsets = _case(chip.topology, case)
        for kind, model in models.items():
            start_offset = float(offsets[0]) if offsets is not None else 0.0
            warm = model.warm_state(
                trace.powers.mean(axis=0), ambient_offset_kelvin=start_offset
            )
            result = model.transient_sequence(
                trace,
                initial_state=warm,
                time_step_s=time_step,
                method=method,
                ambient_offsets_kelvin=offsets,
            )
            reference = block_oracle.oracle(model).transient_sequence(
                as_solver_intervals(model, trace),
                initial_state=warm,
                time_step_s=time_step,
                method=method,
                ambient_offsets_kelvin=offsets,
            )
            assert result.interval_ranges == reference.interval_ranges
            assert np.array_equal(result.times_s, reference.times_s)
            view = block_oracle.block_view(model.network, result)
            jumped = method == "spectral" and case != "mixed"
            statistics = ["peak", "mean"] if kind == "grid" else ["peak"]
            for statistic in statistics:
                kwargs = {"statistic": statistic} if kind == "grid" else {}
                series = model.unit_series(result, **kwargs)
                assert np.array_equal(
                    series, block_oracle.unit_series(model, view, statistic)
                )
                expected = block_oracle.unit_series(model, reference, statistic)
                if jumped:
                    assert np.allclose(series, expected, atol=1e-9)
                else:
                    assert np.array_equal(series, expected)
            if not jumped:
                assert np.array_equal(
                    result.final_state_kelvin, reference.final_state_kelvin
                )
