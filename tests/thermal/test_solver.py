"""Tests for the steady-state and transient thermal solvers.

The solver speaks node-space arrays; these tests build block-name power
with the network's ``power_vector`` scatter and read results through the
block-name views of ``tests/block_oracle.py``.  Its :class:`BlockSolver`
(scipy ``lu_factor`` / ``lu_solve``, no step cache) is the independent
reference the raw-``getrs`` paths are pinned against.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.thermal.floorplan import mesh_floorplan
from repro.thermal.rc_model import build_thermal_network
from repro.thermal.solver import ThermalSolver

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import block_oracle  # noqa: E402


@pytest.fixture
def solver4(mesh4):
    return ThermalSolver(build_thermal_network(mesh_floorplan(mesh4)))


def _uniform_power(mesh, watts):
    return {f"PE_{x}_{y}": watts for (x, y) in mesh.coordinates()}


def _steady(solver, block_power):
    """Block-name map of one steady solve of a ``{block: W}`` assignment."""
    power = solver.network.power_vector(block_power)
    kelvin = solver.steady_state_batch(power[np.newaxis, :])[0]
    return block_oracle.temperature_map(solver.network, kelvin)


def _warm(solver, block_power):
    return solver.warm_state(solver.network.power_vector(block_power))


def _transient(solver, block_power, duration_s, **kwargs):
    """One constant-power interval through ``transient_sequence``, by block."""
    power = solver.network.power_vector(block_power)
    result = solver.transient_sequence([(duration_s, power)], **kwargs)
    return block_oracle.block_view(solver.network, result)


def _node_intervals(solver, intervals):
    return [
        (duration, solver.network.power_vector(power)) for duration, power in intervals
    ]


class TestSteadyState:
    def test_zero_power_gives_ambient(self, solver4, mesh4):
        result = _steady(solver4, _uniform_power(mesh4, 0.0))
        assert result.peak_celsius == pytest.approx(40.0, abs=1e-6)
        assert result.spread_celsius == pytest.approx(0.0, abs=1e-9)

    def test_uniform_power_above_ambient(self, solver4, mesh4):
        result = _steady(solver4, _uniform_power(mesh4, 2.0))
        assert result.peak_celsius > 45.0
        assert result.min_celsius > 40.0
        # A uniform map should be nearly spatially uniform (edge effects only).
        assert result.spread_celsius < 2.0

    def test_linearity_in_power(self, solver4, mesh4):
        one = _steady(solver4, _uniform_power(mesh4, 1.0))
        two = _steady(solver4, _uniform_power(mesh4, 2.0))
        rise_one = one.peak_celsius - 40.0
        rise_two = two.peak_celsius - 40.0
        assert rise_two == pytest.approx(2 * rise_one, rel=1e-6)

    def test_hotspot_is_hottest_block(self, solver4, mesh4):
        power = _uniform_power(mesh4, 1.0)
        power["PE_2_1"] = 5.0
        result = _steady(solver4, power)
        assert result.hottest_block() == "PE_2_1"
        assert result.spread_celsius > 2.0

    def test_superposition(self, solver4, mesh4):
        """The RC network is linear: temperatures superpose (above ambient)."""
        power_a = {"PE_0_0": 3.0}
        power_b = {"PE_3_3": 2.0}
        combined = {"PE_0_0": 3.0, "PE_3_3": 2.0}
        t_a = _steady(solver4, power_a)
        t_b = _steady(solver4, power_b)
        t_ab = _steady(solver4, combined)
        for name in t_ab.block_celsius:
            rise = (t_a.block_celsius[name] - 40.0) + (t_b.block_celsius[name] - 40.0)
            assert t_ab.block_celsius[name] - 40.0 == pytest.approx(rise, rel=1e-6)

    def test_temperature_map_statistics(self, solver4, mesh4):
        result = _steady(solver4, _uniform_power(mesh4, 2.0))
        assert result.min_celsius <= result.mean_celsius <= result.peak_celsius
        assert set(result.as_dict()) == {f"PE_{x}_{y}" for x, y in mesh4.coordinates()}


class TestNonFinitePower:
    """NaN passes a ``min() < 0`` gate; every entry point must still refuse it."""

    @pytest.fixture(params=[np.nan, np.inf])
    def bad_vector(self, request, solver4):
        power = np.ones(solver4.network.num_nodes)
        power[3] = request.param
        return power

    def test_steady_single(self, solver4, bad_vector):
        with pytest.raises(ValueError, match="non-finite power"):
            solver4.warm_state(bad_vector)

    def test_steady_single_block_dict(self, solver4, mesh4, bad_vector):
        power = _uniform_power(mesh4, 1.0)
        power["PE_1_1"] = bad_vector[3]
        with pytest.raises(ValueError, match="non-finite power"):
            _warm(solver4, power)

    def test_steady_batch(self, solver4, bad_vector):
        rows = np.vstack([np.ones_like(bad_vector), bad_vector])
        with pytest.raises(ValueError, match="non-finite power"):
            solver4.steady_state_batch(rows)

    @pytest.mark.parametrize("method", ["euler", "spectral"])
    def test_transient_sequence(self, solver4, bad_vector, method):
        intervals = [(1e-3, np.ones_like(bad_vector)), (1e-3, bad_vector)]
        with pytest.raises(ValueError, match="non-finite power"):
            solver4.transient_sequence(intervals, time_step_s=2.5e-4, method=method)


class TestNonFiniteInitialState:
    """A NaN or inf starting node must be a clear error, never NaN output.

    The spectral paths used to propagate it silently through the eigenbasis
    matmul; Euler only failed by accident of scipy's input check.
    """

    @pytest.fixture(params=[np.nan, np.inf])
    def bad_state(self, request, solver4):
        state = np.full(solver4.network.num_nodes, solver4.network.ambient_kelvin)
        state[3] = request.param
        return state

    @pytest.mark.parametrize(
        "method, durations",
        [
            ("euler", (1e-3, 1e-3)),
            ("spectral", (1e-3, 1e-3)),  # shared dt: the whole-trace jump
            ("spectral", (1e-3, 7e-3)),  # mixed dt: the per-interval fallback
        ],
        ids=["euler", "spectral-jump", "spectral-mixed-dt"],
    )
    def test_rejected_by_every_method(self, solver4, bad_state, method, durations):
        power = np.ones(solver4.network.num_nodes)
        intervals = [(duration, power) for duration in durations]
        with pytest.raises(ValueError, match="non-finite initial state"):
            solver4.transient_sequence(
                intervals, initial_state=bad_state, method=method
            )
        assert solver4.spectral_jump_count == 0

    def test_history_is_checked_after_the_loop(self, solver4, monkeypatch):
        """``getrs`` skips scipy's finiteness check, so the history is scanned."""
        import repro.thermal.solver as solver_module

        def poisoned(lu, piv, b, overwrite_b=0):
            return np.full_like(b, np.nan), 0

        monkeypatch.setattr(solver_module, "dgetrs", poisoned)
        power = np.ones(solver4.network.num_nodes)
        with pytest.raises(ValueError, match="non-finite temperatures"):
            solver4.transient_sequence([(1e-3, power)], time_step_s=2.5e-4)

    def test_getrs_info_is_checked(self, solver4, monkeypatch):
        import repro.thermal.solver as solver_module

        monkeypatch.setattr(
            solver_module, "dgetrs", lambda lu, piv, b, overwrite_b=0: (b, -3)
        )
        power = np.ones(solver4.network.num_nodes)
        with pytest.raises(ValueError, match="getrs rejected argument 3"):
            solver4.transient_sequence([(1e-3, power)], time_step_s=2.5e-4)


class TestTransient:
    def test_starts_at_ambient_and_heats(self, solver4, mesh4):
        result = _transient(solver4, _uniform_power(mesh4, 2.0), duration_s=0.005)
        first = result.peak_series()[0]
        last = result.peak_series()[-1]
        assert first == pytest.approx(40.0, abs=0.5)
        assert last > first

    def test_converges_towards_steady_state(self, solver4, mesh4):
        power = _uniform_power(mesh4, 2.0)
        steady = _steady(solver4, power)
        # Start from the warm state: transient must stay there.
        warm = _warm(solver4, power)
        result = _transient(solver4, power, duration_s=0.01, initial_state=warm)
        assert result.final_map().peak_celsius == pytest.approx(
            steady.peak_celsius, abs=0.05
        )

    def test_cooling_when_power_removed(self, solver4, mesh4):
        warm = _warm(solver4, _uniform_power(mesh4, 3.0))
        result = _transient(
            solver4, _uniform_power(mesh4, 0.0), duration_s=0.02, initial_state=warm
        )
        assert result.peak_series()[-1] < result.peak_series()[0]

    def test_monotone_heating_from_cold(self, solver4, mesh4):
        result = _transient(solver4, _uniform_power(mesh4, 2.0), duration_s=0.002)
        peaks = result.peak_series()
        assert np.all(np.diff(peaks) >= -1e-9)

    def test_invalid_duration(self, solver4, mesh4):
        with pytest.raises(ValueError):
            _transient(solver4, _uniform_power(mesh4, 1.0), duration_s=0.0)

    def test_invalid_initial_state_shape(self, solver4, mesh4):
        with pytest.raises(ValueError):
            _transient(
                solver4, _uniform_power(mesh4, 1.0), duration_s=1e-3,
                initial_state=np.zeros(3),
            )

    def test_transient_sequence_continuity(self, solver4, mesh4):
        hot = _uniform_power(mesh4, 3.0)
        cool = _uniform_power(mesh4, 1.0)
        result = solver4.transient_sequence(
            _node_intervals(solver4, [(0.002, hot), (0.002, cool)])
        )
        assert result.times_s[-1] == pytest.approx(0.004, rel=1e-6)
        # Temperatures never jump discontinuously by more than a sane bound
        # between adjacent samples.
        peaks = block_oracle.block_view(solver4.network, result).peak_series()
        assert np.max(np.abs(np.diff(peaks))) < 5.0

    def test_transient_sequence_requires_intervals(self, solver4):
        with pytest.raises(ValueError):
            solver4.transient_sequence([])

    def test_record_every_reduces_samples(self, solver4, mesh4):
        dense = _transient(
            solver4, _uniform_power(mesh4, 1.0), duration_s=1e-3, time_step_s=1e-5
        )
        sparse = _transient(
            solver4, _uniform_power(mesh4, 1.0), duration_s=1e-3, time_step_s=1e-5,
            record_every=10,
        )
        assert len(sparse.times_s) < len(dense.times_s)


def _alternating_intervals(solver, mesh, epochs=41, duration=1e-3):
    hot = solver.network.power_vector(_uniform_power(mesh, 3.0))
    cool = solver.network.power_vector(_uniform_power(mesh, 1.0))
    return [(duration, hot if epoch % 2 else cool) for epoch in range(epochs)]


class TestPropagatorCache:
    def test_cached_matches_uncached_reference(self, solver4, mesh4):
        """Neither the cache nor raw ``getrs`` changes a single bit.

        The reference refactorises the step matrix on every interval and
        solves through scipy's ``lu_solve`` — the seed behaviour — so exact
        agreement on every node state is the regression bar.
        """
        reference = block_oracle.BlockSolver(solver4.network)
        intervals = _alternating_intervals(solver4, mesh4)
        expected = reference.transient_sequence(intervals)
        actual = solver4.transient_sequence(intervals)
        assert np.array_equal(expected.final_state_kelvin, actual.final_state_kelvin)
        assert np.array_equal(expected.times_s, actual.times_s)
        assert expected.interval_ranges == actual.interval_ranges
        view = block_oracle.block_view(solver4.network, actual)
        for name in expected.block_celsius:
            assert np.array_equal(expected.block_celsius[name], view.block_celsius[name])

    def test_one_factorization_per_distinct_time_step(self, solver4, mesh4):
        """Regression: a 41-interval sequence with one dt factorises once."""
        assert solver4.step_factorization_count == 0
        solver4.transient_sequence(
            _alternating_intervals(solver4, mesh4), time_step_s=5e-6
        )
        assert solver4.step_factorization_count == 1
        # Same dt again: still one factorisation.
        _transient(solver4, _uniform_power(mesh4, 2.0), duration_s=1e-3, time_step_s=5e-6)
        assert solver4.step_factorization_count == 1
        # A second distinct dt adds exactly one more.
        _transient(solver4, _uniform_power(mesh4, 2.0), duration_s=1e-3, time_step_s=1e-5)
        assert solver4.step_factorization_count == 2

    def test_uncached_solver_counts_every_factorization(self, solver4, mesh4):
        """The uncached reference refactorises per interval; the solver once."""
        reference = block_oracle.BlockSolver(solver4.network)
        intervals = _alternating_intervals(solver4, mesh4, epochs=5)
        reference.transient_sequence(intervals, time_step_s=5e-6)
        solver4.transient_sequence(intervals, time_step_s=5e-6)
        assert reference.step_factorization_count == 5
        assert solver4.step_factorization_count == 1


class TestSpectralMethod:
    def test_matches_euler_trajectory(self, solver4, mesh4):
        """Spectral sampling reproduces the implicit-Euler iterates to 1e-9."""
        intervals = _alternating_intervals(solver4, mesh4, epochs=11)
        euler = solver4.transient_sequence(intervals)
        spectral = solver4.transient_sequence(intervals, method="spectral")
        assert np.allclose(euler.times_s, spectral.times_s)
        assert np.allclose(
            euler.final_state_kelvin, spectral.final_state_kelvin, atol=1e-9
        )
        assert np.allclose(euler.node_kelvin, spectral.node_kelvin, atol=1e-9)

    def test_matches_euler_with_record_every(self, solver4, mesh4):
        power = _uniform_power(mesh4, 2.5)
        euler = _transient(
            solver4, power, duration_s=2e-3, time_step_s=1e-5, record_every=7
        )
        spectral = _transient(
            solver4, power, duration_s=2e-3, time_step_s=1e-5, record_every=7,
            method="spectral",
        )
        assert np.allclose(euler.times_s, spectral.times_s)
        for name in euler.block_celsius:
            assert np.allclose(
                euler.block_celsius[name], spectral.block_celsius[name], atol=1e-9
            )

    def test_spectral_converges_to_steady_state(self, solver4, mesh4):
        """A horizon far past the package time constant lands on steady state.

        The spectral sampler makes such horizons cheap: 200 coarse implicit
        steps instead of millions of fine ones (the implicit-Euler fixed
        point does not depend on the step size).
        """
        power = _uniform_power(mesh4, 2.0)
        steady = _steady(solver4, power)
        result = _transient(
            solver4, power, duration_s=1e5, time_step_s=500.0, method="spectral"
        )
        assert result.final_map().peak_celsius == pytest.approx(
            steady.peak_celsius, abs=0.05
        )

    def test_unknown_method_rejected(self, solver4, mesh4):
        with pytest.raises(ValueError, match="method"):
            _transient(solver4, _uniform_power(mesh4, 1.0), duration_s=1e-3, method="rk4")


class TestSpectralSequenceJump:
    """The vectorised whole-trace spectral path (one eigenbasis transform)."""

    def test_shared_dt_takes_jump_path(self, solver4, mesh4):
        intervals = _alternating_intervals(solver4, mesh4, epochs=9)
        solver4.transient_sequence(intervals, method="spectral")
        assert solver4.spectral_jump_count == 1
        assert solver4.transient_sequence_count == 1

    def test_mixed_dt_falls_back_to_loop(self, solver4, mesh4):
        intervals = _alternating_intervals(solver4, mesh4, epochs=4)
        intervals.append((7e-3, solver4.network.power_vector(_uniform_power(mesh4, 1.5))))
        result = solver4.transient_sequence(intervals, method="spectral")
        assert solver4.spectral_jump_count == 0
        assert len(result.interval_ranges) == 5
        # The fallback is the per-interval projection, bit for bit.
        reference = block_oracle.BlockSolver(solver4.network).transient_sequence(
            intervals, method="spectral"
        )
        assert np.array_equal(reference.final_state_kelvin, result.final_state_kelvin)

    def test_euler_never_jumps(self, solver4, mesh4):
        solver4.transient_sequence(_alternating_intervals(solver4, mesh4, epochs=5))
        assert solver4.spectral_jump_count == 0

    def test_jump_matches_per_interval_spectral_loop(self, solver4, mesh4):
        """<1e-9 parity with the per-interval spectral chain.

        The reference chains one eigenbasis projection per interval with the
        state carried by hand — what ``transient_sequence`` did before the
        vectorised jump.
        """
        intervals = _alternating_intervals(solver4, mesh4, epochs=13)
        jumped = solver4.transient_sequence(intervals, method="spectral")
        assert solver4.spectral_jump_count == 1

        looped = block_oracle.BlockSolver(solver4.network).transient_sequence(
            intervals, method="spectral"
        )
        view = block_oracle.block_view(solver4.network, jumped)
        for name, reference in looped.block_celsius.items():
            assert np.allclose(view.block_celsius[name], reference, atol=1e-9)
        assert np.allclose(
            jumped.final_state_kelvin, looped.final_state_kelvin, atol=1e-9
        )

    def test_jump_with_warm_start_and_record_every(self, solver4, mesh4):
        intervals = _alternating_intervals(solver4, mesh4, epochs=7)
        warm = _warm(solver4, _uniform_power(mesh4, 1.2))
        jumped = solver4.transient_sequence(
            intervals, initial_state=warm, record_every=3, method="spectral"
        )
        euler = solver4.transient_sequence(
            intervals, initial_state=warm, record_every=3
        )
        assert np.allclose(jumped.times_s, euler.times_s)
        assert jumped.interval_ranges == euler.interval_ranges
        assert np.allclose(jumped.node_kelvin, euler.node_kelvin, atol=1e-9)

    def test_jump_respects_explicit_time_step(self, solver4, mesh4):
        intervals = _node_intervals(
            solver4,
            [(1e-3, _uniform_power(mesh4, 2.0)), (2e-3, _uniform_power(mesh4, 0.5))],
        )
        # Different durations but one explicit dt: still eligible to jump.
        jumped = solver4.transient_sequence(
            intervals, time_step_s=2.5e-4, method="spectral"
        )
        assert solver4.spectral_jump_count == 1
        euler = solver4.transient_sequence(intervals, time_step_s=2.5e-4)
        assert np.allclose(jumped.node_kelvin, euler.node_kelvin, atol=1e-9)


class TestThreadPrivateFactors:
    """Concurrent solves must never share LU factor memory.

    LAPACK ``getrs`` against shared ``(lu, piv)`` arrays is not reentrant
    on every BLAS build: two threads solving the same chip's factorisation
    concurrently returned corrupted temperatures.  Every solve therefore
    goes through a per-thread private copy of the factor.
    """

    def test_solves_use_a_private_copy(self, solver4):
        private = solver4._a_factor()
        assert private[0] is not solver4._A_factor[0]
        assert private[1] is not solver4._A_factor[1]
        assert np.array_equal(private[0], solver4._A_factor[0])
        assert np.array_equal(private[1], solver4._A_factor[1])

    def test_copy_is_cached_per_thread(self, solver4):
        assert solver4._a_factor()[0] is solver4._a_factor()[0]

    def test_each_thread_gets_its_own_copy(self, solver4):
        import threading

        seen = {}

        def grab(name):
            seen[name] = solver4._a_factor()

        threads = [
            threading.Thread(target=grab, args=(index,)) for index in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen[0][0] is not seen[1][0]
        assert np.array_equal(seen[0][0], seen[1][0])

    def test_replaced_factor_refreshes_the_copy(self, solver4):
        stale = solver4._a_factor()
        from scipy.linalg import lu_factor

        solver4._A_factor = lu_factor(solver4._A)
        fresh = solver4._a_factor()
        assert fresh[0] is not stale[0]

    def test_concurrent_batches_match_serial(self, solver4, mesh4):
        import concurrent.futures as cf

        vector = solver4.network.power_vector(_uniform_power(mesh4, 2.0))
        batch = np.vstack([vector * scale for scale in (0.5, 1.0, 1.5)])
        expected = solver4.steady_state_batch(batch)
        for _trial in range(20):
            with cf.ThreadPoolExecutor(max_workers=2) as pool:
                outs = list(
                    pool.map(lambda _i: solver4.steady_state_batch(batch), range(2))
                )
            for out in outs:
                assert np.array_equal(out, expected)

    def test_pickled_solver_recreates_the_thread_store(self, solver4):
        import pickle

        clone = pickle.loads(pickle.dumps(solver4))
        private = clone._a_factor()
        assert np.array_equal(private[0], solver4._A_factor[0])
