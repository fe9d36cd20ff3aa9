"""Steady-state and transient solvers for the RC thermal network.

* :meth:`ThermalSolver.steady_state_batch` solves ``A T = P + G_amb T_amb``
  for many power rows with one multi-RHS solve; :meth:`ThermalSolver.warm_state`
  is its one-vector form.
* :meth:`ThermalSolver.transient_sequence` integrates
  ``C dT/dt = P - A T + G_amb T_amb`` over a piecewise-constant power trace
  with an unconditionally stable implicit-Euler scheme.  The step matrix
  ``C/dt + A`` is factorised once per *distinct* time step and cached on the
  solver; every step of every interval is one raw LAPACK ``getrs`` call in a
  single loop that writes into one preallocated node history.
* ``method="spectral"`` evaluates the *same* implicit-Euler recurrence in
  closed form through the generalized eigendecomposition of ``(A, C)`` and
  jumps directly to the sampled instants, replacing the per-step Python loop
  with two matrix multiplies per power interval.
* Time-varying ambient is exact, not quasi-static: the ambient forcing
  ``G_amb * T_amb(t)`` is affine in the RHS, so a per-interval offset
  ``dT_i`` simply turns each interval's constant RHS into
  ``P_i + G_amb * (T_amb + dT_i)``.  :meth:`ThermalSolver.transient_sequence`
  accepts the offsets as a ``(num_intervals,)`` array; in the spectral-jump
  path they only move the per-interval fixed points (already one multi-RHS
  solve) and the boundary-jump recurrence — zero extra solves.

Power and temperature are node-space arrays throughout (watts and kelvin);
the thermal models index their unit nodes out of a :class:`TransientResult`
history and report degrees Celsius, matching the paper's figures.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh, lu_factor
from scipy.linalg.lapack import dgetrs

from ..obs import counter as _obs_counter
from ..obs import span as _obs_span
from .rc_model import ThermalNetwork

# Registry view of the solver counters: each increment of the per-solver
# attributes below also bumps the matching process-wide counter (a no-op
# while telemetry is disabled).  The attributes stay plain ints — they are
# the per-instance live views the bench guards and tests pin against; the
# registry aggregates across every solver in the process.
_OBS_STEADY_SOLVES = _obs_counter("thermal.steady_solves")
_OBS_FACTORIZATIONS = _obs_counter("thermal.step_factorizations")
_OBS_SEQUENCES = _obs_counter("thermal.transient_sequences")
_OBS_SPECTRAL_JUMPS = _obs_counter("thermal.spectral_jumps")

#: Transient integration methods accepted by the solver.
TRANSIENT_METHODS = ("euler", "spectral")

#: Cap on cached step-matrix factorisations: traces with many distinct
#: (e.g. duration-derived) time steps must not grow the cache unboundedly.
MAX_CACHED_PROPAGATORS = 32


@dataclass
class TransientResult:
    """Node-temperature history of a piecewise-constant transient.

    ``node_kelvin`` has one row per sampled instant of ``times_s``.  Power
    interval ``i`` owns the sample rows ``interval_ranges[i] = (start, stop)``;
    its first row is the state carried in from the previous interval, so
    callers reduce per-interval metrics straight from the one array.
    """

    times_s: np.ndarray
    node_kelvin: np.ndarray
    final_state_kelvin: np.ndarray
    interval_ranges: List[Tuple[int, int]]


@dataclass
class _IntervalPlan:
    """Step size, step count and recorded steps of every interval of a trace."""

    time_steps: List[float]
    steps: List[int]
    #: Step indices whose post-update state is recorded (the last one always is).
    recorded: List[np.ndarray]
    ranges: List[Tuple[int, int]]
    times_s: np.ndarray

    @property
    def shared_time_step(self) -> Optional[float]:
        """The one time step every interval resolves to, or None."""
        first = self.time_steps[0]
        return first if all(dt == first for dt in self.time_steps) else None


def _plan_intervals(
    durations: Sequence[float], time_step_s: Optional[float], record_every: int
) -> _IntervalPlan:
    """Resolve each interval's implicit-Euler step and its sample rows.

    The step defaults to ``duration / 200`` bounded to at most 1 ms (which
    resolves the die-level time constants) and never exceeds the duration.
    Every ``record_every``-th step is recorded, plus the last one.
    """
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    if time_step_s is not None and not time_step_s > 0:
        raise ValueError("time step must be positive")
    time_steps: List[float] = []
    steps: List[int] = []
    recorded: List[np.ndarray] = []
    ranges: List[Tuple[int, int]] = []
    times: List[np.ndarray] = []
    offset = 0.0
    row = 0
    for duration in durations:
        if not (duration > 0 and np.isfinite(duration)):
            raise ValueError("duration must be positive and finite")
        dt = time_step_s if time_step_s is not None else min(duration / 200.0, 1e-3)
        dt = min(dt, duration)
        count = max(1, int(round(duration / dt)))
        kept = np.arange(record_every - 1, count, record_every, dtype=np.int64)
        if kept.size == 0 or kept[-1] != count - 1:
            kept = np.append(kept, count - 1)
        time_steps.append(dt)
        steps.append(count)
        recorded.append(kept)
        ranges.append((row, row + kept.size + 1))
        row += kept.size + 1
        times.append(np.concatenate(([0.0], (kept + 1) * dt)) + offset)
        # Advance by the integrated span (steps * dt), not the nominal
        # duration: when the duration is not an integer multiple of the
        # step the two differ, and stamping the next interval's origin at
        # the nominal duration would let sample times overlap it.
        offset += count * dt
    return _IntervalPlan(time_steps, steps, recorded, ranges, np.concatenate(times))


def _check_power(power: np.ndarray) -> None:
    """Reject negative or non-finite node power before it reaches LAPACK.

    NaN fails every ordering comparison, so a ``min() < 0`` gate alone would
    let it through to the raw ``getrs`` solve.
    """
    if not power.size:
        return
    # min/max propagate NaN, so two reductions cover NaN and +-inf.
    low, high = power.min(), power.max()
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("non-finite power: every node power must be finite")
    if low < 0:
        raise ValueError("negative power: every node power must be >= 0")


def _solve(
    factor: Tuple[np.ndarray, np.ndarray], rhs: np.ndarray, overwrite: bool = False
) -> np.ndarray:
    """Solve against an LU factor with one raw LAPACK ``getrs`` call.

    Callers validate their inputs (``getrs`` skips scipy's finiteness
    check), so only an illegal-argument ``info`` can come back.
    ``overwrite`` lets a caller's temporary ``rhs`` hold the solution.
    """
    solution, info = dgetrs(factor[0], factor[1], rhs, overwrite_b=overwrite)
    if info:
        raise ValueError(f"getrs rejected argument {-info}")
    return solution


@dataclass
class _StepPropagator:
    """Implicit-Euler operator ``(C/dt + A)`` factorised for one time step."""

    time_step_s: float
    c_over_dt: np.ndarray
    factor: Tuple[np.ndarray, np.ndarray]


class ThermalSolver:
    """Solves the RC network produced by :func:`build_thermal_network`."""

    def __init__(self, network: ThermalNetwork):
        self.network = network
        self._A = network.system_matrix()
        self._A_factor = lu_factor(self._A)
        self._boundary = network.ambient_conductance * network.ambient_kelvin
        self._step_cache: Dict[float, _StepPropagator] = {}
        #: Number of step-matrix LU factorisations performed (regression
        #: guard: one per distinct time step).
        self.step_factorization_count = 0
        #: Number of solves against the steady-state factorisation.  A
        #: multi-RHS batch counts once, so a fully batched steady experiment
        #: shows exactly one solve (regression guard for the epoch pipeline).
        self.steady_solve_count = 0
        #: Number of ``transient_sequence()`` calls.
        self.transient_sequence_count = 0
        #: Number of sequences served by the vectorised spectral jump (one
        #: eigenbasis transform covering the whole trace; regression guard
        #: for the fast path staying engaged on shared-dt traces).
        self.spectral_jump_count = 0
        self._spectral_basis: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        # Solvers are shared across thread-pool workers; guard the
        # lazily-built caches.
        self._cache_lock = threading.Lock()
        self._thread_factors = threading.local()

    def __getstate__(self):
        # Locks and thread-local stores cannot cross process boundaries
        # (pickled configurations carry a solver); recreate them on
        # unpickling.
        state = self.__dict__.copy()
        del state["_cache_lock"]
        del state["_thread_factors"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache_lock = threading.Lock()
        self._thread_factors = threading.local()

    # ------------------------------------------------------------------
    def _private_factor(self, key, factor: Tuple[np.ndarray, np.ndarray]):
        """Per-thread private copy of an LU factorisation.

        LAPACK ``getrs`` is not reentrant against *shared* ``(lu, piv)``
        arrays on every BLAS build: two threads solving concurrently against
        the same factor memory can return corrupted temperatures, while
        solves against per-thread copies are exact.  Copies are cached per
        (thread, key) and refreshed whenever the underlying factor object
        changes (step-cache eviction rebuilds propagators).
        """
        store = getattr(self._thread_factors, "store", None)
        if store is None:
            store = self._thread_factors.store = {}
        entry = store.get(key)
        if entry is None or entry[0] is not factor:
            lu, piv = factor
            entry = (factor, (lu.copy(order="F"), piv.copy()))
            if len(store) > MAX_CACHED_PROPAGATORS:
                store.pop(next(iter(store)))
            store[key] = entry
        return entry[1]

    def _a_factor(self) -> Tuple[np.ndarray, np.ndarray]:
        """This thread's copy of the steady-state factorisation."""
        return self._private_factor("A", self._A_factor)

    # ------------------------------------------------------------------
    def _step_propagator(self, time_step_s: float) -> _StepPropagator:
        with self._cache_lock:
            cached = self._step_cache.get(time_step_s)
            if cached is not None:
                return cached
            c_over_dt = self.network.capacitance / time_step_s
            factor = lu_factor(np.diag(c_over_dt) + self._A)
            self.step_factorization_count += 1
            _OBS_FACTORIZATIONS.add()
            propagator = _StepPropagator(time_step_s, c_over_dt, factor)
            if len(self._step_cache) >= MAX_CACHED_PROPAGATORS:
                # FIFO eviction (dict preserves insertion order).
                self._step_cache.pop(next(iter(self._step_cache)))
            self._step_cache[time_step_s] = propagator
            return propagator

    def _spectral(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Orthonormal eigenbasis of ``C^{-1/2} A C^{-1/2}`` (computed once).

        ``A`` is symmetric positive definite and ``C`` diagonal positive, so
        the symmetrized pencil has real non-negative eigenvalues; in this
        basis one implicit-Euler step multiplies each mode by
        ``1 / (1 + dt * lambda)``.
        """
        with self._cache_lock:
            if self._spectral_basis is None:
                c_sqrt = np.sqrt(self.network.capacitance)
                symmetric = self._A / np.outer(c_sqrt, c_sqrt)
                eigenvalues, eigenvectors = eigh(symmetric)
                self._spectral_basis = (c_sqrt, eigenvalues, eigenvectors)
            return self._spectral_basis

    def _spectral_samples(
        self,
        state: np.ndarray,
        rhs_const: np.ndarray,
        time_step_s: float,
        step_counts: np.ndarray,
    ) -> np.ndarray:
        """Implicit-Euler iterates ``T_k`` for the given step counts, directly.

        The k-th iterate of ``(C/dt + A) T_{k+1} = C/dt T_k + P`` is
        ``T_k = T* + C^{-1/2} U diag(mu^k) U^T C^{1/2} (T_0 - T*)`` with
        ``mu = 1 / (1 + dt * lambda)`` and ``T*`` the steady state, so all
        sampled instants come out of one pair of matrix multiplies.
        """
        c_sqrt, eigenvalues, eigenvectors = self._spectral()
        fixed_point = _solve(self._a_factor(), rhs_const)
        weights = eigenvectors.T @ (c_sqrt * (state - fixed_point))
        decay = 1.0 / (1.0 + time_step_s * eigenvalues)
        powers = decay[np.newaxis, :] ** step_counts[:, np.newaxis]
        deviations = (powers * weights[np.newaxis, :]) @ eigenvectors.T
        return fixed_point[np.newaxis, :] + deviations / c_sqrt[np.newaxis, :]

    def _ambient_offsets_of(
        self, ambient_offsets_kelvin, num_intervals: int
    ) -> Optional[np.ndarray]:
        """Validated ``(num_intervals,)`` ambient-offset array (or None)."""
        if ambient_offsets_kelvin is None:
            return None
        offsets = np.asarray(ambient_offsets_kelvin, dtype=float)
        if offsets.shape != (num_intervals,):
            raise ValueError(
                f"ambient_offsets_kelvin must have {num_intervals} entries, "
                f"got shape {offsets.shape}"
            )
        if not np.all(np.isfinite(offsets)):
            raise ValueError("ambient offsets must be finite")
        return offsets

    def _initial_state_of(
        self, initial_state, offsets: Optional[np.ndarray]
    ) -> np.ndarray:
        """Validated starting node state (kelvin), shared by both methods.

        Defaults to ambient everywhere (a cold chip); with ambient offsets
        the cold start equilibrates at the *first* interval's ambient
        (``A @ 1 = G_amb``, so that state is uniform).
        """
        network = self.network
        if initial_state is None:
            ambient = network.ambient_kelvin
            if offsets is not None:
                ambient = ambient + offsets[0]
            return np.full(network.num_nodes, ambient, dtype=float)
        state = np.array(initial_state, dtype=float)
        if state.shape != (network.num_nodes,):
            raise ValueError("initial state has wrong number of nodes")
        if not np.isfinite(state).all():
            raise ValueError("non-finite initial state: every node must be finite")
        return state

    # ------------------------------------------------------------------
    def _power_vector_of(self, power) -> np.ndarray:
        """Validated node-space power vector."""
        power = np.asarray(power, dtype=float)
        if power.shape != (self.network.num_nodes,):
            raise ValueError(
                f"expected a node power vector of {self.network.num_nodes} "
                f"entries, got shape {power.shape}"
            )
        _check_power(power)
        return power

    def steady_state_batch(self, node_power_matrix: np.ndarray) -> np.ndarray:
        """Steady-state node temperatures for many power vectors at once.

        ``node_power_matrix`` has one node-space power vector per row; the
        result is a matching ``(num_rows, num_nodes)`` kelvin array computed
        with a single multi-RHS solve against the cached factorisation.
        """
        power = np.asarray(node_power_matrix, dtype=float)
        if power.ndim != 2 or power.shape[1] != self.network.num_nodes:
            raise ValueError(
                f"expected a (num_rows, {self.network.num_nodes}) power matrix, "
                f"got shape {power.shape}"
            )
        _check_power(power)
        rhs = power + self._boundary[np.newaxis, :]
        self.steady_solve_count += 1
        _OBS_STEADY_SOLVES.add()
        with _obs_span("thermal.steady_batch", rows=int(power.shape[0])):
            return _solve(self._a_factor(), rhs.T).T

    # ------------------------------------------------------------------
    def transient_sequence(
        self,
        intervals: List[Tuple[float, np.ndarray]],
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        record_every: int = 1,
        method: str = "euler",
        ambient_offsets_kelvin=None,
    ) -> TransientResult:
        """Integrate a piecewise-constant power trace.

        ``intervals`` is a list of (duration, node power vector) pairs — the
        shape :func:`repro.thermal.model.as_solver_intervals` scatters a
        :class:`repro.power.trace.PowerTrace` into.  Thermal state is carried
        across interval boundaries, and the result is one ``(samples, nodes)``
        kelvin history whose :attr:`TransientResult.interval_ranges` record
        each interval's sample rows.

        Parameters
        ----------
        initial_state:
            Node temperatures in kelvin to start from; defaults to ambient
            everywhere (a cold chip).  It must be finite.
        time_step_s:
            Implicit-Euler step; defaults per interval to ``duration / 200``
            bounded to at most 1 ms.
        record_every:
            Store every k-th step of each interval (its final step is always
            recorded).
        method:
            ``"euler"`` steps the cached LU factorisation of every distinct
            time step with one raw ``getrs`` call per step; ``"spectral"``
            evaluates the same recurrence through the eigenbasis, jumping
            straight to the recorded instants (identical trajectory up to
            floating-point roundoff, no per-step loop).
        ambient_offsets_kelvin:
            Optional, one entry per interval: shifts the ambient boundary
            temperature per interval.  Interval ``i`` is integrated against
            the RHS ``P_i + G_amb * (T_amb + dT_i)``, exactly the trajectory
            a network rebuilt at the shifted ambient would produce —
            time-varying ambient is exact, not quasi-static.

        With ``method="spectral"`` and every interval resolving to the same
        time step (the migration-epoch case: equal durations, one dt), the
        whole trace is evaluated through **one** eigenbasis transform: the
        per-interval weight projections collapse into a propagation of the
        modal coordinates across interval boundaries plus a single matrix
        multiply over all sampled instants.  Mixed time steps fall back to
        one eigenbasis projection per interval.
        """
        if not intervals:
            raise ValueError("at least one interval is required")
        self.transient_sequence_count += 1
        _OBS_SEQUENCES.add()
        with _obs_span(
            "thermal.transient_sequence", intervals=len(intervals), method=method
        ):
            return self._transient_sequence(
                intervals,
                initial_state=initial_state,
                time_step_s=time_step_s,
                record_every=record_every,
                method=method,
                ambient_offsets_kelvin=ambient_offsets_kelvin,
            )

    def _transient_sequence(
        self,
        intervals: List[Tuple[float, np.ndarray]],
        initial_state: Optional[np.ndarray],
        time_step_s: Optional[float],
        record_every: int,
        method: str,
        ambient_offsets_kelvin,
    ) -> TransientResult:
        if method not in TRANSIENT_METHODS:
            raise ValueError(f"method must be one of {TRANSIENT_METHODS}")
        network = self.network
        plan = _plan_intervals(
            [duration for duration, _power in intervals], time_step_s, record_every
        )
        offsets = self._ambient_offsets_of(ambient_offsets_kelvin, len(intervals))
        rhs = np.vstack([self._power_vector_of(power) for _duration, power in intervals])
        rhs += self._boundary[np.newaxis, :]
        if offsets is not None:
            # The affine ambient boundary term: each interval's RHS becomes
            # P_i + G_amb (T_amb + dT_i).
            rhs += offsets[:, np.newaxis] * network.ambient_conductance[np.newaxis, :]
        state = self._initial_state_of(initial_state, offsets)

        history = np.empty((plan.ranges[-1][1], network.num_nodes))
        if method == "spectral" and plan.shared_time_step is not None:
            self._spectral_jump(history, state, rhs, plan)
        else:
            for index, (start, stop) in enumerate(plan.ranges):
                history[start] = state
                dt = plan.time_steps[index]
                if method == "spectral":
                    history[start + 1 : stop] = self._spectral_samples(
                        state, rhs[index], dt, plan.recorded[index] + 1
                    )
                else:
                    self._euler_steps(
                        history[start + 1 : stop],
                        state,
                        rhs[index],
                        dt,
                        plan.steps[index],
                        plan.recorded[index],
                    )
                state = history[stop - 1]
        if not np.isfinite(history).all():
            raise ValueError("non-finite temperatures in the transient history")
        return TransientResult(
            times_s=plan.times_s,
            node_kelvin=history,
            final_state_kelvin=history[-1].copy(),
            interval_ranges=plan.ranges,
        )

    def _euler_steps(
        self,
        out: np.ndarray,
        state: np.ndarray,
        rhs_const: np.ndarray,
        time_step_s: float,
        steps: int,
        recorded: np.ndarray,
    ) -> None:
        """``steps`` implicit-Euler updates ``(C/dt + A) T_{k+1} = C/dt T_k + P``.

        Each update is one raw ``getrs`` call on this thread's private copy
        of the cached step factor; the recorded states land in ``out``.
        """
        propagator = self._step_propagator(time_step_s)
        factor = self._private_factor(("step", time_step_s), propagator.factor)
        c_over_dt = propagator.c_over_dt
        record = np.zeros(steps, dtype=bool)
        record[recorded] = True
        row = 0
        for k in range(steps):
            state = _solve(factor, c_over_dt * state + rhs_const, overwrite=True)
            if record[k]:
                out[row] = state
                row += 1

    # ------------------------------------------------------------------
    def _spectral_jump(
        self,
        history: np.ndarray,
        state: np.ndarray,
        rhs: np.ndarray,
        plan: _IntervalPlan,
    ) -> None:
        """Whole-trace spectral evaluation when every interval shares one dt.

        Fills ``history`` with the implicit-Euler trajectory of the whole
        piecewise-constant trace from a single eigendecomposition: the modal
        coordinates ``z_i`` of the deviation from each interval's fixed
        point obey

        ``z_{i+1} = mu^{n_i} z_i + U^T C^{1/2} (T*_i - T*_{i+1})``

        (``mu = 1/(1 + dt lambda)``, ``n_i`` steps in interval ``i``), so one
        multi-RHS solve yields every fixed point, one short recurrence
        propagates the modal state across interval boundaries, and one matrix
        multiply evaluates every recorded instant of every interval.

        Per-interval ambient offsets are already folded into ``rhs``, so they
        only move the fixed points and flow through the same recurrence.
        """
        self.spectral_jump_count += 1
        _OBS_SPECTRAL_JUMPS.add()
        num_nodes = self.network.num_nodes
        fixed_points = _solve(self._a_factor(), rhs.T).T  # (num_intervals, n)

        c_sqrt, eigenvalues, eigenvectors = self._spectral()
        decay = 1.0 / (1.0 + plan.shared_time_step * eigenvalues)
        num_intervals = len(plan.steps)
        steps_arr = np.asarray(plan.steps, dtype=np.int64)
        # Modal decay over each interval's full step count, and the modal
        # jumps induced by the fixed point changing at each boundary.
        interval_decay = decay[np.newaxis, :] ** steps_arr[:, np.newaxis]
        if num_intervals > 1:
            boundary_jumps = (
                (fixed_points[:-1] - fixed_points[1:]) * c_sqrt[np.newaxis, :]
            ) @ eigenvectors
        z_starts = np.empty((num_intervals, num_nodes))
        z = eigenvectors.T @ (c_sqrt * (state - fixed_points[0]))
        for index in range(num_intervals):
            z_starts[index] = z
            if index + 1 < num_intervals:
                z = z * interval_decay[index] + boundary_jumps[index]

        # Every recorded instant of every interval in one matrix multiply.
        # Equal-duration traces (the migration-epoch case) share one recorded
        # step structure, so the modal decay powers are computed once and
        # broadcast across intervals instead of materialised per sample row.
        counts = np.array([recorded.size for recorded in plan.recorded])
        first = plan.recorded[0]
        if all(np.array_equal(recorded, first) for recorded in plan.recorded[1:]):
            base_pow = decay[np.newaxis, :] ** (first + 1)[:, np.newaxis]
            modal = base_pow[np.newaxis, :, :] * z_starts[:, np.newaxis, :]
        else:
            step_numbers = np.concatenate(plan.recorded) + 1
            modal = (
                decay[np.newaxis, :] ** step_numbers[:, np.newaxis]
            ) * np.repeat(z_starts, counts, axis=0)
        # Each interval's t=0 row is the carried state — exactly the previous
        # interval's final sample — and its recorded rows follow.
        starts = np.array([start for start, _stop in plan.ranges])
        sampled = np.ones(history.shape[0], dtype=bool)
        sampled[starts] = False
        history[sampled] = np.repeat(fixed_points, counts, axis=0) + (
            modal.reshape(-1, num_nodes) @ eigenvectors.T
        ) / c_sqrt[np.newaxis, :]
        history[0] = state
        history[starts[1:]] = history[starts[1:] - 1]

    # ------------------------------------------------------------------
    def warm_state(self, power, ambient_offset_kelvin: float = 0.0) -> np.ndarray:
        """Node state (kelvin) corresponding to steady state under a power vector.

        Useful as the initial condition of transient runs so experiments do
        not spend simulated seconds heating a cold chip.  ``power`` is a
        node-space power vector; ``ambient_offset_kelvin`` shifts the ambient
        boundary (e.g. to warm-start an ambient-scheduled transient at the
        first interval's ambient).
        """
        power = self._power_vector_of(power)
        rhs = power + self._boundary
        if ambient_offset_kelvin:
            rhs = rhs + ambient_offset_kelvin * self.network.ambient_conductance
        self.steady_solve_count += 1
        return _solve(self._a_factor(), rhs)
