"""Block-name thermal oracle for the parity suites.

The seed experiment loops handed the thermal model one per-coordinate power
dict per epoch, and the seed solver answered in ``{block name: Celsius}``
dicts.  The program now speaks node arrays end to end; this module keeps the
block-name view as an independent reference:

* :class:`BlockSolver` re-implements the steady and transient solves on its
  own ``lu_factor`` / ``lu_solve`` (uncached: every transient interval
  refactorises its step matrix), so the parity suites compare the program's
  raw-``getrs`` path against a reference that does not share it;
* :func:`temperature_map` and :func:`block_view` re-key a node-space result
  by block name, and :func:`unit_series` stacks block series back into
  per-unit rows the way the seed models did.

Import it the way the golden tests import ``golden_stack``::

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import block_oracle
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.linalg import eigh, lu_factor, lu_solve

from repro.core.metrics import ThermalMetrics
from repro.noc.topology import Coordinate, MeshTopology
from repro.thermal.floorplan import block_name_for
from repro.thermal.package import KELVIN_OFFSET


@dataclass
class TemperatureMap:
    """Per-block temperatures (Celsius) at one instant or steady state."""

    block_celsius: Dict[str, float]
    node_kelvin: np.ndarray

    @property
    def peak_celsius(self) -> float:
        return max(self.block_celsius.values())

    @property
    def min_celsius(self) -> float:
        return min(self.block_celsius.values())

    @property
    def mean_celsius(self) -> float:
        return float(np.mean(list(self.block_celsius.values())))

    @property
    def spread_celsius(self) -> float:
        """Peak-to-minimum spatial temperature spread."""
        return self.peak_celsius - self.min_celsius

    def hottest_block(self) -> str:
        return max(self.block_celsius, key=self.block_celsius.get)

    def as_dict(self) -> Dict[str, float]:
        return dict(self.block_celsius)


@dataclass
class BlockTransient:
    """Per-block Celsius series of a transient."""

    times_s: np.ndarray
    block_celsius: Dict[str, np.ndarray]
    final_state_kelvin: np.ndarray
    interval_ranges: Optional[List[Tuple[int, int]]] = None

    @property
    def peak_celsius(self) -> float:
        """Hottest block temperature reached at any sampled instant."""
        return max(float(np.max(series)) for series in self.block_celsius.values())

    def peak_series(self) -> np.ndarray:
        """Per-instant maximum over blocks."""
        return np.vstack(list(self.block_celsius.values())).max(axis=0)

    def final_map(self) -> TemperatureMap:
        return TemperatureMap(
            block_celsius={
                name: float(series[-1]) for name, series in self.block_celsius.items()
            },
            node_kelvin=self.final_state_kelvin,
        )


def temperature_map(network, node_kelvin: np.ndarray) -> TemperatureMap:
    """Block-name view of one node-space kelvin state."""
    return TemperatureMap(
        block_celsius={
            name: float(node_kelvin[idx]) - KELVIN_OFFSET
            for name, idx in network.block_node_index.items()
        },
        node_kelvin=node_kelvin,
    )


def _block_series(network, history: np.ndarray) -> Dict[str, np.ndarray]:
    return {
        name: history[:, idx] - KELVIN_OFFSET
        for name, idx in network.block_node_index.items()
    }


def block_view(network, result) -> BlockTransient:
    """Block-name view of a :class:`repro.thermal.solver.TransientResult`."""
    return BlockTransient(
        times_s=result.times_s,
        block_celsius=_block_series(network, result.node_kelvin),
        final_state_kelvin=result.final_state_kelvin,
        interval_ranges=result.interval_ranges,
    )


class BlockSolver:
    """Independent block-name reference solver on scipy's ``lu_solve``.

    Power is a ``{block: W}`` dict or a node-space vector.  Nothing is
    cached but the steady factorisation and the eigenbasis:
    :attr:`step_factorization_count` counts one step-matrix factorisation per
    Euler interval.
    """

    def __init__(self, network):
        self.network = network
        self._A = network.system_matrix()
        self._factor = lu_factor(self._A)
        self._boundary = network.ambient_conductance * network.ambient_kelvin
        self._basis = None
        self.step_factorization_count = 0

    def _power(self, power) -> np.ndarray:
        if isinstance(power, dict):
            return self.network.power_vector(power)
        return np.asarray(power, dtype=float)

    def _rhs(self, power, ambient_offset_kelvin: float) -> np.ndarray:
        rhs = self._power(power) + self._boundary
        if ambient_offset_kelvin:
            rhs = rhs + ambient_offset_kelvin * self.network.ambient_conductance
        return rhs

    def steady_state(self, power) -> TemperatureMap:
        return temperature_map(self.network, self.warm_state(power))

    def warm_state(self, power, ambient_offset_kelvin: float = 0.0) -> np.ndarray:
        """Steady node state (kelvin)."""
        return lu_solve(self._factor, self._rhs(power, ambient_offset_kelvin))

    def _spectral(self):
        if self._basis is None:
            c_sqrt = np.sqrt(self.network.capacitance)
            eigenvalues, eigenvectors = eigh(self._A / np.outer(c_sqrt, c_sqrt))
            self._basis = (c_sqrt, eigenvalues, eigenvectors)
        return self._basis

    def transient(
        self,
        power,
        duration_s: float,
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        record_every: int = 1,
        method: str = "euler",
        ambient_offset_kelvin: float = 0.0,
    ) -> BlockTransient:
        """Integrate one constant-power interval (the seed ``transient()``)."""
        network = self.network
        rhs_const = self._rhs(power, ambient_offset_kelvin)
        if initial_state is None:
            state = np.full(network.num_nodes, network.ambient_kelvin, dtype=float)
        else:
            state = np.asarray(initial_state, dtype=float).copy()
        if time_step_s is None:
            time_step_s = min(duration_s / 200.0, 1e-3)
        time_step_s = min(time_step_s, duration_s)
        steps = max(1, int(round(duration_s / time_step_s)))
        recorded = np.arange(record_every - 1, steps, record_every, dtype=np.int64)
        if recorded.size == 0 or recorded[-1] != steps - 1:
            recorded = np.append(recorded, steps - 1)
        times = np.concatenate(([0.0], (recorded + 1) * time_step_s))
        history = np.empty((recorded.size + 1, network.num_nodes))
        history[0] = state

        if method == "spectral":
            c_sqrt, eigenvalues, eigenvectors = self._spectral()
            fixed_point = lu_solve(self._factor, rhs_const)
            weights = eigenvectors.T @ (c_sqrt * (state - fixed_point))
            decay = 1.0 / (1.0 + time_step_s * eigenvalues)
            powers = decay[np.newaxis, :] ** (recorded + 1)[:, np.newaxis]
            deviations = (powers * weights[np.newaxis, :]) @ eigenvectors.T
            history[1:] = fixed_point[np.newaxis, :] + deviations / c_sqrt[np.newaxis, :]
            state = history[-1].copy()
        else:
            c_over_dt = network.capacitance / time_step_s
            factor = lu_factor(np.diag(c_over_dt) + self._A)
            self.step_factorization_count += 1
            record_mask = np.zeros(steps, dtype=bool)
            record_mask[recorded] = True
            row = 1
            for k in range(steps):
                state = lu_solve(factor, c_over_dt * state + rhs_const)
                if record_mask[k]:
                    history[row] = state
                    row += 1
        return BlockTransient(
            times_s=times,
            block_celsius=_block_series(network, history),
            final_state_kelvin=state,
        )

    def transient_sequence(
        self,
        intervals,
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        record_every: int = 1,
        method: str = "euler",
        ambient_offsets_kelvin=None,
    ) -> BlockTransient:
        """Chain :meth:`transient` over (duration, power) intervals."""
        if ambient_offsets_kelvin is not None and initial_state is None:
            initial_state = np.full(
                self.network.num_nodes,
                self.network.ambient_kelvin + ambient_offsets_kelvin[0],
            )
        state = initial_state
        times: List[np.ndarray] = []
        series: Dict[str, List[np.ndarray]] = {
            name: [] for name in self.network.block_node_index
        }
        ranges: List[Tuple[int, int]] = []
        offset = 0.0
        row = 0
        for index, (duration, power) in enumerate(intervals):
            result = self.transient(
                power,
                duration,
                initial_state=state,
                time_step_s=time_step_s,
                record_every=record_every,
                method=method,
                ambient_offset_kelvin=(
                    float(ambient_offsets_kelvin[index])
                    if ambient_offsets_kelvin is not None
                    else 0.0
                ),
            )
            state = result.final_state_kelvin
            times.append(result.times_s + offset)
            offset += result.times_s[-1]
            ranges.append((row, row + result.times_s.size))
            row += result.times_s.size
            for name, values in result.block_celsius.items():
                series[name].append(values)
        return BlockTransient(
            times_s=np.concatenate(times),
            block_celsius={name: np.concatenate(chunks) for name, chunks in series.items()},
            final_state_kelvin=state,
            interval_ranges=ranges,
        )


_ORACLES: Dict[int, BlockSolver] = {}


def oracle(model) -> BlockSolver:
    """The (memoised) reference solver of a thermal model's network."""
    network = model.network
    solver = _ORACLES.get(id(network))
    if solver is None or solver.network is not network:
        solver = _ORACLES[id(network)] = BlockSolver(network)
    return solver


def as_map(topology: MeshTopology, vector) -> Dict[Coordinate, float]:
    """Per-coordinate dict of a row-major vector over the mesh."""
    return {
        coord: float(vector[index]) for index, coord in enumerate(topology.coordinates())
    }


def _blocks_of(model, coord: Coordinate) -> List[str]:
    """Solver block names carrying ``coord``'s power (its grid cells, if any)."""
    block = block_name_for(coord)
    resolution = getattr(model, "resolution", 1)
    if resolution == 1:
        return [block]
    # The cell names :func:`repro.thermal.grid.refine_floorplan` documents.
    return [
        f"{block}::{i}_{j}" for j in range(resolution) for i in range(resolution)
    ]


def block_power(model, power_by_coord: Dict[Coordinate, float]) -> Dict[str, float]:
    """``{block name: W}``; a grid unit spreads its power evenly over its cells."""
    power: Dict[str, float] = {}
    for coord, watts in power_by_coord.items():
        blocks = _blocks_of(model, coord)
        for name in blocks:
            power[name] = watts / len(blocks)
    return power


def unit_celsius(
    model, block_celsius: Dict[str, float], statistic: str = "peak"
) -> Dict[Coordinate, float]:
    """Per-unit temperature: the block's, or the peak/mean of a grid unit's cells."""
    result = {}
    for coord in model.topology.coordinates():
        values = [block_celsius[name] for name in _blocks_of(model, coord)]
        result[coord] = max(values) if statistic == "peak" else float(np.mean(values))
    return result


def unit_series(model, result: BlockTransient, statistic: str = "peak") -> np.ndarray:
    """``(num_units, num_samples)`` stack of block series, reduced per unit.

    The seed models' stacking: one ``(units, cells, samples)`` array, then
    the peak or mean over the cell axis (one cell per unit on the block
    model).
    """
    cells = np.array(
        [
            [result.block_celsius[name] for name in _blocks_of(model, coord)]
            for coord in model.topology.coordinates()
        ]
    )
    return cells.max(axis=1) if statistic == "peak" else cells.mean(axis=1)


def steady_by_coord(
    model, power_by_coord: Dict[Coordinate, float], statistic: str = "peak"
) -> Dict[Coordinate, float]:
    """Steady per-unit temperatures through the block-name reference."""
    temps = oracle(model).steady_state(block_power(model, power_by_coord))
    return unit_celsius(model, temps.block_celsius, statistic)


def warm_state(model, power_by_coord: Dict[Coordinate, float]) -> np.ndarray:
    """Steady node state (kelvin) through the block-name reference."""
    return oracle(model).warm_state(block_power(model, power_by_coord))


def transient(
    model, power_by_coord: Dict[Coordinate, float], duration_s: float, **kwargs
) -> BlockTransient:
    """One constant-power transient through the block-name reference."""
    return oracle(model).transient(
        block_power(model, power_by_coord), duration_s, **kwargs
    )


def metrics(topology: MeshTopology, per_unit: Dict[Coordinate, float]) -> ThermalMetrics:
    """:class:`ThermalMetrics` of a per-coordinate temperature dict."""
    return ThermalMetrics.from_vector(
        topology, np.array([per_unit[coord] for coord in topology.coordinates()])
    )
