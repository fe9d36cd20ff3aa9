"""The shared thermal-model protocol of the array-native epoch pipeline.

:class:`repro.thermal.hotspot.HotSpotModel` (block resolution) and
:class:`repro.thermal.grid.GridThermalModel` (refined grid resolution) both
implement this interface, so the experiment driver, the DTM baselines and the
CLI can swap resolutions without code changes.  Per-unit power and
temperature are row-major vectors over ``topology.coordinates()`` (the format
:mod:`repro.power.trace` owns).  The contract has two tiers:

* **steady batch** — ``steady_temperatures`` evaluates a whole
  ``(num_rows, num_units)`` power matrix (one trace row per epoch, plus the
  baseline and settled-average rows) with a single multi-RHS solve against
  the model's cached factorisation; ``peak_temperature`` is its one-row
  shortcut;
* **sequenced transient** — ``transient_sequence`` integrates a
  piecewise-constant :class:`repro.power.trace.PowerTrace` in one call with
  thermal state carried across epochs, and ``unit_series`` reduces the
  result back to a per-unit sample matrix.
"""

from __future__ import annotations

from typing import List, Protocol, Tuple, runtime_checkable

import numpy as np

from ..noc.topology import MeshTopology
from ..power.trace import PowerTrace
from .solver import TransientResult


@runtime_checkable
class ThermalModel(Protocol):
    """What the experiment pipeline requires of a thermal model."""

    topology: MeshTopology

    # -- steady batch --------------------------------------------------
    def steady_temperatures(self, power_rows: np.ndarray) -> np.ndarray:
        """Per-unit steady temperatures for many power rows at once.

        ``power_rows`` is ``(num_rows, num_units)`` in the topology's
        row-major coordinate order; the result has the same shape, in
        Celsius, computed with one multi-RHS solve.
        """
        ...

    def peak_temperature(self, power: np.ndarray) -> float:
        """Peak steady-state temperature (Celsius) for one power vector."""
        ...

    # -- sequenced transient -------------------------------------------
    def transient_sequence(
        self,
        intervals: PowerTrace,
        initial_state=None,
        time_step_s=None,
        method: str = "euler",
        ambient_offsets_kelvin=None,
    ) -> TransientResult:
        """Integrate a piecewise-constant power trace with carried state.

        ``ambient_offsets_kelvin`` (optional, one entry per interval) shifts
        the ambient boundary per interval — the affine term
        ``G_amb * (T_amb + dT_i)`` makes time-varying ambient exact in
        transient mode, still in one sequenced call.

        The returned :class:`repro.thermal.solver.TransientResult` carries
        the node history and one ``(start, stop)`` sample range per interval
        (``interval_ranges``) — the experiment driver reduces per-epoch
        metrics from those segments.
        """
        ...

    def unit_series(self, result: TransientResult) -> np.ndarray:
        """``(num_units, num_samples)`` per-unit series of a transient result."""
        ...

    def warm_state(
        self, power: np.ndarray, ambient_offset_kelvin: float = 0.0
    ) -> np.ndarray:
        """Steady-state node vector used to start transients already warm.

        ``ambient_offset_kelvin`` shifts the ambient boundary so
        ambient-scheduled transients can warm-start at the first interval's
        ambient instead of the nominal one.
        """
        ...

    def thermal_time_constant_s(self) -> float:
        """Dominant die-level time constant (for choosing horizons)."""
        ...


# ----------------------------------------------------------------------
# Shared implementation helpers (both concrete models scatter unit power
# into RC-node space through a ``node_power_matrix`` method).
# ----------------------------------------------------------------------
def as_solver_intervals(model, trace: PowerTrace) -> List[Tuple[float, np.ndarray]]:
    """(duration, node power vector) pairs of a trace: one scatter for all rows."""
    node_rows = model.node_power_matrix(trace.powers)
    return [
        (float(duration), node_rows[index])
        for index, duration in enumerate(trace.durations)
    ]


def die_time_constant_s(network, num_die_nodes: int) -> float:
    """Rough dominant time constant of the die nodes (mean C/G).

    Shared by the block and grid models: the first ``num_die_nodes`` RC
    nodes are the die layer, and C over the diagonal conductance of the
    system matrix estimates each node's local time constant.
    """
    die_caps = network.capacitance[:num_die_nodes]
    die_conductance = np.diag(network.system_matrix())[:num_die_nodes]
    return float(np.mean(die_caps / die_conductance))
