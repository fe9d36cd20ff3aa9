"""HotSpot-style facade over the RC thermal model.

The rest of the system talks to :class:`HotSpotModel`: give it a floorplan
(or a mesh topology) and row-major per-unit power vectors in watts, and it
returns per-unit temperatures in Celsius.  Defaults reproduce the paper's
setup: HotSpot-like default package, 40 °C ambient, 4.36 mm² functional units.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..noc.topology import MeshTopology
from ..power.trace import PowerTrace
from .floorplan import Floorplan, block_name_for, mesh_floorplan
from .model import as_solver_intervals, die_time_constant_s
from .package import KELVIN_OFFSET, DEFAULT_PACKAGE, ThermalPackage
from .rc_model import ThermalNetwork, build_thermal_network
from .solver import ThermalSolver, TransientResult


class HotSpotModel:
    """Thermal model of one chip configuration.

    Parameters
    ----------
    topology:
        Mesh of functional units; the floorplan is generated from it unless
        an explicit ``floorplan`` is supplied.
    package:
        Thermal package constants (defaults to the HotSpot-like defaults with
        a 40 °C ambient).
    unit_area_mm2:
        Area of one functional unit when generating the mesh floorplan.
    """

    def __init__(
        self,
        topology: MeshTopology,
        package: ThermalPackage = DEFAULT_PACKAGE,
        unit_area_mm2: float = 4.36,
        floorplan: Optional[Floorplan] = None,
    ):
        self.topology = topology
        self.package = package
        self.floorplan = floorplan or mesh_floorplan(topology, unit_area_mm2)
        self.network: ThermalNetwork = build_thermal_network(self.floorplan, package)
        self.solver = ThermalSolver(self.network)
        #: Die node carrying each unit's power, in row-major coordinate order
        #: (the coordinate index shared with :class:`repro.power.trace.PowerTrace`).
        self.unit_nodes = np.array(
            [
                self.network.block_node_index[block_name_for(coord)]
                for coord in topology.coordinates()
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    def node_power_matrix(self, power_rows: np.ndarray) -> np.ndarray:
        """Scatter ``(num_rows, num_units)`` power rows into node space."""
        rows = np.atleast_2d(np.asarray(power_rows, dtype=float))
        if rows.shape[1] != self.topology.num_nodes:
            raise ValueError(
                f"expected {self.topology.num_nodes} units per row, "
                f"got shape {rows.shape}"
            )
        matrix = np.zeros((rows.shape[0], self.network.num_nodes))
        matrix[:, self.unit_nodes] = rows
        return matrix

    def steady_temperatures(self, power_rows: np.ndarray) -> np.ndarray:
        """Per-unit steady temperatures (Celsius) for many power rows at once.

        One multi-RHS solve against the cached factorisation evaluates every
        row — the batch path behind the array-native steady experiment.
        """
        kelvin = self.solver.steady_state_batch(self.node_power_matrix(power_rows))
        return kelvin[:, self.unit_nodes] - KELVIN_OFFSET

    def peak_temperature(self, power: np.ndarray) -> float:
        """Peak steady-state temperature (Celsius) for one power vector."""
        return float(self.steady_temperatures(power).max())

    def unit_series(self, result: TransientResult) -> np.ndarray:
        """``(num_units, num_samples)`` per-unit Celsius series of a transient."""
        return result.node_kelvin[:, self.unit_nodes].T - KELVIN_OFFSET

    # ------------------------------------------------------------------
    def transient_sequence(
        self,
        intervals: PowerTrace,
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        method: str = "euler",
        ambient_offsets_kelvin: Optional[np.ndarray] = None,
    ) -> TransientResult:
        """Transient evolution under a piecewise-constant power trace.

        One scatter builds every node power vector of the trace.
        ``ambient_offsets_kelvin`` shifts the ambient boundary per interval
        (exact time-varying ambient; see
        :meth:`repro.thermal.solver.ThermalSolver.transient_sequence`).
        """
        return self.solver.transient_sequence(
            as_solver_intervals(self, intervals),
            initial_state=initial_state,
            time_step_s=time_step_s,
            method=method,
            ambient_offsets_kelvin=ambient_offsets_kelvin,
        )

    def warm_state(
        self, power: np.ndarray, ambient_offset_kelvin: float = 0.0
    ) -> np.ndarray:
        """Steady-state node vector used to start transients already warm.

        ``power`` is a row-major per-unit power vector;
        ``ambient_offset_kelvin`` shifts the ambient boundary of the solve.
        """
        return self.solver.warm_state(
            self.node_power_matrix(power)[0],
            ambient_offset_kelvin=ambient_offset_kelvin,
        )

    # ------------------------------------------------------------------
    @property
    def ambient_celsius(self) -> float:
        return self.package.ambient_celsius

    def thermal_time_constant_s(self) -> float:
        """Rough dominant time constant of the die nodes (C/G of one block).

        Used by the experiment driver to choose sensible transient horizons.
        """
        return die_time_constant_s(self.network, len(self.floorplan))
