"""Grid-mode thermal model (finer spatial resolution than one node per block).

HotSpot offers two models: the *block* model (one RC node per floorplan
block, what :mod:`repro.thermal.rc_model` builds) and the *grid* model, which
overlays a regular grid on the die so that intra-block temperature gradients
become visible.  The grid mode matters for hotspot work because the true peak
temperature sits at the centre of a hot unit, slightly above the block
average the block model reports.

:class:`GridThermalModel` reuses the exact same RC construction by refining
the floorplan: every block is split into ``resolution`` x ``resolution``
sub-cells, each block's power is distributed uniformly over its cells, and
block temperatures are reported as the maximum (or mean) over the cells.
"""

from __future__ import annotations

from typing import Dict, Literal, Optional

import numpy as np

from ..noc.topology import MeshTopology
from ..power.trace import PowerTrace
from .floorplan import Block, Floorplan, block_name_for, mesh_floorplan
from .model import as_solver_intervals, die_time_constant_s
from .package import KELVIN_OFFSET, DEFAULT_PACKAGE, ThermalPackage
from .rc_model import build_thermal_network
from .solver import ThermalSolver, TransientResult


def refine_floorplan(floorplan: Floorplan, resolution: int) -> Floorplan:
    """Split every block into ``resolution`` x ``resolution`` equal sub-cells.

    Sub-cells are named ``<block>::<i>_<j>`` with ``i`` the column and ``j``
    the row inside the parent block, so the parent is recoverable by
    splitting the name on ``"::"``.
    """
    if resolution < 1:
        raise ValueError("resolution must be at least 1")
    if resolution == 1:
        return Floorplan(list(floorplan))
    cells = []
    for block in floorplan:
        cell_width = block.width / resolution
        cell_height = block.height / resolution
        for j in range(resolution):
            for i in range(resolution):
                cells.append(
                    Block(
                        name=f"{block.name}::{i}_{j}",
                        x=block.x + i * cell_width,
                        y=block.y + j * cell_height,
                        width=cell_width,
                        height=cell_height,
                    )
                )
    refined = Floorplan(cells)
    refined.validate_no_overlap()
    return refined


def parent_block_name(cell_name: str) -> str:
    """Parent block of a refined cell (identity for unrefined names)."""
    return cell_name.split("::", 1)[0]


class GridThermalModel:
    """Finer-resolution companion to :class:`repro.thermal.hotspot.HotSpotModel`."""

    def __init__(
        self,
        topology: MeshTopology,
        resolution: int = 3,
        package: ThermalPackage = DEFAULT_PACKAGE,
        unit_area_mm2: float = 4.36,
        floorplan: Optional[Floorplan] = None,
    ):
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        self.topology = topology
        self.resolution = resolution
        self.package = package
        self.block_floorplan = floorplan or mesh_floorplan(topology, unit_area_mm2)
        self.cell_floorplan = refine_floorplan(self.block_floorplan, resolution)
        self.network = build_thermal_network(self.cell_floorplan, package)
        self.solver = ThermalSolver(self.network)
        # Cells grouped by their parent block, in construction order.
        self._cells_of_block: Dict[str, list] = {}
        for cell in self.cell_floorplan:
            self._cells_of_block.setdefault(parent_block_name(cell.name), []).append(cell.name)
        #: ``(num_units, resolution**2)`` die-node indices of each unit's
        #: cells, in row-major coordinate order — the coordinate index the
        #: array-native pipeline scatters power through.
        self.unit_cell_nodes = np.array(
            [
                [
                    self.network.block_node_index[cell]
                    for cell in self._cells_of_block[block_name_for(coord)]
                ]
                for coord in topology.coordinates()
            ],
            dtype=np.int64,
        )

    # ------------------------------------------------------------------
    # The same array-native interface HotSpotModel has: cached
    # factorisation, multi-RHS steady solves, sequenced transients with the
    # propagator cache and the spectral sampler of ThermalSolver.
    # ------------------------------------------------------------------
    def node_power_matrix(self, power_rows: np.ndarray) -> np.ndarray:
        """Scatter per-unit power rows uniformly over each unit's cells."""
        rows = np.atleast_2d(np.asarray(power_rows, dtype=float))
        if rows.shape[1] != self.topology.num_nodes:
            raise ValueError(
                f"expected {self.topology.num_nodes} units per row, "
                f"got shape {rows.shape}"
            )
        cells_per_block = self.resolution**2
        matrix = np.zeros((rows.shape[0], self.network.num_nodes))
        matrix[:, self.unit_cell_nodes.ravel()] = np.repeat(
            rows / cells_per_block, cells_per_block, axis=1
        )
        return matrix

    def _reduce_cells(self, cell_values: np.ndarray, statistic: str) -> np.ndarray:
        """Per-unit reduction (peak or mean over each unit's cells).

        ``cell_values`` has node-space columns; the result keeps all leading
        axes and replaces the node axis with a unit axis.
        """
        per_cell = cell_values[..., self.unit_cell_nodes]
        if statistic == "peak":
            return per_cell.max(axis=-1)
        return per_cell.mean(axis=-1)

    def steady_temperatures(
        self, power_rows: np.ndarray, statistic: Literal["peak", "mean"] = "peak"
    ) -> np.ndarray:
        """Per-unit steady temperatures for many power rows, one solve.

        Each row is reduced over its unit's cells with ``statistic`` (peak by
        default — the grid model exists to expose the intra-block peak).
        """
        kelvin = self.solver.steady_state_batch(self.node_power_matrix(power_rows))
        return self._reduce_cells(kelvin - KELVIN_OFFSET, statistic)

    def peak_temperature(self, power: np.ndarray) -> float:
        """Grid-resolution peak temperature (Celsius) for one power vector."""
        return float(self.steady_temperatures(power).max())

    def unit_series(
        self, result: TransientResult, statistic: Literal["peak", "mean"] = "peak"
    ) -> np.ndarray:
        """``(num_units, num_samples)`` per-unit series of a transient result."""
        # (num_units, cells, num_samples): reducing the middle axis sums the
        # cells one after another, so the mean keeps its exact rounding.
        cell_series = result.node_kelvin.T[self.unit_cell_nodes] - KELVIN_OFFSET
        if statistic == "peak":
            return cell_series.max(axis=1)
        return cell_series.mean(axis=1)

    # ------------------------------------------------------------------
    def transient_sequence(
        self,
        intervals: PowerTrace,
        initial_state: Optional[np.ndarray] = None,
        time_step_s: Optional[float] = None,
        method: str = "euler",
        ambient_offsets_kelvin: Optional[np.ndarray] = None,
    ) -> TransientResult:
        """Grid-resolution transient over a piecewise-constant power trace.

        Exactly like :meth:`repro.thermal.hotspot.HotSpotModel.transient_sequence`;
        the per-interval ``ambient_offsets_kelvin`` boundary term is scattered
        onto the refined network's ambient-coupled nodes by the solver.
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
        """Steady-state node vector used to start transients already warm."""
        return self.solver.warm_state(
            self.node_power_matrix(power)[0],
            ambient_offset_kelvin=ambient_offset_kelvin,
        )

    # ------------------------------------------------------------------
    @property
    def ambient_celsius(self) -> float:
        return self.package.ambient_celsius

    def thermal_time_constant_s(self) -> float:
        """Dominant time constant of the die cells (C/G of one cell)."""
        return die_time_constant_s(self.network, len(self.cell_floorplan))

    @property
    def num_cells(self) -> int:
        return len(self.cell_floorplan)
