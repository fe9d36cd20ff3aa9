"""Cost functions for placement optimisation.

The paper's initial mappings come from "a thermally-aware placement
algorithm that minimizes the peak temperature".  The primary cost here is
therefore the predicted steady-state peak temperature of a candidate mapping;
a communication-distance cost is also provided both as a tie-breaker and as
the classic non-thermal baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..noc.topology import Coordinate, MeshTopology
from ..power.activity import analytic_router_flits
from ..power.models import UnitPowerModel
from ..thermal.hotspot import HotSpotModel
from .mapping import Mapping


@dataclass
class PlacementCostModel:
    """Evaluates candidate mappings for the thermally-aware placer.

    Parameters
    ----------
    topology:
        The physical mesh.
    per_task_power:
        Nominal power of each logical task in watts (computation portion,
        before communication is added).  These are what make some tasks
        "hot".
    workload:
        Optional :class:`repro.ldpc.workload.LdpcNocWorkload`; when given,
        communication power is charged along each flow's XY route so the
        placer sees the full picture, and the communication cost term is
        available.
    thermal_model:
        Shared :class:`HotSpotModel`; constructing one per call would
        dominate runtime.
    interval_s:
        Interval used to convert workload activity into average power.
    """

    topology: MeshTopology
    per_task_power: Dict[int, float]
    thermal_model: HotSpotModel
    workload: Optional[object] = None
    power_model: Optional[UnitPowerModel] = None
    interval_s: float = 1e-3

    def __post_init__(self) -> None:
        if set(self.per_task_power) != set(range(self.topology.num_nodes)):
            raise ValueError("per_task_power must cover every task id")
        if any(p < 0 for p in self.per_task_power.values()):
            raise ValueError("task power cannot be negative")
        if self.power_model is None:
            self.power_model = UnitPowerModel()

    # ------------------------------------------------------------------
    def power_vector(self, mapping: Mapping) -> np.ndarray:
        """Row-major per-PE power (W) when tasks sit according to ``mapping``."""
        topology = self.topology
        power = np.zeros(topology.num_nodes)
        power[mapping.to_permutation()] = [
            self.per_task_power[task] for task in range(topology.num_nodes)
        ]
        if self.workload is None:
            return power
        # Charge communication power along the XY routes of the traffic.
        flows: Dict[Tuple[Coordinate, Coordinate], float] = {}
        workload = self.workload
        for src in range(workload.num_tasks):
            for dst in range(workload.num_tasks):
                if src == dst:
                    continue
                flits = workload.flits_between(src, dst)
                if flits == 0:
                    continue
                key = (mapping.physical_of(src), mapping.physical_of(dst))
                flows[key] = flows.get(key, 0.0) + flits
        router_flits = analytic_router_flits(self.topology, flows)
        iterations = (
            self.interval_s
            * self.power_model.library.clock_frequency_hz
            / max(1.0, self._cycles_per_iteration_estimate())
        )
        for coord, flits in router_flits.items():
            energy = self.power_model.router_model.energy_from_flits(flits * iterations)
            power[topology.node_id(coord)] += energy / self.interval_s
        return power

    def _cycles_per_iteration_estimate(self) -> float:
        """Crude serialisation estimate used only for scaling comm power."""
        workload = self.workload
        total_flits = workload.total_flits_per_iteration()
        # Mesh bisection limits sustainable throughput.
        return max(1.0, total_flits / max(1, self.topology.bisection_width()))

    # ------------------------------------------------------------------
    def peak_temperature(self, mapping: Mapping) -> float:
        """Predicted steady-state peak temperature (Celsius) of a mapping."""
        return self.thermal_model.peak_temperature(self.power_vector(mapping))

    def communication_cost(self, mapping: Mapping) -> float:
        """Total flit-hops per iteration (lower = less network energy/latency)."""
        if self.workload is None:
            return 0.0
        return self.workload.hop_flit_product(mapping)

    def combined_cost(self, mapping: Mapping, comm_weight: float = 0.0) -> float:
        """Peak temperature plus an optional communication penalty."""
        cost = self.peak_temperature(mapping)
        if comm_weight > 0.0 and self.workload is not None:
            cost += comm_weight * self.communication_cost(mapping)
        return cost
