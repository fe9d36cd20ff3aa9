"""Congestion-free phased migration scheduling.

Section 2.2 of the paper: "During the migration operation, it is possible to
ensure congestion-free packet movement by transforming groups of PEs in
phases.  This congestion-free operation allows for deterministic migration
times, making our technique applicable to real-time systems."

A migration moves every PE's configuration/state packet from its old
coordinate to its new coordinate.  Two moves *conflict* when their
deterministic XY routes share a link in the same direction; moves that
conflict may not run in the same phase.  The scheduler greedily colours the
conflict graph so that each phase is link-disjoint, and reports a
deterministic cycle count for the whole migration.

Moves are node-id arrays: move ``i`` carries ``payload_flits[i]`` flits
from node ``sources[i]`` to node ``destinations[i]``.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from ..noc.routing import RoutingAlgorithm, XYRouting
from ..noc.topology import Coordinate, MeshTopology
from .plan import MigrationSchedule, schedule_moves
from .state_transfer import StateTransferModel
from .transforms import MigrationTransform

__all__ = ["MigrationSchedule", "MigrationScheduler"]


class MigrationScheduler:
    """Prices and phases migration moves for one mesh.

    The phasing itself is :func:`repro.migration.plan.schedule_moves`, the
    one schedule every plan stage runs through.
    """

    def __init__(
        self,
        topology: MeshTopology,
        state_model: Optional[StateTransferModel] = None,
        routing: Optional[RoutingAlgorithm] = None,
        router_pipeline_cycles: int = 2,
    ):
        self.topology = topology
        self.state_model = state_model or StateTransferModel()
        self.routing = routing or XYRouting(topology)
        if router_pipeline_cycles < 1:
            raise ValueError("router pipeline must be at least one cycle per hop")
        self.router_pipeline_cycles = router_pipeline_cycles

    # ------------------------------------------------------------------
    def payload_flits(
        self, tanner_nodes_per_pe: Optional[Mapping[Coordinate, int]] = None
    ) -> np.ndarray:
        """Row-major per-node payload flits of the PEs' migration state.

        ``tanner_nodes_per_pe`` sizes each PE's live state; when omitted
        every PE carries only its configuration.
        """
        nodes = tanner_nodes_per_pe or {}
        return self.state_model.payload_flits_per_node(
            [nodes.get(coord, 0) for coord in self.topology.coordinates()]
        )

    def move_cycles(self, payload_flits, hops):
        """Congestion-free duration of a move in cycles (elementwise on arrays).

        This is THE per-move cycle cost: (serialization of the payload
        through the conversion unit) + (hops x per-hop router pipeline
        latency).  Every cycle account — phased schedules, their serialised
        baseline, and every :mod:`repro.migration.plan` stage — routes
        through this one formula so they cannot drift.
        """
        serialization = payload_flits * self.state_model.serialization_cycles_per_flit
        return serialization + hops * self.router_pipeline_cycles

    def schedule_for_transform(
        self,
        transform: MigrationTransform,
        tanner_nodes_per_pe: Optional[Mapping[Coordinate, int]] = None,
    ) -> MigrationSchedule:
        """The phased schedule of the transform's sudden (one-stage) plan:
        every node's move, in node-id order."""
        return schedule_moves(
            self,
            np.arange(self.topology.num_nodes, dtype=np.int64),
            transform.node_permutation(),
            self.payload_flits(tanner_nodes_per_pe),
        )
