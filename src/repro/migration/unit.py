"""The migration unit: hardware cost model and migration execution.

Section 2.3 of the paper: the migration functions "are mathematically quite
simple, and require little hardware to properly implement ... only 3-bit
operands are required to address up to 64 PEs".  The same unit performs every
transform and also rewrites the addresses of chip-boundary traffic so the
migration is transparent to the outside world.

This module models what a migration *costs*:

* cycles — the deterministic duration of the phased, congestion-free
  schedule, which is what reduces workload throughput;
* energy — serialising each PE's configuration/state through the conversion
  unit and carrying it across the network, charged to the routers it passes
  through so the thermal model sees where the heat lands.

Because energy grows with the distance each payload travels, rotation (whose
corner payloads cross most of the chip) is the most expensive scheme and the
shifts are the cheapest — the mechanism behind the paper's observation that
rotational migration raises average chip temperature by ~0.3 °C.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

from ..noc.flit import Packet, PacketClass
from ..noc.routing import RoutingAlgorithm, XYRouting
from ..noc.topology import Coordinate, MeshTopology
from ..power.library import DEFAULT_LIBRARY, TechnologyLibrary
from .plan import MigrationStage, lower_transform
from .scheduler import MigrationScheduler
from .state_transfer import StateTransferModel
from .transforms import MigrationTransform


class MigrationUnit:
    """Executes migrations and accounts their cost.

    Parameters
    ----------
    topology:
        The physical mesh.
    library:
        Technology constants providing per-flit router/link energy and the
        conversion-unit energy per flit.
    state_model:
        Sizing of each PE's configuration/state payload.
    conversion_energy_per_flit_j:
        Energy of passing one payload flit through the conversion unit
        (address transformation + buffering); small compared with network
        transport, per the paper's "small, fast, and low power" claim.
    fixed_energy_per_pe_j:
        Per-PE fixed cost of a migration: halting and draining the PE,
        rewriting its configuration memory at the destination, and
        restarting.  Independent of the distance moved.
    """

    def __init__(
        self,
        topology: MeshTopology,
        library: TechnologyLibrary = DEFAULT_LIBRARY,
        state_model: Optional[StateTransferModel] = None,
        routing: Optional[RoutingAlgorithm] = None,
        conversion_energy_per_flit_j: float = 2.0e-11,
        fixed_energy_per_pe_j: float = 2.0e-7,
    ):
        if conversion_energy_per_flit_j < 0:
            raise ValueError("conversion energy cannot be negative")
        if fixed_energy_per_pe_j < 0:
            raise ValueError("fixed per-PE migration energy cannot be negative")
        self.topology = topology
        self.library = library
        self.state_model = state_model or StateTransferModel()
        self.routing = routing or XYRouting(topology)
        self.scheduler = MigrationScheduler(
            topology, state_model=self.state_model, routing=self.routing
        )
        self.conversion_energy_per_flit_j = conversion_energy_per_flit_j
        self.fixed_energy_per_pe_j = fixed_energy_per_pe_j

    # ------------------------------------------------------------------
    def migration_cost(
        self,
        transform: MigrationTransform,
        tanner_nodes_per_pe: Optional[Mapping[Coordinate, int]] = None,
    ) -> MigrationStage:
        """Cycles and per-node energy of applying ``transform`` once: the one
        stage of its sudden :class:`~repro.migration.plan.MigrationPlan`."""
        return lower_transform(
            transform, self, self.scheduler.payload_flits(tanner_nodes_per_pe)
        ).stages[0]

    # ------------------------------------------------------------------
    def migration_packets(
        self,
        transform: MigrationTransform,
        tanner_nodes_per_pe: Optional[Mapping[Coordinate, int]] = None,
        cycle: int = 0,
    ) -> List[Packet]:
        """CONFIG packets that would carry the migration over the real NoC.

        Used by the integration tests and the migration-schedule benchmark to
        replay a migration through the cycle-accurate network and check that
        the analytic schedule's cycle count is an upper bound on reality.
        """
        stage = self.migration_cost(transform, tanner_nodes_per_pe)
        coordinate = self.topology.coordinate
        return [
            Packet(
                source=coordinate(source),
                destination=coordinate(destination),
                size_flits=flits + 1,
                packet_class=PacketClass.CONFIG,
                injection_cycle=cycle,
                payload={"migration": transform.name},
            )
            for source, destination, flits in zip(
                stage.sources.tolist(),
                stage.destinations.tolist(),
                stage.payload_flits.tolist(),
            )
            if source != destination
        ]

    # ------------------------------------------------------------------
    def throughput_penalty(
        self,
        transform: MigrationTransform,
        period_cycles: int,
        tanner_nodes_per_pe: Optional[Mapping[Coordinate, int]] = None,
    ) -> float:
        """Fraction of workload throughput lost to migration downtime.

        The PEs are halted for the duration of the migration, so the penalty
        is ``migration_cycles / (migration_cycles + period_cycles)``.
        """
        if period_cycles <= 0:
            raise ValueError("migration period must be positive")
        cycles = self.migration_cost(transform, tanner_nodes_per_pe).cycles
        return cycles / (cycles + period_cycles)
