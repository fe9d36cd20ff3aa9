"""High-level cycle-accurate simulation driver.

:class:`NocSimulator` couples the array-native
:class:`~repro.noc.vector.VectorNetwork` cycle kernel with a traffic source
(a synthetic generator, a trace, or explicit packet batches such as the
LDPC workload's iteration messages and a migration's CONFIG packets), runs
warm-up / measurement phases and reports a :class:`SimulationResult` that
bundles the performance statistics and the per-router activity counters the
power model consumes.

Traffic is pregenerated into a :class:`~repro.noc.schedule.TrafficSchedule`
— through a generator's numpy-native ``schedule()``, or by replaying a
trace's ``packets_for_cycle`` — and the whole run advances with NumPy array
operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Protocol

from .flit import Packet
from .schedule import TrafficSchedule
from .stats import NetworkStats
from .topology import Coordinate, MeshTopology
from .vector import RouterActivity, VectorNetwork


class TrafficSource(Protocol):
    """Anything that can offer packets for a given cycle.

    A synthetic generator's ``schedule(cycles)`` is used instead when the
    source has one.
    """

    def packets_for_cycle(self, cycle: int) -> "list[Packet]":  # pragma: no cover
        ...


@dataclass
class SimulationResult:
    """Outcome of one simulation interval."""

    cycles: int
    stats: NetworkStats
    router_activity: Dict[Coordinate, RouterActivity]
    link_flits: int
    drained: bool

    @property
    def average_latency(self) -> float:
        return self.stats.average_latency

    @property
    def throughput_flits_per_cycle(self) -> float:
        return self.stats.throughput_flits_per_cycle

    def activity_per_node(self) -> Dict[Coordinate, int]:
        """Total switching events per router (flits routed + buffer traffic)."""
        result = {}
        for coord, activity in self.router_activity.items():
            result[coord] = (
                activity.flits_routed
                + activity.buffer_reads
                + activity.buffer_writes
                + activity.crossbar_traversals
            )
        return result


class NocSimulator:
    """Runs the vector kernel against a traffic source for a bounded interval."""

    def __init__(self, topology: MeshTopology, routing: str = "xy", buffer_depth: int = 4):
        self.topology = topology
        self.routing = routing
        self.buffer_depth = buffer_depth

    def _network(self, schedule: TrafficSchedule) -> VectorNetwork:
        return VectorNetwork(
            self.topology,
            [schedule],
            routing=self.routing,
            buffer_depth=self.buffer_depth,
        )

    @staticmethod
    def _result(net: VectorNetwork, cycles: int, drained: bool) -> SimulationResult:
        return SimulationResult(
            cycles=cycles,
            stats=net.lane_stats(0),
            router_activity=net.lane_activity(0),
            link_flits=net.lane_link_flits(0),
            drained=drained,
        )

    # ------------------------------------------------------------------
    def run_traffic(
        self,
        traffic: TrafficSource,
        cycles: int,
        warmup_cycles: int = 0,
        drain: bool = True,
        drain_limit: int = 200_000,
    ) -> SimulationResult:
        """Drive ``traffic`` through the network for ``cycles`` cycles.

        ``warmup_cycles`` are simulated before statistics collection begins so
        that latency numbers reflect steady state.  When ``drain`` is true the
        network is emptied after injection stops (and the drain cycles are
        included in the cycle count), which is how the LDPC iteration windows
        are simulated — an iteration is complete only when all its messages
        have been delivered.
        """
        horizon = warmup_cycles + cycles
        schedule_fn = getattr(traffic, "schedule", None)
        if callable(schedule_fn):
            schedule = schedule_fn(horizon)
        else:
            schedule = TrafficSchedule.from_generator(traffic, self.topology, horizon)
        net = self._network(schedule.limited_to(horizon))
        net.run(warmup_cycles)
        net.reset_measurement()
        net.run(cycles)
        if drain:
            net.drain(max_cycles=drain_limit)
        net.write_back_packets()
        return self._result(net, int(net.cycles[0]), drain)

    def run_packets(
        self,
        packets: "list[Packet]",
        drain_limit: int = 500_000,
    ) -> SimulationResult:
        """Inject an explicit batch of packets at cycle zero and drain.

        The batch abstraction matches one LDPC decoding sub-iteration: all
        variable-to-check (or check-to-variable) messages are produced
        together, and the sub-iteration ends when the last one is delivered.
        """
        net = self._network(TrafficSchedule.from_packets(packets, self.topology, cycle=0))
        run_cycles = net.drain(max_cycles=drain_limit)
        net.write_back_packets()
        return self._result(net, run_cycles, True)
