"""Object-graph NoC reference for the vector engine's parity suites.

:class:`repro.noc.vector.VectorNetwork` holds every router of a mesh as
struct-of-arrays state and advances whole cycles with NumPy.  This module
keeps the per-object engine it was written against, as the behavioural
specification the parity suites compare it to with exact ``==``:

* :class:`Flit`, :class:`FlitType` and :func:`make_flits` segment a
  :class:`~repro.noc.flit.Packet` into head, body and tail flits;
* :class:`FlitBuffer` and :class:`CreditCounter` are the input FIFOs and
  the credit flow control of one router port, :class:`Link` and
  :class:`LinkTable` the inter-router channels;
* :class:`Router` runs route computation, round-robin switch allocation and
  traversal for one node; :class:`Network` assembles a mesh of them and
  applies every cycle's traversals atomically;
* :func:`run_traffic` and :func:`run_packets` drive a :class:`Network` the
  way :class:`~repro.noc.simulator.NocSimulator` drives the vector kernel
  and return the same :class:`~repro.noc.simulator.SimulationResult`;
* :class:`SeedTraffic` replays a synthetic generator through one
  ``random.Random(seed)`` stream, node by node and cycle by cycle.

Only the mesh topology, the routing algorithms, the packet record and the
statistics containers are shared with the code under test.

Import it the way the golden tests import ``golden_stack``::

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import noc_oracle
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum, auto
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.noc.flit import Packet, PacketClass
from repro.noc.routing import RoutingAlgorithm, make_routing
from repro.noc.simulator import SimulationResult
from repro.noc.stats import NetworkStats
from repro.noc.topology import Coordinate, Direction, MeshTopology
from repro.noc.traffic import (
    BitComplementTraffic,
    HotspotTraffic,
    NeighborTraffic,
    TransposeTraffic,
    UniformRandomTraffic,
)
from repro.noc.vector import RouterActivity

ALL_PORTS = (
    Direction.LOCAL,
    Direction.EAST,
    Direction.WEST,
    Direction.NORTH,
    Direction.SOUTH,
)


# ----------------------------------------------------------------------
# Flits
# ----------------------------------------------------------------------
class FlitType(Enum):
    """Position of a flit within its packet."""

    HEAD = auto()
    BODY = auto()
    TAIL = auto()
    HEAD_TAIL = auto()

    @property
    def is_head(self) -> bool:
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


@dataclass
class Flit:
    """A single flow-control unit of a packet."""

    packet: Packet
    flit_type: FlitType
    index: int

    @property
    def destination(self) -> Coordinate:
        return self.packet.destination

    @property
    def source(self) -> Coordinate:
        return self.packet.source

    @property
    def is_head(self) -> bool:
        return self.flit_type.is_head

    @property
    def is_tail(self) -> bool:
        return self.flit_type.is_tail


def make_flits(packet: Packet) -> List[Flit]:
    """Segment a packet into its flit sequence (single-flit: HEAD_TAIL)."""
    if packet.size_flits == 1:
        return [Flit(packet=packet, flit_type=FlitType.HEAD_TAIL, index=0)]
    flits = [Flit(packet=packet, flit_type=FlitType.HEAD, index=0)]
    for i in range(1, packet.size_flits - 1):
        flits.append(Flit(packet=packet, flit_type=FlitType.BODY, index=i))
    flits.append(
        Flit(packet=packet, flit_type=FlitType.TAIL, index=packet.size_flits - 1)
    )
    return flits


# ----------------------------------------------------------------------
# Buffers, credits and links
# ----------------------------------------------------------------------
class BufferOverflowError(RuntimeError):
    """A flit pushed into a full buffer: a flow-control bug, never traffic."""


@dataclass
class FlitBuffer:
    """A fixed-capacity FIFO of flits attached to a router input port."""

    capacity: int
    _fifo: Deque[Flit] = field(default_factory=deque)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("buffer capacity must be at least one flit")

    @property
    def occupancy(self) -> int:
        return len(self._fifo)

    @property
    def free_slots(self) -> int:
        return self.capacity - len(self._fifo)

    @property
    def is_empty(self) -> bool:
        return not self._fifo

    @property
    def is_full(self) -> bool:
        return len(self._fifo) >= self.capacity

    def push(self, flit: Flit) -> None:
        if self.is_full:
            raise BufferOverflowError(
                f"buffer overflow (capacity={self.capacity}) pushing {flit!r}"
            )
        self._fifo.append(flit)

    def peek(self) -> Optional[Flit]:
        if not self._fifo:
            return None
        return self._fifo[0]

    def pop(self) -> Flit:
        if not self._fifo:
            raise IndexError("pop from empty flit buffer")
        return self._fifo.popleft()

    def clear(self) -> None:
        self._fifo.clear()

    def __len__(self) -> int:
        return len(self._fifo)

    def __iter__(self):
        return iter(self._fifo)


@dataclass
class CreditCounter:
    """Credits available for the downstream buffer of one output port."""

    capacity: int
    credits: int = -1

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("credit capacity must be at least one")
        if self.credits < 0:
            self.credits = self.capacity

    @property
    def has_credit(self) -> bool:
        return self.credits > 0

    def consume(self) -> None:
        if self.credits <= 0:
            raise RuntimeError("credit underflow: forwarding without credit")
        self.credits -= 1

    def release(self) -> None:
        if self.credits >= self.capacity:
            raise RuntimeError("credit overflow: more credits than buffer slots")
        self.credits += 1


@dataclass
class Link:
    """A unidirectional one-flit-per-cycle link from ``source`` towards
    ``direction``."""

    source: Coordinate
    destination: Coordinate
    direction: Direction
    flits_carried: int = 0

    def traverse(self) -> None:
        self.flits_carried += 1

    def reset(self) -> None:
        self.flits_carried = 0


class LinkTable:
    """All links of a mesh, keyed by (source coordinate, direction)."""

    def __init__(self) -> None:
        self._links: Dict[Tuple[Coordinate, Direction], Link] = {}

    def add(self, link: Link) -> None:
        key = (link.source, link.direction)
        if key in self._links:
            raise ValueError(f"duplicate link {key}")
        self._links[key] = link

    def get(self, source: Coordinate, direction: Direction) -> Link:
        return self._links[(source, direction)]

    def __len__(self) -> int:
        return len(self._links)

    def total_flits(self) -> int:
        return sum(link.flits_carried for link in self._links.values())

    def reset(self) -> None:
        for link in self._links.values():
            link.reset()


# ----------------------------------------------------------------------
# Router
# ----------------------------------------------------------------------
@dataclass
class _OutputPort:
    """Wormhole allocation and credit state of one output port."""

    credits: CreditCounter
    owner: Optional[Direction] = None  # input port holding the wormhole


@dataclass
class Forward:
    """A flit traversal decided during switch allocation.

    ``out_dir`` is relative to the router that owns the flit; the network
    delivers the flit to the neighbour's opposite input port (or ejects it
    when ``out_dir`` is LOCAL).
    """

    router: "Router"
    in_dir: Direction
    out_dir: Direction
    flit: Flit


class Router:
    """One mesh router with input-buffered wormhole switching.

    Per cycle: route computation for new head flits, switch allocation (at
    most one flit per output port, round-robin among contending inputs),
    then traversal, applied atomically by the :class:`Network`.
    """

    def __init__(
        self,
        coordinate: Coordinate,
        routing: RoutingAlgorithm,
        buffer_depth: int = 4,
        connected_ports: Optional[List[Direction]] = None,
    ):
        self.coordinate = coordinate
        self.routing = routing
        self.buffer_depth = buffer_depth
        if connected_ports is None:
            connected_ports = list(ALL_PORTS)
        if Direction.LOCAL not in connected_ports:
            connected_ports = [Direction.LOCAL] + list(connected_ports)
        self.connected_ports: Tuple[Direction, ...] = tuple(connected_ports)

        self.input_buffers: Dict[Direction, FlitBuffer] = {
            port: FlitBuffer(buffer_depth) for port in self.connected_ports
        }
        self.output_ports: Dict[Direction, _OutputPort] = {
            port: _OutputPort(CreditCounter(buffer_depth)) for port in self.connected_ports
        }
        # Cached routing decision for the packet at the head of each input FIFO.
        self._head_route: Dict[Direction, Optional[Direction]] = {
            port: None for port in self.connected_ports
        }
        # Round-robin pointer per output port for fair switch allocation.
        self._rr_pointer: Dict[Direction, int] = {port: 0 for port in self.connected_ports}
        self.activity = RouterActivity()

    def can_accept(self, port: Direction) -> bool:
        return not self.input_buffers[port].is_full

    def accept_flit(self, port: Direction, flit: Flit) -> None:
        self.input_buffers[port].push(flit)
        self.activity.buffer_writes += 1

    def buffered_flits(self) -> int:
        return sum(buf.occupancy for buf in self.input_buffers.values())

    def compute_routes(self) -> None:
        """Route computation stage for head flits lacking a decision."""
        for port in self.connected_ports:
            head = self.input_buffers[port].peek()
            if head is None:
                self._head_route[port] = None
                continue
            if self._head_route[port] is None:
                if head.is_head:
                    self._head_route[port] = self.routing.route(
                        self.coordinate, head.destination
                    )
                    self.activity.headers_decoded += 1
                else:
                    # Body/tail flit follows the wormhole its head opened.
                    self._head_route[port] = self._find_owned_output(port)

    def _find_owned_output(self, in_dir: Direction) -> Optional[Direction]:
        for out_dir, state in self.output_ports.items():
            if state.owner == in_dir:
                return out_dir
        return None

    def allocate_switch(self) -> List[Forward]:
        """Switch-allocation stage: pick at most one winner per output port."""
        requests: Dict[Direction, List[Direction]] = {}
        for in_dir in self.connected_ports:
            head = self.input_buffers[in_dir].peek()
            out_dir = self._head_route[in_dir]
            if head is None or out_dir is None:
                continue
            out_state = self.output_ports[out_dir]
            # A wormhole already held by another input blocks this request.
            if out_state.owner is not None and out_state.owner != in_dir:
                continue
            if not out_state.credits.has_credit and out_dir != Direction.LOCAL:
                continue
            requests.setdefault(out_dir, []).append(in_dir)

        forwards: List[Forward] = []
        for out_dir, contenders in requests.items():
            self.activity.arbitration_rounds += 1
            winner = self._arbitrate(out_dir, contenders)
            flit = self.input_buffers[winner].pop()
            self.activity.buffer_reads += 1
            self.activity.crossbar_traversals += 1
            self.activity.flits_routed += 1
            out_state = self.output_ports[out_dir]
            if flit.is_head:
                out_state.owner = winner
            if flit.is_tail:
                out_state.owner = None
            if out_dir != Direction.LOCAL:
                out_state.credits.consume()
                self.activity.link_traversals += 1
            self._head_route[winner] = None
            forwards.append(Forward(router=self, in_dir=winner, out_dir=out_dir, flit=flit))
        return forwards

    def _arbitrate(self, out_dir: Direction, contenders: List[Direction]) -> Direction:
        """Round-robin arbitration among the contending input ports."""
        if len(contenders) == 1:
            return contenders[0]
        order = list(self.connected_ports)
        start = self._rr_pointer[out_dir]
        for candidate in order[start:] + order[:start]:
            if candidate in contenders:
                self._rr_pointer[out_dir] = (order.index(candidate) + 1) % len(order)
                return candidate
        return contenders[0]

    def credit_return(self, out_dir: Direction) -> None:
        """Return one credit for ``out_dir`` (downstream buffer drained a flit)."""
        self.output_ports[out_dir].credits.release()

    def activity_snapshot(self) -> RouterActivity:
        """An independent copy of the activity counters."""
        return replace(self.activity)

    def reset(self) -> None:
        for port in self.connected_ports:
            self.input_buffers[port].clear()
            self.output_ports[port] = _OutputPort(CreditCounter(self.buffer_depth))
            self._head_route[port] = None
            self._rr_pointer[port] = 0
        self.activity = RouterActivity()

    def is_idle(self) -> bool:
        """True when no flits are buffered and no wormholes are held."""
        if any(not buf.is_empty for buf in self.input_buffers.values()):
            return False
        return all(state.owner is None for state in self.output_ports.values())


# ----------------------------------------------------------------------
# Network
# ----------------------------------------------------------------------
EjectionHandler = Callable[[Packet, int], None]


class Network:
    """A 2-D mesh wormhole network of :class:`Router` objects.

    One cycle: every router computes routes and allocates its switch, all
    traversals are applied atomically (so a flit advances at most one hop
    per cycle), then source-queued packets are injected flit by flit where
    the local input buffer has room.
    """

    def __init__(
        self,
        topology: MeshTopology,
        routing: "str | RoutingAlgorithm" = "xy",
        buffer_depth: int = 4,
    ):
        self.topology = topology
        if isinstance(routing, str):
            routing = make_routing(routing, topology)
        self.routing = routing
        self.buffer_depth = buffer_depth

        self.routers: Dict[Coordinate, Router] = {}
        self.links = LinkTable()
        for coord in topology.coordinates():
            neighbor_dirs = list(topology.neighbors(coord).keys())
            self.routers[coord] = Router(
                coordinate=coord,
                routing=self.routing,
                buffer_depth=buffer_depth,
                connected_ports=[Direction.LOCAL] + neighbor_dirs,
            )
            for direction, neighbor in topology.neighbors(coord).items():
                self.links.add(Link(source=coord, destination=neighbor, direction=direction))

        # Source queues: packets waiting at each node for injection.
        self.injection_queues: Dict[Coordinate, Deque[Packet]] = {
            coord: deque() for coord in topology.coordinates()
        }
        # Packets currently being injected flit-by-flit.
        self._injecting: Dict[Coordinate, List[Flit]] = {}
        # Flits of partially ejected packets, keyed by packet id.
        self._ejecting: Dict[int, int] = {}

        self.stats = NetworkStats()
        self.ejected_packets: List[Packet] = []
        self.ejection_handler: Optional[EjectionHandler] = None
        self.current_cycle = 0

    def inject(self, packet: Packet) -> None:
        """Queue a packet at its source node for injection."""
        if not self.topology.contains(packet.source):
            raise ValueError(f"packet source {packet.source} outside mesh")
        if not self.topology.contains(packet.destination):
            raise ValueError(f"packet destination {packet.destination} outside mesh")
        self.injection_queues[packet.source].append(packet)

    def pending_injections(self) -> int:
        """Packets still waiting in source queues (plus partially injected)."""
        waiting = sum(len(q) for q in self.injection_queues.values())
        return waiting + len(self._injecting)

    def step(self) -> None:
        """Advance the network by one cycle."""
        forwards: List[Forward] = []
        for router in self.routers.values():
            router.compute_routes()
            forwards.extend(router.allocate_switch())
        for fwd in forwards:
            self._apply_forward(fwd)
        self._inject_pending()
        self.current_cycle += 1
        self.stats.cycles += 1

    def _apply_forward(self, fwd: Forward) -> None:
        coord = fwd.router.coordinate
        # Return a credit upstream for the buffer slot just freed, unless the
        # flit came from the LOCAL injection port (no credits there).
        if fwd.in_dir != Direction.LOCAL:
            upstream = self.routers[self.topology.neighbor(coord, fwd.in_dir)]
            upstream.credit_return(fwd.in_dir.opposite)
        if fwd.out_dir == Direction.LOCAL:
            self._eject_flit(fwd.flit)
            return
        link = self.links.get(coord, fwd.out_dir)
        link.traverse()
        self.routers[link.destination].accept_flit(fwd.out_dir.opposite, fwd.flit)

    def _eject_flit(self, flit: Flit) -> None:
        packet = flit.packet
        seen = self._ejecting.get(packet.packet_id, 0) + 1
        if flit.is_tail:
            self._ejecting.pop(packet.packet_id, None)
            packet.ejection_cycle = self.current_cycle + 1
            self.stats.record_ejection(packet)
            self.ejected_packets.append(packet)
            if self.ejection_handler is not None:
                self.ejection_handler(packet, packet.ejection_cycle)
        else:
            self._ejecting[packet.packet_id] = seen

    def _inject_pending(self) -> None:
        for coord, queue in self.injection_queues.items():
            router = self.routers[coord]
            flits = self._injecting.get(coord)
            if flits is None and queue:
                packet = queue.popleft()
                packet.injection_cycle = self.current_cycle
                self.stats.record_injection(packet)
                flits = make_flits(packet)
                self._injecting[coord] = flits
            if not flits:
                continue
            # The local port has a link's bandwidth: one flit per cycle.
            if router.can_accept(Direction.LOCAL):
                router.accept_flit(Direction.LOCAL, flits.pop(0))
            else:
                self.stats.stalled_injections += 1
            if not flits:
                self._injecting.pop(coord, None)

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def drain(self, max_cycles: int = 1_000_000) -> int:
        """Run until all traffic has been delivered; returns cycles used."""
        used = 0
        while not self.is_idle():
            if used >= max_cycles:
                raise RuntimeError(
                    f"network failed to drain within {max_cycles} cycles "
                    f"({self.stats.in_flight_packets} packets in flight)"
                )
            self.step()
            used += 1
        return used

    def is_idle(self) -> bool:
        if self.pending_injections():
            return False
        return all(router.is_idle() for router in self.routers.values())

    def router_activity(self) -> Dict[Coordinate, RouterActivity]:
        """Snapshot of per-router activity counters."""
        return {coord: router.activity_snapshot() for coord, router in self.routers.items()}

    def reset_activity(self) -> None:
        for router in self.routers.values():
            router.activity = RouterActivity()
        self.links.reset()

    def reset(self) -> None:
        """Full reset: drop traffic, clear stats and counters."""
        for router in self.routers.values():
            router.reset()
        self.links.reset()
        for queue in self.injection_queues.values():
            queue.clear()
        self._injecting.clear()
        self._ejecting.clear()
        self.stats.reset()
        self.ejected_packets.clear()
        self.current_cycle = 0


# ----------------------------------------------------------------------
# Drivers: the NocSimulator contract on the object engine
# ----------------------------------------------------------------------
def run_traffic(
    network: Network,
    traffic,
    cycles: int,
    warmup_cycles: int = 0,
    drain: bool = True,
    drain_limit: int = 200_000,
) -> SimulationResult:
    """Offer ``traffic.packets_for_cycle`` for warm-up plus ``cycles``
    cycles, measuring after warm-up (in-flight traffic kept), then drain."""
    for cycle in range(warmup_cycles):
        for packet in traffic.packets_for_cycle(cycle):
            network.inject(packet)
        network.step()
    network.stats.reset()
    network.reset_activity()
    for offset in range(cycles):
        for packet in traffic.packets_for_cycle(warmup_cycles + offset):
            network.inject(packet)
        network.step()
    if drain:
        network.drain(max_cycles=drain_limit)
    return SimulationResult(
        cycles=network.stats.cycles,
        stats=network.stats,
        router_activity=network.router_activity(),
        link_flits=network.links.total_flits(),
        drained=drain,
    )


def run_packets(
    network: Network, packets: List[Packet], drain_limit: int = 500_000
) -> SimulationResult:
    """Inject a packet batch at once and drain it."""
    network.stats.reset()
    network.reset_activity()
    for packet in packets:
        network.inject(packet)
    run_cycles = network.drain(max_cycles=drain_limit)
    return SimulationResult(
        cycles=run_cycles,
        stats=network.stats,
        router_activity=network.router_activity(),
        link_flits=network.links.total_flits(),
        drained=True,
    )


# ----------------------------------------------------------------------
# Per-cycle random.Random traffic replay
# ----------------------------------------------------------------------
class SeedTraffic:
    """A synthetic generator replayed cycle by cycle from ``random.Random``.

    Each cycle walks the nodes in row-major order: one draw decides
    injection, then the pattern draws a destination.  The stream differs
    from the generator's numpy ``schedule()``; feed this to
    :meth:`~repro.noc.schedule.TrafficSchedule.from_generator` (or to
    :func:`run_traffic`) when a test needs this exact packet sequence.
    """

    def __init__(self, generator):
        self.generator = generator
        self.topology = generator.topology
        self.rng = random.Random(generator.seed)

    def _uniform(self, source: Coordinate) -> Coordinate:
        nodes = self.topology.num_nodes
        while True:
            dest = self.topology.coordinate(self.rng.randrange(nodes))
            if dest != source:
                return dest

    def destination_for(self, source: Coordinate) -> Optional[Coordinate]:
        """Destination of a packet injected at ``source`` (None = no packet)."""
        generator, topology, rng = self.generator, self.topology, self.rng
        x, y = source
        if isinstance(generator, HotspotTraffic):
            if rng.random() < generator.hotspot_fraction:
                candidates = [spot for spot in generator.hotspots if spot != source]
                if candidates:
                    return rng.choice(candidates)
            return self._uniform(source)
        if isinstance(generator, UniformRandomTraffic):
            return self._uniform(source)
        if isinstance(generator, TransposeTraffic):
            return (y, x) if topology.contains((y, x)) else None
        if isinstance(generator, BitComplementTraffic):
            return (topology.width - 1 - x, topology.height - 1 - y)
        if isinstance(generator, NeighborTraffic):
            neighbors = list(topology.neighbors(source).values())
            return rng.choice(neighbors) if neighbors else None
        raise TypeError(f"no per-cycle replay for {type(generator).__name__}")

    def packets_for_cycle(self, cycle: int) -> List[Packet]:
        """Packets offered to the network in the given cycle."""
        generator = self.generator
        packets: List[Packet] = []
        for source in self.topology.coordinates():
            if self.rng.random() >= generator.injection_rate:
                continue
            destination = self.destination_for(source)
            if destination is None or destination == source:
                continue
            packets.append(
                Packet(
                    source=source,
                    destination=destination,
                    size_flits=generator.packet_size_flits,
                    packet_class=PacketClass.DATA,
                    injection_cycle=cycle,
                )
            )
        return packets
