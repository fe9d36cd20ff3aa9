"""Engine parity: the vector kernel must reproduce the object engine exactly.

The object-graph engine in ``tests/noc_oracle.py`` is the behavioural
specification; :class:`~repro.noc.vector.VectorNetwork` (driven by
:class:`~repro.noc.simulator.NocSimulator`) is the array-native engine the
program runs.  On identical traffic the two must agree on *everything* the
simulator reports: per-packet injection/ejection cycles, latency statistics
(including the per-class split), throughput, per-node counters, stalled
injections and the full per-router activity dictionaries.

Both engines are driven from one pregenerated
:class:`~repro.noc.schedule.TrafficSchedule`, replayed as a trace.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chips import get_configuration
from repro.migration.transforms import make_transform
from repro.migration.unit import MigrationUnit
from repro.noc.schedule import TrafficSchedule
from repro.noc.simulator import NocSimulator
from repro.noc.topology import MeshTopology
from repro.noc.traffic import TraceTraffic, make_traffic
from repro.noc.vector import VectorNetwork

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import noc_oracle  # noqa: E402
from migration_oracle import tanner_nodes_per_pe  # noqa: E402

PARITY_CONFIGS = [
    # (mesh, pattern, rate, cycles, warmup, routing, depth, kwargs)
    (4, "uniform", 0.10, 300, 0, "xy", 4, {}),
    (4, "uniform", 0.25, 300, 60, "xy", 4, {}),
    (5, "uniform", 0.08, 250, 40, "xy", 4, {}),
    (4, "hotspot", 0.12, 250, 30, "xy", 4, {"hotspots": [(1, 1), (2, 2)]}),
    (5, "hotspot", 0.10, 250, 25, "xy", 4, {"hotspots": [(2, 2)]}),
    (4, "transpose", 0.15, 250, 0, "xy", 4, {}),
    (5, "neighbor", 0.20, 250, 25, "xy", 4, {}),
    (4, "uniform", 0.10, 250, 30, "yx", 4, {}),
    (4, "uniform", 0.10, 250, 30, "west-first", 4, {}),
    (5, "uniform", 0.10, 250, 30, "odd-even", 2, {}),
]


def shared_trace(size, pattern, rate, horizon, seed=7, **kwargs):
    """One schedule both engines replay exactly."""
    topology = MeshTopology(size, size)
    generator = make_traffic(pattern, topology, injection_rate=rate, seed=seed, **kwargs)
    schedule = TrafficSchedule.from_generator(
        noc_oracle.SeedTraffic(generator), topology, horizon
    )
    return topology, schedule, TraceTraffic(schedule.trace_tuples(topology))


@pytest.mark.parametrize(
    "size,pattern,rate,cycles,warmup,routing,depth,kwargs",
    PARITY_CONFIGS,
    ids=[f"{c[0]}x{c[0]}-{c[1]}-{c[5]}" for c in PARITY_CONFIGS],
)
def test_engines_agree_exactly(size, pattern, rate, cycles, warmup, routing, depth, kwargs):
    topology, _, trace = shared_trace(size, pattern, rate, cycles + warmup, **kwargs)
    obj = noc_oracle.run_traffic(
        noc_oracle.Network(topology, routing=routing, buffer_depth=depth),
        trace,
        cycles=cycles,
        warmup_cycles=warmup,
    )
    vec = NocSimulator(topology, routing=routing, buffer_depth=depth).run_traffic(
        trace, cycles=cycles, warmup_cycles=warmup
    )

    assert vec.cycles == obj.cycles
    assert vec.link_flits == obj.link_flits
    for field in (
        "cycles",
        "packets_injected",
        "packets_ejected",
        "flits_injected",
        "flits_ejected",
        "stalled_injections",
    ):
        assert getattr(vec.stats, field) == getattr(obj.stats, field), field
    assert vec.stats.latency == obj.stats.latency
    assert vec.stats.latency_by_class == obj.stats.latency_by_class
    assert vec.stats.injected_per_node == obj.stats.injected_per_node
    assert vec.stats.ejected_per_node == obj.stats.ejected_per_node
    assert vec.router_activity == obj.router_activity


def test_per_packet_cycles_and_ejection_order_match():
    """Injection/ejection cycles agree packet by packet, not just on average."""
    topology, schedule, _ = shared_trace(4, "uniform", 0.20, 200)

    object_packets = schedule.to_packets(topology)
    by_cycle = {}
    for packet in object_packets:
        by_cycle.setdefault(packet.injection_cycle, []).append(packet)
    network = noc_oracle.Network(topology)
    for cycle in range(max(by_cycle) + 1):
        for packet in by_cycle.get(cycle, []):
            network.inject(packet)
        network.step()
    network.drain(max_cycles=50_000)

    vector_packets = schedule.to_packets(topology)
    net = VectorNetwork(
        topology, [TrafficSchedule.from_packets(vector_packets, topology)]
    )
    net.drain()
    net.write_back_packets()

    for expected, actual in zip(object_packets, vector_packets):
        assert actual.injection_cycle == expected.injection_cycle
        assert actual.ejection_cycle == expected.ejection_cycle

    # The engine's ejection log is ordered by (cycle, node row-major) —
    # the order the object engine's per-router loop ejects within a cycle.
    order = net.ejection_order(0)
    eject = net.pkt_eject[order]
    node = net.pkt_dst[order]
    keys = eject * topology.num_nodes + node
    assert np.all(np.diff(keys) >= 0)


def test_stalled_injections_match_with_tiny_buffers():
    """Back-pressure bookkeeping matches when local buffers overflow."""
    topology, _, trace = shared_trace(4, "uniform", 0.6, 120)
    obj = noc_oracle.run_traffic(
        noc_oracle.Network(topology, buffer_depth=2), trace, cycles=120
    )
    vec = NocSimulator(topology, buffer_depth=2).run_traffic(trace, cycles=120)
    assert vec.stats.stalled_injections > 0
    assert vec.stats.stalled_injections == obj.stats.stalled_injections


def test_run_packets_parity():
    topology = MeshTopology(4, 4)
    generator = make_traffic("uniform", topology, injection_rate=0.3, seed=3)
    packets = TrafficSchedule.from_generator(
        noc_oracle.SeedTraffic(generator), topology, 60
    ).to_packets(topology)

    def batch():
        return [
            p.__class__(
                source=p.source,
                destination=p.destination,
                size_flits=p.size_flits,
                packet_class=p.packet_class,
                injection_cycle=0,
            )
            for p in packets
        ]

    obj = noc_oracle.run_packets(noc_oracle.Network(topology), batch())
    vec = NocSimulator(topology).run_packets(batch())
    assert vec.cycles == obj.cycles
    assert vec.stats.latency == obj.stats.latency
    assert vec.router_activity == obj.router_activity


def test_migration_replay_parity():
    """A whole-chip X-Y shift's CONFIG packets on chip E drain identically."""
    chip = get_configuration("E")
    unit = MigrationUnit(chip.topology, library=chip.library)
    transform = make_transform("xy-shift", chip.topology)
    nodes = tanner_nodes_per_pe(chip)
    obj = noc_oracle.run_packets(
        noc_oracle.Network(chip.topology, buffer_depth=8),
        unit.migration_packets(transform, nodes),
        drain_limit=1_000_000,
    )
    vec = NocSimulator(chip.topology, buffer_depth=8).run_packets(
        unit.migration_packets(transform, nodes), drain_limit=1_000_000
    )
    assert vec.cycles == obj.cycles
    assert vec.stats.latency == obj.stats.latency


class TestConservation:
    """Flits are never created or destroyed: injected == ejected + in flight."""

    @given(
        width=st.integers(2, 4),
        height=st.integers(2, 4),
        rate=st.floats(0.05, 0.5),
        depth=st.integers(2, 4),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=25, deadline=None)
    def test_packet_conservation_every_cycle(self, width, height, rate, depth, seed):
        topology = MeshTopology(width, height)
        generator = make_traffic("uniform", topology, injection_rate=rate, seed=seed)
        schedule = generator.schedule(60)
        net = VectorNetwork(topology, [schedule], buffer_depth=depth)
        for _ in range(90):
            net.step()
            injected = int(np.count_nonzero(net.pkt_inject >= 0))
            ejected = int(np.count_nonzero(net.pkt_eject >= 0))
            assert injected == ejected + net.in_network_packets(0)
        net.drain()
        # After a full drain every injected packet has been delivered.
        assert net.buffered_flits(0) == 0
        injected = int(np.count_nonzero(net.pkt_inject >= 0))
        ejected = int(np.count_nonzero(net.pkt_eject >= 0))
        assert injected == schedule.num_packets == ejected
