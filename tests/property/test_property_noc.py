"""Property-based tests for the NoC substrate (hypothesis)."""

import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.noc.flit import Packet
from repro.noc.routing import available_algorithms, make_routing
from repro.noc.topology import MeshTopology

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from noc_oracle import Network  # noqa: E402

dims = st.tuples(st.integers(2, 6), st.integers(2, 6))


def coords_for(width, height):
    return st.tuples(st.integers(0, width - 1), st.integers(0, height - 1))


class TestRoutingProperties:
    @given(
        dims=dims,
        algorithm=st.sampled_from(available_algorithms()),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_routes_are_minimal_and_terminate(self, dims, algorithm, data):
        width, height = dims
        topology = MeshTopology(width, height)
        routing = make_routing(algorithm, topology)
        src = data.draw(coords_for(width, height))
        dst = data.draw(coords_for(width, height))
        path = routing.path(src, dst)
        assert path[0] == src
        assert path[-1] == dst
        assert len(path) - 1 == topology.manhattan_distance(src, dst)
        for a, b in zip(path, path[1:]):
            assert topology.manhattan_distance(a, b) == 1


class TestDeliveryProperties:
    @given(
        dims=dims,
        data=st.data(),
        num_packets=st.integers(1, 20),
        size=st.integers(1, 6),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_injected_packet_is_delivered_exactly_once(
        self, dims, data, num_packets, size
    ):
        width, height = dims
        topology = MeshTopology(width, height)
        network = Network(topology, buffer_depth=4)
        packets = []
        for _ in range(num_packets):
            src = data.draw(coords_for(width, height))
            dst = data.draw(coords_for(width, height))
            packet = Packet(source=src, destination=dst, size_flits=size)
            packets.append(packet)
            network.inject(packet)
        network.drain(max_cycles=200_000)
        assert network.stats.packets_ejected == num_packets
        assert network.stats.flits_ejected == num_packets * size
        assert len(network.ejected_packets) == num_packets
        assert {p.packet_id for p in network.ejected_packets} == {
            p.packet_id for p in packets
        }

    @given(dims=dims, data=st.data(), size=st.integers(1, 8))
    @settings(max_examples=25, deadline=None)
    def test_latency_at_least_hop_count_plus_serialization(self, dims, data, size):
        width, height = dims
        topology = MeshTopology(width, height)
        network = Network(topology, buffer_depth=4)
        src = data.draw(coords_for(width, height))
        dst = data.draw(coords_for(width, height))
        packet = Packet(source=src, destination=dst, size_flits=size)
        network.inject(packet)
        network.drain(max_cycles=100_000)
        hops = topology.manhattan_distance(src, dst)
        assert packet.latency >= hops + size - 1
