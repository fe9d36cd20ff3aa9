"""Tests for the synthetic traffic generators.

The pattern tests drive each generator through the reference engine's
per-cycle ``random.Random`` replay (``noc_oracle.SeedTraffic``), which the
parity suites feed to both engines.
"""

import sys
from pathlib import Path

import pytest

from repro.noc.flit import PacketClass
from repro.noc.traffic import (
    BitComplementTraffic,
    HotspotTraffic,
    NeighborTraffic,
    TraceTraffic,
    TransposeTraffic,
    UniformRandomTraffic,
    make_traffic,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from noc_oracle import SeedTraffic  # noqa: E402


class TestValidation:
    def test_rejects_bad_injection_rate(self, mesh4):
        with pytest.raises(ValueError):
            UniformRandomTraffic(mesh4, injection_rate=1.5)
        with pytest.raises(ValueError):
            UniformRandomTraffic(mesh4, injection_rate=-0.1)

    def test_rejects_bad_packet_size(self, mesh4):
        with pytest.raises(ValueError):
            UniformRandomTraffic(mesh4, injection_rate=0.1, packet_size_flits=0)

    def test_hotspot_requires_valid_nodes(self, mesh4):
        with pytest.raises(ValueError):
            HotspotTraffic(mesh4, 0.1, hotspots=[(9, 9)])
        with pytest.raises(ValueError):
            HotspotTraffic(mesh4, 0.1, hotspots=[])


class TestPatterns:
    def test_uniform_never_self(self, mesh4):
        traffic = SeedTraffic(UniformRandomTraffic(mesh4, injection_rate=1.0, seed=3))
        for _ in range(20):
            for packet in traffic.packets_for_cycle(0):
                assert packet.source != packet.destination

    def test_transpose_destination(self, mesh4):
        traffic = SeedTraffic(TransposeTraffic(mesh4, injection_rate=1.0, seed=1))
        packets = traffic.packets_for_cycle(0)
        for packet in packets:
            x, y = packet.source
            assert packet.destination == (y, x)

    def test_bit_complement_destination(self, mesh4):
        traffic = SeedTraffic(BitComplementTraffic(mesh4, injection_rate=1.0, seed=1))
        for packet in traffic.packets_for_cycle(0):
            x, y = packet.source
            assert packet.destination == (3 - x, 3 - y)

    def test_neighbor_traffic_one_hop(self, mesh5):
        traffic = SeedTraffic(NeighborTraffic(mesh5, injection_rate=1.0, seed=5))
        for packet in traffic.packets_for_cycle(0):
            assert mesh5.manhattan_distance(packet.source, packet.destination) == 1

    def test_hotspot_bias(self, mesh4):
        hotspot = (2, 2)
        traffic = SeedTraffic(
            HotspotTraffic(
                mesh4, injection_rate=1.0, hotspots=[hotspot], hotspot_fraction=0.9, seed=7
            )
        )
        packets = []
        for cycle in range(30):
            packets.extend(traffic.packets_for_cycle(cycle))
        to_hotspot = sum(1 for p in packets if p.destination == hotspot)
        assert to_hotspot > len(packets) * 0.5

    def test_injection_rate_controls_volume(self, mesh4):
        low = SeedTraffic(UniformRandomTraffic(mesh4, injection_rate=0.05, seed=1))
        high = SeedTraffic(UniformRandomTraffic(mesh4, injection_rate=0.8, seed=1))
        low_count = sum(len(low.packets_for_cycle(c)) for c in range(50))
        high_count = sum(len(high.packets_for_cycle(c)) for c in range(50))
        assert high_count > low_count * 3

    def test_seeded_reproducibility(self, mesh4):
        a = SeedTraffic(UniformRandomTraffic(mesh4, injection_rate=0.3, seed=42))
        b = SeedTraffic(UniformRandomTraffic(mesh4, injection_rate=0.3, seed=42))
        for cycle in range(10):
            pa = [(p.source, p.destination) for p in a.packets_for_cycle(cycle)]
            pb = [(p.source, p.destination) for p in b.packets_for_cycle(cycle)]
            assert pa == pb


class TestTraceTraffic:
    def test_replay(self):
        trace = TraceTraffic(
            [
                (0, (0, 0), (1, 1), 2),
                (0, (1, 0), (0, 1), 3),
                (5, (2, 2), (0, 0), 1),
            ]
        )
        cycle0 = trace.packets_for_cycle(0)
        assert len(cycle0) == 2
        assert trace.packets_for_cycle(1) == []
        assert len(trace.packets_for_cycle(5)) == 1
        assert trace.last_cycle == 5

    def test_empty_trace(self):
        trace = TraceTraffic([])
        assert trace.packets_for_cycle(0) == []
        assert trace.last_cycle == 0


class TestFactory:
    def test_make_all_patterns(self, mesh4):
        for name in ["uniform", "transpose", "bit-complement", "neighbor"]:
            generator = make_traffic(name, mesh4, injection_rate=0.2, seed=1)
            assert generator.injection_rate == 0.2

    def test_make_hotspot_with_kwargs(self, mesh4):
        generator = make_traffic(
            "hotspot", mesh4, injection_rate=0.2, seed=1, hotspots=[(1, 1)]
        )
        assert isinstance(generator, HotspotTraffic)

    def test_unknown_pattern(self, mesh4):
        with pytest.raises(ValueError):
            make_traffic("tornado", mesh4, injection_rate=0.2)

    def test_packets_are_data_class(self, mesh4):
        generator = make_traffic("uniform", mesh4, injection_rate=1.0, seed=2)
        for packet in SeedTraffic(generator).packets_for_cycle(0):
            assert packet.packet_class == PacketClass.DATA
