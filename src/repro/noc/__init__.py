"""Cycle-accurate 2-D mesh Network-on-Chip simulator.

This package is the substrate the paper's evaluation runs on: a wormhole,
credit-flow-controlled mesh NoC with dimension-ordered routing, synthetic and
trace-driven traffic, and per-router switching-activity counters that feed
the power and thermal models.

Two evaluation tiers, fastest first:

* :mod:`repro.noc.analytic` — closed-form M/D/1-style wormhole model
  (microseconds per point, validated below saturation);
* :mod:`repro.noc.vector` — the array-native cycle kernel, batched over
  many independent lanes (:mod:`repro.noc.batch` runs whole latency curves
  as one run; :class:`NocSimulator` drives one lane).

The object-graph engine the kernel reproduces exactly lives with the tests,
in ``tests/noc_oracle.py``, as the reference of the parity suite.
"""

from .analytic import (
    AnalyticPoint,
    analytic_curve,
    analytic_latency,
    destination_probabilities,
    saturation_rate,
)
from .batch import LatencyCurve, default_rate_grid, latency_curve, run_schedules
from .engine import SimulationClock
from .flit import Packet, PacketClass, reset_packet_ids
from .routing import (
    OddEvenRouting,
    RoutingAlgorithm,
    WestFirstRouting,
    XYRouting,
    YXRouting,
    available_algorithms,
    make_routing,
)
from .schedule import TrafficSchedule
from .simulator import NocSimulator, SimulationResult
from .stats import LatencyStats, NetworkStats
from .topology import Coordinate, Direction, MeshTopology
from .traffic import (
    BitComplementTraffic,
    HotspotTraffic,
    NeighborTraffic,
    TraceTraffic,
    TrafficGenerator,
    TransposeTraffic,
    UniformRandomTraffic,
    make_traffic,
)
from .vector import RouterActivity, VectorNetwork

__all__ = [
    "AnalyticPoint",
    "analytic_curve",
    "analytic_latency",
    "destination_probabilities",
    "saturation_rate",
    "LatencyCurve",
    "default_rate_grid",
    "latency_curve",
    "run_schedules",
    "TrafficSchedule",
    "VectorNetwork",
    "SimulationClock",
    "Packet",
    "PacketClass",
    "reset_packet_ids",
    "RouterActivity",
    "RoutingAlgorithm",
    "XYRouting",
    "YXRouting",
    "WestFirstRouting",
    "OddEvenRouting",
    "make_routing",
    "available_algorithms",
    "NocSimulator",
    "SimulationResult",
    "LatencyStats",
    "NetworkStats",
    "Coordinate",
    "Direction",
    "MeshTopology",
    "TrafficGenerator",
    "UniformRandomTraffic",
    "TransposeTraffic",
    "BitComplementTraffic",
    "NeighborTraffic",
    "HotspotTraffic",
    "TraceTraffic",
    "make_traffic",
]
