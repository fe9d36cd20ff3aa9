"""Parity of the closed-form analytic evaluation with the per-flow sum.

:class:`repro.noc.analytic._AnalyticModel` prices a rate as
``(zero-load sum + wait . W) / total probability``.  The oracle below is the
per-flow loop the model used to run on every call: walk every
source/destination flow and add ``p * (hops + L + 1 + sum of its channels'
waits)``.  Both must agree to rounding on every pattern, mesh and routing.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.migration.plan import congestion_factor
from repro.noc.analytic import (
    ARRIVAL_DISCRETISATION,
    _AnalyticModel,
    _flow_channels,
    destination_probabilities,
)
from repro.noc.topology import MeshTopology
from repro.scenarios import all_scenarios, compile_scenario

PATTERNS = [
    ("uniform", {}),
    ("transpose", {}),
    ("bit-complement", {}),
    ("neighbor", {}),
    ("hotspot", {"hotspots": [(1, 1), (2, 0)]}),
]
MESHES = [3, 4, 5, 6, 7, 8]
ROUTINGS = ["xy", "yx", "west-first", "odd-even"]
PACKET_FLITS = 4


def oracle_latency(topology, pattern, routing, rate, unit_loads, **kwargs) -> float:
    """The per-flow reference: every flow walked, every channel wait summed."""
    size = PACKET_FLITS
    util = rate * size * unit_loads
    if float(util.max()) >= 1.0:
        return float("inf")
    wait = ARRIVAL_DISCRETISATION * util * size / (2.0 * (1.0 - util))
    probs = destination_probabilities(pattern, topology, **kwargs)
    total_p = total_latency = 0.0
    for (s, d), channels in _flow_channels(topology, routing).items():
        p = probs[s, d]
        if p <= 0.0:
            continue
        hops = len(channels) - 1
        total_latency += p * (hops + size + 1 + float(wait[channels].sum()))
        total_p += p
    return total_latency / total_p


def oracle_loads(topology, pattern, routing, **kwargs) -> np.ndarray:
    """Per-unit-rate channel loads, accumulated flow by flow."""
    probs = destination_probabilities(pattern, topology, **kwargs)
    loads = np.zeros(topology.num_nodes * 5)
    for (s, d), channels in _flow_channels(topology, routing).items():
        p = probs[s, d]
        if p > 0.0:
            for channel in channels:
                loads[channel] += p
    return loads


@pytest.mark.parametrize("routing", ROUTINGS)
@pytest.mark.parametrize("size", MESHES)
@pytest.mark.parametrize(
    "pattern,kwargs", PATTERNS, ids=[pattern for pattern, _ in PATTERNS]
)
def test_closed_form_matches_per_flow_sum(pattern, kwargs, size, routing):
    topology = MeshTopology(size, size)
    model = _AnalyticModel(topology, pattern, PACKET_FLITS, routing, **kwargs)
    loads = oracle_loads(topology, pattern, routing, **kwargs)
    np.testing.assert_allclose(model.unit_loads, loads, rtol=1e-12, atol=0.0)
    saturation = model.saturation_rate
    rates = [
        0.0,
        0.5 * saturation,
        math.nextafter(saturation, 0.0),
        model.capacity_rate,
        2.0 * model.capacity_rate,
    ]
    for rate in rates:
        expected = oracle_latency(
            topology, pattern, routing, rate, model.unit_loads, **kwargs
        )
        actual = model.evaluate(rate).avg_latency
        if math.isinf(expected):
            assert math.isinf(actual), rate
        else:
            assert actual == pytest.approx(expected, rel=1e-12, abs=0.0), rate
    assert model.zero_load_latency == model.evaluate(0.0).avg_latency


def test_at_capacity_takes_the_inf_branch():
    model = _AnalyticModel(MeshTopology(4, 4), "uniform", PACKET_FLITS, "xy")
    point = model.evaluate(model.capacity_rate)
    assert math.isinf(point.avg_latency)
    assert point.saturated
    assert point.max_channel_utilisation >= 1.0


def _old_congestion_factor(noc_model, rate):
    """The pre-closed-form pricing: per-flow loop, probing zero load each call."""
    if rate is None or rate <= 0.0 or not math.isfinite(rate):
        return 1.0
    topology = MeshTopology(noc_model.width, noc_model.height)
    model = noc_model._model()
    capped = min(rate, math.nextafter(noc_model.saturation_rate, 0.0))
    args = (topology, noc_model.pattern, noc_model.routing)
    kwargs = dict(noc_model.pattern_kwargs)
    loaded = oracle_latency(*args, capped, model.unit_loads, **kwargs)
    base = oracle_latency(*args, 0.0, model.unit_loads, **kwargs)
    return max(1.0, loaded / base)


def test_congestion_factor_unchanged_on_registry_schedules():
    priced = 0
    for spec in all_scenarios():
        compiled = compile_scenario(spec)
        if compiled.noc_model is None or compiled.noc_rates is None:
            continue
        assert compiled.noc_model.packet_size_flits == PACKET_FLITS
        for rate in np.unique(compiled.noc_rates):
            factor = congestion_factor(compiled.noc_model, float(rate))
            expected = _old_congestion_factor(compiled.noc_model, float(rate))
            assert factor == pytest.approx(expected, rel=1e-12, abs=0.0)
            # Integer stage cycles are priced by ceil(cycles * factor).
            for cycles in (1, 7, 96, 385, 1024, 4097):
                assert math.ceil(cycles * factor) == math.ceil(cycles * expected)
            priced += 1
    assert priced > 0
