"""Property-based tests for the thermal model (hypothesis)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.noc.topology import MeshTopology
from repro.thermal.floorplan import mesh_floorplan
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.rc_model import build_thermal_network
from repro.thermal.solver import ThermalSolver

# Shared 4x4 model: building the RC network is the expensive part, the solves
# are cheap, so hypothesis examples reuse one instance.
_MESH = MeshTopology(4, 4)
_MODEL = HotSpotModel(_MESH)

power_values = st.floats(min_value=0.0, max_value=8.0, allow_nan=False, allow_infinity=False)
power_maps = st.lists(power_values, min_size=16, max_size=16)


def _steady(power):
    """Per-unit steady temperatures of one row-major power vector."""
    return _MODEL.steady_temperatures(np.asarray(power)[np.newaxis, :])[0]


class TestSteadyStateProperties:
    @given(values=power_maps)
    @settings(max_examples=40, deadline=None)
    def test_temperatures_never_below_ambient(self, values):
        assert np.all(_steady(values) >= 40.0 - 1e-6)

    @given(values=power_maps, scale=st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity_of_temperature_rise(self, values, scale):
        base = np.array(values)
        base_peak_rise = _MODEL.peak_temperature(base) - 40.0
        scaled_peak_rise = _MODEL.peak_temperature(base * scale) - 40.0
        assert np.isclose(scaled_peak_rise, scale * base_peak_rise, rtol=1e-6, atol=1e-9)

    @given(values=power_maps, extra=st.floats(0.1, 5.0), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_monotonicity_adding_power_never_cools(self, values, extra, data):
        base = np.array(values)
        target = data.draw(st.integers(0, _MESH.num_nodes - 1))
        hotter = base.copy()
        hotter[target] += extra
        # Every unit's temperature is a non-decreasing function of any unit's power.
        assert np.all(_steady(hotter) >= _steady(base) - 1e-9)

    @given(values=power_maps)
    @settings(max_examples=30, deadline=None)
    def test_peak_is_max_of_map(self, values):
        assert _MODEL.peak_temperature(np.array(values)) == _steady(values).max()


class TestEnergyConservation:
    @given(values=power_maps)
    @settings(max_examples=20, deadline=None)
    def test_heat_flow_to_ambient_matches_input_power(self, values):
        """In steady state, all dissipated power leaves through the sink's
        convection resistance: (T_sink - T_amb) / R_conv == total power."""
        total_power = sum(values)
        network = _MODEL.network
        solver = ThermalSolver(network)
        block_power = {
            f"PE_{x}_{y}": values[_MESH.node_id((x, y))] for (x, y) in _MESH.coordinates()
        }
        temps = solver.warm_state(network.power_vector(block_power))
        sink_index = network.num_nodes - 1
        sink_kelvin = temps[sink_index]
        conduction = network.ambient_conductance[sink_index] * (
            sink_kelvin - network.ambient_kelvin
        )
        assert np.isclose(conduction, total_power, rtol=1e-6, atol=1e-9)


class TestPermutationInvariance:
    @given(values=power_maps, seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_total_rise_bounded_by_uniform_equivalents(self, values, seed):
        """Rearranging the same power values over the die changes the peak but
        never the total dissipated power, so the sink temperature is identical
        and the mean die temperature moves only a little."""
        rng = np.random.default_rng(seed)
        base_temps = _steady(values)
        perm_temps = _steady(rng.permutation(values))
        assert np.isclose(np.mean(base_temps), np.mean(perm_temps), atol=1.5)
