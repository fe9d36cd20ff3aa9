"""Tests for the HotSpot-style facade."""

import numpy as np
import pytest

from repro.noc.topology import MeshTopology
from repro.power.trace import PowerTrace
from repro.thermal.hotspot import HotSpotModel
from repro.thermal.package import ThermalPackage


def _trace(mesh, duration_s, *rows):
    return PowerTrace.from_arrays(mesh, np.full(len(rows), duration_s), np.vstack(rows))


class TestSteadyStateFacade:
    def test_ambient_default(self, thermal4):
        assert thermal4.ambient_celsius == 40.0

    def test_keyed_by_coordinate(self, thermal4, uniform_power4, mesh4):
        temps = thermal4.steady_temperatures(uniform_power4[np.newaxis, :])
        assert temps.shape == (1, mesh4.num_nodes)
        assert np.all(temps > 40.0)

    def test_peak_temperature_shortcut(self, thermal4, uniform_power4):
        full = thermal4.steady_temperatures(uniform_power4[np.newaxis, :])
        assert thermal4.peak_temperature(uniform_power4) == full.max()

    def test_rejects_outside_coordinates(self, thermal4):
        # A vector sized for a larger mesh names PEs outside this one.
        with pytest.raises(ValueError, match="units per row"):
            thermal4.steady_temperatures(np.ones((1, 25)))
        with pytest.raises(ValueError, match="units per row"):
            thermal4.peak_temperature(np.ones(9))

    def test_hotspot_location_matches_power(self, thermal4, uniform_power4, mesh4):
        power = uniform_power4.copy()
        power[mesh4.node_id((3, 0))] = 8.0
        temps = thermal4.steady_temperatures(power[np.newaxis, :])[0]
        assert mesh4.coordinate(int(np.argmax(temps))) == (3, 0)

    def test_more_power_hotter(self, thermal4, uniform_power4):
        low = thermal4.peak_temperature(uniform_power4)
        high = thermal4.peak_temperature(np.full_like(uniform_power4, 3.0))
        assert high > low

    def test_custom_ambient(self, mesh4, uniform_power4):
        cold = HotSpotModel(mesh4, package=ThermalPackage(ambient_celsius=20.0))
        hot = HotSpotModel(mesh4, package=ThermalPackage(ambient_celsius=40.0))
        delta = hot.peak_temperature(uniform_power4) - cold.peak_temperature(uniform_power4)
        assert delta == pytest.approx(20.0, abs=1e-6)


class TestTransientFacade:
    def test_transient_by_coordinate_power(self, thermal4, uniform_power4, mesh4):
        result = thermal4.transient_sequence(_trace(mesh4, 1e-3, uniform_power4))
        assert result.times_s[-1] == pytest.approx(1e-3, rel=1e-6)
        assert thermal4.unit_series(result).max() >= 40.0

    def test_warm_state_round_trip(self, thermal4, uniform_power4, mesh4):
        warm = thermal4.warm_state(uniform_power4)
        result = thermal4.transient_sequence(
            _trace(mesh4, 1e-3, uniform_power4), initial_state=warm
        )
        assert thermal4.unit_series(result)[:, -1].max() == pytest.approx(
            thermal4.peak_temperature(uniform_power4), abs=0.01
        )

    def test_transient_sequence_facade(self, thermal4, uniform_power4, mesh4):
        hot = np.full_like(uniform_power4, 3.0)
        result = thermal4.transient_sequence(_trace(mesh4, 5e-4, uniform_power4, hot))
        assert result.times_s[-1] == pytest.approx(1e-3, rel=1e-6)

    def test_time_constant_positive(self, thermal4):
        tau = thermal4.thermal_time_constant_s()
        assert 1e-5 < tau < 1.0


class TestMeshSizes:
    def test_5x5_model(self, mesh5):
        model = HotSpotModel(mesh5)
        temps = model.steady_temperatures(np.full((1, 25), 1.5))
        assert temps.shape == (1, 25)

    def test_larger_chip_same_per_unit_power_is_hotter(self, mesh4, mesh5):
        """More units at the same per-unit power dissipate more total heat."""
        p4 = HotSpotModel(mesh4).peak_temperature(np.full(16, 2.0))
        p5 = HotSpotModel(mesh5).peak_temperature(np.full(25, 2.0))
        assert p5 > p4
