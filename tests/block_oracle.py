"""Block-name thermal oracle for the seed-loop parity suites.

The seed experiment loops handed the thermal model one per-coordinate power
dict per epoch.  These helpers rebuild that path on
:class:`repro.thermal.solver.ThermalSolver`'s block-name API
(``steady_state`` / ``transient`` / ``warm_state`` taking ``{block: W}``), so
the parity suites compare the models' row-major vector scatter against an
independent reference instead of against itself.  Import it the way the
golden tests import ``golden_stack``::

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import block_oracle
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.metrics import ThermalMetrics
from repro.noc.topology import Coordinate, MeshTopology
from repro.thermal.floorplan import block_name_for


def as_map(topology: MeshTopology, vector) -> Dict[Coordinate, float]:
    """Per-coordinate dict of a row-major vector over the mesh."""
    return {
        coord: float(vector[index]) for index, coord in enumerate(topology.coordinates())
    }


def _blocks_of(model, coord: Coordinate) -> List[str]:
    """Solver block names carrying ``coord``'s power (its grid cells, if any)."""
    block = block_name_for(coord)
    resolution = getattr(model, "resolution", 1)
    if resolution == 1:
        return [block]
    # The cell names :func:`repro.thermal.grid.refine_floorplan` documents.
    return [
        f"{block}::{i}_{j}" for j in range(resolution) for i in range(resolution)
    ]


def block_power(model, power_by_coord: Dict[Coordinate, float]) -> Dict[str, float]:
    """``{block name: W}``; a grid unit spreads its power evenly over its cells."""
    power: Dict[str, float] = {}
    for coord, watts in power_by_coord.items():
        blocks = _blocks_of(model, coord)
        for name in blocks:
            power[name] = watts / len(blocks)
    return power


def unit_celsius(
    model, block_celsius: Dict[str, float], statistic: str = "peak"
) -> Dict[Coordinate, float]:
    """Per-unit temperature: the block's, or the peak/mean of a grid unit's cells."""
    result = {}
    for coord in model.topology.coordinates():
        values = [block_celsius[name] for name in _blocks_of(model, coord)]
        result[coord] = max(values) if statistic == "peak" else float(np.mean(values))
    return result


def steady_by_coord(
    model, power_by_coord: Dict[Coordinate, float], statistic: str = "peak"
) -> Dict[Coordinate, float]:
    """Steady per-unit temperatures through the solver's block-name path."""
    temps = model.solver.steady_state(block_power(model, power_by_coord))
    return unit_celsius(model, temps.block_celsius, statistic)


def warm_state(model, power_by_coord: Dict[Coordinate, float]) -> np.ndarray:
    """Steady node state (kelvin) through the solver's block-name path."""
    return model.solver.warm_state(block_power(model, power_by_coord))


def transient(model, power_by_coord: Dict[Coordinate, float], duration_s: float, **kwargs):
    """One constant-power transient through the solver's block-name path."""
    return model.solver.transient(
        block_power(model, power_by_coord), duration_s, **kwargs
    )


def metrics(topology: MeshTopology, per_unit: Dict[Coordinate, float]) -> ThermalMetrics:
    """:class:`ThermalMetrics` of a per-coordinate temperature dict."""
    return ThermalMetrics.from_vector(
        topology, np.array([per_unit[coord] for coord in topology.coordinates()])
    )
