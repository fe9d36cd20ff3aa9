"""ASCII rendering of spatial maps (temperature, power) over the mesh.

Keeps the examples and reports dependency-free: no matplotlib is available in
the reproduction environment, so figures are emitted as aligned text grids
and CSV files instead.  Every renderer takes a row-major vector over the mesh
(entry ``topology.node_id(coord)`` is ``coord``'s value), the format of the
power-trace rows and batched temperature rows.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from ..noc.topology import MeshTopology


def _as_grid(topology: MeshTopology, values) -> np.ndarray:
    """``(height, width)`` view of a row-major vector (``grid[y, x]``)."""
    vector = np.asarray(values, dtype=float)
    if vector.shape != (topology.num_nodes,):
        raise ValueError(
            f"expected {topology.num_nodes} values, one per PE, got shape {vector.shape}"
        )
    return vector.reshape(topology.height, topology.width)


def render_grid(
    topology: MeshTopology,
    values,
    title: str = "",
    unit: str = "",
    cell_format: str = "{:7.2f}",
) -> str:
    """Render a row-major per-PE vector as a grid.

    Row ``y = height - 1`` is printed first so the output matches the usual
    mathematical orientation (y grows upwards).
    """
    grid = _as_grid(topology, values)
    lines = []
    if title:
        suffix = f" ({unit})" if unit else ""
        lines.append(f"{title}{suffix}")
    for y in range(topology.height - 1, -1, -1):
        lines.append(" ".join(cell_format.format(value) for value in grid[y]))
    return "\n".join(lines)


def render_heat_bar(
    topology: MeshTopology,
    values,
    levels: str = " .:-=+*#%@",
) -> str:
    """Coarse character heat map (one character per PE, hotter = denser)."""
    grid = _as_grid(topology, values)
    lo = grid.min()
    hi = grid.max()
    span = hi - lo if hi > lo else 1.0
    lines = []
    for y in range(topology.height - 1, -1, -1):
        row = []
        for value in grid[y]:
            frac = (value - lo) / span
            idx = min(len(levels) - 1, int(frac * (len(levels) - 1) + 0.5))
            row.append(levels[idx])
        lines.append("".join(row))
    return "\n".join(lines)


def to_csv(
    topology: MeshTopology,
    values,
    value_name: str = "value",
) -> str:
    """CSV text with columns x, y, <value_name>."""
    grid = _as_grid(topology, values)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["x", "y", value_name])
    for x, y in topology.coordinates():
        writer.writerow([x, y, grid[y, x]])
    return buffer.getvalue()


def difference_map(a, b) -> np.ndarray:
    """Per-PE ``a - b`` of two row-major vectors (e.g. a temperature reduction)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"maps cover different meshes: shapes {a.shape} and {b.shape}")
    return a - b
