"""The logical-task to physical-PE mapping.

A :class:`Mapping` is a bijection between logical task ids (one per workload
partition, see :mod:`repro.ldpc.partition`) and physical mesh coordinates.
It is the object the paper's runtime reconfiguration actually mutates: a
migration applies a coordinate transform to the physical side of this
bijection while the logical (relative) structure stays fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..noc.topology import Coordinate, MeshTopology


@dataclass
class Mapping:
    """Bijective assignment of logical tasks to physical mesh coordinates."""

    topology: MeshTopology
    physical_of_task: Dict[int, Coordinate]

    def __post_init__(self) -> None:
        expected_tasks = set(range(self.topology.num_nodes))
        tasks = set(self.physical_of_task.keys())
        if tasks != expected_tasks:
            raise ValueError(
                f"mapping must cover task ids 0..{self.topology.num_nodes - 1}, "
                f"got {sorted(tasks)[:5]}..."
            )
        coords = list(self.physical_of_task.values())
        for coord in coords:
            if not self.topology.contains(coord):
                raise ValueError(f"coordinate {coord} outside mesh")
        if len(set(coords)) != len(coords):
            raise ValueError("mapping is not a bijection: two tasks share a PE")
        self._task_of_physical: Dict[Coordinate, int] = {
            coord: task for task, coord in self.physical_of_task.items()
        }

    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return self.topology.num_nodes

    def physical_of(self, task: int) -> Coordinate:
        """Physical coordinate currently hosting ``task``."""
        return self.physical_of_task[task]

    def task_of(self, coord: Coordinate) -> int:
        """Logical task currently running at ``coord``."""
        return self._task_of_physical[coord]

    def __getitem__(self, task: int) -> Coordinate:
        return self.physical_of_task[task]

    def items(self) -> Iterator[Tuple[int, Coordinate]]:
        return iter(sorted(self.physical_of_task.items()))

    # ------------------------------------------------------------------
    def apply_transform(self, transform: Callable[[Coordinate], Coordinate]) -> "Mapping":
        """Return a new mapping with every physical coordinate transformed.

        ``transform`` must be a bijection of the mesh onto itself (the
        migration functions of Table 1 are); the constructor re-validates
        this.
        """
        new_assignment = {
            task: transform(coord) for task, coord in self.physical_of_task.items()
        }
        return Mapping(topology=self.topology, physical_of_task=new_assignment)

    def moved_tasks(self, other: "Mapping") -> List[int]:
        """Tasks whose physical location differs between two mappings."""
        if other.topology != self.topology:
            raise ValueError("mappings cover different meshes")
        return [
            task
            for task in range(self.num_tasks)
            if self.physical_of(task) != other.physical_of(task)
        ]

    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, topology: MeshTopology) -> "Mapping":
        """Task ``i`` on the i-th coordinate in row-major order."""
        assignment = {
            topology.node_id(coord): coord for coord in topology.coordinates()
        }
        return cls(topology=topology, physical_of_task=assignment)

    @classmethod
    def from_permutation(cls, topology: MeshTopology, permutation: List[int]) -> "Mapping":
        """Task ``i`` on the coordinate of node ``permutation[i]``."""
        if sorted(permutation) != list(range(topology.num_nodes)):
            raise ValueError("permutation must be a rearrangement of all node ids")
        assignment = {
            task: topology.coordinate(node_id) for task, node_id in enumerate(permutation)
        }
        return cls(topology=topology, physical_of_task=assignment)

    def to_permutation(self) -> List[int]:
        """Inverse of :meth:`from_permutation`."""
        return [
            self.topology.node_id(self.physical_of(task)) for task in range(self.num_tasks)
        ]

    def copy(self) -> "Mapping":
        return Mapping(
            topology=self.topology, physical_of_task=dict(self.physical_of_task)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return (
            self.topology == other.topology
            and self.physical_of_task == other.physical_of_task
        )

    def __hash__(self) -> int:
        return hash(
            (self.topology, tuple(sorted(self.physical_of_task.items())))
        )
