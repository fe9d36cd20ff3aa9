"""Transparent chip I/O through the migration unit.

Section 2.3: "the simplicity and predictability of the migration functions
... allows for a simplified I/O interface to the outside of the chip, by
transforming the destination address assigned to all incoming packets and
transforming the source address of all packets leaving the chip.  By
including a migration unit at the I/O interface, the migration operation is
totally transparent to the outside world."

:class:`IoAddressTranslator` keeps the composition of every migration applied
so far.  External agents always address PEs by their *original* (design-time)
coordinates; the translator rewrites those to the current physical location
on ingress and back to the original view on egress.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..noc.flit import Packet, PacketClass
from ..noc.topology import Coordinate, MeshTopology


class IoAddressTranslator:
    """Maintains the cumulative coordinate map across migrations.

    The map is an int array, ``original node id -> current node id``; every
    recorded migration stage composes a node permutation onto it with one
    gather.
    """

    def __init__(self, topology: MeshTopology):
        self.topology = topology
        self._coords = tuple(topology.coordinates())
        self._current_of_original = np.arange(topology.num_nodes, dtype=np.int64)
        self._history: List[str] = []
        self._applied = 0

    # ------------------------------------------------------------------
    @property
    def migrations_applied(self) -> int:
        return self._applied

    @property
    def history(self) -> List[str]:
        """Labels of the stages recorded since the last compaction.

        A one-stage (sudden) migration is labelled with its transform's
        name; a staged plan's stages read ``name[i/n]``.
        """
        return list(self._history)

    def record_step(self, step: np.ndarray, label: str) -> None:
        """Move every workload along ``step`` (current node -> next node).

        ``step`` is one executed migration stage as a node permutation (see
        :meth:`repro.migration.plan.MigrationStage.node_step`, which checks
        it is one); a sudden migration's single stage is the whole
        transform's node permutation.  ``label`` joins :attr:`history`.
        """
        self._current_of_original = step[self._current_of_original]
        self._history.append(label)
        self._applied += 1

    def compact_history(self) -> None:
        """Drop the per-migration name log, keeping the cumulative map.

        The composed coordinate map and :attr:`migrations_applied` are all
        the translator needs to keep routing packets; the name log exists for
        reports and tests.  A streaming run compacts after every window so
        translator state stays O(mesh) over an unbounded stream.
        """
        self._history.clear()

    def reset(self) -> None:
        """Forget all migrations (chip returns to the design-time layout)."""
        self._current_of_original = np.arange(self.topology.num_nodes, dtype=np.int64)
        self._history.clear()
        self._applied = 0

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot (cumulative map as a permutation)."""
        return {
            "permutation": self._current_of_original.tolist(),
            "applied": self._applied,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict` (the name log is not restored)."""
        permutation = [int(node) for node in state["permutation"]]  # type: ignore[union-attr]
        if sorted(permutation) != list(range(self.topology.num_nodes)):
            raise ValueError("translator permutation must cover every node id")
        self._current_of_original = np.array(permutation, dtype=np.int64)
        self._history = []
        self._applied = int(state["applied"])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    def current_location(self, original: Coordinate) -> Coordinate:
        """Where the workload originally at ``original`` currently lives."""
        node = self.topology.node_id(original)  # ValueError outside the mesh
        return self._coords[self._current_of_original[node]]

    def original_location(self, current: Coordinate) -> Coordinate:
        """The design-time coordinate of the workload now at ``current``."""
        node = self.topology.node_id(current)  # ValueError outside the mesh
        return self._coords[int(np.flatnonzero(self._current_of_original == node)[0])]

    # ------------------------------------------------------------------
    def translate_incoming(self, packet: Packet) -> Packet:
        """Rewrite an external packet's destination to the current location.

        The outside world addresses the chip by original coordinates; the
        workload it wants may have migrated.
        """
        new_destination = self.current_location(packet.destination)
        return Packet(
            source=packet.source,
            destination=new_destination,
            size_flits=packet.size_flits,
            packet_class=PacketClass.IO,
            injection_cycle=packet.injection_cycle,
            payload=packet.payload,
        )

    def translate_outgoing(self, packet: Packet) -> Packet:
        """Rewrite an outbound packet's source back to the original view."""
        original_source = self.original_location(packet.source)
        return Packet(
            source=original_source,
            destination=packet.destination,
            size_flits=packet.size_flits,
            packet_class=PacketClass.IO,
            injection_cycle=packet.injection_cycle,
            payload=packet.payload,
        )
