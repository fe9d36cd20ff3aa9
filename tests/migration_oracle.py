"""Coordinate-walking reference for the migration lowering.

:mod:`repro.migration.plan` lowers a transform from integer arrays: a node
permutation, a per-node payload array and per-mesh hop/link/route tables.
This module prices the same migration the way the library did before it
went array-native: one :class:`PeMove` per coordinate, link sets of
coordinate pairs, per-move energy accounts folded into per-coordinate
dicts.  The parity suites compare every stage of the array lowering against
:func:`lower` with exact ``==``.

Only the route of a move (``routing.path``) and the technology constants
are shared with the code under test; cycles, phases, cycle decomposition,
stage grouping and both energy sums are recomputed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.migration.transforms import MigrationTransform

Coordinate = Tuple[int, int]


class PermutationTransform(MigrationTransform):
    """An arbitrary bijection of the mesh, beyond the Table 1 schemes."""

    name = "perm"

    def __init__(self, topology, images: Dict[Coordinate, Coordinate]):
        super().__init__(topology)
        self._images = images

    def apply(self, coord: Coordinate) -> Coordinate:
        return self._images[coord]


@dataclass(frozen=True)
class PeMove:
    """One PE's migration: its payload travels ``source`` -> ``destination``."""

    source: Coordinate
    destination: Coordinate
    payload_flits: int

    @property
    def is_local(self) -> bool:
        """True when the PE does not change location (a fixed point)."""
        return self.source == self.destination

    @property
    def hops(self) -> int:
        return abs(self.source[0] - self.destination[0]) + abs(
            self.source[1] - self.destination[1]
        )


@dataclass
class Schedule:
    """Phased, congestion-free schedule of a set of moves."""

    phases: List[List[PeMove]]
    cycles_per_phase: List[int]
    local_moves: List[PeMove] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return sum(self.cycles_per_phase)


@dataclass(frozen=True)
class MoveEnergy:
    """Energy terms of one :class:`PeMove` (empty ``route`` for a local move)."""

    move: PeMove
    conversion_j: float
    route: Tuple[Coordinate, ...] = ()
    router_energy_j: float = 0.0
    link_energy_j: float = 0.0

    def unit_charges(self) -> List[Tuple[Coordinate, float]]:
        """Per-coordinate charges in the canonical order."""
        charges = [(self.move.source, self.conversion_j)]
        if not self.route:
            return charges
        for coord in self.route:
            charges.append((coord, self.router_energy_j))
        charges.append((self.move.source, self.link_energy_j / 2.0))
        charges.append((self.move.destination, self.link_energy_j / 2.0))
        return charges

    def total_terms(self) -> List[float]:
        """Whole-stage total terms (link energy as one term)."""
        terms = [self.conversion_j]
        if not self.route:
            return terms
        terms.extend(self.router_energy_j for _ in self.route)
        terms.append(self.link_energy_j)
        return terms


@dataclass
class Stage:
    """One stage of the reference lowering."""

    moves: List[PeMove]
    cycles: int
    energy_j: float
    energy_per_unit_j: Dict[Coordinate, float]


# ----------------------------------------------------------------------
# Moves, cycles and phases
# ----------------------------------------------------------------------
def moves_for_transform(
    scheduler, transform, tanner_nodes_per_pe: Optional[Dict[Coordinate, int]] = None
) -> List[PeMove]:
    """One move per coordinate, in row-major order."""
    moves = []
    for coord in scheduler.topology.coordinates():
        nodes = 0 if tanner_nodes_per_pe is None else tanner_nodes_per_pe.get(coord, 0)
        bits = (
            scheduler.state_model.configuration_bits
            + nodes * scheduler.state_model.state_bits_per_tanner_node
        )
        flits = math.ceil(bits / scheduler.state_model.flit_payload_bits) if bits else 0
        moves.append(PeMove(coord, transform(coord), flits))
    return moves


def move_cycles(scheduler, move: PeMove) -> int:
    """Serialization through the conversion unit plus the router pipeline."""
    return (
        move.payload_flits * scheduler.state_model.serialization_cycles_per_flit
        + move.hops * scheduler.router_pipeline_cycles
    )


def links_of_route(route: Sequence[Coordinate]) -> Set[Tuple[Coordinate, Coordinate]]:
    """Directed links used by a route (consecutive coordinate pairs)."""
    return {(route[i], route[i + 1]) for i in range(len(route) - 1)}


def schedule(scheduler, moves: Sequence[PeMove]) -> Schedule:
    """Greedy link-disjoint phasing, longest route first, ties by source."""
    local = [move for move in moves if move.is_local]
    remote = sorted(
        (move for move in moves if not move.is_local),
        key=lambda move: (-move.hops, move.source),
    )
    phases: List[List[PeMove]] = []
    phase_links: List[set] = []
    for move in remote:
        links = links_of_route(scheduler.routing.path(move.source, move.destination))
        for index, used in enumerate(phase_links):
            if not (links & used):
                phases[index].append(move)
                used |= links
                break
        else:
            phases.append([move])
            phase_links.append(set(links))
    cycles = [max(move_cycles(scheduler, move) for move in phase) for phase in phases]
    return Schedule(phases=phases, cycles_per_phase=cycles, local_moves=local)


def naive_cycles(scheduler, moves: Sequence[PeMove]) -> int:
    """The same remote moves run one after another."""
    return sum(move_cycles(scheduler, move) for move in moves if not move.is_local)


# ----------------------------------------------------------------------
# Energy
# ----------------------------------------------------------------------
def move_energy(unit, move: PeMove) -> MoveEnergy:
    conversion = (
        move.payload_flits * unit.conversion_energy_per_flit_j
        + unit.fixed_energy_per_pe_j
    )
    if move.is_local:
        return MoveEnergy(move=move, conversion_j=conversion)
    flits = move.payload_flits + 1
    route = unit.routing.path(move.source, move.destination)
    return MoveEnergy(
        move=move,
        conversion_j=conversion,
        route=tuple(route),
        router_energy_j=flits * unit.library.router_energy_per_flit_j,
        link_energy_j=flits * (len(route) - 1) * unit.library.link_energy_per_flit_j,
    )


def moves_energy(unit, moves: Sequence[PeMove]) -> Tuple[float, Dict[Coordinate, float]]:
    """Total and per-coordinate energy, each summed term by term in order."""
    energy_per_unit = {coord: 0.0 for coord in unit.topology.coordinates()}
    total = 0.0
    for move in moves:
        account = move_energy(unit, move)
        for coord, energy in account.unit_charges():
            energy_per_unit[coord] += energy
        for term in account.total_terms():
            total += term
    return total, energy_per_unit


# ----------------------------------------------------------------------
# Staged lowering
# ----------------------------------------------------------------------
def permutation_cycles(remote: Sequence[PeMove]) -> List[List[PeMove]]:
    by_source = {move.source: move for move in remote}
    cycles: List[List[PeMove]] = []
    visited: set = set()
    for move in remote:
        if move.source in visited:
            continue
        cycle = []
        cursor = move
        while cursor.source not in visited:
            visited.add(cursor.source)
            cycle.append(cursor)
            cursor = by_source[cursor.destination]
        cycles.append(cycle)
    return cycles


def fluid_groups(cycles: List[List[PeMove]], units_per_epoch: int) -> List[List[PeMove]]:
    groups: List[List[PeMove]] = []
    current: List[PeMove] = []
    for cycle in cycles:
        if current and len(current) + len(cycle) > units_per_epoch:
            groups.append(current)
            current = []
        current.extend(cycle)
    if current:
        groups.append(current)
    return groups


def batched_groups(unit, cycles: List[List[PeMove]]) -> List[List[PeMove]]:
    ordered = sorted(
        cycles,
        key=lambda cycle: (
            -max(move.hops for move in cycle),
            min(move.source for move in cycle),
        ),
    )
    groups: List[List[PeMove]] = []
    group_links: List[set] = []
    for cycle in ordered:
        links: set = set()
        for move in cycle:
            links |= links_of_route(unit.routing.path(move.source, move.destination))
        for index, used in enumerate(group_links):
            if not (links & used):
                groups[index].extend(cycle)
                used |= links
                break
        else:
            groups.append(list(cycle))
            group_links.append(links)
    return groups


def lower(
    unit,
    transform,
    tanner_nodes_per_pe: Optional[Dict[Coordinate, int]] = None,
    style: str = "sudden",
    units_per_epoch: int = 2,
) -> List[Stage]:
    """The stages of ``transform``'s plan, walked coordinate by coordinate."""
    moves = moves_for_transform(unit.scheduler, transform, tanner_nodes_per_pe)
    if style == "sudden":
        groups = [list(moves)]
    else:
        local = [move for move in moves if move.is_local]
        cycles = permutation_cycles([move for move in moves if not move.is_local])
        if style == "fluid":
            groups = fluid_groups(cycles, units_per_epoch)
        else:
            groups = batched_groups(unit, cycles)
        if not groups:
            groups = [[]]
        groups[0] = groups[0] + local
    stages = []
    for group in groups:
        total, per_unit = moves_energy(unit, group)
        stages.append(
            Stage(
                moves=group,
                cycles=schedule(unit.scheduler, group).total_cycles,
                energy_j=total,
                energy_per_unit_j=per_unit,
            )
        )
    return stages


def energy_vector(topology, energy_per_unit: Dict[Coordinate, float]) -> np.ndarray:
    """A per-coordinate energy dict as a row-major vector."""
    vector = np.zeros(topology.num_nodes)
    for coord, energy in energy_per_unit.items():
        vector[topology.node_id(coord)] = energy
    return vector


def node_step(topology, moves: Sequence[PeMove]) -> np.ndarray:
    """The ``node -> node`` relocation a stage's moves apply."""
    step = np.arange(topology.num_nodes)
    for move in moves:
        step[topology.node_id(move.source)] = topology.node_id(move.destination)
    return step


def tanner_nodes_per_pe(configuration, permutation=None) -> Dict[Coordinate, int]:
    """Tanner nodes hosted at each PE when task ``t`` sits on node
    ``permutation[t]`` (default: the chip's static mapping)."""
    if permutation is None:
        permutation = configuration.static_mapping.to_permutation()
    topology = configuration.topology
    return {
        topology.coordinate(int(permutation[task])): count
        for task, count in configuration.tanner_nodes_per_task().items()
    }
