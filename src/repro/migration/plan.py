"""Staged migration plans: a migration as an object that unfolds over epochs.

The seed modelled every migration the way the paper's Section 2.2 describes
the *sudden* style: the whole mapping permutes in one epoch and the cost is
charged as one lump.  Megaphone's migration pattern taxonomy (sudden /
fluid / batched-fluid) generalises this: a reconfiguration can be *staged*,
moving a few PEs per epoch so the chip keeps working while state drains
through the NoC.

This module lowers a :class:`repro.migration.transforms.MigrationTransform`
into a :class:`MigrationPlan` — an ordered tuple of :class:`MigrationStage`
records, each carrying its moves as node-id arrays, its congestion-free NoC
transfer cycles (the greedy link-disjoint phasing of :func:`schedule_moves`,
priced through the one per-move cycle formula,
:meth:`MigrationScheduler.move_cycles`), and its energy.  The controller
executes one stage per epoch; between stages the mapping is *mixed* — partly
migrated, partly not — so stages must keep the mapping a valid permutation.

The unit of staging is therefore a **permutation cycle** of the transform:
applying a whole cycle's moves simultaneously relocates a closed set of PEs
onto itself, which is exactly the condition for the mid-plan mapping to stay
bijective.  Styles differ only in how cycles are grouped into stages:

* ``sudden`` — one stage holding every move in node-id order (the paper's
  Section 2.2 migration, and what :meth:`MigrationUnit.migration_cost`
  reads);
* ``fluid`` — cycles are packed into stages under a ``units_per_epoch``
  budget (a cycle longer than the budget still occupies one stage — cycles
  are atomic);
* ``batched`` — cycles are greedily grouped into link-disjoint stages using
  the same conflict relation as the scheduler's congestion-free phases, so
  each stage is one whole-stage "phase group" that transfers without
  blocking.

Lowering works on integer arrays only: the transform's
:meth:`~repro.migration.transforms.MigrationTransform.node_permutation`, a
per-node payload-flit array, and a per-(routing class, mesh) table of hop
counts, route link bitmasks and charge-node arrays built once per process
(:func:`repro.noc.routing.mesh_table`).  Energies are summed in a fixed
order — per move: conversion, the router energy once per route node, then
the link energy — so a stage's total and per-node energies are the same
floats on every platform and Python version.

Congestion pricing: plans carry congestion-free cycle counts; when the
epoch's NoC load is known, :func:`congestion_factor` scales a stage's
transfer time by the analytic wormhole model's loaded/zero-load latency
ratio (:mod:`repro.scenarios.noc_cost`).  Which stages pay it is the one
rule in :func:`prices_congestion`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..noc.routing import RoutingAlgorithm, mesh_table
from ..noc.topology import MeshTopology
from .transforms import MigrationTransform

if TYPE_CHECKING:
    from .scheduler import MigrationScheduler
    from .unit import MigrationUnit

__all__ = [
    "MIGRATION_STYLES",
    "MigrationPlan",
    "MigrationSchedule",
    "MigrationStage",
    "congestion_factor",
    "lower_transform",
    "prices_congestion",
    "schedule_moves",
]

#: The supported ``migration_style`` values, in documentation order.
MIGRATION_STYLES: Tuple[str, ...] = ("sudden", "fluid", "batched")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# ----------------------------------------------------------------------
# Per-mesh tables
# ----------------------------------------------------------------------
class _LoweringTable(NamedTuple):
    """Every (source, destination) node pair of one (routing class, mesh)."""

    #: (N, N) Manhattan hops, the distance the per-move cycle formula prices.
    hops: np.ndarray
    #: ``links[source][destination]``: the route's directed links as one
    #: bitmask (0 for a local move).
    links: Tuple[Tuple[int, ...], ...]
    #: ``routes[source][destination]``: the routers on the route, both
    #: endpoints included.
    routes: Tuple[Tuple[Tuple[int, ...], ...], ...]


def _build_lowering_table(routing: RoutingAlgorithm) -> _LoweringTable:
    coords = list(routing.topology.coordinates())
    node_of = {coord: node for node, coord in enumerate(coords)}
    xs, ys = np.array(coords, dtype=np.int64).T
    hops = np.abs(xs[:, None] - xs) + np.abs(ys[:, None] - ys)
    link_bits: Dict[Tuple[int, int], int] = {}
    links = []
    routes = []
    for source in coords:
        link_row = []
        route_row = []
        for destination in coords:
            route = tuple(node_of[coord] for coord in routing.path(source, destination))
            mask = 0
            for link in zip(route, route[1:]):
                mask |= 1 << link_bits.setdefault(link, len(link_bits))
            link_row.append(mask)
            route_row.append(route)
        links.append(tuple(link_row))
        routes.append(tuple(route_row))
    return _LoweringTable(_frozen(hops), tuple(links), tuple(routes))


def _lowering_table(routing: RoutingAlgorithm) -> _LoweringTable:
    """The shared lowering table of ``routing``'s (class, mesh), built once."""
    return mesh_table(routing, "migration-lowering", _build_lowering_table)


# ----------------------------------------------------------------------
# Phased schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MigrationSchedule:
    """Phased, congestion-free schedule of one set of moves.

    ``phases[p]`` holds the source node ids of the moves in phase ``p``, in
    the order they joined it, and ``move_cycles[p]`` their congestion-free
    durations.  Local moves (fixed points) take no network time and join no
    phase.
    """

    phases: Tuple[Tuple[int, ...], ...]
    move_cycles: Tuple[Tuple[int, ...], ...]

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def cycles_per_phase(self) -> Tuple[int, ...]:
        """A phase's moves share no link, so it lasts as long as its slowest."""
        return tuple(max(cycles) for cycles in self.move_cycles)

    @property
    def total_cycles(self) -> int:
        """Deterministic duration of the migration in cycles."""
        return sum(self.cycles_per_phase)

    @property
    def serialised_cycles(self) -> int:
        """Duration of the same moves run one after another (no phasing)."""
        return sum(sum(cycles) for cycles in self.move_cycles)


class _Moves(NamedTuple):
    """Moves as parallel int lists: move ``i`` carries ``flits[i]`` flits
    from node ``sources[i]`` to node ``destinations[i]`` over ``hops[i]``
    hops in ``cycles[i]`` congestion-free cycles.  ``order`` lists the
    remote moves in scheduling order: longest route first, ties broken by
    source coordinate ``(x, y)`` — not by node id, which is ``(y, x)``
    order."""

    sources: List[int]
    destinations: List[int]
    flits: List[int]
    hops: List[int]
    cycles: List[int]
    order: List[int]

    @classmethod
    def of(
        cls,
        scheduler: "MigrationScheduler",
        table: _LoweringTable,
        sources: np.ndarray,
        destinations: np.ndarray,
        payload_flits: np.ndarray,
    ) -> "_Moves":
        hops = table.hops[sources, destinations]
        width = scheduler.topology.width
        order = np.lexsort((sources // width, sources % width, -hops)).tolist()
        hops_list = hops.tolist()
        # Local moves (zero hops) sort last; the schedule takes remote ones.
        del order[len(order) - hops_list.count(0):]
        return cls(
            sources.tolist(),
            destinations.tolist(),
            payload_flits.tolist(),
            hops_list,
            scheduler.move_cycles(payload_flits, hops).tolist(),
            order,
        )


def _phases(moves: _Moves, ordered: List[int], table: _LoweringTable) -> List[List[int]]:
    """Greedy link-disjoint phasing of the remote moves ``ordered`` indexes.

    Moves arrive in scheduling order (a standard interval-graph colouring
    heuristic that keeps the phase count low); each joins the earliest
    phase whose links it does not use.  Returns the move indices of each
    phase in join order.
    """
    sources = moves.sources
    destinations = moves.destinations
    links = table.links
    used: List[int] = []
    phases: List[List[int]] = []
    for move in ordered:
        mask = links[sources[move]][destinations[move]]
        for index, taken in enumerate(used):
            if not mask & taken:
                used[index] = taken | mask
                phases[index].append(move)
                break
        else:
            used.append(mask)
            phases.append([move])
    return phases


def schedule_moves(
    scheduler: "MigrationScheduler",
    sources: np.ndarray,
    destinations: np.ndarray,
    payload_flits: np.ndarray,
) -> MigrationSchedule:
    """The congestion-free phased schedule of the moves ``sources[i] ->
    destinations[i]`` carrying ``payload_flits[i]`` flits each."""
    table = _lowering_table(scheduler.routing)
    moves = _Moves.of(scheduler, table, sources, destinations, payload_flits)
    phases = _phases(moves, moves.order, table)
    return MigrationSchedule(
        phases=tuple(tuple(moves.sources[move] for move in phase) for phase in phases),
        move_cycles=tuple(tuple(moves.cycles[move] for move in phase) for phase in phases),
    )


# ----------------------------------------------------------------------
# Stages and plans
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class MigrationStage:
    """One epoch's worth of a staged migration, as read-only node-id arrays.

    Move ``i`` carries ``payload_flits[i]`` flits from node ``sources[i]``
    to node ``destinations[i]``; a local move (source equals destination) is
    a fixed point that only pays the halt/reconfigure cost.  ``cycles`` is
    the congestion-free phased duration of the stage's remote moves;
    ``energy_vector`` charges the stage's energy ``energy_j`` to the nodes
    where the heat lands (row-major, J).
    """

    sources: np.ndarray
    destinations: np.ndarray
    payload_flits: np.ndarray
    cycles: int
    energy_j: float
    energy_vector: np.ndarray = field(repr=False)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MigrationStage):
            return NotImplemented
        return (
            self.cycles == other.cycles
            and self.energy_j == other.energy_j
            and np.array_equal(self.sources, other.sources)
            and np.array_equal(self.destinations, other.destinations)
            and np.array_equal(self.payload_flits, other.payload_flits)
            and np.array_equal(self.energy_vector, other.energy_vector)
        )

    @property
    def moved(self) -> int:
        """PEs that actually change node in this stage."""
        return int(np.count_nonzero(self.sources != self.destinations))

    def node_step(self, topology: MeshTopology) -> np.ndarray:
        """This stage's relocation as a ``node -> node`` permutation array.

        Raises ``ValueError`` unless the remote moves form a closed
        relocation (their source set equals their destination set), the
        condition for every mid-plan mapping to stay bijective.
        """
        identity = np.arange(topology.num_nodes, dtype=np.int64)
        step = identity.copy()
        step[self.sources] = self.destinations
        if not (np.sort(step) == identity).all():
            raise ValueError(
                "stage moves must be a closed relocation "
                "(source set must equal destination set)"
            )
        return step

    # -- checkpoint codec ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "moves": np.column_stack(
                (self.sources, self.destinations, self.payload_flits)
            ).tolist(),
            "cycles": self.cycles,
            "energy_j": self.energy_j,
            "energy_per_unit": {
                str(node): energy
                for node, energy in enumerate(self.energy_vector.tolist())
                if energy != 0.0
            },
        }

    @classmethod
    def from_dict(
        cls, state: Dict[str, object], topology: MeshTopology
    ) -> "MigrationStage":
        """Inverse of :meth:`to_dict`.

        Raises ``ValueError`` for a value no lowering produces: a node id
        outside the mesh, a negative payload or cycle count, or an energy
        that is negative or not finite.
        """
        num_nodes = topology.num_nodes
        moves = np.array(state["moves"], dtype=np.int64).reshape(-1, 3)
        if ((moves[:, :2] < 0) | (moves[:, :2] >= num_nodes)).any():
            raise ValueError(
                f"checkpointed stage moves must name node ids 0..{num_nodes - 1}"
            )
        if (moves[:, 2] < 0).any():
            raise ValueError("checkpointed stage payload flits must be non-negative")
        cycles = int(state["cycles"])  # type: ignore[arg-type]
        if cycles < 0:
            raise ValueError(f"checkpointed stage cycles {cycles} must be non-negative")
        energy_j = float(state["energy_j"])  # type: ignore[arg-type]
        if not (math.isfinite(energy_j) and energy_j >= 0.0):
            raise ValueError(
                f"checkpointed stage energy_j {energy_j} must be finite and non-negative"
            )
        energy_vector = np.zeros(num_nodes, dtype=np.float64)
        for node, energy in state["energy_per_unit"].items():  # type: ignore[union-attr]
            node, energy = int(node), float(energy)
            if not 0 <= node < num_nodes:
                raise ValueError(
                    f"checkpointed stage energy_per_unit names node {node} "
                    f"outside 0..{num_nodes - 1}"
                )
            if not (math.isfinite(energy) and energy >= 0.0):
                raise ValueError(
                    f"checkpointed stage energy_per_unit[{node}] {energy} "
                    "must be finite and non-negative"
                )
            energy_vector[node] = energy
        return cls(
            sources=_frozen(moves[:, 0].copy()),
            destinations=_frozen(moves[:, 1].copy()),
            payload_flits=_frozen(moves[:, 2].copy()),
            cycles=cycles,
            energy_j=energy_j,
            energy_vector=_frozen(energy_vector),
        )


@dataclass(frozen=True)
class MigrationPlan:
    """An ordered sequence of stages that composes to one whole transform."""

    transform_name: str
    style: str
    units_per_epoch: Optional[int]
    stages: Tuple[MigrationStage, ...]

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def total_cycles(self) -> int:
        return sum(stage.cycles for stage in self.stages)

    @property
    def total_energy_j(self) -> float:
        total = 0.0
        for stage in self.stages:
            total += stage.energy_j
        return total

    @property
    def total_moved(self) -> int:
        return sum(stage.moved for stage in self.stages)

    # -- checkpoint codec ------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "transform": self.transform_name,
            "style": self.style,
            "units_per_epoch": self.units_per_epoch,
            "stages": [stage.to_dict() for stage in self.stages],
        }

    @classmethod
    def from_dict(
        cls, state: Dict[str, object], topology: MeshTopology
    ) -> "MigrationPlan":
        units = state.get("units_per_epoch")
        return cls(
            transform_name=str(state["transform"]),
            style=str(state["style"]),
            units_per_epoch=int(units) if units is not None else None,
            stages=tuple(
                MigrationStage.from_dict(stage, topology)
                for stage in state["stages"]  # type: ignore[union-attr]
            ),
        )


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------
def _permutation_cycles(targets: List[int], remote: List[int]) -> List[List[int]]:
    """Decompose the remote nodes of ``targets`` (node -> node) into cycles.

    A moving node's destination moves too (bijectivity), so following
    ``node -> targets[node]`` from each not-yet-visited remote node, in
    node-id order, closes every cycle; each is a simultaneously-applicable
    relocation.
    """
    cycles: List[List[int]] = []
    visited = set()
    for start in remote:
        if start in visited:
            continue
        cycle = []
        node = start
        while node not in visited:
            visited.add(node)
            cycle.append(node)
            node = targets[node]
        cycles.append(cycle)
    return cycles


def _fluid_groups(cycles: List[List[int]], units_per_epoch: int) -> List[List[int]]:
    """Pack cycles into stages under a per-epoch unit budget.

    A stage closes before it would exceed the budget; a single cycle longer
    than the budget occupies a stage alone (cycles are atomic — splitting
    one would leave the mid-plan mapping non-bijective).
    """
    groups: List[List[int]] = []
    current: List[int] = []
    for cycle in cycles:
        if current and len(current) + len(cycle) > units_per_epoch:
            groups.append(current)
            current = []
        current.extend(cycle)
    if current:
        groups.append(current)
    return groups


def _batched_groups(
    cycles: List[List[int]], moves: _Moves, table: _LoweringTable, width: int
) -> List[List[int]]:
    """Group cycles into link-disjoint stages (whole-stage phase groups).

    The same greedy longest-route-first colouring as :func:`_phases`, with
    a whole cycle as the colouring unit so every stage stays a valid
    partial permutation: cycles are taken by descending longest move, ties
    broken by their smallest source coordinate ``(x, y)``.
    """
    hops = moves.hops
    destinations = moves.destinations
    links = table.links
    ordered = sorted(
        cycles,
        key=lambda cycle: (
            -max(hops[node] for node in cycle),
            min((node % width, node // width) for node in cycle),
        ),
    )
    groups: List[List[int]] = []
    used: List[int] = []
    for cycle in ordered:
        mask = 0
        for node in cycle:
            mask |= links[node][destinations[node]]
        for index, taken in enumerate(used):
            if not mask & taken:
                groups[index].extend(cycle)
                used[index] = taken | mask
                break
        else:
            groups.append(list(cycle))
            used.append(mask)
    return groups


def _stage_energy(
    unit: "MigrationUnit", table: _LoweringTable, moves: _Moves, group: List[int]
) -> Tuple[float, List[float]]:
    """Total and per-node energy of the moves ``group`` indexes, in order.

    Per move: conversion-unit serialization plus the fixed
    halt/reconfigure/restart cost at the source, router energy at every
    router the payload passes through, and link energy split evenly
    between the endpoints.  Both sums add their terms one at a time in
    move order, so the floats are the same on every platform and Python
    version: a node's charges arrive as conversion (at the source), router
    once per route node, then link/2 at the source and link/2 at the
    destination; the total takes conversion, router once per route node,
    then the link energy as one term.
    """
    conversion_per_flit = unit.conversion_energy_per_flit_j
    fixed = unit.fixed_energy_per_pe_j
    router_per_flit = unit.library.router_energy_per_flit_j
    link_per_flit = unit.library.link_energy_per_flit_j
    routes = table.routes
    sources = moves.sources
    destinations = moves.destinations
    payloads = moves.flits
    vector = [0.0] * len(routes)
    total = 0.0
    for move in group:
        source = sources[move]
        destination = destinations[move]
        flits = payloads[move]
        conversion = flits * conversion_per_flit + fixed
        vector[source] += conversion
        total += conversion
        if source == destination:
            continue
        carried = flits + 1  # head flit included for transport
        router = carried * router_per_flit
        route = routes[source][destination]
        for node in route:
            vector[node] += router
            total += router
        link = carried * (len(route) - 1) * link_per_flit
        half = link / 2.0
        vector[source] += half
        vector[destination] += half
        total += link
    return total, vector


def lower_transform(
    transform: MigrationTransform,
    unit: "MigrationUnit",
    payload_flits: Optional[np.ndarray] = None,
    *,
    style: str = "sudden",
    units_per_epoch: int = 2,
) -> MigrationPlan:
    """Lower a transform into a staged :class:`MigrationPlan`.

    ``payload_flits[node]`` sizes the live state of the PE at each node
    (see :meth:`MigrationScheduler.payload_flits`); by default every PE
    carries only its configuration.  The stages' moves partition the
    transform's move set and every stage is a union of whole permutation
    cycles.  A ``sudden`` plan's one stage runs its moves in node-id order;
    a staged plan runs cycle by cycle, and its local moves (fixed points —
    the whole array halts when the plan starts) ride the first stage.
    """
    if style not in MIGRATION_STYLES:
        raise ValueError(
            f"unknown migration style {style!r}; choose from {MIGRATION_STYLES}"
        )
    if units_per_epoch < 1:
        raise ValueError("units_per_epoch must be at least 1")
    topology = unit.topology
    nodes = np.arange(topology.num_nodes, dtype=np.int64)
    if payload_flits is None:
        payload_flits = np.full(nodes.size, unit.state_model.payload_flits(0))
    payload_flits = np.asarray(payload_flits, dtype=np.int64)
    table = _lowering_table(unit.routing)
    scheduler = unit.scheduler
    permutation = transform.node_permutation()
    # Every node moves exactly once, so move i is the move out of node i.
    moves = _Moves.of(scheduler, table, nodes, permutation, payload_flits)
    if style == "sudden":
        groups = [moves.sources]
        orders = [moves.order]
    else:
        fixed = permutation == nodes
        cycles = _permutation_cycles(moves.destinations, np.flatnonzero(~fixed).tolist())
        if style == "fluid":
            groups = _fluid_groups(cycles, units_per_epoch)
        else:
            groups = _batched_groups(cycles, moves, table, topology.width)
        if not groups:
            groups = [[]]
        groups[0] = groups[0] + np.flatnonzero(fixed).tolist()
        stage_of = [0] * nodes.size
        for index, group in enumerate(groups):
            for move in group:
                stage_of[move] = index
        orders = [[] for _ in groups]
        for move in moves.order:
            orders[stage_of[move]].append(move)
        nodes = np.array([move for group in groups for move in group], dtype=np.int64)
    sources = _frozen(nodes)
    destinations = _frozen(permutation[sources])
    flits = _frozen(payload_flits[sources])
    energies = [_stage_energy(unit, table, moves, group) for group in groups]
    vectors = _frozen(np.array([vector for _, vector in energies], dtype=np.float64))
    cycles_of = moves.cycles
    stages = []
    low = 0
    for group, order, (energy_j, _), energy_vector in zip(groups, orders, energies, vectors):
        high = low + len(group)
        stages.append(
            MigrationStage(
                sources=sources[low:high],
                destinations=destinations[low:high],
                payload_flits=flits[low:high],
                cycles=sum(
                    max([cycles_of[move] for move in phase])
                    for phase in _phases(moves, order, table)
                ),
                energy_j=energy_j,
                energy_vector=energy_vector,
            )
        )
        low = high
    return MigrationPlan(
        transform_name=transform.name,
        style=style,
        units_per_epoch=None if style == "sudden" else units_per_epoch,
        stages=tuple(stages),
    )


# ----------------------------------------------------------------------
# Congestion-aware stage pricing
# ----------------------------------------------------------------------
def prices_congestion(style: str) -> bool:
    """The stage-pricing rule: whether a ``style`` plan pays NoC congestion.

    A sudden plan halts the whole array for its one stage, so the migration
    traffic has no workload traffic to contend with and is priced
    congestion-free.  Fluid and batched stages move while the chip keeps
    working, so each pays the epoch's :func:`congestion_factor`.  Callers
    skip probing the NoC model for a stage this rule leaves unpriced.
    """
    return style != "sudden"


def congestion_factor(noc_model, injection_rate: Optional[float]) -> float:
    """Latency inflation of migration traffic under the epoch's NoC load.

    The analytic wormhole model's average latency at the epoch's injection
    rate, relative to its precomputed zero-load latency (one probe per
    call).  Rates at or past saturation price at the last validated point
    (the same capping as :func:`repro.scenarios.noc_cost.rate_noc_latencies`).  Returns ``1.0``
    when no pricing model or rate is available, so unpriced runs keep the
    deterministic congestion-free cycle counts.
    """
    if noc_model is None or injection_rate is None:
        return 1.0
    rate = float(injection_rate)
    if rate <= 0.0 or not math.isfinite(rate):
        return 1.0
    saturation = float(noc_model.saturation_rate)
    capped = min(rate, math.nextafter(saturation, 0.0))
    loaded = float(noc_model.probe(capped).avg_latency)
    base = float(noc_model.zero_load_latency)
    if not (base > 0.0) or not math.isfinite(loaded):
        return 1.0
    return max(1.0, loaded / base)


def priced_stage_cycles(stage: MigrationStage, factor: float) -> int:
    """A stage's transfer cycles inflated by a congestion factor (ceil)."""
    if factor <= 1.0:
        return stage.cycles
    return int(math.ceil(stage.cycles * factor))
