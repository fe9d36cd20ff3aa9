"""The runtime reconfiguration controller.

This is the piece of the paper's proposal that lives on the chip: it owns the
current logical-to-physical mapping, applies a migration transform when the
policy asks for one, charges the migration's cycles and energy, and keeps the
I/O address translation up to date so the outside world never notices that
the workload moved.

The mapping is held as one int array, ``task -> node id``.  A migration is a
gather through the transform's node permutation, and an epoch's power row is
a scatter of the per-task power array through it; the
:class:`~repro.placement.mapping.Mapping` view is built only on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..chips.configurations import ChipConfiguration
from ..migration.io_interface import IoAddressTranslator
from ..migration.plan import MigrationPlan, lower_transform, priced_stage_cycles
from ..migration.transforms import MigrationTransform
from ..migration.unit import MigrationCost, MigrationUnit
from ..noc.topology import Coordinate
from ..obs import counter as _obs_counter
from ..obs import span as _obs_span
from ..placement.mapping import Mapping
from ..power.trace import vector_to_map

_OBS_PLANS = _obs_counter("migration.plans")
_OBS_STAGES = _obs_counter("migration.stages")
_OBS_COST_HITS = _obs_counter("migration.cost_cache.hits")
_OBS_COST_MISSES = _obs_counter("migration.cost_cache.misses")

#: Per-stage (node step, energy vector) arrays of a lowered plan.
PlanArrays = Tuple[List[np.ndarray], List[np.ndarray]]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass
class MigrationEvent:
    """Record of one applied migration (or one stage of a staged plan).

    Legacy sudden migrations are single-stage events (``stage_index=0``,
    ``stage_count=1``); a staged plan emits one event per executed stage.
    Aggregators count a *migration* only at ``stage_index == 0`` while
    cycles/energy sum over every event.
    """

    epoch_index: int
    transform_name: str
    cycles: int
    energy_j: float
    moved_tasks: int
    stage_index: int = 0
    stage_count: int = 1


@dataclass(frozen=True)
class StageCost:
    """Per-epoch cost of one executed plan stage.

    Duck-typed like :class:`repro.migration.unit.MigrationCost` where the
    epoch accounting needs it (``cycles``, ``total_energy_j``,
    ``energy_per_unit_j``); ``cycles`` is the NoC-priced (congestion
    inflated) transfer time of the stage.
    """

    cycles: int
    total_energy_j: float
    energy_per_unit_j: Dict[Coordinate, float]
    transform_name: str
    stage_index: int
    stage_count: int

    @property
    def completes_plan(self) -> bool:
        return self.stage_index + 1 == self.stage_count


class RuntimeReconfigurationController:
    """Tracks mapping state and executes migrations for one chip.

    Parameters
    ----------
    configuration:
        The chip being managed (provides topology, workload, power profile
        and the thermally-aware static mapping that is the starting point).
    migration_unit:
        Cost model for migrations; a default one is built from the chip's
        technology library.
    include_migration_energy:
        When False the controller reports zero migration energy — the
        ablation the paper implicitly performs when it notes that rotation's
        energy penalty raises the average temperature by 0.3 °C.
    cache_migration_costs:
        Memoize the migration cost per (transform, mapping) pair (the
        default).  A migration's cost is a pure function of which transform
        is applied to which mapping, and periodic policies cycle one
        transform around a short orbit, so a long experiment computes only
        ``orbit length`` distinct costs instead of rebuilding the
        ``tanner_nodes_per_pe`` dict and the congestion-free schedule every
        epoch.  Disable only to time the uncached reference behaviour.
    """

    def __init__(
        self,
        configuration: ChipConfiguration,
        migration_unit: Optional[MigrationUnit] = None,
        include_migration_energy: bool = True,
        cache_migration_costs: bool = True,
    ):
        self.configuration = configuration
        self.topology = configuration.topology
        self.migration_unit = migration_unit or MigrationUnit(
            self.topology, library=configuration.library
        )
        self.include_migration_energy = include_migration_energy
        self.cache_migration_costs = cache_migration_costs

        per_task_power = configuration.per_task_power()
        self._task_power = np.array(
            [per_task_power[task] for task in range(self.topology.num_nodes)],
            dtype=np.float64,
        )
        self._static_permutation = _frozen(
            np.array(configuration.static_mapping.to_permutation(), dtype=np.int64)
        )
        #: task -> node id, the one source of truth for the mapping.  Always
        #: read-only, so cached permutations are shared safely.
        self._permutation = self._static_permutation
        self.io_translator = IoAddressTranslator(self.topology)
        self.events: List[MigrationEvent] = []
        self._epoch_index = 0
        # Running totals, maintained O(1) per migration so accounting stays
        # correct after :meth:`drain_events` trims the event log (streaming
        # runs drain every window to keep memory flat).
        self._migration_count = 0
        self._migration_cycles = 0
        self._migration_energy_j = 0.0
        #: (transform permutation, mapping permutation) bytes -> (cost, next
        #: permutation, moved-task count, energy vector).  The cache survives
        #: :meth:`reset` — costs are independent of history.
        self._migration_cache: Dict[
            Tuple[bytes, bytes], Tuple[MigrationCost, np.ndarray, int, np.ndarray]
        ] = {}
        #: Number of full migration-cost computations (cache misses).
        self.migration_cost_computations = 0
        #: Number of migrations served from the cache.
        self.migration_cache_hits = 0
        # Staged-plan execution state: the in-flight plan (None when idle),
        # its per-stage arrays and the index of the next stage to execute.
        # Like the cost cache, lowered plans are memoized per (transform,
        # mapping, style, units) — plans are immutable, so sharing is safe.
        self._active_plan: Optional[MigrationPlan] = None
        self._active_arrays: PlanArrays = ([], [])
        self._plan_next_stage = 0
        self._plan_cache: Dict[Tuple, Tuple[MigrationPlan, PlanArrays]] = {}
        #: (cost object, its energy vector) of the last migration or stage
        #: executed, so :meth:`epoch_power_vector` skips the dict walk.
        self._issued: Optional[Tuple[object, np.ndarray]] = None

    # ------------------------------------------------------------------
    @property
    def migrations_performed(self) -> int:
        return self._migration_count

    @property
    def total_migration_cycles(self) -> int:
        return self._migration_cycles

    @property
    def total_migration_energy_j(self) -> float:
        return self._migration_energy_j

    def drain_events(self) -> List[MigrationEvent]:
        """Return and clear the per-migration event log.

        The running totals (:attr:`migrations_performed`,
        :attr:`total_migration_cycles`, :attr:`total_migration_energy_j`)
        are unaffected — they are separate counters precisely so a streaming
        run can drain the log every window and still report exact aggregate
        accounting over an unbounded stream.
        """
        drained = list(self.events)
        self.events.clear()
        return drained

    @property
    def current_permutation(self) -> np.ndarray:
        """Read-only ``task -> node id`` array of the current mapping."""
        return self._permutation

    @property
    def current_mapping(self) -> Mapping:
        """The current mapping, built from :attr:`current_permutation`."""
        return Mapping.from_permutation(self.topology, self._permutation.tolist())

    def reset(self) -> None:
        """Return to the static mapping and forget all history."""
        self._permutation = self._static_permutation
        self.io_translator.reset()
        self.events.clear()
        self._epoch_index = 0
        self._migration_count = 0
        self._migration_cycles = 0
        self._migration_energy_j = 0.0
        self._active_plan = None
        self._active_arrays = ([], [])
        self._plan_next_stage = 0
        self._issued = None

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-serializable snapshot of the migration-relevant state.

        Captures the current mapping (as a node-id permutation), the epoch
        index, the running migration totals and the I/O translator's
        cumulative map — everything a resumed stream needs to continue
        bit-identically.  The event log is deliberately excluded (it is
        drained state, not carried state).
        """
        state: Dict[str, object] = {
            "mapping": self._permutation.tolist(),
            "epoch_index": self._epoch_index,
            "migrations": self._migration_count,
            "migration_cycles": self._migration_cycles,
            "migration_energy_j": self._migration_energy_j,
            "io": self.io_translator.state_dict(),
        }
        if self._active_plan is not None:
            # A plan straddling a window boundary carries across checkpoints:
            # the remaining stages are self-contained (moves, cycles, energy),
            # so a resumed stream re-executes them without re-lowering.
            state["plan"] = {
                "plan": self._active_plan.to_dict(self.topology),
                "next_stage": self._plan_next_stage,
            }
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`."""
        permutation = [int(node) for node in state["mapping"]]  # type: ignore[union-attr]
        if sorted(permutation) != list(range(self.topology.num_nodes)):
            raise ValueError("permutation must be a rearrangement of all node ids")
        self._permutation = _frozen(np.array(permutation, dtype=np.int64))
        self._epoch_index = int(state["epoch_index"])  # type: ignore[arg-type]
        self._migration_count = int(state["migrations"])  # type: ignore[arg-type]
        self._migration_cycles = int(state["migration_cycles"])  # type: ignore[arg-type]
        self._migration_energy_j = float(state["migration_energy_j"])  # type: ignore[arg-type]
        self.io_translator.restore_state(state["io"])  # type: ignore[arg-type]
        self.events.clear()
        self._issued = None
        plan_state = state.get("plan")
        if plan_state is None:
            self._active_plan = None
            self._active_arrays = ([], [])
            self._plan_next_stage = 0
        else:
            self._active_plan = MigrationPlan.from_dict(
                plan_state["plan"], self.topology  # type: ignore[index]
            )
            self._active_arrays = self._plan_arrays(self._active_plan)
            self._plan_next_stage = int(plan_state["next_stage"])  # type: ignore[index]

    # ------------------------------------------------------------------
    def _energy_vector(self, energy_per_unit_j: Dict[Coordinate, float]) -> np.ndarray:
        """Row-major per-PE migration energy (J) of one cost object."""
        vector = np.zeros(self.topology.num_nodes, dtype=np.float64)
        node_id = self.topology.node_id
        for coord, energy in energy_per_unit_j.items():
            vector[node_id(coord)] = energy
        return vector

    def _migration_outcome(
        self, transform: MigrationTransform
    ) -> Tuple[MigrationCost, np.ndarray, int, np.ndarray]:
        """(cost, next permutation, moved tasks, energy vector) of ``transform``.

        A pure function of (transform, current mapping); with caching
        enabled a repeated pair skips the ``tanner_nodes_per_pe`` rebuild
        and the scheduler entirely.
        """
        step = transform.node_permutation()
        key = (step.tobytes(), self._permutation.tobytes())
        cached = self._migration_cache.get(key) if self.cache_migration_costs else None
        if cached is not None:
            self.migration_cache_hits += 1
            _OBS_COST_HITS.add()
            return cached
        nodes_per_pe = self.configuration.tanner_nodes_per_pe(self.current_mapping)
        cost = self.migration_unit.migration_cost(transform, nodes_per_pe)
        next_permutation = _frozen(step[self._permutation])
        moved = int(np.count_nonzero(next_permutation != self._permutation))
        self.migration_cost_computations += 1
        _OBS_COST_MISSES.add()
        outcome = (
            cost,
            next_permutation,
            moved,
            self._energy_vector(cost.energy_per_unit_j),
        )
        if self.cache_migration_costs:
            self._migration_cache[key] = outcome
        return outcome

    def apply_migration(
        self, transform: MigrationTransform, epoch_index: Optional[int] = None
    ) -> MigrationCost:
        """Apply ``transform`` to the current mapping and account its cost."""
        if epoch_index is None:
            epoch_index = self._epoch_index
        cost, next_permutation, moved, energy_vector = self._migration_outcome(
            transform
        )
        self._permutation = next_permutation
        self.io_translator.record_migration(transform)
        self._issued = (cost, energy_vector)

        energy = cost.total_energy_j if self.include_migration_energy else 0.0
        self.events.append(
            MigrationEvent(
                epoch_index=epoch_index,
                transform_name=transform.name,
                cycles=cost.cycles,
                energy_j=energy,
                moved_tasks=moved,
            )
        )
        self._migration_count += 1
        self._migration_cycles += cost.cycles
        self._migration_energy_j += energy
        return cost

    # ------------------------------------------------------------------
    # Staged-plan execution
    # ------------------------------------------------------------------
    @property
    def migration_in_progress(self) -> bool:
        """True while a staged plan still has stages to execute."""
        return self._active_plan is not None

    @property
    def active_plan(self) -> Optional[MigrationPlan]:
        return self._active_plan

    @property
    def plan_next_stage(self) -> int:
        return self._plan_next_stage

    def _plan_arrays(self, plan: MigrationPlan) -> PlanArrays:
        """Per-stage node steps (node -> node) and energy vectors of a plan."""
        node_id = self.topology.node_id
        steps: List[np.ndarray] = []
        for stage in plan.stages:
            step = np.arange(self.topology.num_nodes, dtype=np.int64)
            for source, destination in stage.mapping_moves().items():
                step[node_id(source)] = node_id(destination)
            steps.append(_frozen(step))
        vectors = [self._energy_vector(stage.energy_per_unit_j) for stage in plan.stages]
        return steps, vectors

    def _lowered_plan(
        self, transform: MigrationTransform, style: str, units_per_epoch: int
    ) -> Tuple[MigrationPlan, PlanArrays]:
        key = (
            transform.node_permutation().tobytes(),
            self._permutation.tobytes(),
            style,
            units_per_epoch,
        )
        cached = self._plan_cache.get(key) if self.cache_migration_costs else None
        if cached is not None:
            return cached
        nodes_per_pe = self.configuration.tanner_nodes_per_pe(self.current_mapping)
        with _obs_span(
            "migration.plan",
            transform=transform.name,
            style=style,
            units=units_per_epoch,
        ):
            plan = lower_transform(
                transform,
                self.migration_unit,
                nodes_per_pe,
                style=style,
                units_per_epoch=units_per_epoch,
            )
        lowered = (plan, self._plan_arrays(plan))
        if self.cache_migration_costs:
            self._plan_cache[key] = lowered
        return lowered

    def begin_plan(
        self,
        transform: MigrationTransform,
        *,
        style: str,
        units_per_epoch: int = 2,
    ) -> MigrationPlan:
        """Lower ``transform`` into a staged plan and arm it for execution.

        The plan counts as ONE migration (however many stages it unfolds
        over); call :meth:`advance_plan` once per epoch to execute stages.
        """
        if self._active_plan is not None:
            raise RuntimeError(
                "a migration plan is already in progress; "
                "advance it to completion before beginning another"
            )
        plan, arrays = self._lowered_plan(transform, style, units_per_epoch)
        self._active_plan = plan
        self._active_arrays = arrays
        self._plan_next_stage = 0
        self._migration_count += 1
        _OBS_PLANS.add()
        return plan

    def advance_plan(
        self,
        epoch_index: Optional[int] = None,
        congestion: float = 1.0,
    ) -> Optional[StageCost]:
        """Execute the next stage of the in-flight plan (None when idle).

        Applies the stage's partial relocation to the mapping and the I/O
        translator, logs a per-stage :class:`MigrationEvent`, and returns
        the stage's :class:`StageCost` with its transfer cycles inflated by
        ``congestion`` (the epoch's NoC load factor, see
        :func:`repro.migration.plan.congestion_factor`).
        """
        plan = self._active_plan
        if plan is None:
            return None
        if epoch_index is None:
            epoch_index = self._epoch_index
        index = self._plan_next_stage
        stage = plan.stages[index]
        cycles = priced_stage_cycles(stage, congestion)
        steps, vectors = self._active_arrays
        moves = stage.mapping_moves()
        if moves:
            self._permutation = _frozen(steps[index][self._permutation])
            self.io_translator.record_moves(
                moves, f"{plan.transform_name}[{index + 1}/{plan.num_stages}]"
            )
        energy = stage.energy_j if self.include_migration_energy else 0.0
        self.events.append(
            MigrationEvent(
                epoch_index=epoch_index,
                transform_name=plan.transform_name,
                cycles=cycles,
                energy_j=energy,
                moved_tasks=len(moves),
                stage_index=index,
                stage_count=plan.num_stages,
            )
        )
        self._migration_cycles += cycles
        self._migration_energy_j += energy
        _OBS_STAGES.add()
        self._plan_next_stage = index + 1
        if self._plan_next_stage >= plan.num_stages:
            self._active_plan = None
            self._active_arrays = ([], [])
            self._plan_next_stage = 0
        cost = StageCost(
            cycles=cycles,
            total_energy_j=energy,
            energy_per_unit_j=dict(stage.energy_per_unit_j),
            transform_name=plan.transform_name,
            stage_index=index,
            stage_count=plan.num_stages,
        )
        self._issued = (cost, vectors[index])
        return cost

    def advance_epoch(self) -> int:
        """Mark the end of an epoch; returns the new epoch index."""
        self._epoch_index += 1
        return self._epoch_index

    # ------------------------------------------------------------------
    def epoch_power_vector(
        self,
        period_s: float,
        migration_cost: Optional[MigrationCost] = None,
    ) -> np.ndarray:
        """Row-major per-PE power over one epoch under the current mapping.

        Workload power follows the tasks to their current locations; if a
        migration happened at the start of the epoch its energy is amortised
        over the epoch and charged to the units it touched.  This is the
        native representation: one such vector per epoch forms a row of the
        experiment's :class:`repro.power.trace.PowerTrace`.
        """
        if period_s <= 0:
            raise ValueError("epoch period must be positive")
        power = np.zeros(self.topology.num_nodes, dtype=np.float64)
        power[self._permutation] = self._task_power
        if migration_cost is not None and self.include_migration_energy:
            issued = self._issued
            if issued is not None and issued[0] is migration_cost:
                energy = issued[1]
            else:
                energy = self._energy_vector(migration_cost.energy_per_unit_j)
            power += energy / period_s
        return power

    def epoch_power_map(
        self,
        period_s: float,
        migration_cost: Optional[MigrationCost] = None,
    ) -> Dict[Coordinate, float]:
        """Dict view of :meth:`epoch_power_vector` (for policies/reports)."""
        return vector_to_map(
            self.topology, self.epoch_power_vector(period_s, migration_cost)
        )

    def static_power_vector(self) -> np.ndarray:
        """Power vector of the unmigrated (static) mapping — the baseline."""
        return self.configuration.power_vector(self.configuration.static_mapping)

    def static_power_map(self) -> Dict[Coordinate, float]:
        """Power map of the unmigrated (static) mapping — the baseline."""
        return self.configuration.power_map(self.configuration.static_mapping)
