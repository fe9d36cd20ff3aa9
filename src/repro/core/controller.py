"""The runtime reconfiguration controller.

This is the piece of the paper's proposal that lives on the chip: it owns the
current logical-to-physical mapping, applies a migration transform when the
policy asks for one, charges the migration's cycles and energy, and keeps the
I/O address translation up to date so the outside world never notices that
the workload moved.

The mapping is held as one int array, ``task -> node id``.  Every migration
is a :class:`~repro.migration.plan.MigrationPlan` — the paper's sudden
migration is a one-stage plan — and every stage runs through one step: a
gather through the stage's node permutation, one translator compose, one
event.  An epoch's power row is a scatter of the per-task power array plus
the stage's energy vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..chips.configurations import ChipConfiguration
from ..migration.io_interface import IoAddressTranslator
from ..migration.plan import (
    MigrationPlan,
    lower_transform,
    priced_stage_cycles,
    prices_congestion,
)
from ..migration.transforms import MigrationTransform
from ..migration.unit import MigrationUnit
from ..obs import counter as _obs_counter
from ..obs import span as _obs_span

_OBS_PLANS = _obs_counter("migration.plans")
_OBS_STAGES = _obs_counter("migration.stages")
_OBS_COST_HITS = _obs_counter("migration.cost_cache.hits")
_OBS_COST_MISSES = _obs_counter("migration.cost_cache.misses")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass
class MigrationEvent:
    """Record of one executed migration stage.

    A sudden migration is a single-stage event (``stage_index=0``,
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

    ``cycles`` is the stage's transfer time, congestion-inflated when its
    plan pays NoC congestion; ``total_energy_j`` / ``energy_vector`` are the
    stage's migration energy (charged to the epoch unless the controller
    excludes migration energy).
    """

    cycles: int
    total_energy_j: float
    transform_name: str
    stage_index: int
    stage_count: int
    #: Row-major per-PE energy (J), read-only.
    energy_vector: np.ndarray = field(repr=False, compare=False)


class _Stage(NamedTuple):
    """Everything executing one stage needs, built once per plan."""

    #: node -> node relocation of the stage (for the I/O translator).
    step: np.ndarray
    #: The task -> node mapping after the stage (read-only).
    permutation: np.ndarray
    moved: int
    cost: StageCost
    label: str


def _compile_plan(
    plan: MigrationPlan, topology, permutation: np.ndarray, next_stage: int = 0
) -> Tuple[_Stage, ...]:
    """Per-stage arrays and unpriced costs of ``plan``.

    ``permutation`` is the mapping after the first ``next_stage`` stages
    ran; the stages' resulting mappings chain from the plan's start, so
    executing a stage is an assignment, not a gather.  Raises
    ``ValueError`` if a stage is not a closed relocation.
    """
    steps = [_frozen(stage.node_step(topology)) for stage in plan.stages]
    for step in reversed(steps[:next_stage]):
        permutation = np.argsort(step)[permutation]
    count = plan.num_stages
    compiled = []
    for index, (stage, step) in enumerate(zip(plan.stages, steps)):
        permutation = _frozen(step[permutation])
        compiled.append(
            _Stage(
                step=step,
                permutation=permutation,
                moved=stage.moved,
                cost=StageCost(
                    cycles=stage.cycles,
                    total_energy_j=stage.energy_j,
                    transform_name=plan.transform_name,
                    stage_index=index,
                    stage_count=count,
                    energy_vector=stage.energy_vector,
                ),
                label=(
                    plan.transform_name
                    if count == 1
                    else f"{plan.transform_name}[{index + 1}/{count}]"
                ),
            )
        )
    return tuple(compiled)


class RuntimeReconfigurationController:
    """Tracks mapping state and executes migration plans for one chip.

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

    A lowered plan is a pure function of (transform, mapping, style, units),
    and periodic policies cycle one transform around a short orbit, so plans
    are memoized per that key: a long experiment lowers only ``orbit
    length`` distinct plans.
    """

    def __init__(
        self,
        configuration: ChipConfiguration,
        migration_unit: Optional[MigrationUnit] = None,
        include_migration_energy: bool = True,
    ):
        self.configuration = configuration
        self.topology = configuration.topology
        self.migration_unit = migration_unit or MigrationUnit(
            self.topology, library=configuration.library
        )
        self.include_migration_energy = include_migration_energy

        tasks = range(self.topology.num_nodes)
        per_task_power = configuration.per_task_power()
        self._task_power = np.array(
            [per_task_power[task] for task in tasks], dtype=np.float64
        )
        tanner_nodes = configuration.tanner_nodes_per_task()
        #: task -> payload flits of its migration state.
        self._task_flits = self.migration_unit.state_model.payload_flits_per_node(
            [tanner_nodes[task] for task in tasks]
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
        # Running totals, maintained O(1) per stage so accounting stays
        # correct after :meth:`drain_events` trims the event log (streaming
        # runs drain every window to keep memory flat).
        self._migration_count = 0
        self._migration_cycles = 0
        self._migration_energy_j = 0.0
        #: (transform permutation, mapping permutation, style, units) ->
        #: (plan, compiled stages).  Plans are immutable, so the cache is
        #: shared across runs and survives :meth:`reset`.
        self._plan_cache: Dict[Tuple, Tuple[MigrationPlan, Tuple[_Stage, ...]]] = {}
        #: Number of plan lowerings (cache misses).
        self.migration_cost_computations = 0
        #: Number of migrations served from the plan cache.
        self.migration_cache_hits = 0
        # The in-flight plan (None when idle), its compiled stages and the
        # index of the next stage to execute.
        self._active_plan: Optional[MigrationPlan] = None
        self._active_stages: Tuple[_Stage, ...] = ()
        self._plan_next_stage = 0

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

    def _arm(self, plan: Optional[MigrationPlan], stages=(), next_stage=0) -> None:
        self._active_plan = plan
        self._active_stages = stages
        self._plan_next_stage = next_stage

    def reset(self) -> None:
        """Return to the static mapping and forget all history."""
        self._permutation = self._static_permutation
        self.io_translator.reset()
        self.events.clear()
        self._epoch_index = 0
        self._migration_count = 0
        self._migration_cycles = 0
        self._migration_energy_j = 0.0
        self._arm(None)

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
                "plan": self._active_plan.to_dict(),
                "next_stage": self._plan_next_stage,
            }
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Inverse of :meth:`state_dict`.

        Raises ``ValueError`` (leaving the controller untouched) for a
        malformed in-flight plan: a stage that is not a closed relocation or
        carries a value no lowering produces (see
        :meth:`~repro.migration.plan.MigrationStage.from_dict`), or a
        ``next_stage`` that does not name a remaining stage of a plan whose
        first stage has run.
        """
        permutation = [int(node) for node in state["mapping"]]  # type: ignore[union-attr]
        if sorted(permutation) != list(range(self.topology.num_nodes)):
            raise ValueError("permutation must be a rearrangement of all node ids")
        current = _frozen(np.array(permutation, dtype=np.int64))
        plan_state = state.get("plan")
        plan: Optional[MigrationPlan] = None
        stages: Tuple[_Stage, ...] = ()
        next_stage = 0
        if plan_state is not None:
            plan = MigrationPlan.from_dict(
                plan_state["plan"], self.topology  # type: ignore[index]
            )
            next_stage = int(plan_state["next_stage"])  # type: ignore[index]
            # apply_migration runs stage 0 at once, so an in-flight plan has
            # run its first stage and has at least one left.
            if not 1 <= next_stage < plan.num_stages:
                raise ValueError(
                    f"checkpointed plan next_stage {next_stage} is out of range "
                    f"for a {plan.num_stages}-stage plan in flight "
                    f"(expected 1..{plan.num_stages - 1})"
                )
            stages = _compile_plan(plan, self.topology, current, next_stage)
        self.io_translator.restore_state(state["io"])  # type: ignore[arg-type]
        self._permutation = current
        self._epoch_index = int(state["epoch_index"])  # type: ignore[arg-type]
        self._migration_count = int(state["migrations"])  # type: ignore[arg-type]
        self._migration_cycles = int(state["migration_cycles"])  # type: ignore[arg-type]
        self._migration_energy_j = float(state["migration_energy_j"])  # type: ignore[arg-type]
        self.events.clear()
        self._arm(plan, stages, next_stage)

    # ------------------------------------------------------------------
    # Plan execution
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

    def _lowered_plan(
        self, transform: MigrationTransform, style: str, units_per_epoch: int
    ) -> Tuple[MigrationPlan, Tuple[_Stage, ...]]:
        key = (
            transform.node_permutation().tobytes(),
            self._permutation.tobytes(),
            style,
            units_per_epoch,
        )
        cached = self._plan_cache.get(key)
        if cached is not None:
            self.migration_cache_hits += 1
            _OBS_COST_HITS.add()
            return cached
        payload_flits = np.empty_like(self._task_flits)
        payload_flits[self._permutation] = self._task_flits
        with _obs_span(
            "migration.plan",
            transform=transform.name,
            style=style,
            units=units_per_epoch,
        ):
            plan = lower_transform(
                transform,
                self.migration_unit,
                payload_flits,
                style=style,
                units_per_epoch=units_per_epoch,
            )
        lowered = (plan, _compile_plan(plan, self.topology, self._permutation))
        self.migration_cost_computations += 1
        _OBS_COST_MISSES.add()
        self._plan_cache[key] = lowered
        return lowered

    def apply_migration(
        self,
        transform: MigrationTransform,
        epoch_index: Optional[int] = None,
        *,
        style: str = "sudden",
        units_per_epoch: int = 2,
        congestion: float = 1.0,
    ) -> StageCost:
        """Start migrating along ``transform``: arm its plan and run stage 0.

        The plan (see :func:`repro.migration.plan.lower_transform`) counts
        as ONE migration however many stages it unfolds over; a sudden plan
        completes here, a staged one continues through :meth:`advance_plan`
        once per epoch.  ``congestion`` is the epoch's NoC load factor
        (:func:`repro.migration.plan.congestion_factor`), applied when the
        plan's style pays it.
        """
        if self._active_plan is not None:
            raise RuntimeError(
                "a migration plan is already in progress; "
                "advance it to completion before beginning another"
            )
        plan, stages = self._lowered_plan(transform, style, units_per_epoch)
        self._migration_count += 1
        _OBS_PLANS.add()
        return self._execute_stage(plan, stages, 0, epoch_index, congestion)

    def advance_plan(
        self,
        epoch_index: Optional[int] = None,
        congestion: float = 1.0,
    ) -> Optional[StageCost]:
        """Execute the next stage of the in-flight plan (None when idle)."""
        plan = self._active_plan
        if plan is None:
            return None
        return self._execute_stage(
            plan, self._active_stages, self._plan_next_stage, epoch_index, congestion
        )

    def _execute_stage(
        self,
        plan: MigrationPlan,
        stages: Tuple[_Stage, ...],
        index: int,
        epoch_index: Optional[int],
        congestion: float,
    ) -> StageCost:
        """The one stage step: mapping, translator compose, event, totals."""
        stage = stages[index]
        cost = stage.cost
        if congestion > 1.0 and prices_congestion(plan.style):
            cost = replace(
                cost, cycles=priced_stage_cycles(plan.stages[index], congestion)
            )
        self._permutation = stage.permutation
        self.io_translator.record_step(stage.step, stage.label)
        energy = cost.total_energy_j if self.include_migration_energy else 0.0
        self.events.append(
            MigrationEvent(
                epoch_index=self._epoch_index if epoch_index is None else epoch_index,
                transform_name=cost.transform_name,
                cycles=cost.cycles,
                energy_j=energy,
                moved_tasks=stage.moved,
                stage_index=index,
                stage_count=cost.stage_count,
            )
        )
        self._migration_cycles += cost.cycles
        self._migration_energy_j += energy
        _OBS_STAGES.add()
        if index + 1 < len(stages):
            self._arm(plan, stages, index + 1)
        else:
            self._arm(None)
        return cost

    def advance_epoch(self) -> int:
        """Mark the end of an epoch; returns the new epoch index."""
        self._epoch_index += 1
        return self._epoch_index

    # ------------------------------------------------------------------
    def epoch_power_vector(
        self,
        period_s: float,
        migration_cost: Optional[StageCost] = None,
    ) -> np.ndarray:
        """Row-major per-PE power over one epoch under the current mapping.

        Workload power follows the tasks to their current locations; if a
        migration stage ran at the start of the epoch its energy is
        amortised over the epoch and charged to the units it touched.  This
        is the native representation: one such vector per epoch forms a row
        of the experiment's :class:`repro.power.trace.PowerTrace`.
        """
        if period_s <= 0:
            raise ValueError("epoch period must be positive")
        power = np.zeros(self.topology.num_nodes, dtype=np.float64)
        power[self._permutation] = self._task_power
        if migration_cost is not None and self.include_migration_energy:
            power += migration_cost.energy_vector / period_s
        return power

    def static_power_vector(self) -> np.ndarray:
        """Power vector of the unmigrated (static) mapping — the baseline."""
        return self.configuration.power_vector(self.configuration.static_mapping)
