"""The three benchmark workloads and the correctness checks they carry.

Each workload has the same shape: :meth:`setup` does what a user pays once
per process (imports, chip builds, an untimed warm-up), :meth:`run_pass`
runs one *pass* over the workload's input, timing every *request* in it
from outside the program, and :meth:`check_end` runs the checks that need
the whole run.  Every request's output is checked against a reference;
mismatches and exceptions count as failed operations in the :class:`Tally`.

======================  ===============================  ======================
workload                pass                             request
======================  ===============================  ======================
registry_suite.warm     the 15 registry scenarios        one ``run_scenario``
campaign.cold100        one cold 100-job campaign        one warm re-run of it
serve.windows           one 64-window JSONL stream       one window update
======================  ===============================  ======================
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .tracing import PASS_SPAN, REQUEST_SPAN

#: Relative tolerance of every float comparison against a reference.
TOLERANCE = 1e-9

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass
class Tally:
    """Timings and check outcomes of one measured phase."""

    pass_s: List[float] = field(default_factory=list)
    request_s: List[float] = field(default_factory=list)
    #: Simulated epochs evaluated by the timed passes.
    epochs: int = 0
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: (steady solves, transient_sequence calls) of each pass.
    solver_counts: List[Tuple[int, int]] = field(default_factory=list)

    def check(self, problems: Sequence[str], what: str) -> None:
        """Count one checked operation; any problem makes it a failure."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {'; '.join(problems[:3])}")

    def absorb(self, other: "Tally") -> None:
        """Add another phase's check outcomes and solver counts to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures
        self.solver_counts += other.solver_counts

    def error(self, what: str) -> List[str]:
        """Problems list for an operation that raised (keeps the traceback)."""
        if len(self.failures) < 20:
            self.failures.append(f"{what}: raised\n{traceback.format_exc()}")
        return ["raised"]


def compare(actual, expected, path: str = "") -> List[str]:
    """Mismatches between two JSON-like values (floats to :data:`TOLERANCE`)."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{path or 'value'}: keys differ"]
        problems: List[str] = []
        for key in expected:
            problems += compare(actual[key], expected[key], f"{path}.{key}")
        return problems
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path}: length differs"]
        problems = []
        for index, (left, right) in enumerate(zip(actual, expected)):
            problems += compare(left, right, f"{path}[{index}]")
        return problems
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if math.isclose(actual, expected, rel_tol=TOLERANCE, abs_tol=1e-12):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def load_reference(path: Path = REFERENCE_PATH) -> Dict[str, object]:
    return json.loads(path.read_text(encoding="utf-8"))


def scenario_digest(result) -> Dict[str, object]:
    """The checked outputs of one :class:`repro.scenarios.ScenarioResult`."""
    experiment = result.experiment
    digest: Dict[str, object] = {
        "baseline_peak_celsius": float(experiment.baseline_peak_celsius),
        "baseline_mean_celsius": float(experiment.baseline_mean_celsius),
        "settled_peak_celsius": float(experiment.settled_peak_celsius),
        "settled_mean_celsius": float(experiment.settled_mean_celsius),
        "total_migration_energy_j": float(experiment.total_migration_energy_j),
        "total_cycles": int(experiment.performance.total_cycles),
        "migration_cycles": int(experiment.performance.migration_cycles),
        "migrations": int(experiment.migrations_performed),
        "epoch_peaks_celsius": [float(value) for value in experiment.peak_series()],
        "ambient_span_celsius": float(
            result.ambient_offset_max_celsius - result.ambient_offset_min_celsius
        ),
        "decoder": None,
        "noc": None,
    }
    if result.decoder is not None:
        digest["decoder"] = {
            key: float(value) for key, value in dataclasses.asdict(result.decoder).items()
        }
    if result.noc is not None:
        digest["noc"] = {
            key: (int(value) if key == "saturated_epochs" else float(value))
            for key, value in dataclasses.asdict(result.noc).items()
        }
    return digest


def solver_totals(chips: Sequence[str]) -> Tuple[int, int]:
    """Process-wide (steady solves, transient_sequence calls) of some chips."""
    from repro.chips import get_configuration

    steady = sequences = 0
    for name in chips:
        solver = get_configuration(name).thermal_model.solver
        steady += solver.steady_solve_count
        sequences += solver.transient_sequence_count
    return steady, sequences


def figure1_job_id(configuration: str, scheme: str) -> str:
    """The campaign job id of one Figure 1 cell."""
    return f"steady-baseline@{configuration}/{scheme}/fs1/euler"


#: JobResult fields a Figure 1 cell is checked on.
FIGURE1_FIELDS = (
    "baseline_peak_celsius",
    "settled_peak_celsius",
    "peak_reduction_celsius",
    "settled_mean_celsius",
    "throughput_penalty",
    "migrations",
)


def figure1_errors(reference: Dict[str, object], tally: Tally) -> Dict[str, float]:
    """Run the Figure 1 grid, check each cell, return the paper-accuracy errors.

    The grid is the ``steady-baseline`` scenario over chips A-E and the five
    periodic schemes — the cells ``campaign.cold100`` evaluates.  Returns
    ``|average reduction - paper|`` in deg C for each scheme the paper
    reports an average for.
    """
    from repro.chips import PAPER_AVERAGE_REDUCTIONS, configuration_names
    from repro.migration.transforms import FIGURE1_SCHEMES
    from repro.scenarios import get_scenario, run_scenario

    jobs = reference["campaign"]
    base = get_scenario("steady-baseline")
    reductions: Dict[str, List[float]] = {scheme: [] for scheme in PAPER_AVERAGE_REDUCTIONS}
    for configuration in configuration_names():
        for scheme in FIGURE1_SCHEMES:
            what = f"figure1 {configuration}/{scheme}"
            try:
                experiment = run_scenario(
                    dataclasses.replace(base, configuration=configuration, scheme=scheme)
                ).experiment
            except Exception:
                tally.check(tally.error(what), what)
                continue
            actual = {
                "baseline_peak_celsius": float(experiment.baseline_peak_celsius),
                "settled_peak_celsius": float(experiment.settled_peak_celsius),
                "peak_reduction_celsius": float(experiment.peak_reduction_celsius),
                "settled_mean_celsius": float(experiment.settled_mean_celsius),
                "throughput_penalty": float(experiment.throughput_penalty),
                "migrations": int(experiment.migrations_performed),
            }
            expected = jobs[figure1_job_id(configuration, scheme)]
            tally.check(
                compare(actual, {key: expected[key] for key in FIGURE1_FIELDS}), what
            )
            if scheme in reductions:
                reductions[scheme].append(actual["peak_reduction_celsius"])
    return {
        scheme: abs(float(np.mean(values)) - PAPER_AVERAGE_REDUCTIONS[scheme])
        if values
        else float("inf")
        for scheme, values in reductions.items()
    }


def _scratch_dir(scratch: Path, prefix: str) -> Path:
    scratch.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))


# ----------------------------------------------------------------------
# registry_suite.warm
# ----------------------------------------------------------------------
class RegistrySuite:
    """All 15 registry scenarios through ``run_scenario``, warm.

    The epoch-loop scoreboard, and the only workload with NoC congestion
    pricing, thermal-feedback policies and fluid (staged) migration.
    """

    name = "registry_suite.warm"

    def __init__(self, seed: int, scratch: Path, reference: Dict[str, object], smoke: bool = False):
        self.reference = reference
        self.specs: list = []

    def setup(self) -> None:
        from repro.chips import get_configuration
        from repro.scenarios import all_scenarios, compile_scenario, run_scenario

        self.specs = all_scenarios()
        self.chips = sorted({spec.configuration for spec in self.specs})
        self.solvers = {
            spec.name: get_configuration(spec.configuration).thermal_model.solver
            for spec in self.specs
        }
        compiled = {spec.name: compile_scenario(spec) for spec in self.specs}
        self.expected_solves = {
            name: (item.expected_steady_solves(), 1 if item.spec.mode == "transient" else 0)
            for name, item in compiled.items()
        }
        for spec in self.specs:
            run_scenario(spec)

    def run_pass(self, rng: random.Random, recorder, tally: Tally) -> None:
        from repro.scenarios import run_scenario

        order = rng.sample(self.specs, len(self.specs))
        outcomes = []
        totals = solver_totals(self.chips)
        with recorder.span(PASS_SPAN):
            began = time.perf_counter()
            for spec in order:
                solver = self.solvers[spec.name]
                before = (solver.steady_solve_count, solver.transient_sequence_count)
                result = None
                problems: List[str] = []
                with recorder.span(REQUEST_SPAN):
                    started = time.perf_counter()
                    try:
                        result = run_scenario(spec)
                    except Exception:
                        problems = tally.error(spec.name)
                    tally.request_s.append(time.perf_counter() - started)
                solves = (
                    solver.steady_solve_count - before[0],
                    solver.transient_sequence_count - before[1],
                )
                outcomes.append((spec, result, solves, problems))
            tally.pass_s.append(time.perf_counter() - began)
        after = solver_totals(self.chips)
        tally.solver_counts.append((after[0] - totals[0], after[1] - totals[1]))
        expected = self.reference["registry"]
        for spec, result, solves, problems in outcomes:
            if result is not None:
                tally.epochs += spec.num_epochs
                problems = compare(scenario_digest(result), expected[spec.name])
                if solves != self.expected_solves[spec.name]:
                    problems.append(
                        f"solves {solves} != expected {self.expected_solves[spec.name]}"
                    )
            tally.check(problems, spec.name)

    def check_end(self, tally: Tally) -> None:
        pass


# ----------------------------------------------------------------------
# campaign.cold100
# ----------------------------------------------------------------------
#: The campaign grid: 4 scenarios x chips A-E x the 5 periodic schemes.
CAMPAIGN_SCENARIOS = ("steady-baseline", "diurnal-load", "burst-overload", "duty-cycle-idle")
CAMPAIGN_CHIPS = ("A", "B", "C", "D", "E")


def campaign_spec(scenarios: Sequence[str] = CAMPAIGN_SCENARIOS, rng: Optional[random.Random] = None):
    """The campaign over ``scenarios``; ``rng`` permutes every axis's order."""
    from repro.campaign import CampaignSpec
    from repro.migration.transforms import FIGURE1_SCHEMES

    def ordered(values):
        return tuple(rng.sample(list(values), len(values))) if rng is not None else tuple(values)

    return CampaignSpec(
        name="perfbench-cold100",
        scenarios=ordered(scenarios),
        configurations=ordered(CAMPAIGN_CHIPS),
        schemes=ordered(FIGURE1_SCHEMES),
    )


def run_pinned_campaign(spec, directory: Path):
    """``run_campaign`` with the pool pinned to one thread-executor worker.

    ``n_jobs="auto"`` would size the pool from the host's CPU count and the
    repository's recorded perf history; one worker never exceeds ``nproc``.
    """
    from repro.campaign import run_campaign

    return run_campaign(spec, directory, n_jobs=1, executor="thread")


class ColdCampaign:
    """A 100-job campaign from an empty directory, then warm re-runs of it.

    Measures per-job set-up, steady-mode migration accounting, cache and
    journal writes (cold) and journal replay (warm).  No NoC pricing and no
    transient thermal work.
    """

    name = "campaign.cold100"
    #: Warm re-runs of each cold campaign directory (~6 ms each), enough
    #: requests for a steady p99.
    WARM_RERUNS = 50

    def __init__(self, seed: int, scratch: Path, reference: Dict[str, object], smoke: bool = False):
        self.seed = seed
        self.scratch = scratch
        self.reference = reference
        self.warm_reruns = 2 if smoke else self.WARM_RERUNS
        # Smoke size keeps only the Figure 1 scenario (25 jobs).
        self.scenarios = CAMPAIGN_SCENARIOS[:1] if smoke else CAMPAIGN_SCENARIOS
        self.chips = CAMPAIGN_CHIPS

    def setup(self) -> None:
        from repro.chips import get_configuration

        for name in self.chips:
            get_configuration(name)
        spec = campaign_spec(self.scenarios, random.Random(self.seed))
        directory = _scratch_dir(self.scratch, "campaign-warmup-")
        try:
            run_pinned_campaign(spec, directory)
            run_pinned_campaign(spec, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def run_pass(self, rng: random.Random, recorder, tally: Tally) -> None:
        spec = campaign_spec(self.scenarios, rng)
        directory = _scratch_dir(self.scratch, "campaign-")
        totals = solver_totals(self.chips)
        try:
            with recorder.span(PASS_SPAN):
                cold = None
                cold_problems: List[str] = []
                with recorder.span(REQUEST_SPAN):
                    began = time.perf_counter()
                    try:
                        cold = run_pinned_campaign(spec, directory)
                    except Exception:
                        cold_problems = tally.error("cold campaign")
                    elapsed = time.perf_counter() - began
                tally.pass_s.append(elapsed)
                warm_runs = []
                for _ in range(self.warm_reruns if cold is not None else 0):
                    warm = None
                    problems: List[str] = []
                    with recorder.span(REQUEST_SPAN):
                        started = time.perf_counter()
                        try:
                            warm = run_pinned_campaign(spec, directory)
                        except Exception:
                            problems = tally.error("warm re-run")
                        tally.request_s.append(time.perf_counter() - started)
                    warm_runs.append((warm, problems))
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        after = solver_totals(self.chips)
        tally.solver_counts.append((after[0] - totals[0], after[1] - totals[1]))
        if cold is not None:
            tally.epochs += sum(job.spec.num_epochs for job in cold.jobs)
            cold_problems = self._check_cold(cold)
        tally.check(cold_problems, "cold campaign")
        for warm, problems in warm_runs:
            if warm is not None:
                if warm.evaluated != 0:
                    problems.append(f"warm re-run evaluated {warm.evaluated} jobs")
                if warm.results != cold.results:
                    problems.append("warm re-run results differ from the cold run")
            tally.check(problems, "warm re-run")

    def _check_cold(self, run) -> List[str]:
        expected = self.reference["campaign"]
        problems: List[str] = []
        if run.evaluated != len(run.jobs):
            problems.append(f"cold run evaluated {run.evaluated} of {len(run.jobs)} jobs")
        for job, result in zip(run.jobs, run.results):
            if result is None:
                problems.append(f"{job.job_id}: no result")
                continue
            problems += compare(result.to_dict(), expected[job.job_id], job.job_id)
        return problems

    def check_end(self, tally: Tally) -> None:
        pass


# ----------------------------------------------------------------------
# serve.windows
# ----------------------------------------------------------------------
class ServeWindows:
    """One closed-loop ``repro serve --input ... --checkpoint`` stream.

    Chip E, the ``xy-shift`` scheme, transient mode, seeded JSONL windows
    of 8 epochs fed through ``jsonl_windows`` into ``StreamingExperiment``
    with a durable ``CheckpointStore``.  The single producer asks for the
    next update only after the previous one returned.
    """

    name = "serve.windows"
    CHIP = "E"
    SCHEME = "xy-shift"
    WINDOWS = 64
    EPOCHS_PER_WINDOW = 8
    #: ``repro serve --settled`` default.
    SETTLED = 16
    #: Channel SNR band (dB) of the generated windows.
    SNR_BAND = (2.0, 3.0)

    def __init__(self, seed: int, scratch: Path, reference: Dict[str, object], smoke: bool = False):
        self.seed = seed
        self.scratch = scratch
        self.reference = reference
        self.windows = 4 if smoke else self.WINDOWS
        self.chips = (self.CHIP,)
        self.streams: List[Dict[str, object]] = []

    def window_lines(self, num_units: int) -> List[str]:
        """The seeded JSONL input: per-PE random-walk load, ambient drift, SNR band."""
        from repro.stream import EpochWindow

        rng = np.random.default_rng(self.seed)
        epochs = self.EPOCHS_PER_WINDOW
        load = np.ones(num_units)
        ambient = 0.0
        lines = []
        for index in range(self.windows):
            modulation = np.empty((epochs, num_units))
            offsets = np.empty(epochs)
            for epoch in range(epochs):
                load = np.clip(load + rng.normal(0.0, 0.05, num_units), 0.5, 1.5)
                ambient = float(np.clip(ambient + rng.normal(0.0, 0.25), -3.0, 6.0))
                modulation[epoch] = load
                offsets[epoch] = ambient
            window = EpochWindow(
                num_epochs=epochs,
                start_epoch=index * epochs,
                load_modulation=modulation,
                ambient_offsets=offsets,
                snr_schedule=rng.uniform(*self.SNR_BAND, size=epochs),
            )
            lines.append(window.to_json_line() + "\n")
        return lines

    def _experiment(self, num_epochs: int, settle_epochs: Optional[int] = None):
        from repro.chips import get_configuration
        from repro.core.experiment import ExperimentSettings, ThermalExperiment
        from repro.core.policy import make_policy

        chip = get_configuration(self.CHIP)
        policy = make_policy(self.SCHEME, chip.topology, period_us=109.0)
        settings = ExperimentSettings(
            num_epochs=num_epochs, mode="transient", settle_epochs=settle_epochs
        )
        return ThermalExperiment(chip, policy, settings=settings)

    def _engine(self, directory: Path):
        from repro.stream import CheckpointStore, StreamingExperiment

        # Wired as ``repro serve --input`` wires it.
        return StreamingExperiment(
            self._experiment(max(self.SETTLED, 1)),
            settled_capacity=self.SETTLED,
            checkpoint=CheckpointStore(directory),
        )

    def setup(self) -> None:
        from repro.chips import get_configuration

        chip = get_configuration(self.CHIP)
        self.lines = self.window_lines(chip.topology.num_nodes)
        directory = _scratch_dir(self.scratch, "serve-warmup-")
        try:
            engine = self._engine(directory)
            for _update in engine.process(self._source()):
                pass
            engine.finalize()
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def _source(self):
        from repro.stream import jsonl_windows

        return jsonl_windows(iter(self.lines))

    def run_pass(self, rng: random.Random, recorder, tally: Tally) -> None:
        directory = _scratch_dir(self.scratch, "serve-")
        totals = solver_totals(self.chips)
        peaks: List[np.ndarray] = []
        means: List[np.ndarray] = []
        result = None
        summary = None
        problems: List[str] = []
        try:
            with recorder.span(PASS_SPAN):
                began = time.perf_counter()
                try:
                    engine = self._engine(directory)
                    engine.prepare()
                    updates = engine.process(self._source())
                    while True:
                        with recorder.span(REQUEST_SPAN):
                            started = time.perf_counter()
                            update = next(updates, None)
                            if update is not None:
                                tally.request_s.append(time.perf_counter() - started)
                        if update is None:
                            break
                        peaks.append(update.outcome.peak_by_epoch)
                        means.append(update.outcome.mean_by_epoch)
                        summary = update.summary
                    result = engine.finalize()
                except Exception:
                    problems = tally.error("serve stream")
                tally.pass_s.append(time.perf_counter() - began)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        after = solver_totals(self.chips)
        tally.solver_counts.append((after[0] - totals[0], after[1] - totals[1]))
        tally.epochs += sum(len(values) for values in peaks)
        if problems:
            tally.check(problems, "serve stream")
            return
        self.streams.append(
            {"peaks": peaks, "means": means, "result": result, "summary": summary}
        )

    def batch_reference(self):
        """The same windows as one whole-horizon batch window.

        The stream warm-starts from its first window's average power, so the
        batch is given that warm power explicitly (taken from stepping the
        first window alone on a separate experiment).
        """
        from repro.chips import get_configuration
        from repro.stream import EpochWindow

        num_units = get_configuration(self.CHIP).topology.num_nodes
        windows = [EpochWindow.from_json_line(line) for line in self.lines]
        modulation = np.vstack([window.modulation_matrix(num_units) for window in windows])
        offsets = np.concatenate([window.ambient_offsets for window in windows])
        total = len(offsets)
        first = self.EPOCHS_PER_WINDOW
        probe = self._experiment(max(self.SETTLED, 1))
        probe.prepare(settled_capacity=self.SETTLED)
        warm = probe.step_window(
            first, power_modulation=modulation[:first], ambient_offsets=offsets[:first]
        ).trace.average_vector()
        batch = self._experiment(total, settle_epochs=self.SETTLED)
        batch.prepare(total_epochs=total, warm_power=warm)
        outcome = batch.step_window(
            total, power_modulation=modulation, ambient_offsets=offsets, is_last=True
        )
        return outcome, batch.finalize()

    def check_end(self, tally: Tally) -> None:
        """Every window and every stream result against the batch run."""
        if not self.streams:
            return
        try:
            outcome, result = self.batch_reference()
        except Exception:
            tally.check(tally.error("batch reference"), "batch reference")
            return
        expected = _result_digest(result)
        epochs = self.EPOCHS_PER_WINDOW
        for stream in self.streams:
            for index, (peaks, means) in enumerate(zip(stream["peaks"], stream["means"])):
                window = slice(index * epochs, (index + 1) * epochs)
                tally.check(
                    compare(
                        {"peak": peaks.tolist(), "mean": means.tolist()},
                        {
                            "peak": outcome.peak_by_epoch[window].tolist(),
                            "mean": outcome.mean_by_epoch[window].tolist(),
                        },
                    ),
                    f"window {index}",
                )
            problems = compare(_result_digest(stream["result"]), expected)
            if stream["summary"] != self.streams[0]["summary"]:
                problems.append("rolling summary differs between identical streams")
            tally.check(problems, "stream result vs batch")
        self.streams = []


def _result_digest(result) -> Dict[str, object]:
    return {
        "baseline_peak_celsius": float(result.baseline_peak_celsius),
        "baseline_mean_celsius": float(result.baseline_mean_celsius),
        "settled_peak_celsius": float(result.settled_peak_celsius),
        "settled_mean_celsius": float(result.settled_mean_celsius),
        "total_migration_energy_j": float(result.total_migration_energy_j),
        "total_cycles": int(result.performance.total_cycles),
        "migration_cycles": int(result.performance.migration_cycles),
        "migrations": int(result.migrations_performed),
    }


WORKLOADS = {
    RegistrySuite.name: RegistrySuite,
    ColdCampaign.name: ColdCampaign,
    ServeWindows.name: ServeWindows,
}
