"""Measurement loop, host-speed calibration, metrics and reports.

:func:`measure` runs one workload for a time budget and returns the result
object the command prints.  With ``trace=False`` it reports the end-to-end
metrics; with ``trace=True`` it alternates untraced passes with passes run
under the layer wrappers, and reports the per-layer metrics of the traced
passes (normalised per pass, so they do not depend on how many passes fitted
in the budget) plus the tracing overhead.

Times are reported in *reference seconds*.  The speed of the shared
2-vCPU host drifts in steps of up to ~30% over tens of seconds (a fixed
pure-Python loop slows down by the same factor in CPU time, so it is not
steal time), which would swamp a 10-run median.  Before each pass and after
the last one the harness times :func:`calibration_kernel`, a fixed
benchmark-owned mix of interpreter work, small numpy operations and a small
dense solve that shares no code with the program, and scales each pass's
wall times by ``CALIBRATION_REFERENCE_S / kernel time`` (the mean of the
timings on either side of the pass).  A change to the program therefore
moves a scaled time exactly as it moves wall time at constant host speed.
Raw wall times are printed in the report on standard error.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import tracing
from .workloads import WORKLOADS, Tally, figure1_errors, load_reference

#: Fresh processes timed to measure set-up; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Where runs keep temporary campaign/checkpoint directories and traces.
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Calibration-kernel time that defines one reference second (its typical
#: time on the 2.1 GHz Xeon host the baseline was measured on).
CALIBRATION_REFERENCE_S = 6.0e-3

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "epochs_per_s": "1/s",
    "success_frac": "ratio",
    "pass_s_p50": "s",
    "pass_s_p90": "s",
    "request_ms_p50": "ms",
    "request_ms_p99": "ms",
    "fig1_xy_shift_err_c": "C",
    "fig1_rotation_err_c": "C",
}


def _per_layer_units() -> Dict[str, str]:
    units: Dict[str, str] = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    units.update(
        {
            "thermal.transient_sequence.intervals": "count",
            "thermal.steady_temperatures.rows": "count",
            "stream.checkpoint_save.bytes": "B",
            "thermal.steady_solve_count": "count",
            "thermal.transient_sequence_count": "count",
            "core.controller.migration_cache_hit_ratio": "ratio",
            "ldpc.probe_hit_ratio": "ratio",
            "bench.unattributed.self_s": "s",
            "trace.overhead_frac": "ratio",
        }
    )
    return units


#: Per-layer metrics: name -> unit.  Counts and times are per pass.
PER_LAYER = _per_layer_units()

_CALIBRATION_MATRIX = (np.arange(900.0).reshape(30, 30) % 7.0) / 7.0 + 30.0 * np.eye(30)


def calibration_kernel() -> float:
    """Fixed work whose time tracks the host's speed (~6 ms); returns a checksum."""
    values = np.zeros(25)
    table: Dict[int, float] = {}
    total = 0.0
    for index in range(400):
        values = values * 0.5 + 1.0
        table[index % 7] = float(values.max())
        total += float(np.linalg.solve(_CALIBRATION_MATRIX, np.full(30, values[0]))[0])
    return total + sum(table.values())


def _speed_factor(before: float, after: float) -> float:
    """Reference seconds per wall second between two calibrations."""
    return CALIBRATION_REFERENCE_S / ((before + after) / 2.0)


def calibrate() -> float:
    """Seconds of one calibration kernel (best of three)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        calibration_kernel()
        best = min(best, time.perf_counter() - started)
    return best


class Phase:
    """One measured phase: the workload's tally plus its scaled timings."""

    def __init__(self) -> None:
        self.tally = Tally()
        self.pass_s: List[float] = []
        self.request_s: List[float] = []
        self.factors: List[float] = []

    @property
    def epochs_per_s(self) -> float:
        return self.tally.epochs / sum(self.pass_s)

    @property
    def factor(self) -> float:
        """Overall wall -> reference-seconds factor of the phase."""
        return sum(self.pass_s) / sum(self.tally.pass_s)


def _timed_pass(phase: Phase, workload, rng: random.Random, recorder, before: float) -> float:
    """One pass into ``phase``, scaled by the calibrations around it.

    ``before`` is the calibration taken just before; returns the one taken
    just after, which is the next pass's ``before``.
    """
    tally = phase.tally
    passes, requests = len(tally.pass_s), len(tally.request_s)
    workload.run_pass(rng, recorder, tally)
    after = calibrate()
    factor = _speed_factor(before, after)
    phase.factors.append(factor)
    phase.pass_s += [value * factor for value in tally.pass_s[passes:]]
    phase.request_s += [value * factor for value in tally.request_s[requests:]]
    return after


def _solver_counts(tally: Tally) -> List[str]:
    """Simulated solver counts must repeat exactly from pass to pass."""
    distinct = sorted(set(tally.solver_counts))
    if len(distinct) > 1:
        return [f"solver counts changed between passes: {distinct}"]
    return []


def setup_seconds(workload: str, seed: int, repeats: int) -> Tuple[List[float], List[float]]:
    """Wall and reference seconds of fresh processes that only set the workload up."""
    script = Path(__file__).resolve().parent / "run.py"
    command = [
        sys.executable, str(script), "--workload", workload, "--seed", str(seed),
        "--setup-only",
    ]
    wall: List[float] = []
    scaled: List[float] = []
    before = calibrate()
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=150)
        wall.append(time.perf_counter() - started)
        after = calibrate()
        scaled.append(wall[-1] * _speed_factor(before, after))
        before = after
    return wall, scaled


def setup_only(workload_name: str, seed: int) -> None:
    workload = WORKLOADS[workload_name](seed, OUT_DIR, load_reference())
    workload.setup()


def measure(
    workload_name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    setup_repeats: int = SETUP_REPEATS,
    smoke: bool = False,
    reference: Optional[Dict[str, object]] = None,
    trace_path: Optional[Path] = None,
) -> Dict[str, object]:
    """Run one workload and return ``{correct, attempted, failed, metrics}``.

    ``setup_repeats=0`` times the in-process set-up instead of fresh
    processes (for tests).  ``smoke`` shrinks the workload's pass.
    """
    if workload_name not in WORKLOADS:
        raise ValueError(f"unknown workload {workload_name!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name](
        seed, OUT_DIR, reference if reference is not None else load_reference(), smoke=smoke
    )
    try:
        if not trace:
            return _measure_end_to_end(workload, seed, seconds, setup_repeats)
        return _measure_layers(
            workload, seed, seconds, trace_path or OUT_DIR / f"{workload_name}.seed{seed}.trace.json"
        )
    finally:
        gc.unfreeze()


def _freeze_setup_heap() -> None:
    """Exempt the set-up heap (imports, chip models, warm caches) from GC scans.

    Without this every full collection scans the ~50k objects set-up left
    behind, a ~20 ms pause that lands in a random request and decides the
    tail percentiles from run to run.  Objects the timed passes allocate are
    still collected as usual.
    """
    gc.collect()
    gc.freeze()


def _measure_end_to_end(workload, seed: int, seconds: float, setup_repeats: int):
    if setup_repeats:
        wall, scaled = setup_seconds(workload.name, seed, setup_repeats)
        workload.setup()
    else:
        before = calibrate()
        started = time.perf_counter()
        workload.setup()
        wall = [time.perf_counter() - started]
        scaled = [wall[0] * _speed_factor(before, calibrate())]
    _freeze_setup_heap()

    phase = Phase()
    rng = random.Random(seed)
    recorder = tracing.NullRecorder()
    deadline = time.perf_counter() + seconds
    before = calibrate()
    while True:
        before = _timed_pass(phase, workload, rng, recorder, before)
        if time.perf_counter() >= deadline:
            break
    tally = phase.tally
    workload.check_end(tally)
    tally.check(_solver_counts(tally), "solver counts")
    errors = figure1_errors(workload.reference, tally)
    values = {
        "setup_s": statistics.median(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "epochs_per_s": phase.epochs_per_s,
        "success_frac": (tally.attempted - tally.failed) / tally.attempted,
        "pass_s_p50": float(np.percentile(phase.pass_s, 50)),
        "pass_s_p90": float(np.percentile(phase.pass_s, 90)),
        "request_ms_p50": 1e3 * float(np.percentile(phase.request_s, 50)),
        "request_ms_p99": 1e3 * float(np.percentile(phase.request_s, 99)),
        "fig1_xy_shift_err_c": errors["xy-shift"],
        "fig1_rotation_err_c": errors["rotation"],
    }
    raw = {
        "setup_s": statistics.median(wall),
        "pass_s_p50": float(np.percentile(tally.pass_s, 50)),
        "request_ms_p50": 1e3 * float(np.percentile(tally.request_s, 50)),
    }
    lines = [
        f"passes {len(tally.pass_s)}, requests {len(tally.request_s)}, "
        f"simulated epochs {tally.epochs}, checked operations {tally.attempted}, "
        f"failed {tally.failed}",
        f"host speed factor (reference s per wall s): median "
        f"{statistics.median(phase.factors):.3f}, range "
        f"{min(phase.factors):.3f}-{max(phase.factors):.3f}",
    ]
    for name, unit in END_TO_END.items():
        note = f"   (wall {raw[name]:.6g})" if name in raw else ""
        lines.append(f"  {name:<24} {values[name]:>14.6g} {unit}{note}")
    return _result(tally, values, END_TO_END, "\n".join(lines))


def _measure_layers(workload, seed: int, seconds: float, path: Path):
    workload.setup()
    _freeze_setup_heap()
    rng = random.Random(seed)
    untraced, traced = Phase(), Phase()
    recorder = tracing.SpanRecorder()
    deadline = time.perf_counter() + seconds
    before = calibrate()
    # Alternate untraced and traced passes so host drift hits both alike.
    while True:
        before = _timed_pass(untraced, workload, rng, tracing.NullRecorder(), before)
        installed = tracing.install(recorder)
        try:
            before = _timed_pass(traced, workload, rng, recorder, before)
        finally:
            installed.restore()
        if time.perf_counter() >= deadline:
            break
    tally = traced.tally
    tally.absorb(untraced.tally)
    workload.check_end(tally)
    tally.check(_solver_counts(tally), "solver counts")
    recorder.write_chrome_trace(path, workload.name)
    from repro.obs import validate_chrome_trace

    tally.check(validate_chrome_trace(path), f"trace file {path}")
    values = _per_layer_values(recorder, tally, traced.factor)
    values["trace.overhead_frac"] = 1.0 - traced.epochs_per_s / untraced.epochs_per_s
    return _result(tally, values, PER_LAYER, _per_layer_report(recorder, values, traced, path))


def _result(tally: Tally, values, units, report: str) -> Dict[str, object]:
    for failure in tally.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(report, file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def _per_layer_values(recorder, tally: Tally, factor: float) -> Dict[str, float]:
    """Per traced pass; times in reference seconds (``factor`` per wall second)."""
    passes = recorder.layer(tracing.PASS_SPAN).calls
    values: Dict[str, float] = {}
    for layer in tracing.LAYERS:
        stats = recorder.layer(layer)
        values[f"{layer}.calls"] = stats.calls / passes
        values[f"{layer}.self_s"] = stats.self_s * factor / passes
        values[f"{layer}.errors"] = float(stats.errors)
    extra = {
        "thermal.transient_sequence.intervals": ("thermal.transient_sequence", "intervals"),
        "thermal.steady_temperatures.rows": ("thermal.steady_temperatures", "rows"),
        "stream.checkpoint_save.bytes": ("stream.checkpoint_save", "bytes"),
    }
    for name, (layer, key) in extra.items():
        values[name] = recorder.layer(layer).extra.get(key, 0.0) / passes
    steady, sequences = tally.solver_counts[0]
    values["thermal.steady_solve_count"] = float(steady)
    values["thermal.transient_sequence_count"] = float(sequences)
    step = recorder.layer("core.experiment.step_window").extra
    hits = step.get("migration_cache_hits", 0.0)
    lookups = hits + step.get("migration_cache_misses", 0.0)
    values["core.controller.migration_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    effort = recorder.layer("ldpc.decoder_effort")
    values["ldpc.probe_hit_ratio"] = (
        effort.extra.get("probe_hits", 0.0) / effort.calls if effort.calls else 0.0
    )
    values["bench.unattributed.self_s"] = (
        recorder.layer(tracing.REQUEST_SPAN).self_s * factor / passes
    )
    return values


def _per_layer_report(recorder, values: Dict[str, float], traced: Phase, path: Path) -> str:
    passes = recorder.layer(tracing.PASS_SPAN).calls
    request_s = recorder.layer(tracing.REQUEST_SPAN).total_s * traced.factor / passes
    rows: Tuple[str, ...] = tuple(
        sorted(
            tracing.LAYERS + (tracing.REQUEST_SPAN,),
            key=lambda layer: recorder.layer(layer).self_s,
            reverse=True,
        )
    )
    lines = [
        f"traced passes {passes}; per pass: request time {request_s * 1e3:.3f} ms "
        "(reference ms)",
        f"  {'layer':<36} {'calls':>10} {'self ms':>10} {'share':>7} {'errors':>6}",
    ]
    for layer in rows:
        stats = recorder.layer(layer)
        self_s = stats.self_s * traced.factor / passes
        label = "(unattributed request time)" if layer == tracing.REQUEST_SPAN else layer
        lines.append(
            f"  {label:<36} {stats.calls / passes:>10.1f} {self_s * 1e3:>10.3f} "
            f"{self_s / request_s if request_s else 0.0:>7.1%} {stats.errors:>6}"
        )
    lines += [
        f"  migration cache hit ratio {values['core.controller.migration_cache_hit_ratio']:.4f}, "
        f"decoder probe hit ratio {values['ldpc.probe_hit_ratio']:.4f}",
        f"  solver counts per pass: steady {values['thermal.steady_solve_count']:g}, "
        f"transient_sequence {values['thermal.transient_sequence_count']:g}",
        f"  tracing overhead {values['trace.overhead_frac']:.1%} of untraced epochs/s",
        f"  trace written to {path}",
    ]
    return "\n".join(lines)
