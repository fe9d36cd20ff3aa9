"""Benchmark-side tracing: wrappers around the public calls of each layer.

Nothing here lives inside the program.  :func:`install` replaces each call
listed in :data:`LAYERS` at the name its caller resolves (a class attribute
for methods, a module global for functions imported by name) with a wrapper
that opens a span on a :class:`SpanRecorder`, and returns a handle whose
``restore()`` puts every original back.  Untraced runs never call
:func:`install`.

Spans carry an id, their parent's id and the id of the benchmark request
they belong to.  Self time (span duration minus the time of its child
spans) is accumulated online per layer, so the aggregates cover every span
while only the first :data:`MAX_EVENTS` spans are kept for the Chrome
trace-event export.
"""

from __future__ import annotations

import functools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

#: Spans kept in memory for the trace file; aggregates cover all spans.
MAX_EVENTS = 100_000

#: Layer names, in report order.  Each gets ``.calls``, ``.self_s`` and
#: ``.errors`` per-layer metrics.
LAYERS: Tuple[str, ...] = (
    "core.experiment.step_window",
    "core.policy.decide",
    "core.controller.apply_migration",
    "core.controller.advance_plan",
    "core.controller.epoch_power_vector",
    "power.trace.add_interval",
    "migration.congestion_factor",
    "noc.cost_probe",
    "noc.rate_latencies",
    "thermal.transient_sequence",
    "thermal.steady_temperatures",
    "stream.parse",
    "stream.checkpoint_save",
    "campaign.job_keys",
    "campaign.cache_put",
    "campaign.journal_append",
    "campaign.cache_get",
    "campaign.replay",
    "scenarios.compile_scenario",
    "ldpc.decoder_effort",
    "ldpc.decode_batch",
)

#: Benchmark-owned root spans (one pass, one timed request).
PASS_SPAN = "bench.pass"
REQUEST_SPAN = "bench.request"


@dataclass
class LayerStats:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    #: Layer-specific counts (rows, intervals, bytes, cache hits, ...).
    extra: Dict[str, float] = field(default_factory=dict)

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount


class _Frame:
    __slots__ = ("name", "span_id", "parent_id", "request_id", "start", "child_s")

    def __init__(self, name, span_id, parent_id, request_id, start):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.request_id = request_id
        self.start = start
        self.child_s = 0.0


class SpanRecorder:
    """In-memory span stack for one thread (the benchmark is single-threaded)."""

    def __init__(self, max_events: int = MAX_EVENTS) -> None:
        self.max_events = max_events
        self.stats: Dict[str, LayerStats] = {}
        #: (name, start_s, duration_s, span_id, parent_id, request_id)
        self.events: List[Tuple[str, float, float, int, int, int]] = []
        self.dropped = 0
        self._stack: List[_Frame] = []
        self._next_id = 1
        self._origin = time.perf_counter()

    def layer(self, name: str) -> LayerStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = LayerStats()
        return stats

    def open(self, name: str) -> _Frame:
        parent = self._stack[-1] if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        if parent is None:
            parent_id, request_id = 0, 0
        else:
            parent_id = parent.span_id
            request_id = parent.request_id
        if name == REQUEST_SPAN:
            request_id = span_id
        frame = _Frame(name, span_id, parent_id, request_id, time.perf_counter())
        self._stack.append(frame)
        return frame

    def close(self, frame: _Frame, error: bool) -> None:
        end = time.perf_counter()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        duration = end - frame.start
        stats = self.layer(frame.name)
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += max(0.0, duration - frame.child_s)
        if error:
            stats.errors += 1
        if self._stack:
            self._stack[-1].child_s += duration
        if len(self.events) < self.max_events:
            self.events.append(
                (
                    frame.name,
                    frame.start - self._origin,
                    duration,
                    frame.span_id,
                    frame.parent_id,
                    frame.request_id,
                )
            )
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self.open(name)
        ok = False
        try:
            yield
            ok = True
        finally:
            self.close(frame, error=not ok)

    # ------------------------------------------------------------------
    def chrome_payload(self, workload: str) -> Dict[str, object]:
        """Chrome trace-event JSON (complete "X" events plus track names)."""
        pid = os.getpid()
        events: List[Dict[str, object]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
             "args": {"name": f"perfbench {workload}"}},
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": 1,
             "args": {"name": "main"}},
        ]
        for name, start, duration, span_id, parent_id, request_id in self.events:
            events.append(
                {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round(start * 1e6, 3),
                    "dur": round(duration * 1e6, 3),
                    "pid": pid,
                    "tid": 1,
                    "args": {"id": span_id, "parent": parent_id, "request": request_id},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tool": "perfbench",
                "workload": workload,
                "events": len(self.events),
                "dropped_events": self.dropped,
            },
        }

    def write_chrome_trace(self, path: Path, workload: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_payload(workload)) + "\n", encoding="utf-8")


class NullRecorder:
    """The untraced stand-in: root spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(recorder: SpanRecorder, name: str, func: Callable, before=None, after=None):
    """A span around ``func``; ``before``/``after`` add layer-specific counts."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        token = before(args, kwargs) if before is not None else None
        frame = recorder.open(name)
        ok = False
        try:
            result = func(*args, **kwargs)
            ok = True
        finally:
            recorder.close(frame, error=not ok)
        if after is not None:
            after(recorder.layer(name), args, kwargs, result, token)
        return result

    return wrapper


def _count_intervals(stats, args, kwargs, result, token):
    intervals = kwargs["intervals"] if "intervals" in kwargs else args[1]
    stats.add("intervals", len(intervals))


def _count_rows(stats, args, kwargs, result, token):
    rows = kwargs["power_rows"] if "power_rows" in kwargs else args[1]
    shape = getattr(rows, "shape", None)
    stats.add("rows", shape[0] if shape is not None and len(shape) == 2 else 1)


def _journal_size(args, kwargs):
    return _file_size(args[0].path)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_checkpoint_bytes(stats, args, kwargs, result, before_size):
    # Bytes the save left behind: the appended line, or the whole rewritten
    # journal when the save compacted it.
    after_size = _file_size(args[0].path)
    stats.add("bytes", after_size - before_size if after_size >= before_size else after_size)


def _controller_counts(args, kwargs):
    controller = args[0].controller
    return controller.migration_cache_hits, controller.migration_cost_computations


def _count_controller_cache(stats, args, kwargs, result, token):
    controller = args[0].controller
    hits, misses = token
    stats.add("migration_cache_hits", controller.migration_cache_hits - hits)
    stats.add("migration_cache_misses", controller.migration_cost_computations - misses)


def _decode_calls_hook(recorder: SpanRecorder):
    def before(args, kwargs):
        return recorder.layer("ldpc.decode_batch").calls

    def after(stats, args, kwargs, result, calls_before):
        # A decoder-effort call that ran no decode batch was served entirely
        # from the process-wide probe cache.
        if recorder.layer("ldpc.decode_batch").calls == calls_before:
            stats.add("probe_hits", 1)

    return before, after


def _targets(recorder: SpanRecorder):
    """(owner, attribute, layer, before, after) for every patched call site."""
    import repro.campaign.cache as cache
    import repro.campaign.executor as executor
    import repro.campaign.manifest as manifest
    import repro.core.controller as controller
    import repro.core.experiment as experiment
    import repro.core.policy as policy
    import repro.ldpc.decoder as dense
    import repro.ldpc.sparse as sparse
    import repro.power.trace as power_trace
    import repro.scenarios.compile as compile_module
    import repro.scenarios.noc_cost as noc_cost
    import repro.stream.checkpoint as checkpoint
    import repro.stream.engine as stream_engine
    import repro.stream.window as window
    import repro.thermal.hotspot as hotspot

    effort_before, effort_after = _decode_calls_hook(recorder)
    controller_cls = controller.RuntimeReconfigurationController
    policies = [
        cls
        for cls in vars(policy).values()
        if isinstance(cls, type)
        and issubclass(cls, policy.ReconfigurationPolicy)
        and "decide" in vars(cls)
        and not getattr(cls.decide, "__isabstractmethod__", False)
    ]
    targets = [
        (experiment.ThermalExperiment, "step_window", "core.experiment.step_window",
         _controller_counts, _count_controller_cache),
        *[(cls, "decide", "core.policy.decide", None, None) for cls in policies],
        (controller_cls, "apply_migration", "core.controller.apply_migration", None, None),
        (controller_cls, "advance_plan", "core.controller.advance_plan", None, None),
        (controller_cls, "epoch_power_vector", "core.controller.epoch_power_vector",
         None, None),
        (power_trace.PowerTrace, "add_interval", "power.trace.add_interval", None, None),
        # Imported by name into repro.core.experiment.
        (experiment, "congestion_factor", "migration.congestion_factor", None, None),
        (noc_cost.NocCostModel, "probe", "noc.cost_probe", None, None),
        (compile_module, "rate_noc_latencies", "noc.rate_latencies", None, None),
        (stream_engine, "rate_noc_latencies", "noc.rate_latencies", None, None),
        (hotspot.HotSpotModel, "transient_sequence", "thermal.transient_sequence",
         None, _count_intervals),
        (hotspot.HotSpotModel, "steady_temperatures", "thermal.steady_temperatures",
         None, _count_rows),
        (window.EpochWindow, "from_json_line", "stream.parse", None, None),
        (checkpoint.CheckpointStore, "save", "stream.checkpoint_save",
         _journal_size, _count_checkpoint_bytes),
        (executor, "compute_job_keys", "campaign.job_keys", None, None),
        (cache.ResultCache, "put", "campaign.cache_put", None, None),
        (cache.ResultCache, "get", "campaign.cache_get", None, None),
        (manifest, "append_journal_entry", "campaign.journal_append", None, None),
        (manifest, "replay_journal", "campaign.replay", None, None),
        (compile_module, "compile_scenario", "scenarios.compile_scenario", None, None),
        (stream_engine, "compile_scenario", "scenarios.compile_scenario", None, None),
        (compile_module, "decoder_effort", "ldpc.decoder_effort",
         effort_before, effort_after),
        (stream_engine, "decoder_effort", "ldpc.decoder_effort",
         effort_before, effort_after),
    ]
    # decode_batch is inherited from private bases; shadow it on each public
    # decoder class, which is where ``decoder.decode_batch`` resolves.
    for cls in (
        sparse.SparseMinSumDecoder,
        sparse.SparseSumProductDecoder,
        dense.MinSumDecoder,
        dense.SumProductDecoder,
    ):
        targets.append((cls, "decode_batch", "ldpc.decode_batch", None, None))
    return targets


class Installed:
    """Handle on the installed wrappers; :meth:`restore` removes them all."""

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every call site of :data:`LAYERS` so it records on ``recorder``."""
    installed = Installed()
    try:
        for owner, attribute, layer, before, after in _targets(recorder):
            _patch(installed, recorder, owner, attribute, layer, before, after)
    except BaseException:
        installed.restore()
        raise
    return installed


def _patch(installed, recorder, owner, attribute, layer, before, after) -> None:
    if isinstance(owner, type):
        own = attribute in vars(owner)
        raw = vars(owner)[attribute] if own else getattr(owner, attribute)
    else:
        own = True
        raw = getattr(owner, attribute)
    if isinstance(raw, classmethod):
        replacement = classmethod(_wrap(recorder, layer, raw.__func__, before, after))
    else:
        replacement = _wrap(recorder, layer, raw, before, after)
    setattr(owner, attribute, replacement)

    def undo() -> None:
        if own:
            setattr(owner, attribute, raw)
        else:
            delattr(owner, attribute)

    installed._undo.append(undo)
