"""Tests for the runners: the fan-out helper and the per-cell experiment.

:func:`repro.campaign.executor.run_tasks` yields ``(index, result)`` in
completion order; :func:`resolve_workers` turns ``n_jobs`` into a worker
count (1 means serial, in-process, no pool).
:func:`repro.analysis.run_single_experiment` is the one experiment behind
every sweep point.
"""

import os
import threading
import time
from functools import partial

import pytest

from repro.analysis import run_period_sweep, run_single_experiment
from repro.campaign.executor import resolve_workers, run_tasks
from repro.chips import get_configuration


def _square(value):
    return value * value


def _fail():
    raise RuntimeError("worker failure")


def _in_task_order(tasks, **kwargs):
    results = [None] * len(tasks)
    for index, result in run_tasks(tasks, **kwargs):
        results[index] = result
    return results


class TestResolveJobs:
    def test_serial_defaults(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(1, 10) == 1

    def test_capped_by_tasks(self):
        assert resolve_workers(8, 3) == 3

    def test_all_cpus(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 6)
        assert resolve_workers(-1, 100) == 6
        assert resolve_workers(-1, 4) == 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            resolve_workers(0, 4)
        with pytest.raises(ValueError):
            resolve_workers(-2, 4)
        with pytest.raises(ValueError):
            list(run_tasks([partial(_square, 1)], n_jobs=0))


class TestRunParallelIter:
    def test_serial_plan_yields_in_task_order(self):
        tasks = [partial(_square, value) for value in range(5)]
        assert list(run_tasks(tasks)) == [
            (index, index * index) for index in range(5)
        ]

    def test_parallel_yields_every_result_with_its_index(self):
        tasks = [partial(_square, value) for value in range(8)]
        seen = dict(run_tasks(tasks, n_jobs=4, executor="thread"))
        assert seen == {index: index * index for index in range(8)}

    def test_failure_propagates_and_pool_survives(self):
        with pytest.raises(RuntimeError, match="worker failure"):
            list(
                run_tasks(
                    [partial(_square, 1), _fail, partial(_square, 2)],
                    n_jobs=2,
                    executor="thread",
                )
            )
        # Each call owns its pool, so the next call starts clean.
        assert _in_task_order(
            [partial(_square, 3)] * 2, n_jobs=2, executor="thread"
        ) == [9, 9]

    def test_abandoned_generator_cleans_up(self):
        tasks = [partial(_square, value) for value in range(16)]
        iterator = run_tasks(tasks, n_jobs=2, executor="thread")
        next(iterator)
        iterator.close()  # must cancel/drain, not raise
        assert _in_task_order(
            [partial(_square, 5)] * 2, n_jobs=2, executor="thread"
        ) == [25, 25]

    def test_failure_cancels_tasks_that_have_not_started(self):
        sibling_started = threading.Event()
        finished = []

        def slow(index):
            sibling_started.set()
            time.sleep(0.1)
            finished.append(index)
            return index

        def fail_once_sibling_runs():
            assert sibling_started.wait(timeout=5)
            raise RuntimeError("worker failure")

        tail = 8
        tasks = [fail_once_sibling_runs] + [partial(slow, i) for i in range(tail)]
        with pytest.raises(RuntimeError, match="worker failure"):
            list(run_tasks(tasks, n_jobs=2, executor="thread"))
        # Running tasks are drained before the raise; queued ones never run.
        drained = list(finished)
        assert len(drained) < tail
        time.sleep(0.3)
        assert finished == drained


class TestRunParallel:
    def test_serial_path_preserves_order(self):
        tasks = [partial(_square, value) for value in range(6)]
        assert _in_task_order(tasks) == [0, 1, 4, 9, 16, 25]

    @pytest.mark.parametrize("executor", ["process", "thread"])
    def test_parallel_results_in_task_order(self, executor):
        tasks = [partial(_square, value) for value in range(8)]
        assert _in_task_order(tasks, n_jobs=4, executor=executor) == [
            value * value for value in range(8)
        ]

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="worker failure"):
            list(run_tasks([_fail, _fail], n_jobs=2, executor="thread"))

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="executor"):
            list(run_tasks([partial(_square, 2)], n_jobs=2, executor="mpi"))

    def test_empty_task_list(self):
        assert list(run_tasks([], n_jobs=4)) == []

    def test_serial_plan_runs_in_the_calling_thread(self):
        caller = threading.get_ident()
        tasks = [threading.get_ident] * 3
        assert _in_task_order(tasks, n_jobs=1) == [caller] * 3

    def test_process_pool_runs_in_other_processes(self):
        pids = _in_task_order([os.getpid] * 2, n_jobs=2, executor="process")
        assert os.getpid() not in pids


class TestExperimentHelpers:
    def test_single_experiment_matches_grid_entry(self):
        chip = get_configuration("A")
        single = run_single_experiment(chip, "xy-shift", 109.0, mode="steady", num_epochs=5)
        sweep = run_period_sweep(
            chip, "xy-shift", periods_us=[109.0], mode="steady", num_epochs=5
        )
        assert len(sweep.points) == 1
        assert sweep.points[0].settled_peak_celsius == single.settled_peak_celsius
        assert sweep.points[0].throughput_penalty == single.throughput_penalty
