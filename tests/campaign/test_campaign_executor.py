"""End-to-end campaign execution: cache, resume, sharding, dry runs."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro import obs
from repro.campaign import CampaignSpec, campaign_status, run_campaign
from repro.campaign import executor as executor_module
from repro.campaign import manifest
from repro.chips import get_configuration

from test_campaign_spec import cheap_scenario


def grid_spec(name="grid", scenarios=None, **overrides):
    params = dict(
        name=name,
        scenarios=scenarios or (cheap_scenario("s1"), cheap_scenario("s2")),
        configurations=("A", "B"),
        schemes=("xy-shift", "rotation"),
    )
    params.update(overrides)
    return CampaignSpec(**params)


def result_payloads(run):
    return [result.to_dict() for result in run.results]


def journal_results(directory):
    """Journal lines minus wall time, as a sorted list of canonical JSON.

    Completion order may differ between plans, so the lines compare as a
    multiset.
    """
    lines = []
    for entry in manifest.load_journal(directory):
        entry = {key: value for key, value in entry.items() if key != "wall_s"}
        lines.append(json.dumps(entry, sort_keys=True))
    return sorted(lines)


class TestColdRun:
    def test_evaluates_every_job_and_reports(self, tmp_path):
        spec = grid_spec()
        run = run_campaign(spec, tmp_path / "camp")
        assert run.evaluated == len(run.jobs) == 8
        assert run.cache_hits == 0 and run.resumed == 0
        assert all(result is not None for result in run.results)
        assert run.report is not None and run.report.jobs == 8
        assert manifest.load_report(tmp_path / "camp") == run.report.to_dict()
        assert len(manifest.load_journal(tmp_path / "camp")) == 8

    def test_duplicate_grid_cells_evaluate_once(self, tmp_path):
        twin = cheap_scenario("twin")
        spec = CampaignSpec(name="twins", scenarios=(twin, twin))
        run = run_campaign(spec, tmp_path / "camp")
        assert len(run.jobs) == 2
        assert run.evaluated == 1
        assert run.results[0] == run.results[1]


class TestWarmRun:
    def test_zero_evaluations_and_bit_identical_results(self, tmp_path):
        spec = grid_spec()
        cold = run_campaign(spec, tmp_path / "camp")
        solvers = [
            get_configuration(name).thermal_model.solver
            for name in spec.configurations
        ]
        solves_before = [solver.steady_solve_count for solver in solvers]
        warm = run_campaign(spec, tmp_path / "camp")
        assert warm.evaluated == 0
        assert warm.resumed == len(warm.jobs)
        # The hard guarantee: a warm re-run performs no scenario
        # evaluations — the shared chips' solver counters do not move.
        assert [solver.steady_solve_count for solver in solvers] == solves_before
        assert result_payloads(warm) == result_payloads(cold)

    def test_fresh_directory_shared_cache_hits_everything(self, tmp_path):
        spec = grid_spec()
        shared = tmp_path / "shared-cache"
        cold = run_campaign(spec, tmp_path / "one", cache_root=shared)
        warm = run_campaign(spec, tmp_path / "two", cache_root=shared)
        assert warm.evaluated == 0
        assert warm.cache_hits == len(warm.jobs)
        assert warm.resumed == 0
        assert result_payloads(warm) == result_payloads(cold)

    def test_overlapping_campaign_shares_cache_entries(self, tmp_path):
        shared = tmp_path / "shared-cache"
        run_campaign(grid_spec(), tmp_path / "one", cache_root=shared)
        # A differently shaped campaign whose grid overlaps on (s1, A/B x
        # xy-shift): those four cells must be cache hits.
        overlap = CampaignSpec(
            name="overlap",
            scenarios=(cheap_scenario("s1"),),
            configurations=("A", "B"),
            schemes=("xy-shift", "right-shift"),
        )
        run = run_campaign(overlap, tmp_path / "two", cache_root=shared)
        assert run.cache_hits == 2
        assert run.evaluated == 2


class TestInvalidation:
    def test_scenario_edit_invalidates_only_its_jobs(self, tmp_path):
        spec = grid_spec()
        run_campaign(spec, tmp_path / "camp")
        edited = grid_spec(
            scenarios=(cheap_scenario("s1"), cheap_scenario("s2", num_epochs=7))
        )
        rerun = run_campaign(edited, tmp_path / "camp")
        # Only s2's 4 cells re-run; s1's replay from the journal.
        assert rerun.evaluated == 4
        assert rerun.resumed == 4
        assert all(job.axes["scenario"] == "s2"
                   for job, result in zip(rerun.jobs, rerun.results)
                   if job.job_id not in
                   {j.job_id for j in spec.expand()})

    def test_code_fingerprint_change_invalidates_everything(
        self, tmp_path, monkeypatch
    ):
        spec = grid_spec()
        run_campaign(spec, tmp_path / "camp")
        monkeypatch.setattr(
            executor_module, "code_fingerprint", lambda groups, root=None: "0" * 64
        )
        rerun = run_campaign(spec, tmp_path / "camp")
        assert rerun.evaluated == len(rerun.jobs)
        assert rerun.resumed == 0

    def test_different_campaign_name_refused(self, tmp_path):
        run_campaign(grid_spec(), tmp_path / "camp")
        with pytest.raises(ValueError, match="belongs to campaign"):
            run_campaign(grid_spec(name="imposter"), tmp_path / "camp")


class TestResume:
    def test_killed_campaign_resumes_exactly(self, tmp_path):
        spec = grid_spec()
        complete = run_campaign(spec, tmp_path / "full")
        # Replay the first 3 journal lines plus a torn 4th into a fresh
        # directory — the on-disk state an interrupted run leaves behind.
        journal = manifest.journal_path(tmp_path / "full").read_text()
        lines = journal.splitlines(keepends=True)
        interrupted = tmp_path / "killed"
        manifest.bind_directory(interrupted, spec)
        manifest.journal_path(interrupted).write_text(
            "".join(lines[:3]) + lines[3][:20]
        )
        resumed = run_campaign(spec, interrupted)
        assert resumed.resumed == 3
        assert resumed.evaluated == len(resumed.jobs) - 3
        assert result_payloads(resumed) == result_payloads(complete)
        status = campaign_status(interrupted)
        assert status["completed"] == len(resumed.jobs)
        assert status["pending"] == 0

    def test_status_of_partial_campaign(self, tmp_path):
        spec = grid_spec()
        run_campaign(spec, tmp_path / "full")
        journal = manifest.journal_path(tmp_path / "full").read_text()
        partial = tmp_path / "partial"
        manifest.bind_directory(partial, spec)
        manifest.journal_path(partial).write_text(
            "".join(journal.splitlines(keepends=True)[:5])
        )
        status = campaign_status(partial)
        assert status["jobs"] == 8
        assert status["completed"] == 5
        assert status["pending"] == 3


class TestSharding:
    def test_sharded_results_bit_identical_to_serial(self, tmp_path):
        spec = grid_spec()
        serial = run_campaign(spec, tmp_path / "serial", n_jobs=1)
        sharded = run_campaign(
            spec, tmp_path / "sharded", n_jobs=2, executor="thread"
        )
        assert sharded.plan == (2, "thread")
        assert result_payloads(sharded) == result_payloads(serial)
        assert journal_results(tmp_path / "sharded") == journal_results(
            tmp_path / "serial"
        )


class TestProcessPool:
    @pytest.fixture
    def traced(self):
        obs.enable()
        obs.start_tracing(clear=True)
        obs.get_registry().reset()
        yield
        obs.disable()
        obs.stop_tracing()
        obs.get_registry().reset()
        obs.get_tracer().clear()

    def test_process_campaign_equals_serial(self, tmp_path):
        spec = grid_spec()
        serial = run_campaign(spec, tmp_path / "serial", n_jobs=1)
        sharded = run_campaign(
            spec, tmp_path / "proc", n_jobs=2, executor="process"
        )
        assert sharded.plan == (2, "process")
        assert sharded.evaluated == len(sharded.jobs)
        assert result_payloads(sharded) == result_payloads(serial)
        assert journal_results(tmp_path / "proc") == journal_results(
            tmp_path / "serial"
        )

    def test_worker_spans_merge_into_parent_trace(self, tmp_path, traced):
        run = run_campaign(
            grid_spec(), tmp_path / "proc", n_jobs=2, executor="process"
        )
        jobs = [e for e in obs.get_tracer().events() if e.name == "campaign.job"]
        assert len(jobs) == len(run.jobs)
        assert {e.pid for e in jobs} - {os.getpid()}
        for entry in manifest.load_journal(tmp_path / "proc"):
            assert entry["telemetry"]["counters"]["scenario.runs"] == 1


class TestPlan:
    """``CampaignRun.plan`` reports the fan-out the evaluations really used."""

    def test_all_cpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        run = run_campaign(grid_spec(), tmp_path / "camp", n_jobs=-1)
        assert run.plan == (3, "thread")

    def test_default_is_all_cpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert run_campaign(grid_spec(), tmp_path / "camp").plan == (2, "thread")

    def test_capped_by_pending_jobs(self, tmp_path):
        run = run_campaign(grid_spec(), tmp_path / "camp", n_jobs=64)
        assert run.plan == (len(run.jobs), "thread")

    def test_serial_builds_no_pool(self, tmp_path):
        run = run_campaign(grid_spec(), tmp_path / "camp", n_jobs=1)
        assert run.plan == (1, "serial")

    def test_nothing_pending_is_serial(self, tmp_path):
        run_campaign(grid_spec(), tmp_path / "camp", n_jobs=1)
        warm = run_campaign(grid_spec(), tmp_path / "camp", n_jobs=4)
        assert warm.evaluated == 0
        assert warm.plan == (1, "serial")

    def test_dry_run_forecasts_the_plan(self, tmp_path):
        forecast = run_campaign(
            grid_spec(), tmp_path / "camp", n_jobs=2, dry_run=True
        )
        assert forecast.plan == (2, "thread")

    def test_invalid_n_jobs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="n_jobs"):
            run_campaign(grid_spec(), tmp_path / "camp", n_jobs=0)


class TestDryRun:
    def test_dry_run_touches_nothing(self, tmp_path):
        spec = grid_spec()
        directory = tmp_path / "camp"
        forecast = run_campaign(spec, directory, dry_run=True)
        assert forecast.forecast_evaluations == len(forecast.jobs)
        assert forecast.evaluated == 0
        assert not directory.exists()

    def test_dry_run_forecasts_cache_hits(self, tmp_path):
        spec = grid_spec()
        directory = tmp_path / "camp"
        run_campaign(spec, directory)
        edited = grid_spec(
            scenarios=(cheap_scenario("s1"), cheap_scenario("s2", num_epochs=9))
        )
        journal_before = manifest.journal_path(directory).read_text()
        forecast = run_campaign(edited, directory, dry_run=True)
        assert forecast.resumed == 4
        assert forecast.forecast_evaluations == 4
        # Read-only: journal and spec file untouched.
        assert manifest.journal_path(directory).read_text() == journal_before
        assert manifest.load_spec(directory) == spec
