"""Tests of the benchmark itself, at smoke size."""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import harness
from perfbench.workloads import WORKLOADS, figure1_job_id, load_reference

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(workload: str, trace: bool = False, reference=None, tmp_path=None):
    return harness.measure(
        workload,
        seed=3,
        seconds=0.01,
        trace=trace,
        setup_repeats=0,
        smoke=True,
        reference=reference,
        trace_path=tmp_path / "smoke.trace.json" if tmp_path is not None else None,
    )


def test_spec_names_the_workloads_and_metrics_the_code_reports():
    assert [item["name"] for item in SPEC["workloads"]] == list(WORKLOADS)
    assert {item["name"]: item["unit"] for item in SPEC["end_to_end"]} == harness.END_TO_END
    assert {item["name"]: item["unit"] for item in SPEC["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_smoke_reports_every_end_to_end_metric(workload):
    result = _smoke(workload)
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(harness.END_TO_END)
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_smoke_reports_layers_and_a_valid_trace(workload, tmp_path):
    result = _smoke(workload, trace=True, tmp_path=tmp_path)
    assert result["correct"], result
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert list(metrics) == list(harness.PER_LAYER)
    # NoC pricing runs only in the registry suite.
    assert (metrics["noc.cost_probe.calls"] > 0) == (workload == "registry_suite.warm")
    assert metrics["core.policy.decide.calls"] > 0
    from repro.obs import validate_chrome_trace

    assert validate_chrome_trace(tmp_path / "smoke.trace.json") == []


def test_tracing_restores_every_patched_call():
    import repro.core.experiment as experiment
    import repro.ldpc.sparse as sparse
    from perfbench import tracing

    originals = (
        experiment.congestion_factor,
        experiment.ThermalExperiment.step_window,
        vars(sparse.SparseMinSumDecoder).get("decode_batch"),
    )
    installed = tracing.install(tracing.SpanRecorder())
    assert experiment.congestion_factor is not originals[0]
    installed.restore()
    assert (
        experiment.congestion_factor,
        experiment.ThermalExperiment.step_window,
        vars(sparse.SparseMinSumDecoder).get("decode_batch"),
    ) == originals


@pytest.mark.parametrize(
    "workload, path",
    [
        ("registry_suite.warm", ("registry", "steady-baseline", "settled_peak_celsius")),
        ("campaign.cold100", ("campaign", figure1_job_id("C", "rotation"), "settled_mean_celsius")),
    ],
)
def test_perturbed_reference_value_is_reported_as_a_failure(workload, path):
    reference = copy.deepcopy(load_reference())
    section, key, field = path
    reference[section][key][field] *= 1 + 1e-7
    result = _smoke(workload, reference=reference)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["success_frac"]["value"] < 1.0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    env = dict(os.environ)
    # Even with the real program importable, the benchmark insists on the
    # copy in its own checkout.
    env["PYTHONPATH"] = str(ROOT / "src")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve.windows",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
