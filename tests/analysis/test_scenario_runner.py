"""Tests for running scenario suites and the comparison report."""

import threading

import pytest

from repro.analysis.report import ScenarioComparison, compare_scenarios
from repro.scenarios import get_scenario
from repro.scenarios.patterns import ConstantPattern
from repro.scenarios.spec import ScenarioSpec


def _tiny_spec(name: str, configuration: str = "A", **kwargs) -> ScenarioSpec:
    defaults = dict(
        scheme="xy-shift",
        mode="steady",
        num_epochs=5,
        settle_epochs=4,
        load=ConstantPattern(1.0),
    )
    defaults.update(kwargs)
    return ScenarioSpec(name=name, configuration=configuration, **defaults)


class TestScenarioRunner:
    def test_results_in_suite_order(self):
        specs = [_tiny_spec("first"), _tiny_spec("second", scheme="static")]
        results = compare_scenarios(specs).results
        assert [r.spec.name for r in results] == ["first", "second"]
        assert results[0].experiment.migrations_performed == 4
        assert results[1].experiment.migrations_performed == 0

    def test_thread_pool_matches_serial(self):
        specs = [_tiny_spec("a"), _tiny_spec("b", configuration="C")]
        serial = compare_scenarios(specs).results
        threaded = compare_scenarios(specs, n_jobs=2).results
        for s, t in zip(serial, threaded):
            assert t.spec.name == s.spec.name
            assert t.experiment.settled_peak_celsius == pytest.approx(
                s.experiment.settled_peak_celsius, abs=1e-12
            )

    def test_registry_suite_on_every_core_matches_serial(self):
        from repro.scenarios import all_scenarios

        specs = all_scenarios()
        serial = compare_scenarios(specs)
        parallel = compare_scenarios(specs, n_jobs=-1)
        assert serial.names() == parallel.names() == [spec.name for spec in specs]
        for s, p in zip(serial.results, parallel.results):
            assert p.experiment.settled_peak_celsius == pytest.approx(
                s.experiment.settled_peak_celsius, abs=1e-12
            )

    def test_parallel_suite_runs_on_threads(self, monkeypatch):
        # The scenario hot paths release the GIL and share process-wide
        # caches, so suites fan out over threads of this process.
        from repro.analysis import report

        seen = []
        original = report.run_scenario

        def recording(spec):
            seen.append(threading.get_ident())
            return original(spec)

        monkeypatch.setattr(report, "run_scenario", recording)
        specs = [_tiny_spec("a"), _tiny_spec("b"), _tiny_spec("c")]
        assert compare_scenarios(specs, n_jobs=2).names() == ["a", "b", "c"]
        assert len(seen) == 3
        assert threading.get_ident() not in seen

    def test_feedback_stride_override(self):
        spec = _tiny_spec(
            "fb", scheme="threshold-xy-shift",
            policy_params={"trigger_celsius": 70.0},
        )
        assert spec.feedback_stride == 1
        results = compare_scenarios(
            [spec], feedback_stride=5, feedback_predictor="previous"
        ).results
        assert results[0].spec.feedback_stride == 5
        assert results[0].spec.feedback_predictor == "previous"
        # The authored spec is untouched (specs are frozen; the override
        # replaces per task).
        assert spec.feedback_stride == 1

    def test_no_override_leaves_specs_as_authored(self):
        spec = _tiny_spec("plain")
        assert compare_scenarios([spec]).results[0].spec == spec


class TestScenarioComparison:
    @pytest.fixture(scope="class")
    def comparison(self):
        return compare_scenarios([_tiny_spec("cool"), _tiny_spec("warm", configuration="C")])

    def test_rows_carry_all_scenarios(self, comparison):
        rows = comparison.to_rows()
        assert [row["scenario"] for row in rows] == ["cool", "warm"]
        for row in rows:
            assert {"settled_peak_c", "reduction_c", "migrations"} <= set(row)

    def test_lookup_and_names(self, comparison):
        assert comparison.names() == ["cool", "warm"]
        assert comparison.result("warm").spec.configuration == "C"
        with pytest.raises(KeyError):
            comparison.result("missing")

    def test_hottest_scenario(self, comparison):
        hottest = comparison.hottest_scenario()
        peaks = {
            entry.spec.name: entry.experiment.settled_peak_celsius
            for entry in comparison.results
        }
        assert peaks[hottest] == max(peaks.values())

    def test_format_table_mentions_everything(self, comparison):
        table = comparison.format_table()
        assert "cool" in table and "warm" in table
        assert "hottest" in table

    def test_registry_default_uses_named_scenario(self):
        comparison = compare_scenarios([get_scenario("steady-baseline")])
        assert comparison.names() == ["steady-baseline"]

    def test_empty_comparison_renders_and_guards(self):
        empty = ScenarioComparison(results=[])
        assert "no scenarios" in empty.format_table()
        with pytest.raises(ValueError, match="no scenarios"):
            empty.hottest_scenario()
