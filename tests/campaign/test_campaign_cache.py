"""Content-addressed cache keys: fingerprints, invalidation, determinism."""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import (
    ResultCache,
    code_fingerprint,
    job_cache_key,
    modules_for_spec,
)
from repro.campaign.cache import import_closure
from repro.scenarios import NocChannel, ScenarioSpec, get_scenario
from repro.scenarios.patterns import RampPattern

from test_campaign_spec import cheap_scenario


class TestModulesForSpec:
    def test_core_only_for_plain_scenarios(self):
        assert modules_for_spec(cheap_scenario()) == ("core",)

    def test_snr_channel_adds_ldpc(self):
        spec = cheap_scenario(snr_db=RampPattern(start=3.0, end=2.0))
        assert modules_for_spec(spec) == ("core", "ldpc")

    def test_noc_channel_adds_noc(self):
        spec = cheap_scenario(noc=NocChannel())
        assert modules_for_spec(spec) == ("core", "noc")


class TestCodeFingerprint:
    def _tree(self, root: Path) -> Path:
        for group in ("core", "ldpc", "noc"):
            (root / group).mkdir(parents=True)
            (root / group / "mod.py").write_text(f"VALUE = {group!r}\n")
        return root

    def test_stable_for_unchanged_sources(self, tmp_path):
        root = self._tree(tmp_path)
        assert code_fingerprint(("core",), root) == code_fingerprint(("core",), root)

    def test_edit_changes_fingerprint(self, tmp_path):
        root = self._tree(tmp_path)
        before = code_fingerprint(("core",), root)
        (root / "core" / "mod.py").write_text("VALUE = 'edited'\n")
        assert code_fingerprint(("core",), root) != before

    def test_rename_changes_fingerprint(self, tmp_path):
        root = self._tree(tmp_path)
        before = code_fingerprint(("core",), root)
        (root / "core" / "mod.py").rename(root / "core" / "renamed.py")
        assert code_fingerprint(("core",), root) != before

    def test_groups_are_independent(self, tmp_path):
        root = self._tree(tmp_path)
        core_before = code_fingerprint(("core",), root)
        both_before = code_fingerprint(("core", "ldpc"), root)
        (root / "ldpc" / "mod.py").write_text("VALUE = 'edited'\n")
        assert code_fingerprint(("core",), root) == core_before
        assert code_fingerprint(("core", "ldpc"), root) != both_before

    def test_group_order_is_irrelevant(self, tmp_path):
        root = self._tree(tmp_path)
        assert code_fingerprint(("ldpc", "core"), root) == code_fingerprint(
            ("core", "ldpc"), root
        )

    def test_unknown_group_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown module groups"):
            code_fingerprint(("warp-drive",), tmp_path)

    def test_default_root_covers_real_package(self):
        fingerprint = code_fingerprint(("core", "ldpc", "noc"))
        assert len(fingerprint) == 64
        # Memoized: the second call must agree.
        assert code_fingerprint(("core", "ldpc", "noc")) == fingerprint


class TestEvaluationPathFingerprint:
    """Every module a plain job's evaluation imports is bound into its key."""

    def _package_copy(self, tmp_path: Path) -> Path:
        import repro

        root = tmp_path / "repro"
        shutil.copytree(
            Path(repro.__file__).resolve().parent,
            root,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        return root

    def _key(self, spec, root: Path) -> str:
        return job_cache_key(spec, code_fingerprint(modules_for_spec(spec), root))

    def test_closure_covers_distillation_and_migration_routing(self, tmp_path):
        closure = import_closure(self._package_copy(tmp_path))
        for module in (
            "campaign/spec.py",
            "noc/routing.py",
            "noc/topology.py",
            "core/controller.py",
        ):
            assert module in closure
        # The streaming engine is imported lazily; its group covers it.
        assert not any(rel.startswith("stream/") for rel in closure)

    @pytest.mark.parametrize("module", ["noc/routing.py", "campaign/spec.py"])
    def test_editing_evaluation_module_changes_plain_job_key(self, tmp_path, module):
        root = self._package_copy(tmp_path)
        spec = get_scenario("steady-baseline")
        assert modules_for_spec(spec) == ("core",)
        before = self._key(spec, root)
        assert self._key(spec, root) == before
        with open(root / module, "a", encoding="utf-8") as handle:
            handle.write("\n# edited\n")
        assert self._key(spec, root) != before

    def test_one_module_per_reached_subpackage_is_bound(self, tmp_path):
        root = self._package_copy(tmp_path)
        spec = get_scenario("steady-baseline")
        sampled = {}
        for rel in import_closure(root):
            sampled.setdefault(rel.split("/")[0], rel)
        assert {"chips", "core", "ldpc", "migration", "noc", "obs"} <= set(sampled)
        keys = {self._key(spec, root)}
        for module in sampled.values():
            with open(root / module, "a", encoding="utf-8") as handle:
                handle.write("\n# edited\n")
            keys.add(self._key(spec, root))
        assert len(keys) == len(sampled) + 1

    def test_unreached_module_leaves_key_alone(self, tmp_path):
        root = self._package_copy(tmp_path)
        spec = get_scenario("steady-baseline")
        before = self._key(spec, root)
        (root / "stream" / "engine.py").write_text("# edited\n")
        assert self._key(spec, root) == before


class TestJobCacheKey:
    def test_same_spec_same_code_same_key(self):
        spec = cheap_scenario()
        assert job_cache_key(spec, "f" * 64) == job_cache_key(spec, "f" * 64)

    def test_spec_edit_changes_key(self):
        import dataclasses

        spec = cheap_scenario()
        edited = dataclasses.replace(spec, num_epochs=7)
        assert job_cache_key(spec, "f" * 64) != job_cache_key(edited, "f" * 64)

    def test_fingerprint_change_changes_key(self):
        spec = cheap_scenario()
        assert job_cache_key(spec, "a" * 64) != job_cache_key(spec, "b" * 64)

    def test_key_is_identical_across_processes(self):
        """The whole point of content addressing: no per-process salt."""
        spec = cheap_scenario(
            period_us=109.7,
            noc=NocChannel(injection_rate=0.0123, traffic_kwargs={"hotspots": [[1, 1]]}),
            snr_db=RampPattern(start=3.0, end=1.25),
        )
        spec = ScenarioSpec.from_json(spec.to_json())
        here = job_cache_key(spec, "ab" * 32)
        script = (
            "import sys, json\n"
            "from repro.scenarios import ScenarioSpec\n"
            "from repro.campaign import job_cache_key\n"
            "spec = ScenarioSpec.from_json(sys.stdin.read())\n"
            "print(job_cache_key(spec, 'ab' * 32))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        completed = subprocess.run(
            [sys.executable, "-c", script],
            input=spec.to_json(),
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "random"},
            check=True,
        )
        assert completed.stdout.strip() == here


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        cache.put(key, {"value": 1.25})
        assert cache.get(key) == {"value": 1.25}
        assert len(cache) == 1

    def test_entries_shard_by_prefix(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "1" * 62
        cache.put(key, {})
        assert (tmp_path / "cd" / f"{key}.json").exists()

    def test_torn_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "2" * 62
        (tmp_path / "ef").mkdir(parents=True)
        (tmp_path / "ef" / f"{key}.json").write_text('{"value": 1')
        assert cache.get(key) is None
        cache.put(key, {"value": 2})
        assert cache.get(key) == {"value": 2}

    def test_no_temp_files_left_behind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("aa" + "3" * 62, {"x": 1})
        leftovers = [p for p in tmp_path.rglob("*") if p.name.startswith(".tmp-")]
        assert leftovers == []
