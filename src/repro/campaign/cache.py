"""Content-addressed result cache for campaign jobs.

A job's cache key binds **what runs** to **the code that runs it**:

``sha256(canonical spec JSON + "\\n" + code fingerprint)``

The spec side is :meth:`repro.scenarios.spec.ScenarioSpec.canonical_json` —
sorted keys, no whitespace, repr-exact floats — so the same derived spec
hashes identically in every process on every platform.  The code side is a
fingerprint of the ``.py`` sources of the module groups the job actually
touches.  Every job depends on the "core" group: the thermal/migration/
scenario subpackages plus every module in the import closure of
:data:`EVALUATION_ENTRY`, the module holding ``evaluate_job`` — so the code
that distils a result, the NoC routing that prices each migration and the
LDPC partition that sizes its payloads are all bound, whether or not anyone
remembered to list them.  Jobs with an SNR channel additionally depend on
the whole LDPC stack, jobs with a ``noc`` channel on the whole NoC package,
and streamed jobs on the streaming engine.  Editing a scenario therefore
invalidates only that scenario's jobs; editing any module a job can reach
invalidates it, and nothing else ever does.

The cache itself is a content-addressed directory store: one JSON file per
key, fanned out over 256 two-hex-digit shards, written atomically
(temp file + ``os.replace``) so concurrent shards and interrupted campaigns
never publish torn entries.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import json
import os
import tempfile
import threading
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..scenarios.spec import ScenarioSpec

#: Module groups -> the ``repro`` subpackages whose sources they fingerprint.
#: "core" is everything a plain thermal scenario touches (and additionally
#: the import closure of :data:`EVALUATION_ENTRY`); "ldpc" and "noc" are the
#: optional channels.
MODULE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "core": (
        "chips",
        "core",
        "migration",
        "placement",
        "power",
        "scenarios",
        "thermal",
    ),
    "ldpc": ("ldpc",),
    "noc": ("noc",),
    "stream": ("stream",),
}


#: Package-relative path of the module that evaluates a job
#: (:func:`repro.campaign.spec.evaluate_job`).
EVALUATION_ENTRY = "campaign/spec.py"


def _import_time_nodes(nodes: Iterable[ast.AST]) -> Iterable[ast.AST]:
    """AST nodes that run when the module is imported (function bodies skipped)."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        yield from _import_time_nodes(ast.iter_child_nodes(node))


def _imported_modules(tree: ast.Module, package: List[str]) -> List[List[str]]:
    """Package-relative targets (as parts) of a module's import-time imports.

    Imports inside functions do not count; they are the optional groups'
    business (e.g. the streaming engine).  ``from X import name`` yields
    both ``X`` and ``X.name``, since ``name`` may be a submodule.
    """
    targets: List[List[str]] = []
    for node in _import_time_nodes(tree.body):
        if isinstance(node, ast.ImportFrom):
            module = node.module.split(".") if node.module else []
            if node.level:
                module = package[: len(package) - (node.level - 1)] + module
            elif module[:1] == ["repro"]:
                module = module[1:]
            else:
                continue
            targets.append(module)
            targets.extend(module + [alias.name] for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "repro":
                    targets.append(parts[1:])
    return targets


def import_closure(base: Path, entry: str = EVALUATION_ENTRY) -> Tuple[str, ...]:
    """Package-relative paths of the modules ``entry`` reaches by importing.

    A static walk of module-level imports that resolve to sources under
    ``base`` (the ``repro`` package directory), so it fingerprints the code
    a job runs without importing anything.  Empty when ``entry`` is absent.
    """
    seen: Set[str] = set()
    pending = [entry]
    while pending:
        rel = pending.pop()
        if rel in seen or not (base / rel).is_file():
            continue
        seen.add(rel)
        tree = ast.parse((base / rel).read_bytes(), filename=rel)
        package = rel[: -len(".py")].split("/")[:-1]
        for parts in _imported_modules(tree, package):
            pending.append("/".join(parts) + ".py")
            pending.append("/".join(parts + ["__init__.py"]))
    return tuple(sorted(seen))


def modules_for_spec(spec: ScenarioSpec) -> Tuple[str, ...]:
    """The module groups one scenario's evaluation can possibly touch."""
    groups = ["core"]
    if spec.snr_db is not None:
        groups.append("ldpc")
    if spec.noc is not None:
        groups.append("noc")
    return tuple(groups)


def _package_root() -> Path:
    import repro

    return Path(repro.__file__).resolve().parent


@functools.lru_cache(maxsize=None)
def _installed_closure() -> Tuple[str, ...]:
    """:func:`import_closure` of the installed package (parsed once)."""
    return import_closure(_package_root())


#: (root, groups) -> fingerprint hex digest; sources don't change under a
#: running process, so each combination is hashed once.
_FINGERPRINT_CACHE: Dict[Tuple[str, Tuple[str, ...]], str] = {}
_FINGERPRINT_LOCK = threading.Lock()


def code_fingerprint(
    groups: Iterable[str], root: Optional[Path] = None
) -> str:
    """SHA-256 over the ``.py`` sources of the given module groups.

    The "core" group also covers :func:`import_closure` of the evaluation
    entry.  Files are hashed in sorted relative-path order with their paths
    mixed in, so renames, additions and deletions all change the fingerprint,
    and the digest is independent of filesystem iteration order.
    """
    groups = tuple(sorted(set(groups)))
    unknown = set(groups) - set(MODULE_GROUPS)
    if unknown:
        raise ValueError(f"unknown module groups: {sorted(unknown)}")
    # Only the installed package root is memoized: its sources cannot change
    # under a running process.  Explicit roots (tests fingerprinting mutable
    # source trees) are re-hashed every call.
    memoize = root is None
    base = _package_root() if root is None else Path(root)
    key = (str(base), groups)
    if memoize:
        with _FINGERPRINT_LOCK:
            cached = _FINGERPRINT_CACHE.get(key)
        if cached is not None:
            return cached
    digest = hashlib.sha256()
    for group in groups:
        digest.update(f"[{group}]".encode("utf-8"))
        sources: Set[str] = set()
        for subpackage in MODULE_GROUPS[group]:
            package_dir = base / subpackage
            if package_dir.is_dir():
                sources.update(
                    source.relative_to(base).as_posix()
                    for source in package_dir.rglob("*.py")
                )
        if group == "core":
            sources.update(_installed_closure() if memoize else import_closure(base))
        for rel in sorted(sources):
            digest.update(rel.encode("utf-8"))
            digest.update(b"\x00")
            digest.update((base / rel).read_bytes())
            digest.update(b"\x00")
    fingerprint = digest.hexdigest()
    if memoize:
        with _FINGERPRINT_LOCK:
            _FINGERPRINT_CACHE[key] = fingerprint
    return fingerprint


def job_cache_key(
    spec: ScenarioSpec, fingerprint: str, variant: Optional[str] = None
) -> str:
    """Content-addressed key of one job: spec identity x code identity.

    ``variant`` distinguishes evaluation modes of the same spec that can
    produce different payloads — e.g. ``"stream:w8"`` for a streamed job
    driven in 8-epoch windows — so batch and streamed results never share an
    entry.  ``None`` (the batch path) keeps historical keys unchanged.
    """
    payload = spec.canonical_json() + "\n" + fingerprint
    if variant is not None:
        payload += "\n" + variant
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory-backed content-addressed store of job-result payloads.

    Entries are immutable by construction — the key commits to both the spec
    and the code, so a published payload is never rewritten with different
    content.  ``put`` is therefore a blind atomic publish and ``get`` a
    single read.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    def _entry_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload for ``key``, or None on a miss."""
        path = self._entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            # A torn entry can only come from an unclean copy of the cache
            # directory itself (writes are atomic); treat it as a miss and
            # let the next put repair it.
            return None

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Atomically publish ``payload`` under ``key``."""
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, allow_nan=False)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            raise

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("??/*.json"))
