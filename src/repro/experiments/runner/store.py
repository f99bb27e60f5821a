"""Content-addressed result store for scenario runs.

Extends the ``.repro_cache/`` pre-train cache (see
:func:`repro.experiments.common.get_cache_dir`) with two kinds of entries:

``results/<experiment>/<spec-hash>.json``
    The JSON result of one completed scenario, wrapped with its spec and a
    timestamp.  Keyed by the spec's content hash, so a changed scenario
    definition can never resurrect a stale result — it simply hashes
    elsewhere.

``stages/<stage-hash>.npz``
    Derived intermediate states shared by several scenarios (e.g. the
    NIA-fine-tuned weights that Table II's ``NIA``, ``NIA+GBO`` and
    ``NIA+PLA`` rows all start from).  Stage keys include their own derived
    seed, so a stage loaded from disk is bit-identical to one recomputed in
    place.

All writes are atomic (temp file + ``os.replace``), so a killed run leaves
no partial entries and concurrent workers can race on the same stage without
corruption.
"""

from __future__ import annotations

import copy
import json
import os
import time
from typing import Any, Callable, Dict, Mapping, Optional

import numpy as np

from repro.experiments.runner.spec import ScenarioSpec, stable_hash
from repro.utils.logging import get_logger
from repro.utils.serialization import atomic_write

LOGGER = get_logger("repro.runner.store")

STORE_FORMAT = 1


def _atomic_write_text(path: str, text: str) -> None:
    def write(tmp: str) -> None:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)

    atomic_write(path, write)


def _jsonify(value: Any) -> Any:
    """Coerce numpy scalars/arrays into plain JSON-serialisable python."""
    if isinstance(value, np.ndarray):
        return [_jsonify(item) for item in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    return value


class ResultStore:
    """On-disk scenario-result and stage-state store.

    Parameters
    ----------
    root:
        Store directory.  Defaults (lazily, at first use) to
        ``<cache-dir>/runner`` so the scenario cache lives next to the
        pre-train cache and honours ``REPRO_CACHE_DIR``.
    """

    def __init__(self, root: Optional[str] = None):
        self._root = root

    @property
    def root(self) -> str:
        if self._root is None:
            from repro.experiments.common import get_cache_dir

            self._root = os.path.join(get_cache_dir(), "runner")
        return self._root

    # ------------------------------------------------------------------
    # Scenario results
    # ------------------------------------------------------------------
    def result_path(self, spec: ScenarioSpec) -> str:
        return os.path.join(
            self.root, "results", spec.experiment or "misc", f"{spec.hash}.json"
        )

    def has(self, spec: ScenarioSpec) -> bool:
        return os.path.exists(self.result_path(spec))

    def get(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        """The stored result for ``spec``, or ``None`` on a miss.

        A readable-but-broken entry — a reader racing a writer's
        mid-``atomic_write`` rename on a network filesystem, a truncated
        sync, a foreign file under the store root — is *skipped with a
        warning*, never raised: to every consumer (resume, report
        generation, a distributed worker's done-check) a partial entry is
        simply not done yet, and the next writer's atomic replace heals it.
        """
        path = self.result_path(spec)
        if not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            return None
        except json.JSONDecodeError:
            LOGGER.warning(
                "skipping partially-written/corrupt store entry %s "
                "(treated as a miss; it will be recomputed)",
                path,
            )
            return None
        if not isinstance(payload, dict):
            LOGGER.warning(
                "skipping malformed store entry %s (payload is %s, not an object)",
                path,
                type(payload).__name__,
            )
            return None
        if payload.get("format") != STORE_FORMAT:
            return None
        return payload.get("result")

    def put(self, spec: ScenarioSpec, result: Mapping[str, Any]) -> Dict[str, Any]:
        """Persist a scenario result; returns the JSON-coerced result."""
        clean = _jsonify(dict(result))
        payload = {
            "format": STORE_FORMAT,
            "spec": spec.as_dict(),
            "result": clean,
            "created": time.time(),
        }
        _atomic_write_text(self.result_path(spec), json.dumps(payload, indent=2, sort_keys=True))
        return clean

    # ------------------------------------------------------------------
    # Stage states (derived weights shared between scenarios)
    # ------------------------------------------------------------------
    def stage_path(self, key: Mapping[str, Any]) -> str:
        return os.path.join(self.root, "stages", f"{stable_hash(dict(key))}.npz")

    def stage_state(
        self,
        key: Mapping[str, Any],
        compute: Callable[[], Dict[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        """Load a cached stage state, computing and persisting it on a miss.

        ``compute`` must be deterministic given ``key`` (stage keys embed
        their own derived seed), so concurrent workers racing on the same
        stage write identical bytes and the atomic replace makes the race
        harmless.
        """
        path = self.stage_path(key)
        if os.path.exists(path):
            try:
                with np.load(path) as payload:
                    return {name: payload[name].copy() for name in payload.files}
            except (OSError, ValueError):
                pass  # corrupt/partial entry: fall through and recompute
        state = compute()
        atomic_write(
            path,
            lambda tmp: np.savez(
                tmp, **{name: np.asarray(value) for name, value in state.items()}
            ),
            suffix=".tmp.npz",
        )
        # Mirror the load path's copy semantics: a caller mutating the
        # returned arrays must never alias whatever ``compute`` kept live
        # (e.g. a model's own parameter arrays) — hit and miss hand out
        # equally independent state.
        return {name: np.array(value, copy=True) for name, value in state.items()}

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def result_files(self) -> Dict[str, str]:
        """All stored result files: spec hash (from the filename) -> path."""
        import glob

        pattern = os.path.join(self.root, "results", "*", "*.json")
        return {
            os.path.splitext(os.path.basename(path))[0]: path
            for path in sorted(glob.glob(pattern))
        }

    def gc(
        self, valid_hashes, dry_run: bool = False, respect_leases: bool = True
    ) -> "GCReport":
        """Prune result entries whose hash no registered grid produces.

        ``valid_hashes`` is the live set (see
        :func:`repro.experiments.registry.registered_spec_hashes`).  Stage
        entries are left untouched: their keys are derived at execution time
        and an orphaned stage is recomputed-on-miss anyway.  With
        ``dry_run=True`` nothing is deleted; the report lists what would be.

        With ``respect_leases=True`` (default), hashes under a *live*
        lease file (``leases/`` next to the results — see
        :mod:`repro.distributed.lease`) also count as live: a distributed
        worker's in-flight or just-finished scenario must never be pruned
        by a concurrent ``gc``, even when its suite is an ad-hoc spec list
        no registered grid knows.  This is the same protection the serve
        layer gives its live requests, extended to cross-process workers;
        expired leases (crashed workers) grant no protection.
        """
        valid = set(valid_hashes)
        report = GCReport(dry_run=dry_run)
        if respect_leases:
            from repro.distributed.lease import LeaseManager

            leased = set(LeaseManager(self.root).live_hashes())
            report.leased = len(leased)
            valid |= leased
        for spec_hash, path in self.result_files().items():
            if spec_hash in valid:
                report.kept += 1
                continue
            report.pruned.append(path)
            if not dry_run:
                os.remove(path)
        if not dry_run:
            # Drop experiment directories the prune emptied.
            results_root = os.path.join(self.root, "results")
            if os.path.isdir(results_root):
                for entry in os.listdir(results_root):
                    directory = os.path.join(results_root, entry)
                    if os.path.isdir(directory) and not os.listdir(directory):
                        os.rmdir(directory)
        return report

    def clear(self) -> None:
        """Remove every stored result and stage (used by tests)."""
        import shutil

        if os.path.isdir(self.root):
            shutil.rmtree(self.root)


class GCReport:
    """Outcome of one :meth:`ResultStore.gc` pass."""

    def __init__(self, dry_run: bool = False):
        self.dry_run = dry_run
        self.kept = 0
        self.pruned: list = []
        self.leased = 0  # live lease files extending the valid set

    def summary(self) -> str:
        verb = "would prune" if self.dry_run else "pruned"
        text = f"{verb} {len(self.pruned)} stale result(s), kept {self.kept}"
        if self.leased:
            text += f" ({self.leased} protected by live lease(s))"
        return text


class MemoryStore:
    """In-process store with the :class:`ResultStore` interface.

    Used when no persistent store is requested: scenario results live only
    for the duration of one :func:`~repro.experiments.runner.executor.run_grid`
    call, but stages are still shared between the scenarios of that call
    (e.g. Table II computes each sigma's NIA weights once, not three times).

    Copy semantics match :class:`ResultStore`'s JSON round-trip: ``get`` and
    ``put`` hand out deep copies, so a caller mutating a returned result can
    never contaminate later cache hits within the call.
    """

    def __init__(self):
        self._results: Dict[str, Dict[str, Any]] = {}
        self._stages: Dict[str, Dict[str, np.ndarray]] = {}

    def has(self, spec: ScenarioSpec) -> bool:
        return spec.hash in self._results

    def get(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        result = self._results.get(spec.hash)
        return None if result is None else copy.deepcopy(result)

    def put(self, spec: ScenarioSpec, result: Mapping[str, Any]) -> Dict[str, Any]:
        clean = _jsonify(dict(result))
        self._results[spec.hash] = copy.deepcopy(clean)
        return clean

    def stage_state(
        self,
        key: Mapping[str, Any],
        compute: Callable[[], Dict[str, np.ndarray]],
    ) -> Dict[str, np.ndarray]:
        stage_key = stable_hash(dict(key))
        if stage_key not in self._stages:
            # Store copies: ``compute`` may return arrays still referenced
            # by live model state, which later training would mutate.
            self._stages[stage_key] = {
                name: np.array(value, copy=True) for name, value in compute().items()
            }
        return {name: np.array(value, copy=True) for name, value in self._stages[stage_key].items()}

    def clear(self) -> None:
        self._results.clear()
        self._stages.clear()


def default_store() -> ResultStore:
    """The store rooted under the current cache directory (resolved lazily)."""
    return ResultStore()
