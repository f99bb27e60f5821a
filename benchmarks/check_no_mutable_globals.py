"""AST lint: no new module-level mutable state in ``src/repro``.

The ExecutionContext refactor moved the library's mutable process state —
compute-dtype policy, default RNG, grad flag, bundle cache, worker stage
store — onto :class:`repro.context.ExecutionContext`.  This checker keeps
it that way: it fails on

* **module-level mutable-container assignments** (``X = {}``, ``X = []``,
  ``X = set()``, ``collections`` container constructors, comprehensions) —
  the ``_BUNDLE_CACHE`` / ``_LAYER_COUNT_CACHE`` pattern;
* **any ``global`` declaration** — the ``_COMPUTE_DTYPE``-style rebindable
  policy global (a module-level name only needs ``global`` if something
  mutates it).

Additions to the allowlist below need a justification comment.  Genuine
constants (tuples, strings, numbers, ``np.dtype`` objects), loggers and
``ContextVar`` bindings are not flagged in the first place.

Run standalone (``python benchmarks/check_no_mutable_globals.py``) or via
the fast test loop (``tests/core/test_no_mutable_globals.py``).
"""

from __future__ import annotations

import ast
import os
import sys
from typing import List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")

#: Deliberate survivors, as ``(path relative to src/repro, name)``.
#: Every entry must say why it is allowed to stay module-level.
ALLOWLIST = {
    # Write-once registries: populated at import time (or by explicit
    # register_* calls), read-only afterwards.  A registry is process-wide
    # by design — contexts scope *execution state*, not code registration.
    ("backend/engine.py", "_REGISTRY"),
    ("experiments/profiles.py", "PROFILES"),
    ("experiments/registry.py", "EXPERIMENTS"),
    ("experiments/report.py", "_SECTIONS"),
    ("experiments/runner/scenarios.py", "_EXECUTORS"),
    # Immutable-by-convention constant mappings (never written after import):
    # the paper's published reference numbers, and the dtype-name table.
    ("context/__init__.py", "COMPUTE_DTYPES"),
    ("experiments/table1.py", "PAPER_TABLE1"),
    ("experiments/table2.py", "PAPER_TABLE2"),
    # Pure function of the profile: every entry is recomputable and identical
    # across contexts, so sharing one process-wide memo is safe and saves the
    # dominant dataset-generation cost (see experiments/common.py).
    ("experiments/common.py", "_DATASET_CACHE"),
}

#: Constructor calls whose module-level result is mutable shared state.
_MUTABLE_CONSTRUCTORS = {
    "dict", "list", "set", "bytearray",
    "OrderedDict", "defaultdict", "deque", "Counter", "ChainMap",
}

_MUTABLE_LITERALS = (
    ast.Dict, ast.List, ast.Set,
    ast.DictComp, ast.ListComp, ast.SetComp,
)


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_mutable_value(value: ast.AST) -> bool:
    if isinstance(value, _MUTABLE_LITERALS):
        return True
    return isinstance(value, ast.Call) and _call_name(value) in _MUTABLE_CONSTRUCTORS


def _assigned_names(statement: ast.stmt) -> List[str]:
    if isinstance(statement, ast.AnnAssign):
        return [statement.target.id] if isinstance(statement.target, ast.Name) else []
    if isinstance(statement, ast.Assign):
        return [t.id for t in statement.targets if isinstance(t, ast.Name)]
    return []


def check_file(path: str, relpath: str, used=None) -> List[Tuple[str, int, str, str]]:
    """Violations in one file as ``(relpath, lineno, name, kind)``."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)

    violations: List[Tuple[str, int, str, str]] = []

    def allowed(name: str) -> bool:
        if (relpath, name) in ALLOWLIST:
            if used is not None:
                used.add((relpath, name))
            return True
        return False

    # Rule 1: module-level mutable containers (module body only — class and
    # function scopes manage their own state).
    for statement in tree.body:
        value = getattr(statement, "value", None)
        if value is None or not _is_mutable_value(value):
            continue
        for name in _assigned_names(statement):
            # Dunders (`__all__` & friends) are interface metadata, not state.
            if name.startswith("__") and name.endswith("__"):
                continue
            if not allowed(name):
                violations.append(
                    (relpath, statement.lineno, name,
                     "module-level mutable container")
                )

    # Rule 2: `global` anywhere — the rebindable-policy-global signal.  The
    # allowlist key is the enclosing function's name.
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        for inner in ast.walk(node):
            if isinstance(inner, ast.Global):
                if not allowed(node.name):
                    violations.append(
                        (relpath, inner.lineno, node.name,
                         f"`global {', '.join(inner.names)}` declaration")
                    )
    return violations


def check_tree(src_root: str = SRC_ROOT) -> List[Tuple[str, int, str, str]]:
    violations: List[Tuple[str, int, str, str]] = []
    used: set = set()
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            relpath = os.path.relpath(path, src_root).replace(os.sep, "/")
            violations.extend(check_file(path, relpath, used=used))
    # A stale allowlist entry means the global it excused is gone — drop the
    # entry so the excuse cannot silently cover a future reintroduction.
    for relpath, name in sorted(ALLOWLIST - used):
        violations.append((relpath, 0, name, "stale allowlist entry"))
    return sorted(violations)


def main() -> int:
    violations = check_tree()
    if not violations:
        print(f"check_no_mutable_globals: OK ({SRC_ROOT})")
        return 0
    print("Module-level mutable state outside the allowlist:", file=sys.stderr)
    for relpath, lineno, name, kind in violations:
        print(f"  src/repro/{relpath}:{lineno}: {name} — {kind}", file=sys.stderr)
    print(
        "\nMove execution state onto repro.context.ExecutionContext, or — for "
        "a write-once registry/constant — add an allowlist entry with a "
        "justification in benchmarks/check_no_mutable_globals.py.",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":
    sys.exit(main())
