"""Every name an example imports from ``repro`` resolves.

The scripts under ``examples/`` are entry points that no tier-1 test runs
(they take seconds to minutes each).  Parsing them with ``ast``, without
running them, still catches an import of a deleted or renamed public name.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _repro_imports(path: Path):
    """``(module, name)`` for each ``from repro... import name`` and
    ``(module, None)`` for each ``import repro...`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.module, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield alias.name, None


def _resolves(module_name: str, name) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    if name is None or hasattr(module, name):
        return True
    try:  # ``from package import submodule``
        importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_every_example_is_checked():
    assert len(EXAMPLES) >= 6, [path.name for path in EXAMPLES]


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_imports_resolve(path):
    imports = list(_repro_imports(path))
    assert imports, f"{path.name} imports nothing from repro"
    missing = [
        f"{module}.{name}" if name else module
        for module, name in imports
        if not _resolves(module, name)
    ]
    assert not missing, f"{path.name} imports names repro no longer has: {missing}"
