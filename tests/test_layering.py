"""Import layering between ``repro.api`` and the scenario runner.

``repro.api`` holds the pipeline's stages; the scenario runner
(``repro.experiments.runner``) builds on them, and ``repro.serve`` on the
runner.  So the facade imports neither — apart from the PEP 562
``__getattr__`` that resolves two runner functions under their old names —
and the runner imports ``repro.api`` at module level, where the dependency
is visible, never inside a function to dodge an import cycle.

The modules are parsed, not imported.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _imports(path: Path) -> Iterator[Tuple[int, Optional[str], List[str]]]:
    """``(line, enclosing function or None, imported module names)`` of
    every import statement in ``path``; ``from a import b`` names both
    ``a`` and ``a.b``, since ``b`` may be a submodule."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))

    def visit(node: ast.AST, function: Optional[str]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                yield child.lineno, function, [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0 and child.module:
                names = [f"{child.module}.{alias.name}" for alias in child.names]
                yield child.lineno, function, [child.module, *names]
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from visit(child, child.name if is_function else function)

    yield from visit(tree, None)


def _hits(names: List[str], *packages: str) -> List[str]:
    """The names among ``names`` that are one of ``packages`` or inside one."""
    return [
        name
        for name in names
        if any(name == package or name.startswith(package + ".") for package in packages)
    ]


def test_api_imports_neither_runner_nor_serve():
    offending = [
        f"api.py:{line}: {hits[0]}"
        for line, function, names in _imports(SRC / "api.py")
        if function != "__getattr__"
        for hits in [_hits(names, "repro.experiments.runner", "repro.serve")]
        if hits
    ]
    assert not offending, offending


def test_runner_imports_api_only_at_module_level():
    offending = [
        f"{path.name}:{line} (in {function}): {hits[0]}"
        for path in sorted((SRC / "experiments" / "runner").glob("*.py"))
        for line, function, names in _imports(path)
        if function is not None
        for hits in [_hits(names, "repro.api")]
        if hits
    ]
    assert not offending, offending
