"""Every name a ``repro`` module lists in ``__all__`` resolves.

An export left behind by a deletion would otherwise surface only at a
user's ``from repro.x import *``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _modules_with_all():
    names = ["repro"] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    ]
    modules = [importlib.import_module(name) for name in names]
    return [module for module in modules if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", _modules_with_all(), ids=lambda module: module.__name__)
def test_every_name_in_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"
