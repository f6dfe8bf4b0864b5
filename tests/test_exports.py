"""Every exported name exists: each submodule's ``__all__`` names only what
the module defines, and the package's ``__all__`` resolves in full."""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import bridgebound

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bridgebound.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_names_are_defined_there(name):
    module = importlib.import_module(f"bridgebound.{name}")
    missing = [n for n in module.__all__ if n not in vars(module)]
    assert not missing, missing
    imported = [
        n
        for n in module.__all__
        if (inspect.isclass(vars(module)[n]) or inspect.isfunction(vars(module)[n]))
        and vars(module)[n].__module__ != module.__name__
    ]
    assert not imported, imported


def test_package_all_resolves():
    missing = [n for n in bridgebound.__all__ if not hasattr(bridgebound, n)]
    assert not missing, missing
    assert len(set(bridgebound.__all__)) == len(bridgebound.__all__)
