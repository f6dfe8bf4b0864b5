"""Every exported name exists: each submodule's ``__all__`` names only what
the module defines, the package's ``__all__`` resolves in full, and every
module attribute that perfbench swaps for a timing wrapper is there.  The
package imports without loading scipy, starting a thread or looking up BLAS."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_scipy_unloaded():
    """scipy loads inside the functions that need it, not on ``import bridgebound``."""
    code = "import sys, bridgebound; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(bridgebound.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.stdout == "False\n", done.stderr


def test_import_starts_no_thread_and_looks_up_no_blas():
    """``import bridgebound`` starts no thread, and BLAS is looked up on
    ``price``'s first use of it, not at import."""
    code = (
        "import threading, bridgebound\n"
        "from bridgebound.estimators import _BLAS\n"
        "print(threading.active_count(), _BLAS._functions)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bridgebound.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.stdout == "1 None\n", done.stderr


def test_perfbench_traced_targets_patch_and_restore(monkeypatch):
    """perfbench/run.py, loaded as its smoke test loads it, swaps each traced
    attribute for a wrapper and puts the original back."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("perfbench_run", perfbench / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # dataclasses look their module up there
    spec.loader.exec_module(run)
    bb = run.load_package()
    targets = run.traced_targets(bb)
    originals = [getattr(module, attr) for module, attr, _ in targets]
    model, option = bb.model.load_config("table1a")
    tracer = run.Tracer()
    with tracer.patched(targets):
        bb.estimators.price(model, option, 1000)
    assert [getattr(module, attr) for module, attr, _ in targets] == originals
    # price reaches validate through the attribute that perfbench swaps.
    assert [span["name"] for span in tracer.spans] == ["estimators.price", "model.validate"]
