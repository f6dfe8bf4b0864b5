"""Every script in demos/ runs to completion against the package sources."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bridgebound

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
SRC = Path(bridgebound.__file__).parent.parent


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=600
    )
    assert done.returncode == 0, done.stderr
