"""The benchmark's smoke mode: every workload once at a tiny size, with its checks."""

import importlib.util
import json
import sys
from pathlib import Path


def _runner():
    path = Path(__file__).with_name("run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_workload_passes_its_checks_at_smoke_size(capsys):
    run = _runner()
    assert run.main(["--smoke"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result == {
        "correct": True,
        "attempted": len(run.WORKLOADS),
        "failed": 0,
        "metrics": {},
    }
