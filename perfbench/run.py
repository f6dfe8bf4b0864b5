"""Pricing benchmark for bridgebound.

From the root of a checkout, run one workload::

    python3 perfbench/run.py --workload single_m64 --seed 1 --seconds 20 --trace 0

or every workload once at a tiny size, with its checks::

    python3 perfbench/run.py --smoke

The package is imported from ``src/`` of the checkout.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Per-run details, and the spans of a
traced run, are written under ``perfbench/out/``.  README.md describes the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
from scipy.special import ndtri

from closed_forms import bridge_hit, bs_call, down_and_out_call, no_hit_probability
from spans import Tracer, duration

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
INPUTS = HERE / "inputs"

# Fresh interpreters timed per run for setup_s; one more runs first, untimed,
# so that byte-code compilation of a clean checkout is not counted.
SETUP_REPEATS = 7
MIN_OPS = 3
# Repeats of each probe in a traced run.
MODEL_PROBES = 10
PROBES = 5

# Resolution of the oracle acceptance gate, and the first-order outward shift
# of a barrier watched at that many points: exp(0.5826 sigma sqrt(dt/substeps)).
ORACLE_SUBSTEPS = 2000
ORACLE_TRIALS = 10_000
SHIFT_BETA = 0.5826

# Monitoring dates tried by the stopping rule, in order.
SWEEP_LADDER = (1, 2, 4, 8, 16, 32, 64)

# Continuously monitored prices the checks compare with.  table1a: a
# down-and-out call with S = K = 100, B = 90, r = 0.1, sigma = 0.3, T = 0.5.
DOC_1A = down_and_out_call(100.0, 100.0, 90.0, 0.1, 0.3, 0.5)
# table3_rho0, independent assets: the down-and-out call on asset 0 times
# the chance that asset 1 never touches its barrier (S = K = 100, B = 90,
# r = 0.1, sigma = 0.3, T = 1 for both).
PAIR_RHO0 = down_and_out_call(100.0, 100.0, 90.0, 0.1, 0.3, 1.0) * no_hit_probability(
    100.0, 90.0, 0.1, 0.3, 1.0
)
# table4_d10 pays a call on asset 0 (S = K = 100, r = 0.05, sigma = 0.4,
# T = 1): no knock-out price can exceed the vanilla call.
VANILLA_D10 = bs_call(100.0, 100.0, 0.05, 0.4, 1.0)
# The paper's Table 4 entry for q2 at M = 8 on table4_d10, with its error.
PAPER_D10_Q2 = (2.70, 0.15)

# The interval each oracle call bridges across: its start is the config's
# spot and it ends at these prices one grid step later.
ORACLE_ENDS = {"oracle_pair.json": (95.0, 97.0), "oracle_single.json": (98.0,)}

SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from bridgebound import load_config, validate
model, spec = load_config(sys.argv[2], steps=int(sys.argv[3]))
validate(model, spec).raise_if_invalid()
"""


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # a bundled config name, or a config file under inputs/
    m: int  # monitoring dates of the model set up first
    n_paths: int  # per price call; on oracle, of the layer probes only
    workers: int
    target_se: float  # standard error time_to_target_se_s aims at
    substeps: int = ORACLE_SUBSTEPS


@dataclass
class Op:
    """What one operation did, what its checks found, and its estimates.

    ``estimates`` maps an estimator to its (mean, standard error); the
    statistical checks pool them over every operation of a run.
    """

    path_steps: int
    se: float  # of the headline estimator
    m: int
    problems: list[str]
    estimates: dict[str, tuple[float, float]]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("single_m64", "table1a", 64, 4 * 32768, 1, 0.01),
        Workload("basket_d10", "table4_d10", 8, 100_000, 1, 0.05),
        Workload("pair_sweep", "table3_rho0", 1, 4 * 32768, 2, 0.02),
        Workload("oracle", str(INPUTS / "oracle_pair.json"), 1, 2 * 32768, 1, 0.001),
    )
}


def load_package() -> SimpleNamespace:
    """Import bridgebound from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    modules = {
        name: importlib.import_module(f"bridgebound.{name}")
        for name in ("model", "simulate", "bridge", "estimators", "harness")
    }
    origin = Path(modules["model"].__file__).resolve().parent
    if origin != SRC / "bridgebound":
        raise RuntimeError(f"bridgebound was imported from {origin}, not from {SRC}")
    return SimpleNamespace(**modules)


def measure_setup(wl: Workload) -> float:
    """Median wall time of a fresh interpreter that imports and validates the config."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), wl.config, str(wl.m)]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
    return statistics.median(times[1:])


def chain_problems(report, where: str) -> list[str]:
    """The bound chain q_lower <= q_indep <= q_upper <= q_s holds path by path, so in the mean."""
    chain = [report.q_lower.mean, report.q_indep.mean, report.q_upper.mean, report.q_s.mean]
    if all(a <= b for a, b in zip(chain, chain[1:])):
        return []
    return [f"{where}: chain q_lower <= q_indep <= q_upper <= q_s broken: {chain}"]


def estimates(report) -> dict[str, tuple[float, float]]:
    out = {}
    for name in ("q_s", "q_lower", "q_indep", "q_upper", "q_exact"):
        est = getattr(report, name)
        out[name] = (math.nan, math.nan) if est is None else (est.mean, est.std_error)
    return out


def pooled(ops: list[Op], name: str) -> tuple[float, float]:
    """Mean and standard error of one estimator over operations with independent seeds."""
    k = len(ops)
    mean = sum(op.estimates[name][0] for op in ops) / k
    return mean, math.sqrt(sum(op.estimates[name][1] ** 2 for op in ops)) / k


def midpoint(lo: tuple[float, float], hi: tuple[float, float]) -> tuple[float, float]:
    """Point estimate between two bracketing estimators, with its conservative error:
    half the bracket plus half the two standard errors."""
    return 0.5 * (lo[0] + hi[0]), 0.5 * (hi[0] - lo[0]) + 0.5 * (lo[1] + hi[1])


def make_workload(bb: SimpleNamespace, wl: Workload):
    """Set the workload up; return its operation, a function of the seed, and its verdict.

    The operation checks the properties every single answer must have.  The
    verdict makes the statistical checks once per run, on estimates pooled
    over all its operations, so that a run of many operations is not a
    run of many chances at a false alarm.
    """
    if wl.name == "pair_sweep":
        return (lambda seed: sweep_op(bb, wl, seed)), sweep_verdict
    if wl.name == "oracle":
        intervals = [oracle_interval(bb, INPUTS / name, wl.substeps) for name in ORACLE_ENDS]
        windows = [window for _, window in intervals]
        return (lambda seed: oracle_op(bb, wl, intervals, seed)), (
            lambda ops: oracle_verdict(ops, windows)
        )
    model, spec = bb.model.load_config(wl.config, steps=wl.m)
    basket = wl.name == "basket_d10"

    def op(seed: int) -> Op:
        report = bb.estimators.price(model, spec, wl.n_paths, seed=seed, workers=wl.workers)
        problems = chain_problems(report, f"{wl.config} M={wl.m}")
        if basket and not report.q_s.mean <= VANILLA_D10:
            problems.append(f"q_s {report.q_s.mean:.4f} exceeds the vanilla call {VANILLA_D10:.4f}")
        headline = report.q2 if basket else report.q_exact
        return Op(wl.n_paths * wl.m, headline.std_error, wl.m, problems, estimates(report))

    return op, (basket_verdict if basket else single_verdict)


def single_verdict(ops: list[Op]) -> list[str]:
    problems = []
    exact, q_s = pooled(ops, "q_exact"), pooled(ops, "q_s")
    if not abs(exact[0] - DOC_1A) <= 4.0 * exact[1]:
        problems.append(f"q_exact {exact} not within 4 se of the continuous price {DOC_1A:.4f}")
    if not q_s[0] - exact[0] > 3.0 * q_s[1]:
        problems.append(f"q_s {q_s} shows no discrete-monitoring bias over q_exact {exact}")
    return problems


def basket_verdict(ops: list[Op]) -> list[str]:
    q2 = midpoint(pooled(ops, "q_indep"), pooled(ops, "q_upper"))
    paper, paper_se = PAPER_D10_Q2
    if abs(q2[0] - paper) <= 3.0 * math.hypot(q2[1], paper_se):
        return []
    return [f"q2 {q2} not within 3 combined se of the paper's {paper}"]


def sweep_op(bb: SimpleNamespace, wl: Workload, seed: int) -> Op:
    """The paper's stopping rule: double M until q_upper - q_lower <= hypot(se_upper, se_lower)."""
    problems: list[str] = []
    widths = []
    path_steps = 0
    for m in SWEEP_LADDER:
        spec = bb.harness.SweepSpec(wl.config, (m,), wl.n_paths, seed=seed)
        report = bb.harness.run_sweep(spec, workers=wl.workers)[m]
        path_steps += wl.n_paths * m
        problems += chain_problems(report, f"{wl.config} M={m}")
        widths.append(report.q_upper.mean - report.q_lower.mean)
        if widths[-1] <= math.hypot(report.q_upper.std_error, report.q_lower.std_error):
            break
    else:
        problems.append(f"stopping rule did not hold by M={SWEEP_LADDER[-1]}")
    if m > 1 and not widths[-1] < widths[0]:
        problems.append(f"bracket at M={m} ({widths[-1]:.4f}) not narrower than at M=1")
    return Op(path_steps, report.q0.std_error, m, problems, estimates(report))


def sweep_verdict(ops: list[Op]) -> list[str]:
    """q0 where each operation stopped, against the closed form for independent assets."""
    q0 = midpoint(pooled(ops, "q_lower"), pooled(ops, "q_upper"))
    if abs(q0[0] - PAIR_RHO0) <= 3.0 * q0[1]:
        return []
    return [f"q0 {q0} at the stop not within 3 se of the closed form {PAIR_RHO0:.4f}"]


def oracle_interval(bb: SimpleNamespace, path: Path, substeps: int):
    """The oracle's interval context, built by the package, and its reference window.

    The window ``[p_lower, p_upper]`` comes from the Frechet bounds on the
    hit probabilities, computed from the file as written rather than from
    the package's model.  The oracle watches the bridge at ``substeps``
    points, so it can miss hits but never invent them: it behaves like a
    continuous barrier moved outward by the first-order shift, which
    relaxes the upper edge.
    """
    model, _ = bb.model.load_config(str(path))
    end = ORACLE_ENDS[path.name]
    ctx = bb.bridge.IntervalContext(
        s0=model.spot, s1=end, regime=model.regimes[0], dt=model.grid.dt(0)
    )
    cfg = json.loads(path.read_text())
    regime = cfg["regimes"][0]
    dt = cfg["grid"]["maturity"] / cfg["grid"]["steps"]

    def hits(shift: float) -> list[float]:
        return [
            bridge_hit(s0, s1, b * math.exp(-shift * v), v * v * dt)
            for s0, s1, v, b in zip(cfg["spot"], end, regime["sigma"], regime["lower"])
        ]

    low = max(1.0 - sum(hits(0.0)), 0.0)
    high = 1.0 - max(hits(SHIFT_BETA * math.sqrt(dt / substeps)))
    return ctx, (low, high)


def oracle_op(bb: SimpleNamespace, wl: Workload, intervals, seed: int) -> Op:
    found = {}
    for k, (ctx, _) in enumerate(intervals):
        found[f"interval {k}"] = bb.bridge.oracle_no_hit(
            ctx, substeps=wl.substeps, trials=ORACLE_TRIALS, seed=2 * seed + k
        )
    path_steps = len(intervals) * ORACLE_TRIALS * wl.substeps
    return Op(path_steps, found["interval 0"][1], 1, [], found)


def oracle_verdict(ops: list[Op], windows) -> list[str]:
    problems = []
    for k, (low, high) in enumerate(windows):
        p, se = pooled(ops, f"interval {k}")
        if not low - 4.0 * se <= p <= high + 4.0 * se:
            problems.append(
                f"oracle interval {k}: {p:.4f} outside [{low:.4f}, {high:.4f}] by more than 4 se"
            )
    return problems


def run_ops(op: Callable[[int], Op], seed: int, seconds: float, tracer: Tracer):
    """A warm-up operation, then whole timed operations until ``seconds`` have passed.

    Operation i prices with seed ``1000 * seed + i``; the warm-up is i = 0.
    Returns the timed operations, their times, the count of operations that
    raised, and every checked operation (the warm-up too).
    """
    warm_up = op(1000 * seed)
    ops, times = [], []
    failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while len(ops) + failed < MIN_OPS or time.perf_counter() < deadline:
        i += 1
        try:
            with tracer.span("op") as record:
                result = op(1000 * seed + i)
        except Exception:  # an operation the program fails is counted, not fatal
            traceback.print_exc()
            failed += 1
            continue
        ops.append(result)
        times.append(duration(record))
    return ops, times, failed, [warm_up] + ops


def problems_of(checked: list[Op], verdict) -> list[str]:
    return [p for op in checked for p in op.problems] + verdict(checked)


def end_to_end(wl: Workload, ops: list[Op], times: list[float], setup_s: float) -> dict:
    op_s = statistics.median(times)
    se = statistics.median(op.se for op in ops)
    path_steps = statistics.median(op.path_steps for op in ops)
    return {
        "setup_s": (setup_s, "s"),
        "op_s": (op_s, "s"),
        "path_steps_per_s": (path_steps / op_s, "1/s"),
        "time_to_target_se_s": (op_s * (se / wl.target_se) ** 2, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def layer_metrics(bb: SimpleNamespace, wl: Workload, ops: list[Op], tracer: Tracer, seed: int) -> dict:
    """Per-layer figures: spans of the traced operations, then probes at the workload's model.

    A probe runs one layer on its own, at the model and path count the
    operations priced (the stopping M for pair_sweep).  Layers an operation
    does not reach are probed the same way, so every workload reports
    every layer.
    """
    m = statistics.median_low(op.m for op in ops)
    n = wl.n_paths
    path_steps = n * m
    with tracer.span("probe.model"):
        for _ in range(MODEL_PROBES):
            model, spec = bb.model.load_config(wl.config, steps=m)
            bb.model.validate(model, spec)
    bare = bb.model.MarketModel(
        spot=model.spot,
        rate=model.rate,
        grid=model.grid,
        regimes=replace(model.regimes[0], lower=None, upper=None),
    )
    # Rounds run each probe back to back, and layer costs are medians of
    # in-round differences, so drifts in machine speed between rounds cancel.
    rounds = []
    for _ in range(PROBES):
        times = {}
        for label, target in (("engine", model), ("engine_no_barrier", bare)):
            with tracer.span(f"probe.{label}") as record:
                rows = alive = chunks = 0
                for batch in bb.simulate.path_batches(target, n, seed):
                    chunks += 1
                    rows += len(batch.alive)
                    alive += int(batch.alive.sum())
            times[label] = duration(record)
            if target is model:
                counts = (rows, alive, chunks)
        for workers in (1, 2):
            with tracer.span(f"probe.price_w{workers}") as record:
                bb.estimators.price(model, spec, n, seed=seed, workers=workers)
            times[workers] = duration(record)
        rounds.append(times)

    def median_of(f) -> float:
        return statistics.median(f(t) for t in rounds)

    rows, alive, chunks = counts

    if wl.name == "pair_sweep":
        sweeps = [r for r in tracer.spans if r["name"] == "op"]
    else:
        for _ in range(PROBES):
            with tracer.span("probe.sweep"):
                sweep = bb.harness.SweepSpec(wl.config, (m,), n, seed=seed)
                bb.harness.run_sweep(sweep, workers=wl.workers)
        sweeps = tracer.under("harness.run_sweep", "probe.sweep")
    overhead = statistics.median(
        duration(s) - sum(duration(p) for p in tracer.descendants(s, "estimators.price"))
        for s in sweeps
    )

    if wl.name == "oracle":
        parents = [r for r in tracer.spans if r["name"] == "op"]
    else:
        single = oracle_interval(bb, INPUTS / "oracle_single.json", wl.substeps)[0]
        for _ in range(PROBES):
            with tracer.span("probe.oracle"):
                bb.bridge.oracle_no_hit(single, substeps=wl.substeps, trials=ORACLE_TRIALS, seed=seed)
        parents = [r for r in tracer.spans if r["name"] == "probe.oracle"]
    per_call = []
    for parent in parents:
        calls = tracer.descendants(parent, "bridge.oracle_no_hit")
        per_call.append(sum(map(duration, calls)) / (len(calls) * ORACLE_TRIALS * wl.substeps))
    oracle_ns = statistics.median(per_call)

    return {
        "model.load_config_s": (tracer.median_s("model.load_config", "probe.model"), "s"),
        "model.validate_s": (tracer.median_s("model.validate", "probe.model"), "s"),
        "simulate.engine_ns_per_path_step": (
            median_of(lambda t: t["engine"]) / path_steps * 1e9,
            "ns",
        ),
        "simulate.dead_share": (1.0 - alive / rows, "ratio"),
        "simulate.tail_waste_share": (1.0 - rows / (chunks * bb.simulate.CHUNK), "ratio"),
        "bridge.hit_ns_per_path_step": (
            median_of(lambda t: t["engine"] - t["engine_no_barrier"]) / path_steps * 1e9,
            "ns",
        ),
        "bridge.oracle_ns_per_trial_substep": (oracle_ns * 1e9, "ns"),
        "estimators.price_s": (median_of(lambda t: t[wl.workers]), "s"),
        "estimators.reduce_s": (median_of(lambda t: t[1] - t["engine"]), "s"),
        "estimators.worker_speedup": (median_of(lambda t: t[1] / t[2]), "ratio"),
        "harness.sweep_overhead_s": (overhead, "s"),
        "harness.m_reached": (m, "count"),
    }


def library_floor(d: int, seed: int) -> dict:
    """One chunk's draws and correlation done by numpy and scipy alone, for reference."""
    chunk = 32768
    factor = np.linalg.cholesky(0.5 * np.eye(d) + 0.5)
    draws, matmul = [], []
    for _ in range(5):
        start = time.perf_counter()
        z = ndtri(np.random.Generator(np.random.Philox(key=seed)).random((chunk, d)))
        draws.append(time.perf_counter() - start)
        start = time.perf_counter()
        z @ factor.T
        matmul.append(time.perf_counter() - start)
    return {
        "chunk": chunk,
        "d": d,
        "philox_random_ndtri_s": statistics.median(draws),
        "matmul_s": statistics.median(matmul),
    }


def traced_targets(bb: SimpleNamespace) -> list[tuple]:
    """Public entry points of each layer, under the names the package calls them by."""
    return [
        (bb.model, "load_config", "model.load_config"),
        (bb.model, "validate", "model.validate"),
        (bb.estimators, "validate", "model.validate"),
        (bb.estimators, "price", "estimators.price"),
        (bb.harness, "load_config", "model.load_config"),
        (bb.harness, "price", "estimators.price"),
        (bb.harness, "run_sweep", "harness.run_sweep"),
        (bb.bridge, "oracle_no_hit", "bridge.oracle_no_hit"),
    ]


def smoke() -> int:
    """Every workload once, at one chunk of paths and the oracle's least resolution."""
    bb = load_package()
    problems = []
    for wl in WORKLOADS.values():
        op, verdict = make_workload(bb, replace(wl, n_paths=bb.simulate.CHUNK, substeps=100))
        problems += [f"{wl.name}: {p}" for p in problems_of([op(1)], verdict)]
    for p in problems:
        print(p, file=sys.stderr)
    result = {"correct": not problems, "attempted": len(WORKLOADS), "failed": 0, "metrics": {}}
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run every workload once at a tiny size")
    args = parser.parse_args(argv)
    if not (SRC / "bridgebound" / "__init__.py").is_file():
        print(f"no bridgebound sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]

    setup_s = None if args.trace else measure_setup(wl)
    bb = load_package()
    op, verdict = make_workload(bb, wl)
    tracer = Tracer()
    if args.trace:
        with tracer.patched(traced_targets(bb)):
            ops, times, failed, checked = run_ops(op, args.seed, args.seconds, tracer)
            metrics = layer_metrics(bb, wl, ops, tracer, args.seed)
    else:
        ops, times, failed, checked = run_ops(op, args.seed, args.seconds, tracer)
        metrics = end_to_end(wl, ops, times, setup_s)
    problems = problems_of(checked, verdict)

    for p in problems:
        print(p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) + failed,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    details = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "result": result,
        "op_s": times,
        "ops": [vars(o) for o in ops],
    }
    out = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        d = bb.model.load_config(wl.config, steps=wl.m)[0].d
        tracer.write(out, **details, library_floor=library_floor(d, args.seed))
    else:
        OUT.mkdir(exist_ok=True)
        out.write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
