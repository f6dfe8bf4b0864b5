"""Full-engine gates against the reference tables, rates, and invariants.

Each test is one gate: it accumulates sub-checks, contributes a single
PASS or FAIL line to the terminal summary, and fails with every miss
listed.  Statistical comparisons run at a fixed seed and use three
standard errors (the estimate's own for exact reference values, added
in quadrature with the printed one for Monte Carlo table entries).
Wall-clock budgets are asserted next to the runs they pace.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from conftest import frechet_bounds, independent_no_hit, record_verdict

from bridgebound.bridge import (
    IntervalContext,
    interval_weights,
    oracle_no_hit,
)
from bridgebound.estimators import path_contributions, price
from bridgebound.harness import SweepSpec, fit_convergence, run_sweep
from bridgebound.model import Regime, load_config

SEED = 1
Z_LIMIT = 3.0

ORACLE_SUBSTEPS = 2000
ORACLE_TRIALS = 100_000
# first-order shift for a discretely monitored barrier: watching at a
# finite number of points acts like a continuous barrier moved outward
# by exp(0.5826 sigma sqrt(dt/substeps))
SHIFT_BETA = 0.5826


class Gate:
    """Accumulates the sub-checks of one acceptance gate.

    On exit the verdict is recorded for the terminal summary; any missed
    sub-check (or an exception) marks the gate FAIL and fails the test.
    """

    def __init__(self, label: str, budget: float | None = None) -> None:
        self.label = label
        self.budget = budget
        self.failures: list[str] = []
        self._start = time.perf_counter()

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)

    def __enter__(self) -> "Gate":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None and self.budget is not None:
            elapsed = time.perf_counter() - self._start
            self.check(
                elapsed < self.budget,
                f"runtime {elapsed:.0f}s over the {self.budget:.0f}s budget",
            )
        record_verdict(self.label, exc_type is None and not self.failures)
        if exc_type is None and self.failures:
            raise AssertionError(f"{self.label}: " + "; ".join(self.failures))
        return False


def z_mean(est, target: float, target_se: float = 0.0) -> float:
    """Distance from a reference value in combined standard errors."""
    return abs(est.mean - target) / math.hypot(est.std_error, target_se)


def z_point(est, target: float, target_se: float = 0.0) -> float:
    return abs(est.value - target) / math.hypot(est.std_error, target_se)


class TestGoldenTables:
    # Reports do not depend on the worker count, so every sweep here runs on
    # two threads to save wall time.

    def test_single_asset_exact_weight_recovers_continuous_value(self):
        """q_exact stays on 8.794 at every M while q_s drifts from above."""
        with Gate("single-asset knock-out golden values", budget=60.0) as g:
            reports = run_sweep(
                SweepSpec(
                    config="table1a",
                    m_values=(1, 16, 1024),
                    n_paths=400_000,
                    seed=SEED,
                ),
                workers=2,
            )
            for m, rep in reports.items():
                g.check(
                    z_mean(rep.q_exact, 8.794) <= Z_LIMIT,
                    f"q_exact at M={m}: {rep.q_exact.mean:.4f} vs 8.794",
                )
            g.check(
                z_mean(reports[1].q_s, 10.91, 0.02) <= Z_LIMIT,
                f"q_s at M=1: {reports[1].q_s.mean:.4f} vs 10.91",
            )

    def test_two_asset_exact_weight_recovers_continuous_value(self):
        with Gate("two-asset knock-out exact weight", budget=120.0) as g:
            reports = run_sweep(
                SweepSpec(config="table1b", m_values=(1,), n_paths=800_000, seed=SEED),
                workers=2,
            )
            est = reports[1].q_exact
            g.check(
                z_mean(est, 8.256) <= Z_LIMIT,
                f"q_exact at M=1: {est.mean:.4f} vs 8.256",
            )

    def test_double_barrier_bounds_track_golden_rows(self):
        """All three bound estimates land on 1.793 once extrema disjoin."""
        with Gate("double knock-out bound estimates", budget=120.0) as g:
            reports = run_sweep(
                SweepSpec(config="table2", m_values=(1, 16), n_paths=400_000, seed=SEED),
                workers=2,
            )
            fine = reports[16]
            for name in ("q_upper", "q_indep", "q_lower"):
                est = getattr(fine, name)
                g.check(
                    z_mean(est, 1.793) <= Z_LIMIT,
                    f"{name} at M=16: {est.mean:.4f} vs 1.793",
                )
            coarse = reports[1]
            rows = (
                ("q_upper", 3.01, 0.01),
                ("q_indep", 2.41, 0.01),
                ("q_lower", 1.11, 0.01),
                ("q_s", 12.23, 0.04),
            )
            for name, target, target_se in rows:
                est = getattr(coarse, name)
                g.check(
                    z_mean(est, target, target_se) <= Z_LIMIT,
                    f"{name} at M=1: {est.mean:.4f} vs {target}",
                )
            g.check(
                z_point(coarse.q1, 1.76, 0.66) <= Z_LIMIT,
                f"q1 at M=1: {coarse.q1.value:.4f} vs 1.76",
            )

    def test_correlated_pair_consistency_with_references(self):
        """q0 intervals cover the continuous two-asset reference values."""
        with Gate("correlated-pair reference consistency", budget=300.0) as g:
            cases = (
                ("table3_rho-0.5", 1.395, (64,)),
                ("table3_rho0", 3.649, (1, 8, 64)),
                ("table3_rho0.5", 6.527, (64,)),
                ("table3_rho1", 11.315, (1, 64)),
            )
            for config, reference, m_values in cases:
                reports = run_sweep(
                    SweepSpec(
                        config=config, m_values=m_values, n_paths=100_000, seed=SEED
                    ),
                    workers=2,
                )
                q0 = reports[64].q0
                g.check(
                    z_point(q0, reference) <= Z_LIMIT,
                    f"{config} q0 at M=64: {q0.value:.4f} vs {reference}",
                )
                if config == "table3_rho0":
                    # independence is exact here, so q_indep must be unbiased
                    # at every monitoring frequency, not only in the limit
                    for m in m_values:
                        est = reports[m].q_indep
                        g.check(
                            z_mean(est, reference) <= Z_LIMIT,
                            f"rho 0 q_indep at M={m}: {est.mean:.4f} vs 3.649",
                        )
                if config == "table3_rho1":
                    est = reports[1].q_upper
                    g.check(
                        z_mean(est, reference) <= Z_LIMIT,
                        f"rho 1 q_upper at M=1: {est.mean:.4f} vs 11.315",
                    )
            # perfectly anticorrelated pair: the joint hit is near certain
            # and the continuous value is tiny; coarse grids overshoot, so
            # only M >= 8 is expected to sit on the reference
            reports = run_sweep(
                SweepSpec(
                    config="table3_rho-1", m_values=(8, 64), n_paths=100_000, seed=SEED
                ),
                workers=2,
            )
            for m in (8, 64):
                q0 = reports[m].q0
                g.check(
                    z_point(q0, 0.0131) <= Z_LIMIT,
                    f"rho -1 q0 at M={m}: {q0.value:.4f} vs 0.0131",
                )

    def test_many_asset_ordering_and_golden_rows(self):
        golden = {
            "table4_d3": {
                1: {
                    "q_upper": (8.96, 0.07),
                    "q_indep": (6.69, 0.06),
                    "q_lower": (5.13, 0.06),
                    "q_s": (14.96, 0.10),
                    "q2": (7.83, 1.20),
                    "q0": (7.04, 1.97),
                },
                8: {"q2": (7.58, 0.14)},
                64: {
                    "q_upper": (7.60, 0.08),
                    "q_indep": (7.59, 0.08),
                    "q_lower": (7.59, 0.08),
                    "q_s": (8.80, 0.08),
                    "q2": (7.59, 0.08),
                },
            },
            "table4_d10": {
                1: {
                    "q_upper": (4.62, 0.05),
                    "q_indep": (1.19, 0.02),
                    "q_lower": (0.21, 0.01),
                    "q_s": (10.36, 0.09),
                },
                8: {"q2": (2.70, 0.15)},
                64: {
                    "q_upper": (2.65, 0.05),
                    "q_indep": (2.64, 0.05),
                    "q_lower": (2.64, 0.05),
                    "q_s": (3.48, 0.06),
                    "q2": (2.65, 0.05),
                },
            },
        }
        with Gate("many-asset ordering and golden values", budget=300.0) as g:
            for config, per_m in golden.items():
                reports = run_sweep(
                    SweepSpec(
                        config=config, m_values=(1, 8, 64), n_paths=100_000, seed=SEED
                    ),
                    workers=2,
                )
                for m, rows in per_m.items():
                    for name, (target, target_se) in rows.items():
                        est = getattr(reports[m], name)
                        zz = (
                            z_point(est, target, target_se)
                            if name in ("q0", "q1", "q2")
                            else z_mean(est, target, target_se)
                        )
                        g.check(
                            zz <= Z_LIMIT,
                            f"{config} {name} at M={m}: z={zz:.2f} vs {target}",
                        )
                for m in (1, 8, 64):
                    model, spec = load_config(config, steps=m)
                    c = path_contributions(model, spec, 100_000, seed=SEED)
                    chain = [c[name] for name in ("q_lower", "q_indep", "q_upper", "q_s")]
                    ordered = all(np.all(a <= b) for a, b in zip(chain, chain[1:]))
                    g.check(ordered, f"{config} path ordering broken at M={m}")
                fine = reports[64]
                gap = fine.q_upper.mean - fine.q_lower.mean
                combined = math.hypot(fine.q_upper.std_error, fine.q_lower.std_error)
                g.check(
                    gap < 2.0 * combined,
                    f"{config} bounds still disjoint at M=64: gap {gap:.4f}",
                )


class TestConvergenceRates:
    def test_fitted_rates_match_expected_decay(self):
        """Bracket width: exponential for the double barrier, quadratic for
        an independent pair, square-root for a perfectly correlated one."""
        with Gate("convergence-rate fits") as g:
            # Reports do not depend on the worker count, so the sweeps run
            # on two threads to save wall time.
            t0 = time.perf_counter()
            reports = run_sweep(
                SweepSpec(
                    config="table2",
                    m_values=(1, 2, 3, 4, 5),
                    n_paths=4_000_000,
                    seed=SEED,
                ),
                workers=2,
            )
            fit = fit_convergence(reports, "exponential")
            elapsed = time.perf_counter() - t0
            g.check(fit.slope < 0.0, f"double-barrier slope {fit.slope:.3f} not negative")
            g.check(
                fit.r_squared >= 0.9,
                f"double-barrier exponential fit r2 {fit.r_squared:.4f} < 0.9",
            )
            g.check(elapsed < 300.0, f"double-barrier fit took {elapsed:.0f}s")

            t0 = time.perf_counter()
            reports = run_sweep(
                SweepSpec(
                    config="table3_rho0", m_values=(4, 8), n_paths=4_000_000, seed=SEED
                ),
                workers=2,
            )
            reports.update(
                run_sweep(
                    SweepSpec(
                        config="table3_rho0",
                        m_values=(16,),
                        n_paths=24_000_000,
                        seed=SEED,
                    ),
                    workers=2,
                )
            )
            fit = fit_convergence(reports, "power")
            elapsed = time.perf_counter() - t0
            g.check(
                -2.5 <= fit.slope <= -1.5,
                f"independent-pair power slope {fit.slope:.3f} outside [-2.5, -1.5]",
            )
            g.check(elapsed < 300.0, f"independent-pair fit took {elapsed:.0f}s")

            t0 = time.perf_counter()
            reports = run_sweep(
                SweepSpec(
                    config="table3_rho1",
                    m_values=(4, 16, 64),
                    n_paths=1_000_000,
                    seed=SEED,
                ),
                workers=2,
            )
            reports.update(
                run_sweep(
                    SweepSpec(
                        config="table3_rho1",
                        m_values=(256,),
                        n_paths=4_000_000,
                        seed=SEED,
                    ),
                    workers=2,
                )
            )
            fit = fit_convergence(reports, "power")
            elapsed = time.perf_counter() - t0
            g.check(
                -0.7 <= fit.slope <= -0.3,
                f"correlated-pair power slope {fit.slope:.3f} outside [-0.7, -0.3]",
            )
            g.check(elapsed < 1800.0, f"correlated-pair fit took {elapsed:.0f}s")


def _random_interval(rng) -> IntervalContext:
    """A valid interval with barriers drawn around the endpoint range."""
    d = int(rng.integers(1, 4))
    sigma = rng.uniform(0.15, 0.5, size=d)
    dt = float(rng.uniform(0.1, 0.75))
    s0 = rng.uniform(80.0, 120.0, size=d)
    s1 = s0 * np.exp(sigma * math.sqrt(dt) * rng.standard_normal(d))
    lower, upper = [], []
    for k in range(d):
        lo_gap = rng.uniform(0.02, 0.4)
        hi_gap = rng.uniform(0.02, 0.4)
        lower.append(
            float(min(s0[k], s1[k]) * math.exp(-lo_gap)) if rng.random() < 0.7 else None
        )
        upper.append(
            float(max(s0[k], s1[k]) * math.exp(hi_gap)) if rng.random() < 0.5 else None
        )
    if all(b is None for b in lower) and all(b is None for b in upper):
        lower[0] = float(min(s0[0], s1[0]) * 0.9)
    if d == 1:
        corr = None
    else:
        a = rng.standard_normal((d, d + 2))
        cov = a @ a.T
        scale = np.sqrt(np.diag(cov))
        corr = cov / np.outer(scale, scale)
        corr = 0.5 * (corr + corr.T)
        np.fill_diagonal(corr, 1.0)
    regime = Regime(mu=np.zeros(d), sigma=sigma, corr=corr, lower=lower, upper=upper)
    return IntervalContext(s0=s0, s1=s1, regime=regime, dt=dt)


def _relaxed_weights(ctx: IntervalContext, substeps: int):
    """Interval weights with every barrier moved outward by the
    first-order correction for monitoring at substeps points; the
    difference to the unshifted weights is the oracle's expected
    discretisation bias, computed per context rather than tuned."""
    regime = ctx.regime
    scale = SHIFT_BETA * math.sqrt(ctx.dt / substeps)
    lower = [
        None if b is None else float(b) * math.exp(-scale * float(regime.sigma[k]))
        for k, b in enumerate(regime.lower)
    ]
    upper = [
        None if b is None else float(b) * math.exp(scale * float(regime.sigma[k]))
        for k, b in enumerate(regime.upper)
    ]
    relaxed = Regime(
        mu=regime.mu, sigma=regime.sigma, corr=regime.corr, lower=lower, upper=upper
    )
    return interval_weights(
        IntervalContext(s0=ctx.s0, s1=ctx.s1, regime=relaxed, dt=ctx.dt)
    )


class TestIntervalOracle:
    def test_oracle_contained_by_bounds(self):
        """A brute-force fine-grid oracle lands between the closed-form
        bounds on every random interval, and on the closed-form value
        itself whenever only one barrier is in play.  The oracle watches
        the bridge at a finite grid, so it can only miss hits, never
        invent them: the lower edge needs no correction while the upper
        edge is relaxed by the computed discretisation bias."""
        with Gate("interval no-hit oracle containment", budget=300.0) as g:
            rng = np.random.default_rng(SEED)
            singles = 0
            for i in range(20):
                ctx = _random_interval(rng)
                w = interval_weights(ctx)
                relaxed = _relaxed_weights(ctx, ORACLE_SUBSTEPS)
                p, se = oracle_no_hit(
                    ctx, substeps=ORACLE_SUBSTEPS, trials=ORACLE_TRIALS, seed=1000 + i
                )
                lo = w.p_lower - 4.0 * se
                hi = relaxed.p_upper + 4.0 * se
                g.check(
                    lo <= p <= hi,
                    f"context {i}: oracle {p:.4f} outside [{lo:.4f}, {hi:.4f}]",
                )
                if len(ctx.regime.events()) == 1:
                    singles += 1
                    g.check(
                        w.p_exact - 4.0 * se <= p <= relaxed.p_exact + 4.0 * se,
                        f"context {i}: single-event oracle {p:.4f} off"
                        f" [{w.p_exact:.4f}, {relaxed.p_exact:.4f}]",
                    )
            g.check(
                0 < singles < 20,
                f"draw produced {singles} single-event contexts; need a mix",
            )


class TestAlgebraicInvariants:
    def test_invariants_hold_exactly(self):
        with Gate("estimator algebra invariants") as g:
            # bound ordering over random marginal hit probabilities,
            # including exact endpoints and the tiny-probability regime
            rng = np.random.default_rng(4)
            ordered = True
            for _ in range(10_000):
                k = int(rng.integers(1, 9))
                hit = rng.uniform(0.0, 1.0, size=k)
                if rng.random() < 0.1:
                    hit[rng.integers(0, k)] = rng.choice([0.0, 1.0])
                if rng.random() < 0.2:
                    hit *= 1e-6
                flo, fhi = frechet_bounds(hit)
                ind = independent_no_hit(hit)
                ordered = ordered and flo <= ind <= fhi
            g.check(ordered, "bound ordering violated on random hit vectors")

            # in-out parity on shared paths, estimator by estimator;
            # knock-out's q_upper and knock-in's q_lower take the same weight
            model, spec = load_config("table1b", steps=4)
            n = 30_000
            ko = price(model, spec, n, seed=SEED)
            ki = price(model, replace(spec, knock="in"), n, seed=SEED)
            # the same model without barriers walks the same paths
            plain_model = replace(model, regimes=tuple(
                replace(r, lower=None, upper=None) for r in model.regimes
            ))
            target = price(plain_model, spec, n, seed=SEED).q_s.mean
            pairs = (
                ("q_upper + q_lower", ko.q_upper.mean + ki.q_lower.mean),
                ("q_lower + q_upper", ko.q_lower.mean + ki.q_upper.mean),
                ("q_indep + q_indep", ko.q_indep.mean + ki.q_indep.mean),
                ("q_s + q_s", ko.q_s.mean + ki.q_s.mean),
                ("q_exact + q_exact", ko.q_exact.mean + ki.q_exact.mean),
            )
            for name, total in pairs:
                g.check(
                    abs(total - target) <= 1e-12,
                    f"in-out parity broken for {name}: residual {total - target:.2e}",
                )
            ko_paths = path_contributions(model, spec, n, seed=SEED)["q_upper"]
            ki_paths = path_contributions(model, replace(spec, knock="in"), n, seed=SEED)
            vanilla = path_contributions(plain_model, spec, n, seed=SEED)["q_s"]
            residual = float(np.max(np.abs(ko_paths + ki_paths["q_lower"] - vanilla)))
            g.check(residual <= 1e-12, f"path-level parity residual {residual:.2e}")

            # the chunked stream makes results independent of the worker count
            model, spec = load_config("table2", steps=8)
            n = 2 * 32_768 + 123
            serial = price(model, spec, n, seed=SEED, workers=1)
            threaded = price(model, spec, n, seed=SEED, workers=4)
            g.check(
                serial.to_dict() == threaded.to_dict(),
                "worker count changed the reported values",
            )
