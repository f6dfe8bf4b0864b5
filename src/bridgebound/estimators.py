"""Barrier option estimators built on the path engine.

For a knock-out payoff V with discrete no-hit indicator I and accumulated
no-hit weight W, the crossing-corrected estimator is V * I * W.  Running it
with the lower-bound, independence, and upper-bound weights gives a bracket
[q_lower, q_upper] around the continuously monitored price with q_indep in
between; V * I alone is the discretely monitored estimator q_s.  Knock-in
prices come from in-out parity applied path-wise, V * (1 - I * W), which
swaps the roles of the two bounds.  A cash rebate R paid at maturity when
the option knocks out blends both legs: V * I * W + R_disc * (1 - I * W).
Every column is that one expression, A * I * W + D * (1 - I * W), with
(A, D) = (V, R_disc) for knock-out and (0, V) for knock-in.  Where every
interval has at most one barrier event the three weights coincide and
q_exact is their common value.

Per-path contributions are reduced chunk by chunk in a fixed order, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .model import MarketModel, ModelError, OptionSpec, read_int, read_real, validate
from .simulate import _compute_batch, _n_chunks, _plan

__all__ = [
    "EstimatorResult",
    "PointEstimate",
    "PricingReport",
    "price",
    "path_contributions",
]

# The estimator table's names, in report order; q_exact is present only when
# every interval has at most one barrier event.
ESTIMATOR_NAMES = ("q_s", "q_lower", "q_indep", "q_upper", "q_exact", "q0", "q1", "q2")


@dataclass(frozen=True)
class EstimatorResult:
    """Monte Carlo mean and its standard error."""

    mean: float
    std_error: float


@dataclass(frozen=True)
class PointEstimate:
    """Midpoint of two estimators, with a combined error measure.

    ``std_error`` is half the bracket width plus half the two standard
    errors, so it covers both the statistical noise and the systematic
    spread between the bracketing estimators.
    """

    value: float
    std_error: float


@dataclass(frozen=True)
class PricingReport:
    """Full output of one pricing run.

    The fields are what the run measured.  ``q_s`` is the discretely
    monitored estimator; q_lower / q_indep / q_upper bracket the
    continuously monitored price; ``q_exact`` is set only when at most one
    barrier event is active per interval, where the crossing probability
    needs no bound.

    q0 / q1 / q2 and ``ci`` are derived from those columns on each read.
    q0 / q1 / q2 are the :class:`PointEstimate` midpoints of (lower, upper),
    (lower, indep) and (indep, upper).  ``ci`` is the outer interval
    [q_lower - z se, q_upper + z se] at two-sided level ``alpha``, with z
    the normal quantile at 1 - alpha / 2; it covers the continuous price
    whenever each bound's own normal interval does, hence conservatively.
    """

    q_s: EstimatorResult
    q_lower: EstimatorResult
    q_indep: EstimatorResult
    q_upper: EstimatorResult
    q_exact: EstimatorResult | None
    alpha: float
    n_paths: int
    seed: int

    @property
    def q0(self) -> PointEstimate:
        return _midpoint(self.q_lower, self.q_upper)

    @property
    def q1(self) -> PointEstimate:
        return _midpoint(self.q_lower, self.q_indep)

    @property
    def q2(self) -> PointEstimate:
        return _midpoint(self.q_indep, self.q_upper)

    @property
    def ci(self) -> tuple[float, float]:
        z = ndtri(1.0 - self.alpha / 2.0)
        return (
            self.q_lower.mean - z * self.q_lower.std_error,
            self.q_upper.mean + z * self.q_upper.std_error,
        )

    @property
    def estimates(self) -> dict[str, tuple[float, float]]:
        """The estimator table: name -> (value, std_error), in report order."""
        table = {}
        for name in ESTIMATOR_NAMES:
            est = getattr(self, name)
            if isinstance(est, EstimatorResult):
                table[name] = (est.mean, est.std_error)
            elif est is not None:
                table[name] = (est.value, est.std_error)
        return table

    def to_dict(self) -> dict:
        """Plain-types view of the report, for JSON output."""
        out = {
            "n_paths": self.n_paths,
            "seed": self.seed,
            "alpha": self.alpha,
            "estimators": {},
            "point_estimates": {},
            "ci": list(self.ci),
        }
        for name, (value, se) in self.estimates.items():
            if isinstance(getattr(self, name), PointEstimate):
                out["point_estimates"][name] = {"value": value, "std_error": se}
            else:
                out["estimators"][name] = {"mean": value, "std_error": se}
        return out


def _midpoint(lo: EstimatorResult, hi: EstimatorResult) -> PointEstimate:
    value = 0.5 * (lo.mean + hi.mean)
    spread = 0.5 * (hi.mean - lo.mean) + 0.5 * (hi.std_error + lo.std_error)
    return PointEstimate(value=value, std_error=spread)


def price(
    model: MarketModel,
    spec: OptionSpec,
    n_paths: int,
    seed: int = 0,
    alpha: float = 0.05,
    workers: int = 1,
) -> PricingReport:
    """Price the option under the model with all estimators in one pass.

    Dispatches on ``spec.knock``; a nonzero ``spec.rebate`` is paid at
    maturity when a knock-out option is knocked out.  Refusals raise ModelError.

    Parameters
    ----------
    model, spec :
        Market model and option contract.  Both are validated first.
    n_paths : int
        Number of Monte Carlo paths, at least 2.
    seed : int
        Stream key, in [0, 2**64).  Same seed, same answer, any workers.
    alpha : float
        Two-sided level of the outer confidence interval, in (0, 1).
    workers : int
        Thread count for chunk evaluation, at least 1.

    Returns
    -------
    PricingReport
    """
    n_paths = read_int("n_paths", n_paths, 2)
    seed = read_int("seed", seed, 0, 2**64)
    workers = read_int("workers", workers, 1)
    alpha = read_real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise ModelError(f"alpha must be in (0, 1), got {alpha}")
    validate(model, spec).raise_if_invalid()
    knock_out = spec.knock == "out"
    plan = _plan(model)
    discount = math.exp(-model.rate * model.grid.maturity)

    def partials(chunk_index: int) -> list[tuple[int, float, float, float]]:
        # A knock-out contribution reads nothing of a dead row, so its walk
        # drops them and the payoff sees the alive rows' terminals only; a
        # dead row's v is +0.0.  A knock-in walk returns every row's terminal.
        batch = _compute_batch(plan, seed, chunk_index, n_paths, compact=knock_out)
        v = np.zeros(len(batch.alive))
        if len(batch.terminal):
            v[batch.alive if knock_out else ...] = discount * spec.terminal_payoff(batch.terminal)
        # What a path pays if it survives and if it does not.
        alive_pay, dead_pay = (v, spec.rebate * discount) if knock_out else (0.0, v)
        sums = []
        # Survival I * W per path for q_s, q_lower, q_indep, q_upper; the
        # engine's weights already carry I as +0.0 on dead rows, and every
        # column is added at full length, in row order.
        for surv in (batch.alive.astype(float), batch.w_lower, batch.w_indep, batch.w_upper):
            c = alive_pay * surv + dead_pay * (1.0 - surv)
            # The chunk's count, sum, mean and sum of squared deviations
            # from that mean: two-pass, so nothing cancels against a large
            # mean.  The mean is refined by its residual, which makes it
            # exact, and the deviations 0, for a constant column.
            s = float(np.sum(c))
            mean = s / len(c)
            dev = c - mean
            mean += float(np.sum(dev)) / len(c)
            np.subtract(c, mean, out=dev)
            dev *= dev
            sums.append((len(c), s, mean, float(np.sum(dev))))
        return sums

    n_chunks = _n_chunks(n_paths)
    if workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # map() preserves chunk order, so the reduction below is the
            # same floating-point sum regardless of worker count.
            per_chunk = list(pool.map(partials, range(n_chunks)))
    else:
        per_chunk = [partials(c) for c in range(n_chunks)]

    columns = []
    for col in zip(*per_chunk):
        # Merge the chunks' means and squared deviations in chunk order
        # (Chan, Golub & LeVeque 1979); the reported mean stays the plain
        # sum over n_paths.
        count, total, running_mean, m2 = 0, 0.0, 0.0, 0.0
        for n, s, chunk_mean, chunk_m2 in col:
            delta = chunk_mean - running_mean
            m2 += chunk_m2 + count * n / (count + n) * delta * delta
            running_mean += n / (count + n) * delta
            total += s
            count += n
        mean = total / n_paths
        se = math.sqrt(m2 / (n_paths - 1) / n_paths)
        columns.append(EstimatorResult(mean=mean, std_error=se))
    q_s, q_lower, q_indep, q_upper = columns
    if not knock_out:
        # The lower no-hit bound yields the upper knock-in price and vice versa.
        q_lower, q_upper = q_upper, q_lower
    return PricingReport(
        q_s=q_s,
        q_lower=q_lower,
        q_indep=q_indep,
        q_upper=q_upper,
        # With one event per interval the three weights are equal bit for bit.
        q_exact=q_upper if plan.exact else None,
        alpha=alpha,
        n_paths=n_paths,
        seed=seed,
    )


def path_contributions(
    model: MarketModel,
    spec: OptionSpec,
    n_paths: int,
    seed: int = 0,
) -> dict[str, np.ndarray]:
    """Per-path diagnostics: discounted payoff, indicator, and weights.

    Returns arrays of length ``n_paths`` keyed by ``payoff``, ``alive``,
    ``w_lower``, ``w_indep``, ``w_upper``, and ``w_exact`` when available.
    Intended for inspection and tests, not for pricing at scale.
    """
    n_paths = read_int("n_paths", n_paths, 1)
    seed = read_int("seed", seed, 0, 2**64)
    validate(model, spec).raise_if_invalid()
    plan = _plan(model)
    discount = math.exp(-model.rate * model.grid.maturity)
    parts: dict[str, list[np.ndarray]] = {}
    for chunk_index in range(_n_chunks(n_paths)):
        batch = _compute_batch(plan, seed, chunk_index, n_paths)
        cols = {
            "payoff": discount * spec.terminal_payoff(batch.terminal),
            "alive": batch.alive,
            "w_lower": batch.w_lower,
            "w_indep": batch.w_indep,
            "w_upper": batch.w_upper,
        }
        if plan.exact:
            cols["w_exact"] = batch.w_upper
        for name, arr in cols.items():
            parts.setdefault(name, []).append(arr)
    return {name: np.concatenate(arrs) for name, arrs in parts.items()}
