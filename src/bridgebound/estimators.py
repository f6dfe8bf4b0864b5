"""Barrier option estimators built on the path engine.

Every estimator is the mean of one per-path contribution, D + (A - D) * s:
a path pays A if it survives and D if it is knocked out, with (A, D) the
discounted payoff V and the discounted rebate for knock-out, and 0 and V
for knock-in.  The survival s is the discrete no-hit indicator I for the
discretely monitored q_s, and I * W for the crossing-corrected estimators,
with W the accumulated no-hit weight under the lower-bound, independence
or upper-bound rule.  The expression is monotone in s even after rounding,
so on each path the smaller and the larger of its values at the two bound
weights, q_lower and q_upper, bracket q_indep whatever the signs of A and
D.  q_s bounds q_upper only where A >= D.  Where every interval has at most
one barrier event the three weights coincide and q_exact is their common
value.

Per-path contributions are reduced chunk by chunk in a fixed order, so
results are bit-identical for any worker count.  The package never
changes BLAS settings: its products are sized to run on the calling thread.
"""

from __future__ import annotations

import math
import os
import statistics
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .model import MarketModel, ModelError, OptionSpec, read_int, read_real, validate
from .simulate import _compute_batch, _EnginePlan, _n_chunks, _plan

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
    continuously monitored price, path by path; ``q_s`` bounds them from
    above only where a path pays at least as much alive as knocked out.
    ``q_exact`` is set only when at most one barrier event is active per
    interval, where the crossing probability needs no bound.

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
        z = statistics.NormalDist().inv_cdf(1.0 - self.alpha / 2.0)
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


def _contributions(
    plan: _EnginePlan,
    spec: OptionSpec,
    discount: float,
    seed: int,
    n_paths: int,
    chunk: int,
    helper: Executor | None = None,
) -> tuple[np.ndarray, ...]:
    """One chunk's per-path q_s, q_lower, q_indep and q_upper contributions.

    A knock-out contribution reads nothing of a dead row, so its walk drops
    them and the payoff sees the alive rows' terminals only; a dead row's
    payoff is +0.0.  A knock-in walk evaluates the payoff on every row.
    """
    knock_out = spec.knock == "out"
    batch = _compute_batch(plan, seed, chunk, n_paths, compact=knock_out, helper=helper)
    v = np.zeros(len(batch.alive))
    if len(batch.terminal):
        v[batch.alive if knock_out else ...] = discount * spec.terminal_payoff(batch.terminal)
    # What a path pays if it survives and if it does not.
    alive_pay, dead_pay = (v, spec.rebate * discount) if knock_out else (0.0, v)
    gain = alive_pay - dead_pay
    # Survival per path for q_s, then I * W under each rule; the engine's
    # weights already carry I as +0.0 on dead rows.
    q_s, at_lower, q_indep, at_upper = (
        dead_pay + gain * surv
        for surv in (batch.alive.astype(float), batch.w_lower, batch.w_indep, batch.w_upper)
    )
    # Monotone in the survival after rounding, so on every path q_indep lies
    # between the values at the two bound weights, whichever sign A - D has.
    return q_s, np.minimum(at_lower, at_upper), q_indep, np.maximum(at_lower, at_upper)


T = TypeVar("T")


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _per_chunk(
    work: Callable[[int, Executor | None], T], n_chunks: int, n_steps: int, workers: int
) -> list[T]:
    """``work(chunk, helper)`` for every chunk, in chunk order.

    With ``workers > 1`` and more than one chunk, a pool of ``workers``
    threads takes the chunks.  Otherwise the chunks run here, one after the
    other, and where the process may use a second CPU and a walk has a next
    step to draw, one helper thread draws it (see ``simulate._walk``).  No
    thread outlives the call, and no product of a walk wakes a BLAS thread
    (see ``simulate._correlate``).
    """
    if workers > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # map() preserves chunk order, so what the caller reduces is the
            # same whatever the worker count.
            return list(pool.map(lambda c: work(c, None), range(n_chunks)))
    if n_steps < 2 or _usable_cpus() < 2:
        return [work(c, None) for c in range(n_chunks)]
    with ThreadPoolExecutor(max_workers=1) as helper:
        return [work(c, helper) for c in range(n_chunks)]


def price(
    model: MarketModel,
    spec: OptionSpec,
    n_paths: int,
    seed: int = 0,
    alpha: float = 0.05,
    workers: int | None = None,
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
    workers : int or None
        Thread count for chunk evaluation, at least 1; ``None``, the
        default, means the CPUs this process may use.  With one worker (or
        a single chunk), a helper thread draws each step's normals during
        the step before, where the process may use a second CPU.  Neither
        changes a bit, and neither changes BLAS settings.

    Returns
    -------
    PricingReport
    """
    n_paths = read_int("n_paths", n_paths, 2)
    seed = read_int("seed", seed, 0, 2**64)
    workers = _usable_cpus() if workers is None else read_int("workers", workers, 1)
    alpha = read_real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise ModelError(f"alpha must be in (0, 1), got {alpha}")
    validate(model, spec).raise_if_invalid()
    plan = _plan(model)
    discount = math.exp(-model.rate * model.grid.maturity)

    def partials(chunk_index: int, helper: Executor | None) -> list[tuple[int, float, float, float]]:
        sums = []
        for c in _contributions(plan, spec, discount, seed, n_paths, chunk_index, helper):
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

    per_chunk = _per_chunk(partials, _n_chunks(n_paths), len(plan.steps), workers)
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
    return PricingReport(
        *columns,
        # With one event per interval the three weights are equal bit for bit.
        q_exact=columns[-1] if plan.exact else None,
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
    """Per-path contributions: arrays of length ``n_paths`` whose means ``price`` reports.

    Keyed by ``q_s``, ``q_lower``, ``q_indep``, ``q_upper``, and ``q_exact``
    when every interval has at most one barrier event.  Walked as ``price``
    walks at its default worker count, so a knock-out's payoff hook sees
    the paths alive at maturity only; ``path_batches`` gives the engine's
    raw indicator and weights.
    """
    n_paths = read_int("n_paths", n_paths, 1)
    seed = read_int("seed", seed, 0, 2**64)
    validate(model, spec).raise_if_invalid()
    plan = _plan(model)
    discount = math.exp(-model.rate * model.grid.maturity)
    columns = zip(*_per_chunk(
        lambda c, helper: _contributions(plan, spec, discount, seed, n_paths, c, helper),
        _n_chunks(n_paths),
        len(plan.steps),
        _usable_cpus(),
    ))
    cols = {name: np.concatenate(col) for name, col in zip(ESTIMATOR_NAMES[:4], columns)}
    if plan.exact:
        cols["q_exact"] = cols["q_upper"]
    return cols
