"""Per-interval barrier-hit probabilities conditioned on sampled endpoints.

Between two sampled points a log-price is a Brownian bridge, so the
probability that it touched a barrier inside the interval has a closed
form: ``xi = exp(-2 ln(X/s0) ln(X/s1) / (sigma^2 dt))``.  One barrier gives
the exact no-hit probability ``1 - xi``; several simultaneous barrier
events only pin the marginals, so the joint no-hit probability is bracketed
by its Frechet bounds and approximated by the independence product.

One vector kernel serves the path engine's (d, rows) log prices and
:func:`interval_weights`' single row alike: :func:`_events` lists the
barrier events, :func:`_clear_touched` clears the alive flag of rows that
touch one, and :func:`_no_hit` turns the events' ``xi`` into the bounds.

Conventions: a sampled endpoint at or beyond a barrier is a certain hit
(weight 0); a lower barrier at 0 is never hit by positive prices, so it is
no event; the hit exponent is clamped at 0 so overflow cannot occur;
underflow flushes to ``xi = 0``, the correct limit for a far barrier.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

import numpy as np

from .model import ModelError, Regime, _regime_violations, factor_correlation, read_int, read_real

__all__ = [
    "IntervalContext",
    "BridgeWeights",
    "interval_weights",
    "oracle_no_hit",
]

# Normals per block of oracle trials (2 MB): one block's draws and the paths
# built from them stay cache-sized.
_ORACLE_BLOCK_DOUBLES = 1 << 18


@dataclass(frozen=True)
class IntervalContext:
    """Endpoints and market parameters of one sampling interval.

    ``s0`` and ``s1`` are the sampled price vectors at the interval's ends,
    ``regime`` the parameters in force inside it, ``dt`` its length in years.
    The regime must pass :func:`~bridgebound.model.validate`'s per-regime
    checks, prices must be finite and positive, one per asset of the
    regime, and ``dt`` finite and positive; anything else raises ModelError.
    """

    s0: np.ndarray
    s1: np.ndarray
    regime: Regime
    dt: float

    def __post_init__(self) -> None:
        d = self.regime.d
        problems = _regime_violations(self.regime, d, "regime")
        if problems:
            raise ModelError("; ".join(problems))
        for name in ("s0", "s1"):
            values = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if values.shape != (d,):
                raise ModelError(f"{name} must have {d} entries, got shape {values.shape}")
            if not np.all(np.isfinite(values) & (values > 0.0)):
                raise ModelError(f"{name} entries must be finite and > 0, got {values.tolist()}")
            object.__setattr__(self, name, values)
        if not (math.isfinite(read_real("dt", self.dt)) and self.dt > 0.0):
            raise ModelError(f"dt must be finite and > 0, got {self.dt}")


@dataclass(frozen=True)
class BridgeWeights:
    """Joint no-hit probability of one interval: bounds and approximations.

    ``p_exact`` is present only when the interval has at most one active
    barrier event, in which case all four values coincide.
    """

    p_lower: float
    p_indep: float
    p_upper: float
    p_exact: float | None = None


@dataclass(frozen=True)
class _Event:
    asset: int
    side: str  # "lower" or "upper"
    log_level: float
    variance: float  # sigma_k^2 * dt


def _events(regime: Regime, dt: float) -> tuple[_Event, ...]:
    """The regime's barrier events over ``dt`` years, in canonical order.

    A lower barrier at 0 is never hit by positive prices, so it is dropped;
    the engine, the interval weights and the oracle all see the same events.
    """
    return tuple(
        _Event(k, side, math.log(level), float(regime.sigma[k]) ** 2 * dt)
        for k, side, level in regime.events()
        if not (side == "lower" and level == 0.0)
    )


def _clear_touched(alive: np.ndarray, events, x0: np.ndarray, x1: np.ndarray) -> None:
    """Clear ``alive`` in place where a row's sampled endpoints touch or cross a barrier.

    ``x0`` and ``x1`` are the log prices at the interval's ends, (d, rows);
    both must sit strictly inside every barrier for a row to stay alive.
    """
    for ev in events:
        a, b = x0[ev.asset], x1[ev.asset]
        if ev.side == "lower":
            alive &= (a > ev.log_level) & (b > ev.log_level)
        else:
            alive &= (a < ev.log_level) & (b < ev.log_level)


def _xi_inside(x0, x1, log_barrier: float, variance: float):
    """Hit probability of a bridge with both endpoints inside the barrier.

    Vectorized over x0/x1; ``variance`` is sigma^2 * dt, and zero variance
    is the straight line, which stays inside.  A row with an endpoint on or
    beyond the barrier gets some value in [0, 1], which the caller must
    override or discard.
    """
    if variance == 0.0:
        return np.zeros(np.broadcast(x0, x1).shape)
    expo = (-2.0 / variance) * (log_barrier - x0) * (log_barrier - x1)
    return np.exp(np.fmin(expo, 0.0))  # exponent > 0 only when touched


def _combine(xis: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint no-hit ``(p_lower, p_indep, p_upper)`` from per-event hit probabilities.

    ``xis`` yields one array per event, at least one, all of one shape.  It is
    read once, in order, so a generator keeps few events' arrays alive at a
    time.  One event gives the exact ``1 - xi`` three times; several give the
    Frechet bounds and the independence product, elementwise.
    """
    xis = iter(xis)
    first = next(xis)
    second = next(xis, None)
    if second is None:
        p = 1.0 - first
        return p, p, p
    # Seeded from the first event: 0 + x, 1 * y and fmin(1, y) are exact for
    # x, y in [0, 1], so this is the sum, product and minimum from 0, 1, 1.
    sum_xi = first.copy()
    prod = 1.0 - first
    least = prod.copy()
    no_hit = np.empty_like(prod)
    for x in chain((second,), xis):
        sum_xi += x
        np.subtract(1.0, x, out=no_hit)
        prod *= no_hit
        np.fmin(least, no_hit, out=least)
    # Rounding is monotone, so fl(a*b) <= min(a, b) for a, b in [0, 1]: the
    # product never exceeds the least 1 - xi and p_indep <= p_upper holds
    # exactly.  1 - sum can round above the product, hence the fmin.
    p_lower = np.fmin(np.fmax(1.0 - sum_xi, 0.0), prod)
    return p_lower, prod, least


def _no_hit(events, x0: np.ndarray, x1: np.ndarray):
    """The no-hit bounds of :func:`_combine` at (d, rows) endpoints, over one event or more.

    Every row is taken as inside; the caller zeroes touched rows by the
    alive flag of :func:`_clear_touched`.
    """
    return _combine(
        _xi_inside(x0[ev.asset], x1[ev.asset], ev.log_level, ev.variance) for ev in events
    )


def interval_weights(ctx: IntervalContext) -> BridgeWeights:
    """Assemble the no-hit bounds and independence product for one interval.

    Collects every active barrier event across assets (an asset with two
    barriers contributes two events) in canonical order; with at most one
    event the exact probability is available and all fields coincide.
    """
    events = _events(ctx.regime, ctx.dt)
    if not events:
        return BridgeWeights(1.0, 1.0, 1.0, 1.0)
    x0, x1 = np.log(ctx.s0)[:, None], np.log(ctx.s1)[:, None]  # one row
    alive = np.ones(1, dtype=bool)
    _clear_touched(alive, events, x0, x1)
    p_lower, p_indep, p_upper = (float(p[0] * alive[0]) for p in _no_hit(events, x0, x1))
    return BridgeWeights(p_lower, p_indep, p_upper, p_upper if len(events) == 1 else None)


def oracle_no_hit(
    ctx: IntervalContext,
    substeps: int,
    trials: int,
    seed: int | None = None,
) -> tuple[float, float]:
    """Brute-force no-hit probability from fine-grid conditioned bridges.

    Simulates ``trials`` correlated Brownian-bridge paths between the
    context's endpoints on a grid of ``substeps`` points and returns the
    empirical joint no-hit probability with its binomial standard error.
    Test plumbing only: it monitors discretely, so its estimate is biased
    upward by O(1/sqrt(substeps)).

    Trials run in blocks whose normals fill about ``_ORACLE_BLOCK_DOUBLES``
    doubles, and the normals of the next block are drawn on one helper
    thread while the calling thread decides the current one, so memory is
    bounded by two blocks whatever ``trials`` is.  The normals are one
    ``default_rng(seed)`` stream read in (trial, substep, asset) order, so
    the draws, and the estimate, are the same for any block size and with
    or without the overlap.  Only the assets that carry a barrier are built
    into paths.  ``seed`` is None, for fresh entropy, or in [0, 2**64).
    """
    substeps = read_int("substeps", substeps, 100)
    trials = read_int("trials", trials, 10_000)
    if seed is not None:
        seed = read_int("seed", seed, 0, 2**64)
    regime = ctx.regime
    events = _events(regime, ctx.dt)
    if not events:
        return 1.0, 0.0
    d = regime.d
    factor = factor_correlation(regime.corr)
    x0, x1 = np.log(ctx.s0), np.log(ctx.s1)
    # (side, log level) of each barrier, keyed by the asset that carries it
    barriers: dict[int, list[tuple[str, float]]] = {}
    for ev in events:
        k, side, b = ev.asset, ev.side, ev.log_level
        if not (x0[k] > b if side == "lower" else x0[k] < b):
            return 0.0, 0.0  # every path starts at x0, so every trial hits
        barriers.setdefault(k, []).append((side, b))
    frac = np.linspace(0.0, 1.0, substeps + 1)[1:]  # grid points after t = 0
    lines = {k: x0[k] + frac * (x1[k] - x0[k]) for k in barriers}
    scale = regime.sigma * math.sqrt(ctx.dt / substeps)

    block = max(1, _ORACLE_BLOCK_DOUBLES // (substeps * d))
    starts = range(0, trials, block)
    z_blocks = (np.empty((block, substeps, d)), np.empty((block, substeps, d)))
    path_block = np.empty((block, substeps))
    pin_block = np.empty((block, substeps))
    rng = np.random.default_rng(seed)

    def draw(i: int) -> np.ndarray:
        # block i's normals, next in the stream; the fill releases the GIL
        n = min(block, trials - starts[i])
        return rng.standard_normal(out=z_blocks[i % 2][:n])

    survivors = 0
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, 0)
        for i in range(len(starts)):
            z = pending.result()
            if i + 1 < len(starts):
                # block i+1 fills the buffer of block i-1, already decided
                pending = pool.submit(draw, i + 1)
            n = len(z)
            path, pin = path_block[:n], pin_block[:n]
            alive = np.ones(n, dtype=bool)
            for k, sides in barriers.items():
                np.matmul(z, factor[k], out=path)  # asset k's correlated increments
                path *= scale[k]
                np.cumsum(path, axis=1, out=path)
                np.multiply(frac, path[:, -1:], out=pin)
                path -= pin  # pin the walk's end to 0: a Brownian bridge
                path += lines[k]
                for side, b in sides:
                    if side == "lower":
                        alive &= path.min(axis=1) > b
                    else:
                        alive &= path.max(axis=1) < b
            survivors += int(alive.sum())
    p = survivors / trials
    se = math.sqrt(p * (1.0 - p) / trials)
    return p, se
