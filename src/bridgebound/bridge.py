"""Per-interval barrier-hit probabilities conditioned on sampled endpoints.

Between two sampled points a log-price is a Brownian bridge, so the
probability that it touched a barrier inside the interval has a closed
form: ``xi = exp(-2 ln(X/s0) ln(X/s1) / (sigma^2 dt))``.  One barrier gives
the exact no-hit probability ``1 - xi``; several simultaneous barrier
events only pin the marginals, so the joint no-hit probability is bracketed
by its Frechet bounds and approximated by the independence product.

Conventions: a sampled endpoint at or beyond a barrier is a certain hit
(``xi = 1``); the hit exponent is computed in log space and clamped at 0 so
overflow cannot occur; underflow flushes to ``xi = 0``, the correct limit
for a far barrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Regime

__all__ = [
    "IntervalContext",
    "BridgeWeights",
    "xi",
    "marginal_no_hit",
    "frechet_bounds",
    "independent_no_hit",
    "interval_weights",
    "sample_extremum",
    "oracle_no_hit",
]

# Uniform arguments to the inverse hit-probability are clamped to
# [_U_EPS, 1 - _U_EPS]: xi^-1(0) is an infinite extremum.
_U_EPS = 1e-16

# Normals per block of oracle trials (2 MB): one block's draws and the paths
# built from them stay cache-sized.
_ORACLE_BLOCK_DOUBLES = 1 << 18


@dataclass(frozen=True)
class IntervalContext:
    """Endpoints and market parameters of one sampling interval.

    ``s0`` and ``s1`` are the sampled price vectors at the interval's ends,
    ``regime`` the parameters in force inside it, ``dt`` its length in years.
    """

    s0: np.ndarray
    s1: np.ndarray
    regime: Regime
    dt: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "s0", np.atleast_1d(np.asarray(self.s0, dtype=float)))
        object.__setattr__(self, "s1", np.atleast_1d(np.asarray(self.s1, dtype=float)))


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


def _xi_from_logs(x0, x1, log_barrier: float, variance: float, side: str):
    """Hit probability from log endpoints; vectorized over x0/x1.

    ``variance`` is sigma^2 * dt.  Zero variance degenerates to the straight
    line between the endpoints, which hits only if an endpoint touches.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    if side == "lower":
        touched = (x0 <= log_barrier) | (x1 <= log_barrier)
    elif side == "upper":
        touched = (x0 >= log_barrier) | (x1 >= log_barrier)
    else:
        raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
    if variance == 0.0:
        return np.where(touched, 1.0, 0.0)
    expo = (-2.0 / variance) * (log_barrier - x0) * (log_barrier - x1)
    value = np.exp(np.fmin(expo, 0.0))  # exponent > 0 only when touched
    return np.where(touched, 1.0, value)


def xi(s0: float, s1: float, barrier: float, sigma: float, dt: float, side: str = "lower") -> float:
    """Probability that one asset hits one barrier inside one interval.

    Conditional on the log-price bridging ``s0`` to ``s1`` over ``dt`` years
    with volatility ``sigma``.  Returns 1 when either endpoint touches or
    breaches the barrier (``side`` determines which direction counts as a
    breach), else ``exp(-2 ln(barrier/s0) ln(barrier/s1) / (sigma^2 dt))``.
    """
    if barrier <= 0.0:
        if side == "lower":
            return 0.0 if min(s0, s1) > barrier else 1.0
        return 1.0  # an upper barrier at or below zero is always breached
    value = _xi_from_logs(
        math.log(s0), math.log(s1), math.log(barrier), sigma * sigma * dt, side
    )
    return float(value)


def marginal_no_hit(ctx: IntervalContext, asset: int):
    """No-hit probability of one asset's barrier(s) within the interval.

    One active barrier gives the exact float ``1 - xi``.  Two barriers give
    the pair ``(1 - xi(lower), 1 - xi(upper))`` for downstream bound
    assembly; their exact joint is deliberately out of scope.

    Raises
    ------
    ValueError
        If the asset has no active barrier in this regime.
    """
    regime = ctx.regime
    lo, hi = regime.lower[asset], regime.upper[asset]
    if lo is None and hi is None:
        raise ValueError(f"asset {asset} has no active barrier in this regime")
    s0, s1 = float(ctx.s0[asset]), float(ctx.s1[asset])
    sigma = float(regime.sigma[asset])
    if lo is not None and hi is not None:
        return (
            1.0 - xi(s0, s1, lo, sigma, ctx.dt, side="lower"),
            1.0 - xi(s0, s1, hi, sigma, ctx.dt, side="upper"),
        )
    if lo is not None:
        return 1.0 - xi(s0, s1, lo, sigma, ctx.dt, side="lower")
    return 1.0 - xi(s0, s1, hi, sigma, ctx.dt, side="upper")


def frechet_bounds(hit_probs) -> tuple[float, float]:
    """Sharp bounds on the joint no-hit probability given event marginals.

    ``hit_probs`` lists the xi of every active barrier event in the
    interval.  Returns ``(max(1 - sum, 0), min(1 - xi))``; an empty list
    means no barriers, hence certain no-hit ``(1, 1)``.
    """
    xs = [float(p) for p in hit_probs]
    if not xs:
        return 1.0, 1.0
    lower = max(1.0 - sum(xs), 0.0)
    upper = 1.0 - max(xs)
    return lower, upper


def independent_no_hit(hit_probs) -> float:
    """Joint no-hit probability if the events were independent.

    The product of ``1 - xi`` over events; always lies between the Frechet
    bounds.
    """
    out = 1.0
    for p in hit_probs:
        out *= 1.0 - float(p)
    return out


def interval_weights(ctx: IntervalContext) -> BridgeWeights:
    """Assemble the no-hit bounds and independence product for one interval.

    Collects every active barrier event across assets (an asset with two
    barriers contributes two events) in canonical order; with at most one
    event the exact probability is available and all fields coincide.
    """
    events = ctx.regime.events()
    if not events:
        return BridgeWeights(1.0, 1.0, 1.0, 1.0)
    xis = []
    for k, side, level in events:
        xis.append(
            xi(
                float(ctx.s0[k]),
                float(ctx.s1[k]),
                level,
                float(ctx.regime.sigma[k]),
                ctx.dt,
                side=side,
            )
        )
    if len(xis) == 1:
        p = 1.0 - xis[0]
        return BridgeWeights(p, p, p, p)
    p_lower, p_upper = frechet_bounds(xis)
    p_indep = independent_no_hit(xis)
    # The chain p_lower <= p_indep <= p_upper holds mathematically; the
    # clamps only guard against last-ulp rounding inversions.
    p_indep = min(p_indep, p_upper)
    p_lower = min(p_lower, p_indep)
    return BridgeWeights(p_lower, p_indep, p_upper, None)


def sample_extremum(s0, s1, sigma: float, dt: float, u, which: str):
    """Invert the hit probability: the X with ``xi(X) = u``, vectorized in u.

    Solving for ``x = ln X`` gives the quadratic roots
    ``x = (a + b)/2 +/- sqrt((a - b)^2/4 - sigma^2 dt ln(u)/2)`` with
    ``a = ln s0``, ``b = ln s1``; ``which="max"`` takes the "+" root (X at or
    above both endpoints), ``which="min"`` the "-" root.  To draw the bridge
    maximum from a uniform U pass ``u = 1 - U`` (its CDF is ``1 - xi``); the
    minimum uses ``u = U`` directly.  ``u`` is clamped to
    ``[1e-16, 1 - 1e-16]`` to exclude infinite extrema.
    """
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    u_arr = np.clip(np.asarray(u, dtype=float), _U_EPS, 1.0 - _U_EPS)
    a = math.log(s0)
    b = math.log(s1)
    disc = 0.25 * (a - b) ** 2 - 0.5 * sigma * sigma * dt * np.log(u_arr)
    root = np.sqrt(disc)
    x = 0.5 * (a + b) + (root if which == "max" else -root)
    out = np.exp(x)
    return float(out) if np.isscalar(u) else out


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
    doubles, so memory is bounded by one block whatever ``trials`` is.  The
    normals are one ``default_rng(seed)`` stream read in (trial, substep,
    asset) order, so the draws, and the estimate, are the same for any
    block size.  Only the assets that carry a barrier are built into paths.
    """
    if substeps < 100:
        raise ValueError(f"substeps must be >= 100, got {substeps}")
    if trials < 10_000:
        raise ValueError(f"trials must be >= 10000, got {trials}")
    regime = ctx.regime
    events = regime.events()
    if not events:
        return 1.0, 0.0
    from .model import factor_correlation  # deferred to avoid cycle at import time

    d = regime.d
    factor = factor_correlation(regime.corr)
    x0 = np.log(ctx.s0)
    x1 = np.log(ctx.s1)
    # (side, log level) of each barrier, keyed by the asset that carries it
    barriers: dict[int, list[tuple[str, float]]] = {}
    for k, side, level in events:
        b = math.log(level) if level > 0 else -math.inf
        if not (x0[k] > b if side == "lower" else x0[k] < b):
            return 0.0, 0.0  # every path starts at x0, so every trial hits
        barriers.setdefault(k, []).append((side, b))
    frac = np.linspace(0.0, 1.0, substeps + 1)[1:]  # grid points after t = 0
    lines = {k: x0[k] + frac * (x1[k] - x0[k]) for k in barriers}
    scale = regime.sigma * math.sqrt(ctx.dt / substeps)

    block = max(1, _ORACLE_BLOCK_DOUBLES // (substeps * d))
    z_block = np.empty((block, substeps, d))
    path_block = np.empty((block, substeps))
    pin_block = np.empty((block, substeps))
    rng = np.random.default_rng(seed)
    survivors = 0
    for done in range(0, trials, block):
        n = min(block, trials - done)
        z = rng.standard_normal(out=z_block[:n])
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
