"""Closed-form reference prices for validating the Monte Carlo engine.

Black-Scholes vanilla call, the reflection-principle down-and-out call and
down-and-out digital, and :func:`reference_price`, the one place that knows
which continuous price fits which contract: it reads the model and the
option, applies a closed form where one exists (one asset, or two assets at
correlation 0 or 1) and otherwise returns a value pinned for that exact
contract, refusing any contract it cannot price.  The normal CDF is scipy's
ndtr, exact to double precision, so golden comparisons at three decimals
are safe; it is imported where it is used, so importing the package does
not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import MarketModel, ModelError, OptionSpec, read_real, validate

__all__ = [
    "BsParams",
    "vanilla_call",
    "down_and_out_call",
    "down_and_out_digital",
    "no_hit_probability",
    "reference_price",
]


@dataclass(frozen=True)
class BsParams:
    """Inputs of the single-asset closed forms, each a finite real number.

    ``barrier`` is the lower knock-out level; None (or any non-positive
    value) means no barrier.  A refused value raises ModelError naming it.
    """

    spot: float
    strike: float
    sigma: float
    rate: float
    maturity: float
    barrier: float | None = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is None and name == "barrier":
                continue
            if not math.isfinite(read_real(name, value)):
                raise ModelError(f"{name} must be finite, got {value}")
            if value <= 0 and name not in ("rate", "barrier"):
                raise ModelError(f"{name} must be positive, got {value}")
        if self.barrier is not None and self.barrier >= self.spot:
            raise ModelError("barrier must lie below spot")


def vanilla_call(p: BsParams) -> float:
    """Black-Scholes value of a European call (any barrier is ignored)."""
    return _bs_call(p.spot, p.strike, p.sigma, p.rate, p.maturity)


def _bs_call(s: float, k: float, sigma: float, r: float, t: float) -> float:
    from scipy.special import ndtr
    vol = sigma * math.sqrt(t)
    d1 = (math.log(s / k) + (r + 0.5 * sigma**2) * t) / vol
    d2 = d1 - vol
    return s * ndtr(d1) - k * math.exp(-r * t) * ndtr(d2)


def down_and_out_call(p: BsParams) -> float:
    """Reflection-principle value of a call knocked out at a lower barrier.

    For h <= K the standard image formula C(S) - (h/S)^(2r/sigma^2 - 1)
    C(h^2/S) applies; for h > K the live payoff region starts at the
    barrier, so the call restricted to S(T) > h is imaged instead.
    """
    h = p.barrier
    if h is None or h <= 0.0:
        return vanilla_call(p)
    s, k, sigma, r, t = p.spot, p.strike, p.sigma, p.rate, p.maturity
    power = 2.0 * r / sigma**2 - 1.0
    image = (h / s) ** power
    if h <= k:
        return _bs_call(s, k, sigma, r, t) - image * _bs_call(h * h / s, k, sigma, r, t)
    return _restricted_call(s, k, h, sigma, r, t) - image * _restricted_call(
        h * h / s, k, h, sigma, r, t
    )


def _restricted_call(s: float, k: float, h: float, sigma: float, r: float, t: float) -> float:
    # E[e^{-rT} (S_T - K)^+ ; S_T > h] for h > K: a call struck at h plus
    # a cash payment of (h - K) in the same region.
    from scipy.special import ndtr
    vol = sigma * math.sqrt(t)
    d2 = (math.log(s / h) + (r - 0.5 * sigma**2) * t) / vol
    return _bs_call(s, h, sigma, r, t) + (h - k) * math.exp(-r * t) * ndtr(d2)


def no_hit_probability(p: BsParams) -> float:
    """P(min of S over [0, T] stays above the barrier), risk-neutral.

    Undiscounted; the down-and-out digital is the discounted version.
    Returns 1 when there is no barrier.
    """
    from scipy.special import ndtr
    h = p.barrier
    if h is None or h <= 0.0:
        return 1.0
    s, sigma, r, t = p.spot, p.sigma, p.rate, p.maturity
    nu = r - 0.5 * sigma**2
    b = math.log(h / s)
    vol = sigma * math.sqrt(t)
    return float(ndtr((-b + nu * t) / vol) - math.exp(2.0 * nu * b / sigma**2) * ndtr((b + nu * t) / vol))


def down_and_out_digital(p: BsParams) -> float:
    """Cash-or-nothing value e^{-rT} P(min of S over [0, T] > barrier)."""
    return math.exp(-p.rate * p.maturity) * no_hit_probability(p)


# Contracts whose continuous price has no elementary closed form, keyed by
# every contract parameter but the step count, compared exactly: spot, rate,
# maturity, mu, sigma, corr (row-major), lower and upper barriers, strike.
_PAIR = ((100.0, 100.0), 0.1, 1.0, (0.1, 0.1), (0.3, 0.3))
_PINNED = {
    # table1b: call on the unbarriered asset 0, barrier on asset 1 (published)
    (*_PAIR, (1.0, 0.5, 0.5, 1.0), (None, 90.0), (None, None), 100.0): 8.256,
    # table2: double knock-out call (published, double-barrier series)
    ((1000.0,), 0.1, 0.5, (0.1,), (0.2,), (1.0,), (900.0,), (1100.0,), 1000.0): 1.793,
    # table3 at rho -1, -0.5, 0.5: independent numerical solutions
    **{
        (*_PAIR, (1.0, rho, rho, 1.0), (90.0, 90.0), (None, None), 100.0): value
        for rho, value in ((-1.0, 0.0131), (-0.5, 1.395), (0.5, 6.527))
    },
}


def reference_price(model: MarketModel, spec: OptionSpec) -> float:
    """Continuously monitored price of a knock-out call, worked out from the contract.

    Needs one regime broadcast to every step, risk-neutral drift (``mu ==
    rate``) and a plain knock-out call on asset 0.  Closed forms cover

    * one asset with a lower barrier: the reflection-principle call;
    * two assets with lower barriers at correlation 0: the down-and-out
      call on asset 0 times asset 1's no-hit probability;
    * two assets with lower barriers at correlation 1 and equal
      volatilities: one driver, so a down-and-out call at the binding level.

    Any other contract must match a pinned one in every parameter but the
    step count.  Raises ValueError for everything else.
    """
    validate(model, spec).raise_if_invalid()
    regime = model.regimes[0]
    if any(r is not regime for r in model.regimes):
        raise ValueError("reference_price needs one regime broadcast to every step")
    if spec.kind != "call" or spec.asset != 0 or spec.knock != "out" or spec.rebate != 0.0:
        raise ValueError("reference_price needs a plain knock-out call on asset 0")
    if np.any(regime.mu != model.rate):
        raise ValueError(f"reference_price needs mu == rate, got mu = {regime.mu.tolist()}")
    t = model.grid.maturity

    def leg(k: int, barrier: float | None) -> BsParams:
        return BsParams(
            spot=float(model.spot[k]),
            strike=spec.strike,
            sigma=float(regime.sigma[k]),
            rate=model.rate,
            maturity=t,
            barrier=barrier,
        )

    if all(u is None for u in regime.upper):
        if model.d == 1:
            return down_and_out_call(leg(0, regime.lower[0]))
        rho = regime.corr[0, 1] if model.d == 2 else None
        if rho == 0.0:
            return down_and_out_call(leg(0, regime.lower[0])) * no_hit_probability(
                leg(1, regime.lower[1])
            )
        if rho == 1.0:
            if regime.sigma[0] != regime.sigma[1]:
                raise ValueError("correlation 1 reduction requires equal volatilities")
            # S2(t) is S1(t) scaled by the spot ratio, so its barrier maps onto
            # asset 0; the option is a down-and-out call at the binding level
            # (0 where neither asset has a barrier).
            scaled = (regime.lower[1] or 0.0) * float(model.spot[0]) / float(model.spot[1])
            return down_and_out_call(leg(0, max(regime.lower[0] or 0.0, scaled)))
    key = (tuple(model.spot), model.rate, t, tuple(regime.mu), tuple(regime.sigma))
    key += (tuple(regime.corr.ravel()), regime.lower, regime.upper, spec.strike)
    if key not in _PINNED:
        raise ValueError("no continuous reference price for this contract")
    return _PINNED[key]
