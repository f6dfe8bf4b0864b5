"""Closed-form reference prices for validating the Monte Carlo engine.

Black-Scholes vanilla call, the reflection-principle down-and-out call and
down-and-out digital, and the degenerate-correlation reductions of the
symmetric two-asset knock-out call.  The normal CDF is scipy's ndtr, exact
to double precision, so golden comparisons at three decimals are safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ndtr

from .model import MarketModel, OptionSpec

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
    """Inputs of the single-asset closed forms.

    ``barrier`` is the lower knock-out level; None (or any non-positive
    value) means no barrier.
    """

    spot: float
    strike: float
    sigma: float
    rate: float
    maturity: float
    barrier: float | None = None

    def __post_init__(self) -> None:
        if self.spot <= 0 or self.strike <= 0:
            raise ValueError("spot and strike must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.maturity <= 0:
            raise ValueError("maturity must be positive")
        if self.barrier is not None and self.barrier >= self.spot:
            raise ValueError("barrier must lie below spot")


def vanilla_call(p: BsParams) -> float:
    """Black-Scholes value of a European call (any barrier is ignored)."""
    return _bs_call(p.spot, p.strike, p.sigma, p.rate, p.maturity)


def _bs_call(s: float, k: float, sigma: float, r: float, t: float) -> float:
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
    vol = sigma * math.sqrt(t)
    d2 = (math.log(s / h) + (r - 0.5 * sigma**2) * t) / vol
    return _bs_call(s, h, sigma, r, t) + (h - k) * math.exp(-r * t) * ndtr(d2)


def no_hit_probability(p: BsParams) -> float:
    """P(min of S over [0, T] stays above the barrier), risk-neutral.

    Undiscounted; the down-and-out digital is the discounted version.
    Returns 1 when there is no barrier.
    """
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


# Two-asset symmetric knock-out call values that have no elementary closed
# form; pinned from independent numerical solutions of the same contract.
_PINNED_TWO_ASSET = {-1.0: 0.0131, -0.5: 1.395, 0.5: 6.527}

# The configuration those pinned values belong to.
_PINNED_SHAPE = {
    "spot": (100.0, 100.0),
    "rate": 0.1,
    "maturity": 1.0,
    "sigma": (0.3, 0.3),
    "lower": (90.0, 90.0),
    "strike": 100.0,
}


def reference_price(rho: float, model: MarketModel, spec: OptionSpec) -> float:
    """Continuously monitored price of the two-asset knock-out call.

    Covers the degenerate correlations of the symmetric two-asset setup
    (call on asset 0, lower barriers on both assets, one regime):

    * ``rho = 0``: product of a down-and-out call on the payoff asset and
      the other asset's no-hit probability (independence factorizes).
    * ``rho = 1``: the two assets are one driver, so the option collapses
      to a down-and-out call whose barrier is the binding one.
    * ``rho in {-1, -0.5, 0.5}``: pinned constants, valid only for the
      exact symmetric configuration they were computed for.

    Raises ValueError for any other correlation or a mismatched model.
    """
    _check_two_asset(model, spec)
    regime = model.regimes[0]
    t = model.grid.maturity
    if rho == 0.0:
        leg = BsParams(
            spot=float(model.spot[0]),
            strike=spec.strike,
            sigma=float(regime.sigma[0]),
            rate=model.rate,
            maturity=t,
            barrier=regime.lower[0],
        )
        other = BsParams(
            spot=float(model.spot[1]),
            strike=spec.strike,
            sigma=float(regime.sigma[1]),
            rate=model.rate,
            maturity=t,
            barrier=regime.lower[1],
        )
        return down_and_out_call(leg) * no_hit_probability(other)
    if rho == 1.0:
        if regime.sigma[0] != regime.sigma[1]:
            raise ValueError("rho = 1 reduction requires equal volatilities")
        # S2(t) is S1(t) scaled by the spot ratio, so its barrier maps onto
        # asset 0; the option is a down-and-out call at the binding level.
        levels = []
        if regime.lower[0] is not None:
            levels.append(regime.lower[0])
        if regime.lower[1] is not None:
            levels.append(regime.lower[1] * float(model.spot[0]) / float(model.spot[1]))
        p = BsParams(
            spot=float(model.spot[0]),
            strike=spec.strike,
            sigma=float(regime.sigma[0]),
            rate=model.rate,
            maturity=t,
            barrier=max(levels) if levels else None,
        )
        return down_and_out_call(p)
    if rho in _PINNED_TWO_ASSET:
        _check_pinned_shape(model, spec)
        return _PINNED_TWO_ASSET[rho]
    raise ValueError(f"no reference price for correlation {rho}")


def _check_two_asset(model: MarketModel, spec: OptionSpec) -> None:
    # MarketModel broadcasts a single regime to every step as the same object
    if model.d != 2 or any(r is not model.regimes[0] for r in model.regimes):
        raise ValueError("reference_price expects a two-asset single-regime model")
    regime = model.regimes[0]
    if any(u is not None for u in regime.upper):
        raise ValueError("reference_price supports lower barriers only")
    if spec.kind != "call" or spec.asset != 0 or spec.knock != "out" or spec.rebate != 0.0:
        raise ValueError("reference_price expects a plain knock-out call on asset 0")


def _check_pinned_shape(model: MarketModel, spec: OptionSpec) -> None:
    regime = model.regimes[0]
    shape = {
        "spot": tuple(float(x) for x in model.spot),
        "rate": model.rate,
        "maturity": model.grid.maturity,
        "sigma": tuple(float(x) for x in regime.sigma),
        "lower": tuple(regime.lower),
        "strike": spec.strike,
    }
    for key, want in _PINNED_SHAPE.items():
        got = shape[key]
        if isinstance(want, tuple):
            ok = len(got) == len(want) and all(
                g is not None and math.isclose(g, w, rel_tol=1e-12)
                for g, w in zip(got, want)
            )
        else:
            ok = math.isclose(got, want, rel_tol=1e-12)
        if not ok:
            raise ValueError(
                f"pinned reference values require {key} = {want}, got {got}"
            )
