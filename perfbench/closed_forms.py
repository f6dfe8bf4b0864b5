"""Reference values the benchmark checks the pricer against.

Written here from textbook formulas so that no check depends on the
package under test (in particular not on ``bridgebound.analytic``).
"""

from __future__ import annotations

import math

from scipy.special import ndtr


def bs_call(spot: float, strike: float, rate: float, sigma: float, maturity: float) -> float:
    """Black-Scholes price of a European call."""
    vol = sigma * math.sqrt(maturity)
    d1 = (math.log(spot / strike) + (rate + 0.5 * sigma * sigma) * maturity) / vol
    return spot * ndtr(d1) - strike * math.exp(-rate * maturity) * ndtr(d1 - vol)


def down_and_out_call(
    spot: float, strike: float, barrier: float, rate: float, sigma: float, maturity: float
) -> float:
    """Continuously monitored down-and-out call with the barrier at or below the strike.

    Reflection principle: the knocked-out part is the call on the mirrored
    spot ``barrier**2 / spot``, scaled by ``(barrier / spot)**(2 nu / sigma**2)``
    with ``nu = rate - sigma**2 / 2``.
    """
    if not barrier <= strike:
        raise ValueError("formula needs barrier <= strike")
    power = 2.0 * (rate - 0.5 * sigma * sigma) / (sigma * sigma)
    mirrored = bs_call(barrier * barrier / spot, strike, rate, sigma, maturity)
    return bs_call(spot, strike, rate, sigma, maturity) - (barrier / spot) ** power * mirrored


def no_hit_probability(spot: float, barrier: float, rate: float, sigma: float, maturity: float) -> float:
    """Risk-neutral probability that a GBM started at ``spot`` stays above ``barrier``."""
    nu = rate - 0.5 * sigma * sigma
    vol = sigma * math.sqrt(maturity)
    a = math.log(spot / barrier)
    return ndtr((a + nu * maturity) / vol) - (barrier / spot) ** (2.0 * nu / (sigma * sigma)) * ndtr(
        (-a + nu * maturity) / vol
    )


def bridge_hit(s0: float, s1: float, barrier: float, variance: float) -> float:
    """Probability that a Brownian bridge in log price from ``s0`` to ``s1`` touches a lower ``barrier``.

    ``variance`` is sigma**2 * dt.  An endpoint at or below the barrier is a
    certain hit; otherwise ``exp(-2 ln(B/s0) ln(B/s1) / variance)``.
    """
    if min(s0, s1) <= barrier:
        return 1.0
    return math.exp(-2.0 * math.log(barrier / s0) * math.log(barrier / s1) / variance)
