"""Pricing a bespoke contract built directly against the API.

The bundled JSON configurations cover standard benchmark setups; this
script assembles a model in code instead: three correlated assets, a
knock-out corridor on the first, a floor under the second, and a custom
basket payoff.  It also shows the knock-in complement, in-out parity,
and a rebate paid at maturity when the option knocks out.

Run:  python demos/custom_contract.py
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from bridgebound import (
    MarketModel,
    OptionSpec,
    Regime,
    TimeGrid,
    price,
    validate,
)

N_PATHS = 100_000


def basket_call(prices: np.ndarray) -> np.ndarray:
    """Call on the average of the three terminal prices, struck at 100."""
    return np.maximum(prices.mean(axis=1) - 100.0, 0.0)


def main() -> None:
    rate = 0.05
    corr = [
        [1.0, 0.4, 0.2],
        [0.4, 1.0, 0.4],
        [0.2, 0.4, 1.0],
    ]
    regime = Regime(
        mu=[rate] * 3,
        sigma=[0.25, 0.30, 0.35],
        corr=corr,
        lower=[90.0, 90.0, None],
        upper=[120.0, None, None],
    )
    # quarterly monitoring keeps the bounds visibly apart; see
    # double_barrier_bounds.py for how they close as M grows
    model = MarketModel(
        spot=[100.0, 100.0, 100.0],
        rate=rate,
        grid=TimeGrid.uniform(1.0, 4),
        regimes=(regime,),
    )
    validate(model).raise_if_invalid()

    spec = OptionSpec(kind="custom", payoff=basket_call, knock="out")
    ko = price(model, spec, N_PATHS, seed=0)
    ki = price(model, replace(spec, knock="in"), N_PATHS, seed=0)

    print("basket call, knocked out if asset 1 leaves [90, 120]")
    print("or asset 2 falls under 90\n")
    print(f"{'estimator':>10}  {'knock-out':>12}  {'knock-in':>12}")
    for name in ("q_s", "q_lower", "q_indep", "q_upper"):
        out_est = getattr(ko, name)
        in_est = getattr(ki, name)
        print(
            f"{name:>10}  {out_est.mean:7.4f} ({out_est.std_error:.4f})"
            f"  {in_est.mean:7.4f} ({in_est.std_error:.4f})"
        )

    vanilla = price(
        MarketModel(
            spot=model.spot,
            rate=rate,
            grid=model.grid,
            regimes=(Regime(mu=[rate] * 3, sigma=regime.sigma, corr=corr),),
        ),
        OptionSpec(kind="custom", payoff=basket_call),
        N_PATHS,
        seed=0,
    )
    parity = ko.q_upper.mean + ki.q_lower.mean
    print(f"\nin-out parity: {parity:.6f} = vanilla {vanilla.q_s.mean:.6f}")

    with_rebate = price(model, replace(spec, rebate=5.0), N_PATHS, seed=0)
    print(
        f"with a 5.0 rebate on knock-out: {with_rebate.q_upper.mean:.4f}"
        f" (was {ko.q_upper.mean:.4f})"
    )


if __name__ == "__main__":
    main()
