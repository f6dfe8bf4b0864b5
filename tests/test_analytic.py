"""Tests for the closed-form reference prices.

The barrier formulas are validated against an independent Crank-Nicolson
finite-difference solver with an absorbing lower boundary, so no test here
trusts the reflection algebra it is checking.  Scalar constants were frozen
from a 40-digit evaluation of the Black-Scholes integral.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from bridgebound.analytic import (
    BsParams,
    down_and_out_call,
    down_and_out_digital,
    no_hit_probability,
    reference_price,
    vanilla_call,
)
from bridgebound.estimators import price
from bridgebound.model import (
    MarketModel,
    ModelError,
    OptionSpec,
    Regime,
    config_path,
    load_config,
)


def pde_down_and_out(spot, strike, h, sigma, r, t, nx=1200, nt=800):
    """Crank-Nicolson value of a down-and-out call, absorbing at ln h."""
    x = np.linspace(math.log(h), math.log(spot) + 8.0 * sigma * math.sqrt(t), nx + 1)
    dx = x[1] - x[0]
    dt = t / nt
    s = np.exp(x)
    v = np.maximum(s - strike, 0.0)
    nu = r - 0.5 * sigma**2
    a = 0.5 * sigma**2 / dx**2
    b = nu / (2.0 * dx)
    lo_c, di_c, up_c = a - b, -2.0 * a - r, a + b
    n = nx - 1
    banded = np.zeros((3, n))
    banded[0, 1:] = -0.5 * dt * up_c
    banded[1, :] = 1.0 - 0.5 * dt * di_c
    banded[2, :-1] = -0.5 * dt * lo_c
    for step in range(nt):
        rhs = v[1:-1] + 0.5 * dt * (lo_c * v[:-2] + di_c * v[1:-1] + up_c * v[2:])
        hi0 = s[-1] - strike * math.exp(-r * step * dt)
        hi1 = s[-1] - strike * math.exp(-r * (step + 1) * dt)
        rhs[-1] += 0.5 * dt * up_c * (hi0 + hi1)
        v[1:-1] = solve_banded((1, 1), banded, rhs)
        v[0] = 0.0
        v[-1] = hi1
    return float(np.interp(math.log(spot), x, v))


def pde_survival(spot, h, sigma, r, t, nx=1200, nt=800):
    """Undiscounted no-hit probability from the same solver, unit payoff."""
    x = np.linspace(math.log(h), math.log(spot) + 8.0 * sigma * math.sqrt(t), nx + 1)
    dx = x[1] - x[0]
    dt = t / nt
    v = np.ones(nx + 1)
    v[0] = 0.0
    nu = r - 0.5 * sigma**2
    a = 0.5 * sigma**2 / dx**2
    b = nu / (2.0 * dx)
    lo_c, di_c, up_c = a - b, -2.0 * a, a + b
    n = nx - 1
    banded = np.zeros((3, n))
    banded[0, 1:] = -0.5 * dt * up_c
    banded[1, :] = 1.0 - 0.5 * dt * di_c
    banded[2, :-1] = -0.5 * dt * lo_c
    for _ in range(nt):
        rhs = v[1:-1] + 0.5 * dt * (lo_c * v[:-2] + di_c * v[1:-1] + up_c * v[2:])
        rhs[-1] += 0.5 * dt * up_c * 2.0
        v[1:-1] = solve_banded((1, 1), banded, rhs)
        v[0] = 0.0
        v[-1] = 1.0
    return float(np.interp(math.log(spot), x, v))


class TestBsParams:
    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError, match="spot"):
            BsParams(0.0, 100.0, 0.2, 0.05, 1.0)
        with pytest.raises(ValueError, match="sigma"):
            BsParams(100.0, 100.0, 0.0, 0.05, 1.0)
        with pytest.raises(ValueError, match="maturity"):
            BsParams(100.0, 100.0, 0.2, 0.05, 0.0)

    @pytest.mark.parametrize("field", ["spot", "strike", "sigma", "rate", "maturity", "barrier"])
    @pytest.mark.parametrize("bad, message", [
        pytest.param(math.nan, "must be finite", id="nan"),
        pytest.param(math.inf, "must be finite", id="inf"),
        pytest.param(True, "must be a real number, got True", id="bool"),
        pytest.param("1", "must be a real number, got '1'", id="string"),
    ])
    def test_rejects_non_finite_or_non_real_inputs(self, field, bad, message):
        """NaN used to pass and make every closed form return nan."""
        values = {"spot": 100.0, "strike": 100.0, "sigma": 0.3, "rate": 0.1, "maturity": 1.0,
                  "barrier": 90.0, field: bad}
        with pytest.raises(ModelError, match=f"^{field} {message}"):
            BsParams(**values)

    def test_rejects_barrier_at_or_above_spot(self):
        with pytest.raises(ValueError, match="barrier"):
            BsParams(100.0, 100.0, 0.2, 0.05, 1.0, barrier=100.0)


class TestVanillaCall:
    def test_frozen_at_the_money_value(self):
        p = BsParams(100.0, 100.0, 0.2, 0.05, 1.0)
        assert math.isclose(vanilla_call(p), 10.450583572185567, rel_tol=1e-12)

    def test_intrinsic_lower_bound(self):
        p = BsParams(120.0, 100.0, 0.2, 0.05, 0.5)
        assert vanilla_call(p) > 120.0 - 100.0 * math.exp(-0.05 * 0.5)

    def test_monotone_in_volatility(self):
        values = [
            vanilla_call(BsParams(100.0, 100.0, s, 0.05, 1.0)) for s in (0.1, 0.2, 0.4)
        ]
        assert values[0] < values[1] < values[2]

    def test_barrier_field_ignored(self):
        with_b = BsParams(100.0, 100.0, 0.2, 0.05, 1.0, barrier=90.0)
        without = BsParams(100.0, 100.0, 0.2, 0.05, 1.0)
        assert vanilla_call(with_b) == vanilla_call(without)


class TestDownAndOutCall:
    def test_benchmark_configuration_value(self):
        """Frozen reference for the standard one-asset benchmark setup."""
        p = BsParams(100.0, 100.0, 0.3, 0.1, 0.5, barrier=90.0)
        assert math.isclose(down_and_out_call(p), 8.794, abs_tol=5e-4)

    def test_agrees_with_pde_below_strike(self):
        p = BsParams(100.0, 100.0, 0.3, 0.1, 0.5, barrier=90.0)
        assert math.isclose(
            down_and_out_call(p), pde_down_and_out(100.0, 100.0, 90.0, 0.3, 0.1, 0.5),
            rel_tol=5e-4,
        )

    def test_agrees_with_pde_above_strike(self):
        """The barrier-above-strike branch uses a different image pair."""
        p = BsParams(100.0, 80.0, 0.25, 0.07, 1.0, barrier=92.0)
        assert math.isclose(
            down_and_out_call(p), pde_down_and_out(100.0, 80.0, 92.0, 0.25, 0.07, 1.0),
            rel_tol=5e-4,
        )

    def test_continuous_across_the_strike(self):
        lo = down_and_out_call(BsParams(100.0, 90.0, 0.25, 0.07, 1.0, barrier=90.0 - 1e-7))
        hi = down_and_out_call(BsParams(100.0, 90.0 - 2e-7, 0.25, 0.07, 1.0, barrier=90.0))
        assert math.isclose(lo, hi, rel_tol=1e-5)

    def test_no_barrier_is_vanilla(self):
        p = BsParams(100.0, 100.0, 0.3, 0.1, 0.5)
        assert down_and_out_call(p) == vanilla_call(p)

    def test_bounded_by_vanilla_and_monotone_in_barrier(self):
        values = [
            down_and_out_call(BsParams(100.0, 100.0, 0.3, 0.1, 0.5, barrier=h))
            for h in (50.0, 80.0, 95.0, 99.5)
        ]
        vanilla = vanilla_call(BsParams(100.0, 100.0, 0.3, 0.1, 0.5))
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[0] < vanilla
        assert values[-1] > 0.0


class TestNoHitProbability:
    def test_agrees_with_pde(self):
        p = BsParams(100.0, 100.0, 0.3, 0.1, 1.0, barrier=90.0)
        assert math.isclose(
            no_hit_probability(p), pde_survival(100.0, 90.0, 0.3, 0.1, 1.0), rel_tol=5e-4
        )

    def test_agrees_with_engine(self):
        """The exact-weight digital estimate reproduces the closed form."""
        model, _ = load_config("table1a")
        always_on = OptionSpec(kind="digital", strike=0.0)
        report = price(model, always_on, 60_000, seed=15)
        p = BsParams(100.0, 100.0, 0.3, 0.1, 0.5, barrier=90.0)
        target = no_hit_probability(p)
        mc = report.q_exact.mean * math.exp(0.1 * 0.5)
        se = report.q_exact.std_error * math.exp(0.1 * 0.5)
        assert abs(mc - target) <= 4.0 * se

    def test_no_barrier_is_certain(self):
        assert no_hit_probability(BsParams(100.0, 100.0, 0.3, 0.1, 0.5)) == 1.0

    def test_monotone_in_barrier(self):
        values = [
            no_hit_probability(BsParams(100.0, 100.0, 0.3, 0.1, 1.0, barrier=h))
            for h in (40.0, 70.0, 90.0, 99.0)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert 0.0 < values[-1] < values[0] < 1.0

    def test_digital_is_discounted_survival(self):
        p = BsParams(100.0, 100.0, 0.3, 0.1, 0.5, barrier=90.0)
        assert down_and_out_digital(p) == pytest.approx(
            math.exp(-0.05) * no_hit_probability(p), rel=1e-12
        )

    def test_engine_prices_the_digital(self):
        """table1a's contract as a knock-out digital at strike 0, which pays 1
        at maturity if alive: at M=1 the bridge-corrected price meets the
        closed form, and the discretely monitored one misses it."""
        model, spec = load_config("table1a", steps=1)
        report = price(model, replace(spec, kind="digital", strike=0.0), 400_000, seed=11)
        value = down_and_out_digital(BsParams(100.0, 100.0, 0.3, 0.1, 0.5, barrier=90.0))
        assert value == pytest.approx(0.40024, abs=1e-5)
        assert abs(report.q_exact.mean - value) <= 3 * report.q_exact.std_error
        assert report.q_s.mean - value > 3 * report.q_s.std_error


def _contract(name: str, **changes):
    """A bundled config's (model, spec) with top-level, regime or option keys changed."""
    cfg = json.loads(config_path(name).read_text())
    for key, value in changes.items():
        if key in ("mu", "sigma", "corr", "lower", "upper"):
            cfg["regimes"][0][key] = value
        elif key in ("kind", "strike", "asset", "knock", "rebate"):
            cfg["option"][key] = value
        else:
            cfg[key] = value
    return load_config(cfg)


# The continuous references that each bundled config's table checked against
# before reference_price read them from the contract, bit for bit.
REFERENCES = {
    "fig5": 5.90599637749801,
    "table1a": 8.794333953580132,
    "table1b": 8.256,
    "table2": 1.793,
    "table3_rho-0.5": 1.395,
    "table3_rho-1": 0.0131,
    "table3_rho0": 3.6493885045595276,
    "table3_rho0.5": 6.527,
    "table3_rho1": 11.314859233904919,
}


class TestReferencePrice:
    def test_zero_correlation_factorizes(self):
        """Independent assets: barrier call times the other leg's survival."""
        model, spec = load_config("table3_rho0")
        value = reference_price(model, spec)
        doc = down_and_out_call(BsParams(100.0, 100.0, 0.3, 0.1, 1.0, barrier=90.0))
        surv = no_hit_probability(BsParams(100.0, 100.0, 0.3, 0.1, 1.0, barrier=90.0))
        assert value == pytest.approx(doc * surv, rel=1e-12)
        assert math.isclose(value, 3.649, abs_tol=5e-4)

    def test_single_regime_broadcast_to_every_step(self):
        """The continuous price does not depend on the monitoring grid."""
        for name in ("table3_rho0", "table3_rho0.5", "table1a"):
            value = reference_price(*load_config(name, steps=2))
            assert value == reference_price(*load_config(name))
        assert math.isclose(reference_price(*load_config("table3_rho0")), 3.6494, abs_tol=5e-5)

    def test_perfect_correlation_collapses_to_one_driver(self):
        model, spec = load_config("table3_rho1")
        value = reference_price(model, spec)
        assert value == down_and_out_call(BsParams(100.0, 100.0, 0.3, 0.1, 1.0, barrier=90.0))
        assert math.isclose(value, 11.315, abs_tol=1e-3)

    def test_perfect_correlation_with_asymmetric_spots(self):
        """The second barrier is rescaled by the spot ratio, then dominated."""
        model, spec = load_config("fig5")
        value = reference_price(model, spec)
        assert value == down_and_out_call(BsParams(95.0, 100.0, 0.3, 0.1, 1.0, barrier=90.0))

    def test_pinned_correlations(self):
        for name, want in [
            ("table3_rho0.5", 6.527),
            ("table3_rho-0.5", 1.395),
            ("table3_rho-1", 0.0131),
        ]:
            assert reference_price(*load_config(name)) == want

    def test_unsupported_correlation_rejected(self):
        model, spec = _contract("table3_rho0", corr=[[1.0, 0.3], [0.3, 1.0]])
        with pytest.raises(ValueError, match="no continuous reference price"):
            reference_price(model, spec)

    def test_pinned_values_guard_their_configuration(self):
        model, spec = load_config("table3_rho0.5")
        off_strike = OptionSpec(kind="call", strike=95.0, asset=0)
        with pytest.raises(ValueError, match="no continuous reference price"):
            reference_price(model, off_strike)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="no continuous reference price"):
            reference_price(*load_config("table4_d3"))
        pair, spec = load_config("table3_rho0", steps=2)
        first = pair.regimes[0]
        calmer = Regime(mu=first.mu, sigma=[0.2, 0.2], corr=first.corr, lower=first.lower)
        two_regimes = MarketModel(
            spot=pair.spot, rate=pair.rate, grid=pair.grid, regimes=(first, calmer)
        )
        with pytest.raises(ValueError, match="one regime broadcast"):
            reference_price(two_regimes, spec)

    def test_upper_barriers_rejected(self):
        model, spec = _contract("table2", strike=1050.0)
        with pytest.raises(ValueError, match="no continuous reference price"):
            reference_price(model, spec)

    def test_unequal_volatility_rejected_at_unit_correlation(self):
        model, spec = _contract("table3_rho1", sigma=[0.3, 0.4])
        with pytest.raises(ValueError, match="equal volatilities"):
            reference_price(model, spec)

    @pytest.mark.parametrize(
        "name, changes, match",
        [
            ("table3_rho0.5", {"corr": [[1.0, 0.4], [0.4, 1.0]]}, "no continuous reference"),
            ("table3_rho0", {"mu": [0.3, 0.3]}, "mu == rate"),
            ("table1b", {"strike": 101.0}, "no continuous reference"),
            ("table2", {"sigma": [0.25]}, "no continuous reference"),
            ("table1a", {"rebate": 1.0}, "plain knock-out call"),
            ("table1a", {"knock": "in"}, "plain knock-out call"),
            ("table3_rho0", {"asset": 1}, "plain knock-out call"),
            ("table1a", {"sigma": [float("nan")]}, "sigma must be finite"),
        ],
        ids=["corr", "mu", "strike", "sigma", "rebate", "knock-in", "asset", "invalid"],
    )
    def test_changed_contract_refused(self, name, changes, match):
        """A contract that differs from a priceable one in any parameter is refused."""
        with pytest.raises(ValueError, match=match):
            reference_price(*_contract(name, **changes))

    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in config_path("table1a").parent.glob("*.json"))
    )
    def test_bundled_config_reference(self, name):
        """Every bundled config prices to its pinned reference, or is refused."""
        if name in REFERENCES:
            assert float(reference_price(*load_config(name))) == REFERENCES[name]
        else:
            with pytest.raises(ValueError, match="no continuous reference price"):
                reference_price(*load_config(name))
