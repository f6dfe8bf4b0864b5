"""Tests for the closed-form reference prices.

The barrier formulas are validated against an independent Crank-Nicolson
finite-difference solver with an absorbing lower boundary, so no test here
trusts the reflection algebra it is checking.  Scalar constants were frozen
from a 40-digit evaluation of the Black-Scholes integral.
"""

from __future__ import annotations

import math

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
from bridgebound.model import MarketModel, OptionSpec, Regime, load_config


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


class TestReferencePrice:
    def test_zero_correlation_factorizes(self):
        """Independent assets: barrier call times the other leg's survival."""
        model, spec = load_config("table3_rho0")
        value = reference_price(0.0, model, spec)
        doc = down_and_out_call(BsParams(100.0, 100.0, 0.3, 0.1, 1.0, barrier=90.0))
        surv = no_hit_probability(BsParams(100.0, 100.0, 0.3, 0.1, 1.0, barrier=90.0))
        assert value == pytest.approx(doc * surv, rel=1e-12)
        assert math.isclose(value, 3.649, abs_tol=5e-4)

    def test_single_regime_broadcast_to_every_step(self):
        """The continuous price does not depend on the monitoring grid."""
        value = reference_price(0.0, *load_config("table3_rho0", steps=2))
        assert value == reference_price(0.0, *load_config("table3_rho0"))
        assert math.isclose(value, 3.6494, abs_tol=5e-5)

    def test_perfect_correlation_collapses_to_one_driver(self):
        model, spec = load_config("table3_rho1")
        value = reference_price(1.0, model, spec)
        assert value == down_and_out_call(BsParams(100.0, 100.0, 0.3, 0.1, 1.0, barrier=90.0))
        assert math.isclose(value, 11.315, abs_tol=1e-3)

    def test_perfect_correlation_with_asymmetric_spots(self):
        """The second barrier is rescaled by the spot ratio, then dominated."""
        model, spec = load_config("fig5")
        value = reference_price(1.0, model, spec)
        assert value == down_and_out_call(BsParams(95.0, 100.0, 0.3, 0.1, 1.0, barrier=90.0))

    def test_pinned_correlations(self):
        for name, rho, want in [
            ("table3_rho0.5", 0.5, 6.527),
            ("table3_rho-0.5", -0.5, 1.395),
            ("table3_rho-1", -1.0, 0.0131),
        ]:
            model, spec = load_config(name)
            assert reference_price(rho, model, spec) == want

    def test_unsupported_correlation_rejected(self):
        model, spec = load_config("table3_rho0")
        with pytest.raises(ValueError, match="no reference price"):
            reference_price(0.3, model, spec)

    def test_pinned_values_guard_their_configuration(self):
        model, spec = load_config("table3_rho0.5")
        off_strike = OptionSpec(kind="call", strike=95.0, asset=0)
        with pytest.raises(ValueError, match="strike"):
            reference_price(0.5, model, off_strike)

    def test_wrong_shape_rejected(self):
        model, spec = load_config("table1a")
        with pytest.raises(ValueError, match="two-asset"):
            reference_price(0.0, model, spec)
        pair, spec = load_config("table3_rho0", steps=2)
        first = pair.regimes[0]
        calmer = Regime(mu=first.mu, sigma=[0.2, 0.2], corr=first.corr, lower=first.lower)
        two_regimes = MarketModel(
            spot=pair.spot, rate=pair.rate, grid=pair.grid, regimes=(first, calmer)
        )
        with pytest.raises(ValueError, match="single-regime"):
            reference_price(0.0, two_regimes, spec)

    def test_upper_barriers_rejected(self):
        model, spec = load_config("table2")
        with pytest.raises(ValueError):
            reference_price(0.0, model, spec)

    def test_unequal_volatility_rejected_at_unit_correlation(self):
        model, spec = load_config("table3_rho1")
        cfg_regime = model.regimes[0]
        lopsided = Regime(
            mu=cfg_regime.mu, sigma=[0.3, 0.4], corr=cfg_regime.corr,
            lower=cfg_regime.lower,
        )
        bad = MarketModel(
            spot=model.spot, rate=model.rate, grid=model.grid, regimes=(lopsided,)
        )
        with pytest.raises(ValueError, match="equal volatilities"):
            reference_price(1.0, bad, spec)
