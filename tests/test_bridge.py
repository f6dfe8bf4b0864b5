"""Tests for per-interval hit probabilities, their bounds, and the oracle.

Closed-form reference numbers were frozen from a 40-digit evaluation of the
conditional hit-probability formula; statistical checks run at fixed seeds
with 4-standard-error tolerances.
"""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import frechet_bounds, hit_probability, independent_no_hit

from bridgebound import bridge
from bridgebound.bridge import (
    BridgeWeights,
    IntervalContext,
    _combine,
    interval_weights,
    oracle_no_hit,
)
from bridgebound.model import ModelError, Regime, factor_correlation

# xi(100, 100, 90, sigma=0.3, dt=0.5), flat endpoints
XI_FLAT = 0.6105649582820487
# xi(100, 105, 95, sigma=0.25, dt=0.25)
XI_ASYM = 0.5183512805426554
# xi(100, 98, 110, sigma=0.2, dt=1.0), upper side
XI_UPPER = 0.5766742660839560


def one_asset_ctx(s0=100.0, s1=100.0, lower=90.0, upper=None, sigma=0.3, dt=0.5):
    regime = Regime(mu=[0.1], sigma=[sigma], lower=[lower], upper=[upper])
    return IntervalContext(s0=[s0], s1=[s1], regime=regime, dt=dt)


def hit(s0, s1, sigma=0.3, dt=0.5, lower=None, upper=None):
    """One barrier event's hit probability xi, read from the interval weights."""
    w = interval_weights(one_asset_ctx(s0, s1, lower=lower, upper=upper, sigma=sigma, dt=dt))
    assert w.p_exact is not None
    return 1.0 - w.p_exact


class TestXi:
    """The one-event hit probability, as ``1 - p_exact`` of the interval weights."""

    def test_barrier_at_both_endpoints_is_certain_hit(self):
        assert hit(100.0, 100.0, lower=100.0) == 1.0

    def test_flat_endpoints_reference_value(self):
        assert math.isclose(hit(100.0, 100.0, lower=90.0), XI_FLAT, rel_tol=1e-13)

    def test_asymmetric_endpoints_reference_value(self):
        value = hit(100.0, 105.0, sigma=0.25, dt=0.25, lower=95.0)
        assert math.isclose(value, XI_ASYM, rel_tol=1e-13)

    def test_upper_barrier_reference_value(self):
        value = hit(100.0, 98.0, sigma=0.2, dt=1.0, upper=110.0)
        assert math.isclose(value, XI_UPPER, rel_tol=1e-13)

    def test_far_barrier_vanishes(self):
        """Sending a lower barrier toward 0 kills the hit probability."""
        values = [hit(100.0, 100.0, lower=b) for b in (50.0, 10.0, 1.0, 1e-12)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[0] < 1e-5
        assert values[-1] == 0.0  # underflow flushes p_exact to exactly 1.0

    def test_zero_barrier(self):
        """A lower barrier at 0 is no event: certain no-hit, all fields exact."""
        w = interval_weights(one_asset_ctx(lower=0.0))
        assert w == BridgeWeights(1.0, 1.0, 1.0, 1.0)

    def test_upper_barrier_at_zero_refused(self):
        with pytest.raises(ModelError, match="upper barrier on asset 0 must be > 0"):
            one_asset_ctx(lower=None, upper=0.0)

    def test_endpoint_breach_lower(self):
        assert hit(100.0, 89.0, lower=90.0) == 1.0
        assert hit(90.0, 100.0, lower=90.0) == 1.0

    def test_endpoint_breach_upper(self):
        assert hit(100.0, 111.0, upper=110.0) == 1.0
        assert hit(110.0, 100.0, upper=110.0) == 1.0

    def test_value_in_open_unit_interval(self):
        v = hit(100.0, 102.0, sigma=0.2, dt=0.25, lower=95.0)
        assert 0.0 < v < 1.0

    def test_monotone_in_barrier_distance(self):
        closer = hit(100.0, 100.0, lower=95.0)
        farther = hit(100.0, 100.0, lower=85.0)
        assert closer > farther

    @pytest.mark.parametrize(
        "s0, s1, lower, upper",
        [(100.0, 104.0, 90.0, None), (97.0, 92.0, 91.5, None), (100.0, 104.0, None, 112.0)],
    )
    def test_matches_scalar_formula(self, s0, s1, lower, upper):
        expected = hit_probability(s0, s1, lower or upper, 0.25, 0.5)
        assert math.isclose(hit(s0, s1, 0.25, 0.5, lower, upper), expected, rel_tol=1e-13)


class TestIntervalContextValidation:
    """Invalid endpoints or lengths are refused with the field's name, not
    priced into zero weights or a plausible-looking oracle answer."""

    REGIME = Regime(mu=[0.0], sigma=[0.3], lower=[90.0])

    @pytest.mark.parametrize("field", ["s0", "s1"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -100.0])
    def test_non_positive_or_non_finite_price_refused(self, field, bad):
        ends = {"s0": [100.0], "s1": [100.0], field: [bad]}
        with pytest.raises(ModelError, match=field):
            IntervalContext(regime=self.REGIME, dt=0.5, **ends)

    @pytest.mark.parametrize("field", ["s0", "s1"])
    @pytest.mark.parametrize("bad", [[100.0, 1.0], [], [[100.0]]])
    def test_price_count_other_than_d_refused(self, field, bad):
        ends = {"s0": [100.0], "s1": [100.0], field: bad}
        with pytest.raises(ModelError, match=field):
            IntervalContext(regime=self.REGIME, dt=0.5, **ends)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.25])
    def test_non_positive_or_non_finite_dt_refused(self, bad):
        with pytest.raises(ModelError, match="dt"):
            IntervalContext(s0=[100.0], s1=[100.0], regime=self.REGIME, dt=bad)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("sigma", {"sigma": [math.nan]}),
            ("sigma", {"sigma": [-0.3]}),
            ("sigma", {"sigma": [0.0]}),
            ("lower", {"lower": [math.nan]}),
            ("lower", {"lower": [-5.0]}),
            ("upper", {"lower": [None], "upper": [0.0]}),
            ("mu", {"mu": [0.0, 0.0]}),
        ],
        ids=[
            "sigma-nan", "sigma-negative", "sigma-zero", "lower-nan", "lower-negative",
            "upper-zero", "mu-length",
        ],
    )
    def test_invalid_regime_refused(self, field, bad):
        """Refused at construction, not priced into all-zero or all-one
        weights, or into 0.389 for a negative sigma."""
        regime = Regime(**{"mu": [0.0], "sigma": [0.3], "lower": [90.0], **bad})
        with pytest.raises(ModelError, match=rf"^regime: .*\b{field}\b"):
            IntervalContext(s0=[100.0], s1=[100.0], regime=regime, dt=0.5)

    def test_non_psd_correlation_refused(self):
        corr = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
        regime = Regime(mu=[0.0] * 3, sigma=[0.3] * 3, corr=corr)
        with pytest.raises(ModelError, match="regime: correlation is not positive semi-definite"):
            IntervalContext(s0=[100.0] * 3, s1=[100.0] * 3, regime=regime, dt=0.5)

    def test_scalar_prices_accepted_for_one_asset(self):
        ctx = IntervalContext(s0=100.0, s1=100.0, regime=self.REGIME, dt=0.5)
        assert ctx.s0.tolist() == ctx.s1.tolist() == [100.0]


class TestMarginalNoHit:
    """One barrier on one asset: the interval's exact no-hit probability."""

    def test_single_lower_barrier(self):
        p = interval_weights(one_asset_ctx()).p_exact
        assert math.isclose(p, 1.0 - XI_FLAT, rel_tol=1e-13)

    def test_far_barrier_no_hit_near_one(self):
        assert interval_weights(one_asset_ctx(lower=1e-9)).p_exact == 1.0

    def test_endpoint_breach_gives_zero(self):
        assert interval_weights(one_asset_ctx(s1=90.0)).p_exact == 0.0


class TestFrechetBounds:
    def test_two_small_events(self):
        assert frechet_bounds([0.1, 0.1]) == (0.8, 0.9)

    def test_certain_hit_kills_both_bounds(self):
        assert frechet_bounds([1.0, 0.3]) == (0.0, 0.0)

    def test_empty_means_certain_no_hit(self):
        assert frechet_bounds([]) == (1.0, 1.0)

    def test_lower_bound_clamped_at_zero(self):
        lower, upper = frechet_bounds([0.7, 0.6])
        assert lower == 0.0
        assert math.isclose(upper, 0.3)

    def test_single_event_bounds_coincide(self):
        lower, upper = frechet_bounds([0.25])
        assert lower == upper == 0.75

    def test_ordering_on_random_vectors(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            xs = rng.random(rng.integers(1, 6)).tolist()
            lower, upper = frechet_bounds(xs)
            indep = independent_no_hit(xs)
            assert 0.0 <= lower <= indep <= upper <= 1.0


class TestIndependentNoHit:
    def test_product(self):
        assert math.isclose(independent_no_hit([0.1, 0.1]), 0.81)

    def test_single_zero(self):
        assert independent_no_hit([0.0]) == 1.0

    def test_empty(self):
        assert independent_no_hit([]) == 1.0


# Hit probabilities with exact 0s and 1s and a cluster near 1e-6.
_XI_VALUES = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.5e-6, max_value=2e-6),
)


class TestCombine:
    @given(st.lists(_XI_VALUES, min_size=1, max_size=8))
    # rounding puts 1 - sum above the product here, so the lower clamp acts
    @example([5.663045776968643e-09, 4.97610358807474e-09])
    def test_one_row_matches_scalar_formulas(self, xs):
        """The vectorized combine is the clamped Frechet and product formulas."""
        p_lower, p_indep, p_upper = (float(p[0]) for p in _combine([np.array([x]) for x in xs]))
        lower, upper = frechet_bounds(xs)
        indep = independent_no_hit(xs)
        assert p_upper == upper
        assert p_indep == indep <= upper  # rounded products never exceed a factor
        assert p_lower == min(lower, indep)

    @pytest.mark.parametrize("first", [0.0, 1.0])
    def test_first_event_at_either_end_seeds_exactly(self, first):
        """Seeding the accumulators from the first event gives the bits of
        a sum from 0, a product from 1 and a minimum from 1."""
        rng = np.random.default_rng(3)
        xis = [np.full(64, first)] + [rng.uniform(0.0, 1.0, 64) for _ in range(3)]
        xis[1][:3] = [0.0, 1.0, first]
        given_xis = [x.copy() for x in xis]
        sum_xi, prod, least = np.zeros(64), np.ones(64), np.ones(64)
        for x in xis:
            sum_xi = sum_xi + x
            prod = prod * (1.0 - x)
            least = np.fmin(least, 1.0 - x)
        want = (np.fmin(np.fmax(1.0 - sum_xi, 0.0), prod), prod, least)
        for got, expected in zip(_combine(xis), want):
            assert got.tobytes() == expected.tobytes()
        for x, before in zip(xis, given_xis):
            assert x.tobytes() == before.tobytes()  # inputs are left as they were


class TestIntervalWeights:
    def test_no_barriers_all_one(self):
        regime = Regime(mu=[0.1], sigma=[0.3])
        ctx = IntervalContext(s0=[100.0], s1=[100.0], regime=regime, dt=0.5)
        w = interval_weights(ctx)
        assert w == BridgeWeights(1.0, 1.0, 1.0, 1.0)

    def test_single_event_all_coincide(self):
        """Barrier on one asset of two: everything equals that marginal."""
        regime = Regime(
            mu=[0.1, 0.1],
            sigma=[0.3, 0.3],
            corr=[[1.0, 0.5], [0.5, 1.0]],
            lower=[None, 90.0],
        )
        ctx = IntervalContext(s0=[100.0, 100.0], s1=[100.0, 100.0], regime=regime, dt=0.5)
        w = interval_weights(ctx)
        expected = 1.0 - XI_FLAT
        assert w.p_exact is not None
        for value in (w.p_lower, w.p_indep, w.p_upper, w.p_exact):
            assert math.isclose(value, expected, rel_tol=1e-13)

    def test_double_barrier_matches_bound_arithmetic(self):
        ctx = one_asset_ctx(lower=90.0, upper=112.0, sigma=0.25, dt=0.5, s1=104.0)
        xis = [
            hit_probability(100.0, 104.0, 90.0, 0.25, 0.5),
            hit_probability(100.0, 104.0, 112.0, 0.25, 0.5),
        ]
        w = interval_weights(ctx)
        lower, upper = frechet_bounds(xis)
        assert w.p_exact is None
        assert math.isclose(w.p_lower, lower, rel_tol=1e-13)
        assert math.isclose(w.p_upper, upper, rel_tol=1e-13)
        assert math.isclose(w.p_indep, independent_no_hit(xis), rel_tol=1e-13)

    def test_zero_lower_barrier_is_not_an_event(self):
        """A lower barrier at 0 is never hit, so the upper one is exact."""
        w = interval_weights(one_asset_ctx(lower=0.0, upper=115.0, s1=104.0))
        expected = 1.0 - hit_probability(100.0, 104.0, 115.0, 0.3, 0.5)
        assert w.p_lower == w.p_indep == w.p_upper == w.p_exact
        assert math.isclose(w.p_exact, expected, rel_tol=1e-13)

    def test_ordering_on_random_contexts(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            ctx = _random_context(rng)
            w = interval_weights(ctx)
            assert 0.0 <= w.p_lower <= w.p_indep <= w.p_upper <= 1.0

    def test_widening_barriers_never_decreases_weights(self):
        """Moving a lower barrier down or an upper one up can only help."""
        tight = one_asset_ctx(lower=92.0, upper=108.0, s1=101.0)
        wide = one_asset_ctx(lower=88.0, upper=115.0, s1=101.0)
        wt, ww = interval_weights(tight), interval_weights(wide)
        assert ww.p_lower >= wt.p_lower
        assert ww.p_indep >= wt.p_indep
        assert ww.p_upper >= wt.p_upper


def _random_context(rng, d=None):
    """A valid interval with barriers drawn around the endpoint range."""
    d = int(rng.integers(1, 4)) if d is None else d
    sigma = rng.uniform(0.15, 0.5, size=d)
    dt = float(rng.uniform(0.1, 0.75))
    s0 = rng.uniform(80.0, 120.0, size=d)
    s1 = s0 * np.exp(sigma * math.sqrt(dt) * rng.standard_normal(d))
    lower, upper = [], []
    for k in range(d):
        lo_gap = rng.uniform(0.02, 0.4)
        hi_gap = rng.uniform(0.02, 0.4)
        lower.append(float(min(s0[k], s1[k]) * math.exp(-lo_gap)) if rng.random() < 0.7 else None)
        upper.append(float(max(s0[k], s1[k]) * math.exp(hi_gap)) if rng.random() < 0.5 else None)
    if all(b is None for b in lower) and all(b is None for b in upper):
        lower[0] = float(min(s0[0], s1[0]) * 0.9)
    if d == 1:
        corr = None
    else:
        a = rng.standard_normal((d, d + 2))
        cov = a @ a.T
        scale = np.sqrt(np.diag(cov))
        corr = cov / np.outer(scale, scale)
        corr = 0.5 * (corr + corr.T)
        np.fill_diagonal(corr, 1.0)
    regime = Regime(mu=np.zeros(d), sigma=sigma, corr=corr, lower=lower, upper=upper)
    return IntervalContext(s0=s0, s1=s1, regime=regime, dt=dt)


class TestOracleNoHit:
    def test_floors_enforced(self):
        ctx = one_asset_ctx()
        with pytest.raises(ValueError, match="substeps"):
            oracle_no_hit(ctx, substeps=50, trials=20_000)
        with pytest.raises(ValueError, match="trials"):
            oracle_no_hit(ctx, substeps=400, trials=100)

    def test_no_active_barriers(self):
        regime = Regime(mu=[0.1], sigma=[0.3])
        ctx = IntervalContext(s0=[100.0], s1=[100.0], regime=regime, dt=0.5)
        assert oracle_no_hit(ctx, substeps=200, trials=10_000) == (1.0, 0.0)

    def test_single_barrier_agrees_with_closed_form(self):
        # the fine grid monitors discretely, so allow its upward bias
        est, se = oracle_no_hit(one_asset_ctx(), substeps=400, trials=20_000, seed=5)
        allowance = 2.0 / math.sqrt(400)
        assert abs(est - (1.0 - XI_FLAT)) <= 4.0 * se + allowance

    def test_two_event_estimate_within_bounds(self):
        ctx = one_asset_ctx(lower=90.0, upper=112.0, sigma=0.25, s1=104.0)
        w = interval_weights(ctx)
        est, se = oracle_no_hit(ctx, substeps=400, trials=20_000, seed=9)
        allowance = 2.0 / math.sqrt(400)
        assert w.p_lower - 4.0 * se <= est <= w.p_upper + 4.0 * se + allowance


def full_path_oracle(ctx, substeps, trials, seed):
    """Reference oracle: every trial's whole (substeps+1, d) path at once."""
    regime = ctx.regime
    d = regime.d
    factor = factor_correlation(regime.corr)
    x0, x1 = np.log(ctx.s0), np.log(ctx.s1)
    frac = np.linspace(0.0, 1.0, substeps + 1)
    base = x0[None, :] + frac[:, None] * (x1 - x0)[None, :]
    scale = regime.sigma * math.sqrt(ctx.dt / substeps)
    z = np.random.default_rng(seed).standard_normal((trials, substeps, d))
    w = np.cumsum((z @ factor.T) * scale, axis=1)
    bridge = np.concatenate([np.zeros((trials, 1, d)), w], axis=1)
    bridge -= frac[None, :, None] * w[:, -1:, :]
    paths = base[None, :, :] + bridge
    alive = np.ones(trials, dtype=bool)
    for k, side, level in regime.events():
        b = math.log(level) if level > 0 else -math.inf
        if side == "lower":
            alive &= paths[:, :, k].min(axis=1) > b
        else:
            alive &= paths[:, :, k].max(axis=1) < b
    p = int(alive.sum()) / trials
    return p, math.sqrt(p * (1.0 - p) / trials)


CORR3 = [[1.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 1.0]]

ORACLE_CONTEXTS = {
    "corr-d3-asset1-unbarred": IntervalContext(
        s0=[100.0, 95.0, 105.0],
        s1=[98.0, 99.0, 104.0],
        regime=Regime(
            mu=[0.0] * 3, sigma=[0.3, 0.2, 0.25], corr=CORR3,
            lower=[90.0, None, 96.0], upper=[None, None, 115.0],
        ),
        dt=0.25,
    ),
    "upper-barrier": one_asset_ctx(s1=104.0, lower=None, upper=112.0, sigma=0.25),
    "both-barriers-one-asset": one_asset_ctx(s1=104.0, lower=90.0, upper=112.0, sigma=0.25),
    "lower-barrier-at-0": IntervalContext(
        s0=[100.0, 100.0],
        s1=[103.0, 97.0],
        regime=Regime(
            mu=[0.0, 0.0], sigma=[0.3, 0.3], corr=[[1.0, 0.5], [0.5, 1.0]],
            lower=[0.0, 92.0],
        ),
        dt=0.5,
    ),
    "endpoint-on-barrier": one_asset_ctx(s1=90.0),
    "start-on-barrier": one_asset_ctx(s0=90.0),
}


class TestOracleEquivalence:
    """The blocked oracle draws the reference's stream and decides every
    trial as the full-path reference does; 10 001 trials leave a ragged
    last block."""

    @pytest.mark.parametrize("name", list(ORACLE_CONTEXTS))
    def test_matches_full_path_reference(self, name):
        ctx = ORACLE_CONTEXTS[name]
        got = oracle_no_hit(ctx, substeps=100, trials=10_001, seed=11)
        assert got == full_path_oracle(ctx, substeps=100, trials=10_001, seed=11)


class TestOraclePipeline:
    """The next block is drawn on a helper thread while the current one is
    decided; the answers stay the full-path reference's, and every thread
    is gone when the call returns."""

    def test_matches_reference_under_frequent_thread_switches(self):
        """100 substeps at d=3 give 873-trial blocks: 12 blocks, the last
        ragged, so both buffers are reused several times.  Whether a block
        is overwritten while it is decided depends on thread timing, so
        several seeds are run."""
        ctx = ORACLE_CONTEXTS["corr-d3-asset1-unbarred"]
        seeds = range(21, 26)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [oracle_no_hit(ctx, substeps=100, trials=10_001, seed=s) for s in seeds]
        finally:
            sys.setswitchinterval(interval)
        assert got == [full_path_oracle(ctx, substeps=100, trials=10_001, seed=s) for s in seeds]

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        oracle_no_hit(ORACLE_CONTEXTS["both-barriers-one-asset"], substeps=100, trials=10_000, seed=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "ctx, expected",
        [
            (one_asset_ctx(lower=None), (1.0, 0.0)),
            (ORACLE_CONTEXTS["start-on-barrier"], (0.0, 0.0)),
        ],
        ids=["no-barriers", "start-on-barrier"],
    )
    def test_early_returns_start_no_thread(self, ctx, expected, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("an early return started a thread pool")

        monkeypatch.setattr(bridge, "ThreadPoolExecutor", no_pool)
        before = threading.active_count()
        assert oracle_no_hit(ctx, substeps=100, trials=10_000, seed=2) == expected
        assert threading.active_count() == before
