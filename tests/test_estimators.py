"""Tests for pricing estimators: bounds, midpoints, parity, and reporting."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from bridgebound.estimators import (
    EstimatorResult,
    PointEstimate,
    PricingReport,
    path_contributions,
    price,
)
from bridgebound.model import (
    MarketModel,
    ModelError,
    OptionSpec,
    Regime,
    TimeGrid,
    config_path,
    load_config,
)
from bridgebound.simulate import CHUNK

BUNDLED = sorted(p.stem for p in config_path("table1a").parent.glob("*.json"))

Z_95 = 1.959963984540054


def barrier_free_model(d=1, sigma=0.3, rate=0.1, maturity=0.5, steps=1, corr=None):
    regime = Regime(mu=[rate] * d, sigma=[sigma] * d, corr=corr)
    return MarketModel(
        spot=[100.0] * d, rate=rate, grid=TimeGrid.uniform(maturity, steps), regimes=(regime,)
    )


def synthetic_report(lo, mid, hi, alpha=0.05):
    """A report on the bracketing columns (lo, mid, hi), as ``price`` would build it."""
    return PricingReport(q_s=hi, q_lower=lo, q_indep=mid, q_upper=hi, q_exact=None,
                         alpha=alpha, n_paths=2, seed=0)


class TestPointEstimators:
    def test_midpoints_and_spreads(self):
        lo = EstimatorResult(mean=1.0, std_error=0.1)
        mid = EstimatorResult(mean=2.0, std_error=0.2)
        hi = EstimatorResult(mean=4.0, std_error=0.3)
        report = synthetic_report(lo, mid, hi)
        q0, q1, q2 = report.q0, report.q1, report.q2
        assert q0.value == 2.5 and q0.std_error == pytest.approx(1.5 + 0.2)
        assert q1.value == 1.5 and q1.std_error == pytest.approx(0.5 + 0.15)
        assert q2.value == 3.0 and q2.std_error == pytest.approx(1.0 + 0.25)

    def test_collapsed_bracket_keeps_statistical_error(self):
        a = EstimatorResult(mean=5.0, std_error=0.2)
        q0 = synthetic_report(a, a, a).q0
        assert q0.value == 5.0
        assert q0.std_error == pytest.approx(0.2)


class TestConfidenceInterval:
    def test_two_sided_95(self):
        lo = EstimatorResult(mean=1.0, std_error=0.5)
        hi = EstimatorResult(mean=3.0, std_error=0.25)
        ci = synthetic_report(lo, lo, hi, alpha=0.05).ci
        assert ci[0] == pytest.approx(1.0 - Z_95 * 0.5, rel=1e-12)
        assert ci[1] == pytest.approx(3.0 + Z_95 * 0.25, rel=1e-12)

    def test_narrower_at_larger_alpha(self):
        lo = EstimatorResult(mean=1.0, std_error=0.5)
        hi = EstimatorResult(mean=3.0, std_error=0.5)
        wide = synthetic_report(lo, lo, hi, alpha=0.01).ci
        narrow = synthetic_report(lo, lo, hi, alpha=0.5).ci
        assert wide[0] < narrow[0] < narrow[1] < wide[1]

    def test_alpha_validated(self):
        model, spec = load_config("table1a")
        with pytest.raises(ValueError, match="alpha"):
            price(model, spec, 100, alpha=0.0)


class TestPriceArguments:
    def test_n_paths_floor(self):
        model, spec = load_config("table1a")
        with pytest.raises(ValueError, match="n_paths"):
            price(model, spec, 1)

    @pytest.mark.parametrize("entry, kwargs, message", [
        *(pytest.param(entry, kwargs, message, id=f"{case}-{name}")
          for case, kwargs, message in [
              ("float-paths", {"n_paths": 1e5}, "n_paths must be an integer"),
              ("integral-float-paths", {"n_paths": 40000.0}, "n_paths must be an integer"),
              ("float-seed", {"seed": 1.5}, "seed must be an integer"),
              ("float-asset", {"spec": OptionSpec(strike=100.0, asset=0.5)},
               "option asset index must be an integer, got 0.5"),
          ]
          for name, entry in [("price", price), ("contributions", path_contributions)]),
        # Run arguments of price alone.
        *(pytest.param(price, kwargs, message, id=f"{case}-price")
          for case, kwargs, message in [
              ("float-workers", {"workers": 2.5}, "workers must be an integer, got 2.5"),
              ("string-workers", {"workers": "2"}, "workers must be an integer, got '2'"),
              ("string-alpha", {"alpha": "0.1"}, "alpha must be a real number, got '0.1'"),
              ("null-alpha", {"alpha": None}, "alpha must be a real number, got None"),
          ]),
    ])
    def test_run_arguments_refused(self, entry, kwargs, message):
        """Refused at the call with the field named, never a TypeError or IndexError."""
        model, spec = load_config("table1a")
        with pytest.raises(ValueError, match=message):
            entry(**{"model": model, "spec": spec, "n_paths": 100, **kwargs})

    def test_alpha_range(self):
        model, spec = load_config("table1a")
        with pytest.raises(ValueError, match="alpha"):
            price(model, spec, 100, alpha=1.0)

    def test_workers_floor(self):
        model, spec = load_config("table1a")
        with pytest.raises(ValueError, match="workers"):
            price(model, spec, 100, workers=0)

    def test_invalid_model_rejected(self):
        model = barrier_free_model()
        bad = OptionSpec(kind="call", strike=-5.0)
        with pytest.raises(ModelError, match="strike"):
            price(model, bad, 100)

    def test_nan_lower_barrier_rejected(self):
        """Used to price as 0.0 with std_error 0.0."""
        regime = Regime(mu=[0.05], sigma=[0.3], lower=[math.nan])
        model = MarketModel(
            spot=[100.0], rate=0.05, grid=TimeGrid.uniform(1.0, 4), regimes=regime
        )
        with pytest.raises(ModelError, match="regime 0: lower barrier on asset 0 must be finite"):
            price(model, OptionSpec(kind="call", strike=100.0), 40_000)

    def test_nan_sigma_rejected(self):
        """Used to price as a NaN mean."""
        regime = Regime(mu=[0.05], sigma=[math.nan], lower=[90.0])
        model = MarketModel(
            spot=[100.0], rate=0.05, grid=TimeGrid.uniform(1.0, 4), regimes=regime
        )
        with pytest.raises(ModelError, match="regime 0: sigma must be finite"):
            price(model, OptionSpec(kind="call", strike=100.0), 40_000)

    def test_rebate_on_knock_in_rejected(self):
        model, spec = load_config("table1a")
        ki = OptionSpec(kind=spec.kind, strike=spec.strike, knock="in", rebate=2.0)
        with pytest.raises(ValueError, match="rebate"):
            price(model, ki, 100)


class TestPayoffHook:
    @pytest.mark.parametrize(
        "hook, message",
        [
            (lambda s: np.maximum(s[:, :1] - 100.0, 0.0), r"shape \(1000,\), got \(1000, 1\)"),
            (lambda s: np.zeros((len(s), 2)), r"shape \(1000,\), got \(1000, 2\)"),
            (lambda s: np.zeros(3), r"shape \(1000,\), got \(3,\)"),
            (lambda s: np.full(len(s), np.nan), "non-finite"),
        ],
        ids=["n_by_1", "n_by_2", "three", "nan"],
    )
    def test_bad_hook_output_rejected(self, hook, message):
        """Used to broadcast into a wrong price, a NaN, or a numpy error."""
        model, _ = load_config("table1a", steps=4)
        spec = OptionSpec(kind="custom", payoff=hook)
        with pytest.raises(ModelError, match="payoff hook"):
            price(model, spec, 1000, seed=1)
        with pytest.raises(ModelError, match=message):
            path_contributions(model, spec, 1000, seed=1)

    def test_knock_out_hook_sees_surviving_rows_only(self):
        """A knock-out price evaluates the hook on the paths alive at maturity;
        knock-in and path_contributions evaluate it on every path."""
        model, _ = load_config("table4_d3", steps=4)
        n = CHUNK + 5
        alive = int(path_contributions(model, OptionSpec(), n, seed=1)["alive"].sum())
        seen = []

        def hook(s):
            seen.append(len(s))
            return np.maximum(s[:, 0] - 100.0, 0.0)

        for knock, expected in (("out", alive), ("in", n)):
            seen.clear()
            price(model, OptionSpec(kind="custom", knock=knock, payoff=hook), n, seed=1)
            assert sum(seen) == expected, knock


class TestPricingReport:
    def test_no_barriers_all_estimators_coincide(self):
        """Without barriers every variant is the plain discounted payoff."""
        model = barrier_free_model()
        spec = OptionSpec(kind="call", strike=100.0)
        report = price(model, spec, 20_000, seed=2)
        assert report.q_exact is not None
        for est in (report.q_lower, report.q_indep, report.q_upper, report.q_exact):
            assert est.mean == report.q_s.mean
            assert est.std_error == report.q_s.std_error

    def test_exact_estimator_present_for_single_event_intervals(self):
        model, spec = load_config("table1a", steps=4)
        report = price(model, spec, 5000, seed=0)
        assert report.q_exact is not None
        assert report.q_exact.mean == report.q_upper.mean

    def test_exact_estimator_absent_for_double_barrier(self):
        model, spec = load_config("table2", steps=4)
        report = price(model, spec, 5000, seed=0)
        assert report.q_exact is None
        assert "q_exact" not in report.to_dict()["estimators"]

    def test_estimator_ordering(self):
        model, spec = load_config("table2", steps=8)
        report = price(model, spec, 20_000, seed=1)
        assert report.q_lower.mean <= report.q_indep.mean
        assert report.q_indep.mean <= report.q_upper.mean
        assert report.q_upper.mean <= report.q_s.mean

    def test_point_estimates_follow_from_estimators(self):
        model, spec = load_config("table2", steps=4)
        report = price(model, spec, 5000, seed=0)
        lo, mid, hi = report.q_lower, report.q_indep, report.q_upper
        for got, (a, b) in ((report.q0, (lo, hi)), (report.q1, (lo, mid)), (report.q2, (mid, hi))):
            assert got == PointEstimate(
                value=0.5 * (a.mean + b.mean),
                std_error=0.5 * (b.mean - a.mean) + 0.5 * (b.std_error + a.std_error),
            )

    def test_ci_matches_confidence_interval(self):
        model, spec = load_config("table2", steps=4)
        report = price(model, spec, 5000, seed=0, alpha=0.1)
        z = ndtri(1.0 - 0.1 / 2.0)
        lo, hi = report.q_lower, report.q_upper
        assert report.ci == (lo.mean - z * lo.std_error, hi.mean + z * hi.std_error)
        assert report.alpha == 0.1

    def test_to_dict_shape(self):
        model, spec = load_config("table1a")
        report = price(model, spec, 2000, seed=5)
        payload = report.to_dict()
        assert payload["n_paths"] == 2000
        assert payload["seed"] == 5
        assert set(payload["estimators"]) == {"q_s", "q_lower", "q_indep", "q_upper", "q_exact"}
        assert set(payload["point_estimates"]) == {"q0", "q1", "q2"}
        assert len(payload["ci"]) == 2

    def test_same_seed_same_report(self):
        model, spec = load_config("table1b", steps=2)
        a = price(model, spec, 4000, seed=9)
        b = price(model, spec, 4000, seed=9)
        assert a.to_dict() == b.to_dict()

    def test_worker_count_never_changes_results(self):
        """Chunked reduction is deterministic regardless of thread count."""
        model, spec = load_config("table2", steps=4)
        serial = price(model, spec, 3 * 32768 + 17, seed=3, workers=1)
        threaded = price(model, spec, 3 * 32768 + 17, seed=3, workers=4)
        assert serial.to_dict() == threaded.to_dict()

    @given(
        cfg=st.sampled_from(BUNDLED),
        steps=st.sampled_from([None, 3, 8]),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        n_paths=st.integers(min_value=CHUNK + 1, max_value=2 * CHUNK + 100),
        contract=st.sampled_from(["out", "in", "rebate"]),
    )
    @settings(max_examples=12, deadline=None)
    def test_worker_count_invariance_property(self, cfg, steps, seed, n_paths, contract):
        """Same seed, same report at 1, 2 and 3 workers, for any config and path count."""
        model, spec = load_config(cfg, steps=steps)
        spec = replace(spec, knock="in" if contract == "in" else "out",
                       rebate=2.5 if contract == "rebate" else 0.0)
        serial = price(model, spec, n_paths, seed=seed, workers=1).to_dict()
        for workers in (2, 3):
            assert price(model, spec, n_paths, seed=seed, workers=workers).to_dict() == serial


class TestKnockInParity:
    def test_knock_out_plus_knock_in_is_vanilla(self):
        """In-out parity holds estimator by estimator on shared paths."""
        model, spec = load_config("table1b", steps=4)
        n = 20_000
        ko = price(model, spec, n, seed=6)
        ki = price(model, replace(spec, knock="in"), n, seed=6)
        vanilla = barrier_free_model(d=2, sigma=0.3, rate=0.1, maturity=1.0, steps=4,
                                     corr=[[1.0, 0.5], [0.5, 1.0]])
        plain = price(vanilla, OptionSpec(kind="call", strike=100.0), n, seed=6)
        target = plain.q_s.mean
        # the knock-in role swap pairs q_upper with q_lower and vice versa
        assert ko.q_upper.mean + ki.q_lower.mean == pytest.approx(target, abs=1e-12)
        assert ko.q_lower.mean + ki.q_upper.mean == pytest.approx(target, abs=1e-12)
        assert ko.q_indep.mean + ki.q_indep.mean == pytest.approx(target, abs=1e-12)
        assert ko.q_s.mean + ki.q_s.mean == pytest.approx(target, abs=1e-12)

    @pytest.mark.parametrize("config", ["table1b", "table4_d3"])
    def test_path_level_parity_through_contribs(self, config):
        """Knock-out plus knock-in is the payoff on every path, so the two
        prices sum to the vanilla price, column by column once knock-in's
        q_lower and q_upper swap.  The barrier-free copy walks the same
        paths: its per-path payoffs are the barrier model's, so its q_s is
        the vanilla price on those paths."""
        model, spec = load_config(config)
        n = CHUNK + 500
        free = replace(
            model, regimes=tuple(replace(r, lower=None, upper=None) for r in model.regimes)
        )
        payoff = path_contributions(model, spec, n, seed=6)["payoff"]
        assert np.array_equal(payoff, path_contributions(free, spec, n, seed=6)["payoff"])
        ko = price(model, spec, n, seed=6)
        ki = price(model, replace(spec, knock="in"), n, seed=6)
        target = price(free, spec, n, seed=6).q_s.mean
        assert ko.q_upper.mean + ki.q_lower.mean == pytest.approx(target, rel=1e-12)
        assert ko.q_lower.mean + ki.q_upper.mean == pytest.approx(target, rel=1e-12)
        assert ko.q_indep.mean + ki.q_indep.mean == pytest.approx(target, rel=1e-12)

    def test_price_dispatches_on_knock_field(self):
        model, spec = load_config("table1a", steps=2)
        ki_spec = OptionSpec(kind=spec.kind, strike=spec.strike, asset=spec.asset, knock="in")
        via_field = price(model, ki_spec, 4000, seed=1)
        via_replace = price(model, replace(spec, knock="in"), 4000, seed=1)
        knock_out = price(model, spec, 4000, seed=1)
        assert via_field.to_dict() == via_replace.to_dict()
        assert via_field.q_s.mean != knock_out.q_s.mean

    def test_knock_in_with_unreachable_barrier_is_worthless(self):
        """A zero lower barrier can never knock the option in."""
        regime = Regime(mu=[0.1], sigma=[0.3], lower=[0.0])
        model = MarketModel(
            spot=[100.0], rate=0.1, grid=TimeGrid.uniform(0.5, 2), regimes=(regime,)
        )
        report = price(model, OptionSpec(kind="call", strike=100.0, knock="in"), 4000, seed=0)
        for est in (report.q_s, report.q_lower, report.q_indep, report.q_upper):
            assert est.mean == 0.0

    def test_certain_knock_in_recovers_vanilla(self):
        """A barrier one tick under spot is hit almost surely over a year."""
        regime = Regime(mu=[0.1], sigma=[0.6], lower=[99.99])
        model = MarketModel(
            spot=[100.0], rate=0.1, grid=TimeGrid.uniform(1.0, 16), regimes=(regime,)
        )
        n = 30_000
        ki = price(model, OptionSpec(kind="call", strike=100.0, knock="in"), n, seed=4)
        vanilla = price(
            barrier_free_model(sigma=0.6, maturity=1.0, steps=16),
            OptionSpec(kind="call", strike=100.0), n, seed=4,
        )
        # q_upper(KI) uses the lower-bound weight, the certain-hit limit
        assert ki.q_upper.mean == pytest.approx(vanilla.q_s.mean, rel=2e-3)


def knock_out_means(model, spec, n, seed):
    """Knock-out estimator means rebuilt path by path from path_contributions:
    discounted payoff * alive * w + r_disc * (1 - alive * w)."""
    cols = path_contributions(model, spec, n, seed=seed)
    r_disc = spec.rebate * math.exp(-model.rate * model.grid.maturity)
    alive = cols["alive"].astype(float)
    weights = {"q_s": 1.0, "q_lower": cols["w_lower"], "q_indep": cols["w_indep"],
               "q_upper": cols["w_upper"]}
    if "w_exact" in cols:
        weights["q_exact"] = cols["w_exact"]
    return {
        name: np.mean(cols["payoff"] * alive * w + r_disc * (1.0 - alive * w))
        for name, w in weights.items()
    }


class TestRebate:
    def test_zero_rebate_identical_to_plain_price(self):
        model, spec = load_config("table2", steps=4)
        with_zero = replace(spec, rebate=0.0)
        report = price(model, with_zero, 6000, seed=7)
        for name, mean in knock_out_means(model, with_zero, 6000, seed=7).items():
            assert report.estimates[name][0] == pytest.approx(mean, rel=1e-12), name

    def test_pure_rebate_prices_the_hit_probability(self):
        """With a zero payoff the contract pays R on knock-out only."""
        model, spec = load_config("table1a", steps=4)
        zero_payoff = OptionSpec(kind="custom", payoff=lambda s: np.zeros(len(s)))
        n = 20_000
        report = price(model, replace(zero_payoff, rebate=1.0), n, seed=8)
        cols = path_contributions(model, zero_payoff, n, seed=8)
        disc = math.exp(-model.rate * model.grid.maturity)
        alive = cols["alive"].astype(float)
        assert report.q_s.mean == pytest.approx(disc * np.mean(1.0 - alive), rel=1e-12)
        assert report.q_upper.mean == pytest.approx(
            disc * np.mean(1.0 - alive * cols["w_upper"]), rel=1e-12
        )

    def test_rebate_override_beats_spec_field(self):
        model, spec = load_config("table1a", steps=2)
        spec_with = OptionSpec(kind=spec.kind, strike=spec.strike, rebate=3.0)
        for s in (spec_with, replace(spec, rebate=3.0)):
            report = price(model, s, 4000, seed=2)
            for name, mean in knock_out_means(model, s, 4000, seed=2).items():
                assert report.estimates[name][0] == pytest.approx(mean, rel=1e-12), name

    def test_rebate_never_cheapens_the_option(self):
        model, spec = load_config("table2", steps=4)
        plain = price(model, spec, 6000, seed=3)
        sweet = price(model, replace(spec, rebate=5.0), 6000, seed=3)
        assert sweet.q_s.mean >= plain.q_s.mean
        assert sweet.q_upper.mean >= plain.q_upper.mean


class TestPathContributions:
    def test_columns_and_lengths(self):
        model, spec = load_config("table1a", steps=2)
        cols = path_contributions(model, spec, 1000, seed=0)
        assert set(cols) == {"payoff", "alive", "w_lower", "w_indep", "w_upper", "w_exact"}
        assert all(len(v) == 1000 for v in cols.values())

    def test_no_exact_column_for_multi_event_intervals(self):
        model, spec = load_config("table2", steps=2)
        cols = path_contributions(model, spec, 1000, seed=0)
        assert "w_exact" not in cols

    def test_consistent_with_report(self):
        """Recomputing estimator means from the raw columns matches price."""
        model, spec = load_config("table2", steps=4)
        n = 40_000
        report = price(model, spec, n, seed=11)
        cols = path_contributions(model, spec, n, seed=11)
        alive = cols["alive"].astype(float)
        assert np.mean(cols["payoff"] * alive) == pytest.approx(report.q_s.mean, rel=1e-12)
        for name, est in [
            ("w_lower", report.q_lower),
            ("w_indep", report.q_indep),
            ("w_upper", report.q_upper),
        ]:
            mean = np.mean(cols["payoff"] * alive * cols[name])
            assert mean == pytest.approx(est.mean, rel=1e-12)

    def test_weights_in_unit_interval(self):
        model, spec = load_config("table2", steps=4)
        cols = path_contributions(model, spec, 5000, seed=1)
        for name in ("w_lower", "w_indep", "w_upper"):
            assert np.all((cols[name] >= 0.0) & (cols[name] <= 1.0))


class TestStandardErrors:
    def test_matches_direct_formula(self):
        """Chunked two-pass reduction equals the textbook estimate."""
        model, spec = load_config("table1a", steps=2)
        n = 50_000
        report = price(model, spec, n, seed=5)
        cols = path_contributions(model, spec, n, seed=5)
        c = cols["payoff"] * cols["alive"].astype(float) * cols["w_exact"]
        se = float(np.std(c, ddof=1)) / math.sqrt(n)
        assert report.q_exact.std_error == pytest.approx(se, rel=1e-10)

    def test_no_cancellation_against_a_large_mean(self):
        """A payoff of 1e8 + 0.01 S has a spread of about 0.3 on a mean of
        1e8; a one-pass sum of squares read 2.56e-3 here, not 6.85e-4."""
        model = MarketModel(
            spot=[100.0],
            rate=0.05,
            grid=TimeGrid.uniform(1.0, 4),
            regimes=Regime(mu=[0.05], sigma=[0.3], lower=[1.0]),
        )
        spec = OptionSpec(kind="custom", payoff=lambda s: 1e8 + 0.01 * s[:, 0])
        n = 200_000
        report = price(model, spec, n, seed=1)
        cols = path_contributions(model, spec, n, seed=1)
        c = cols["payoff"] * cols["w_lower"]
        dev = c - np.mean(c)
        se = math.sqrt(float(dev @ dev) / (n - 1) / n)
        assert se == pytest.approx(6.85e-4, rel=1e-3)
        assert report.q_lower.std_error == pytest.approx(se, rel=1e-9)

    @pytest.mark.parametrize("value", [1.357, 7.3])
    def test_constant_contributions_have_zero_error(self, value):
        """Every path pays the same, so the standard error is exactly 0; a
        one-pass sum of squares read 1.1e-10 at 1.357."""
        spec = OptionSpec(kind="custom", payoff=lambda s: np.full(len(s), value))
        report = price(barrier_free_model(), spec, 2 * CHUNK + 1000, seed=1)
        assert report.q_s.std_error == report.q_exact.std_error == 0.0

    def test_se_shrinks_with_n(self):
        model, spec = load_config("table1a")
        small = price(model, spec, 5000, seed=1)
        large = price(model, spec, 80_000, seed=1)
        assert large.q_s.std_error < small.q_s.std_error
