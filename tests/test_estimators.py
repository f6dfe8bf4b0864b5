"""Tests for pricing estimators: bounds, midpoints, parity, and reporting."""

from __future__ import annotations

import json
import math
import statistics
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgebound import estimators
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
from bridgebound.simulate import CHUNK, path_batches

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
              ("bool-seed", {"seed": True}, "seed must be an integer, got True"),
              ("bool-asset", {"spec": OptionSpec(strike=100.0, asset=True)},
               "option asset index must be an integer, got True"),
          ]
          for name, entry in [("price", price), ("contributions", path_contributions)]),
        # Run arguments of price alone.
        *(pytest.param(price, kwargs, message, id=f"{case}-price")
          for case, kwargs, message in [
              ("float-workers", {"workers": 2.5}, "workers must be an integer, got 2.5"),
              ("string-workers", {"workers": "2"}, "workers must be an integer, got '2'"),
              ("string-alpha", {"alpha": "0.1"}, "alpha must be a real number, got '0.1'"),
              ("null-alpha", {"alpha": None}, "alpha must be a real number, got None"),
              ("bool-workers", {"workers": True}, "workers must be an integer, got True"),
              ("bool-alpha", {"alpha": True}, "alpha must be a real number, got True"),
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


def alive_count(model, n, seed):
    """Paths alive at maturity, from the engine's own indicator."""
    return sum(int(batch.alive.sum()) for batch in path_batches(model, n, seed=seed))


class TestPayoffHook:
    @pytest.mark.parametrize(
        "hook, message",
        [
            (lambda s: np.maximum(s[:, :1] - 100.0, 0.0), r"shape \({n},\), got \({n}, 1\)"),
            (lambda s: np.zeros((len(s), 2)), r"shape \({n},\), got \({n}, 2\)"),
            (lambda s: np.zeros(3), r"shape \({n},\), got \(3,\)"),
            (lambda s: np.full(len(s), np.nan), "non-finite"),
        ],
        ids=["n_by_1", "n_by_2", "three", "nan"],
    )
    def test_bad_hook_output_rejected(self, hook, message):
        """Used to broadcast into a wrong price, a NaN, or a numpy error.  A
        knock-out hook sees the paths alive at maturity, which the message counts."""
        model, _ = load_config("table1a", steps=4)
        spec = OptionSpec(kind="custom", payoff=hook)
        with pytest.raises(ModelError, match="payoff hook"):
            price(model, spec, 1000, seed=1)
        with pytest.raises(ModelError, match=message.format(n=alive_count(model, 1000, seed=1))):
            path_contributions(model, spec, 1000, seed=1)

    def test_knock_out_hook_sees_surviving_rows_only(self):
        """A knock-out price and its path_contributions evaluate the hook on
        the paths alive at maturity; knock-in evaluates it on every path."""
        model, _ = load_config("table4_d3", steps=4)
        n = CHUNK + 5
        alive = alive_count(model, n, seed=1)
        seen = []

        def hook(s):
            seen.append(len(s))
            return np.maximum(s[:, 0] - 100.0, 0.0)

        for knock, expected in (("out", alive), ("in", n)):
            spec = OptionSpec(kind="custom", knock=knock, payoff=hook)
            for entry in (price, path_contributions):
                seen.clear()
                entry(model, spec, n, seed=1)
                assert sum(seen) == expected, (knock, entry.__name__)


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
        z = statistics.NormalDist().inv_cdf(1.0 - 0.1 / 2.0)
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
        # numpy run arguments are read as plain ints, so the report is JSON.
        numpy_args = price(model, spec, np.int64(2000), seed=np.int64(5)).to_dict()
        assert json.loads(json.dumps(numpy_args)) == payload

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
    @pytest.mark.parametrize("config", ["table1b", "table4_d3"])
    def test_path_level_parity_through_contribs(self, config):
        """Knock-out plus knock-in is the payoff on every path, so the two
        prices sum to the vanilla price, knock-out's q_upper with knock-in's
        q_lower and the other way round.  The barrier-free copy walks the
        same paths: its terminal prices are the barrier model's, so its q_s
        is the vanilla price on those paths."""
        model, spec = load_config(config)
        n = CHUNK + 500
        free = replace(
            model, regimes=tuple(replace(r, lower=None, upper=None) for r in model.regimes)
        )
        for barred, plain in zip(path_batches(model, n, seed=6), path_batches(free, n, seed=6)):
            assert np.array_equal(barred.terminal, plain.terminal)
        ko = price(model, spec, n, seed=6)
        ki = price(model, replace(spec, knock="in"), n, seed=6)
        target = price(free, spec, n, seed=6).q_s.mean
        assert ko.q_upper.mean + ki.q_lower.mean == pytest.approx(target, rel=1e-12)
        assert ko.q_lower.mean + ki.q_upper.mean == pytest.approx(target, rel=1e-12)
        assert ko.q_indep.mean + ki.q_indep.mean == pytest.approx(target, rel=1e-12)
        assert ko.q_s.mean + ki.q_s.mean == pytest.approx(target, rel=1e-12)

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


class TestRebate:
    def test_pure_rebate_prices_the_hit_probability(self):
        """With a zero payoff the contract pays R on knock-out only: R_disc times
        a knock-out probability, bounded above through the lower no-hit weight
        and below through the upper one, which table2's double barrier keeps apart."""
        model, _ = load_config("table2", steps=4)
        zero_payoff = OptionSpec(kind="custom", payoff=lambda s: np.zeros(len(s)), rebate=1.0)
        report = price(model, zero_payoff, 20_000, seed=8)
        batches = list(path_batches(model, 20_000, seed=8))
        disc = math.exp(-model.rate * model.grid.maturity)
        for name, field in (("q_s", "alive"), ("q_lower", "w_upper"), ("q_indep", "w_indep"),
                            ("q_upper", "w_lower")):
            hit = np.concatenate([1.0 - getattr(b, field) for b in batches])
            assert report.estimates[name][0] == pytest.approx(disc * np.mean(hit), rel=1e-12), name

    def test_rebate_override_beats_spec_field(self):
        """A rebate set at construction or by replace prices the same, and
        adds R_disc times the discrete knock-out probability to q_s."""
        model, spec = load_config("table1a", steps=2)
        spec_with = OptionSpec(kind=spec.kind, strike=spec.strike, rebate=3.0)
        report = price(model, spec_with, 4000, seed=2)
        assert price(model, replace(spec, rebate=3.0), 4000, seed=2).to_dict() == report.to_dict()
        knocked_out = 1.0 - alive_count(model, 4000, seed=2) / 4000
        r_disc = 3.0 * math.exp(-model.rate * model.grid.maturity)
        gain = report.q_s.mean - price(model, spec, 4000, seed=2).q_s.mean
        assert gain == pytest.approx(r_disc * knocked_out, rel=1e-9)

    def test_rebate_never_cheapens_the_option(self):
        model, spec = load_config("table2", steps=4)
        plain = price(model, spec, 6000, seed=3)
        sweet = price(model, replace(spec, rebate=5.0), 6000, seed=3)
        assert sweet.q_s.mean >= plain.q_s.mean
        assert sweet.q_upper.mean >= plain.q_upper.mean

    @pytest.mark.parametrize("config", ["table2", "table3_rho0.5"])
    def test_rebate_above_payoff_keeps_the_bracket(self, config):
        """A digital with a rebate of 2 pays more knocked out than alive on
        every path.  Its interval at M=1 used to invert, (1.7885, 1.6308)
        on table2, and missed the fine-grid price."""
        model, spec = load_config(config, steps=1)
        spec = replace(spec, kind="digital", rebate=2.0)
        lo, hi = price(model, spec, 40_000, seed=3).ci
        fine_model, _ = load_config(config, steps=256)
        fine = price(fine_model, spec, 40_000, seed=3).q_indep.mean
        assert lo <= fine <= hi


class TestPathContributions:
    def test_columns_and_lengths(self):
        model, spec = load_config("table1a", steps=2)
        cols = path_contributions(model, spec, 1000, seed=0)
        assert set(cols) == {"q_s", "q_lower", "q_indep", "q_upper", "q_exact"}
        assert all(len(v) == 1000 for v in cols.values())

    def test_consistent_with_report(self):
        """Each column's mean is the estimator that price reports; a double
        barrier has no q_exact column."""
        model, base = load_config("table2", steps=4)
        for spec in (base, replace(base, rebate=3.0), replace(base, knock="in")):
            report = price(model, spec, 40_000, seed=11)
            cols = path_contributions(model, spec, 40_000, seed=11)
            assert set(cols) == {"q_s", "q_lower", "q_indep", "q_upper"}
            for name, col in cols.items():
                assert np.mean(col) == pytest.approx(report.estimates[name][0], rel=1e-12), name

    @given(
        cfg=st.sampled_from(BUNDLED),
        steps=st.sampled_from([None, 1, 3, 8]),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        kind=st.sampled_from(["call", "digital", "custom"]),
        contract=st.sampled_from([("out", 0.0), ("out", 0.5), ("out", 2.0), ("out", 10.0),
                                  ("in", 0.0)]),
    )
    @settings(max_examples=30, deadline=None)
    def test_bracket_holds_on_every_path(self, cfg, steps, seed, kind, contract):
        """q_lower <= q_indep <= q_upper on every path, exactly, whatever
        the signs of the payoff and of payoff minus rebate; the custom hook
        pays S - K unclipped."""
        model, spec = load_config(cfg, steps=steps)
        knock, rebate = contract
        hook = (lambda s: s[:, spec.asset] - spec.strike) if kind == "custom" else None
        spec = replace(spec, kind=kind, knock=knock, rebate=rebate, payoff=hook)
        cols = path_contributions(model, spec, 3000, seed=seed)
        assert np.all(cols["q_lower"] <= cols["q_indep"])
        assert np.all(cols["q_indep"] <= cols["q_upper"])


class TestStandardErrors:
    def test_matches_direct_formula(self):
        """Chunked two-pass reduction equals the textbook estimate."""
        model, spec = load_config("table1a", steps=2)
        n = 50_000
        report = price(model, spec, n, seed=5)
        c = path_contributions(model, spec, n, seed=5)["q_exact"]
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
        c = path_contributions(model, spec, n, seed=1)["q_lower"]
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


@pytest.fixture
def blas_threads():
    """numpy's OpenBLAS thread-count getter, with the count set to 2 for the
    test and put back after it."""
    functions = estimators._BLAS.functions()
    if functions is None:
        pytest.skip("numpy's bundled OpenBLAS, or its thread-count symbols, is absent")
    get, set_ = functions
    old = get()
    set_(2)
    try:
        yield get
    finally:
        set_(old)


def counting_hook(counts, count):
    """A call payoff on asset 0 that appends ``count()`` to ``counts`` each call."""

    def hook(s):
        counts.append(count())
        return np.maximum(s[:, 0] - 100.0, 0.0)

    return hook


class TestThreads:
    """price starts threads for the length of the call only, and while they
    run holds BLAS to one thread, then puts the old count back."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # The draw-ahead helper runs only where a second CPU is usable.
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blas_count_is_one_during_price_and_restored_after(self, blas_threads, workers):
        model, _ = load_config("table4_d3", steps=4)
        seen = []
        spec = OptionSpec(kind="custom", payoff=counting_hook(seen, blas_threads))
        price(model, spec, CHUNK + 1, workers=workers)
        assert seen and set(seen) == {1}
        assert blas_threads() == 2
        with pytest.raises(ModelError, match="payoff hook"):
            price(model, OptionSpec(kind="custom", payoff=lambda s: np.zeros(3)), CHUNK + 1,
                  workers=workers)
        assert blas_threads() == 2

    def test_concurrent_prices_restore_the_count_once(self, blas_threads):
        """Two prices on two threads hold BLAS at once; the count stays at one
        until the later one ends, and only then comes back."""
        model, _ = load_config("table4_d3", steps=4)
        both_inside = threading.Barrier(2, timeout=60)
        first_done = threading.Event()
        seen = []

        def hook(after_first):
            def payoff(s):
                both_inside.wait()
                if after_first:
                    assert first_done.wait(timeout=60)
                seen.append(blas_threads())
                return np.maximum(s[:, 0] - 100.0, 0.0)

            return payoff

        def first():
            price(model, OptionSpec(kind="custom", payoff=hook(False)), 1000, seed=1)
            first_done.set()

        thread = threading.Thread(target=first)
        thread.start()
        price(model, OptionSpec(kind="custom", payoff=hook(True)), 1000, seed=2)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert seen == [1, 1]
        assert blas_threads() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_no_thread_outlives_price(self, workers):
        model, _ = load_config("table4_d3", steps=4)
        before = threading.active_count()
        during = []
        spec = OptionSpec(kind="custom", payoff=counting_hook(during, threading.active_count))
        price(model, spec, CHUNK + 1, workers=workers)
        assert max(during) > before  # the helper, or the pool, ran
        assert threading.active_count() == before
        with pytest.raises(ModelError, match="payoff hook"):
            price(model, OptionSpec(kind="custom", payoff=lambda s: np.zeros(3)), CHUNK + 1,
                  workers=workers)
        assert threading.active_count() == before
