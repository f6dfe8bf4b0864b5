"""Tests for the market data model: grids, regimes, validation, configs."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from bridgebound.model import (
    MarketModel,
    ModelError,
    OptionSpec,
    Regime,
    TimeGrid,
    config_path,
    factor_correlation,
    load_config,
    validate,
)


def one_asset_model(
    spot=100.0, lower=90.0, upper=None, sigma=0.3, rate=0.1, maturity=0.5, steps=1
) -> MarketModel:
    regime = Regime(mu=[rate], sigma=[sigma], lower=[lower], upper=[upper])
    return MarketModel(
        spot=[spot], rate=rate, grid=TimeGrid.uniform(maturity, steps), regimes=(regime,)
    )


FREE = Regime(mu=[0.1], sigma=[0.3])


def one_regime_model_of(regime: Regime) -> MarketModel:
    return MarketModel(spot=[100.0], rate=0.1, grid=TimeGrid.uniform(1.0, 2), regimes=regime)


def two_asset_model(corr) -> MarketModel:
    regime = Regime(mu=[0.1, 0.1], sigma=[0.2, 0.2], corr=corr)
    return MarketModel(
        spot=[100.0, 100.0], rate=0.1, grid=TimeGrid.uniform(1.0, 1), regimes=(regime,)
    )


class TestTimeGrid:
    def test_uniform_grid(self):
        grid = TimeGrid.uniform(0.5, 4)
        assert grid.n_steps == 4
        assert grid.maturity == 0.5
        assert np.allclose(np.diff(grid.dates), 0.125)
        assert grid.dt(2) == pytest.approx(0.125)
        assert grid.dates[0] == 0.0

    def test_uniform_rejects_zero_steps(self):
        with pytest.raises(ModelError, match="steps"):
            TimeGrid.uniform(1.0, 0)

    @pytest.mark.parametrize("maturity, steps, message", [
        pytest.param(1.0, True, "steps must be an integer, got True", id="bool-steps"),
        pytest.param(1.0, 2.5, "steps must be an integer, got 2.5", id="fractional-steps"),
        pytest.param(1.0, 2.0, "steps must be an integer, got 2.0", id="integral-float-steps"),
        pytest.param("1", 2, "maturity must be a real number, got '1'", id="string-maturity"),
    ])
    def test_uniform_refuses_wrong_types(self, maturity, steps, message):
        """A bool is never a count, and a Python run argument 2.0 is not an integer."""
        with pytest.raises(ModelError, match=re.escape(message)):
            TimeGrid.uniform(maturity, steps)

    def test_explicit_dates(self):
        grid = TimeGrid([0.0, 0.25, 1.0])
        assert grid.n_steps == 2
        assert grid.dt(1) == pytest.approx(0.75)


class TestRegime:
    def test_defaults(self):
        """Omitted corr is the identity; omitted barriers are absent."""
        regime = Regime(mu=[0.1, 0.1], sigma=[0.2, 0.3])
        assert np.array_equal(regime.corr, np.eye(2))
        assert regime.lower == (None, None)
        assert regime.upper == (None, None)
        assert regime.d == 2

    def test_events_canonical_order(self):
        """Events come out ascending by asset, lower before upper."""
        regime = Regime(
            mu=[0.0, 0.0],
            sigma=[0.2, 0.2],
            lower=[90.0, 80.0],
            upper=[None, 120.0],
        )
        assert regime.events() == (
            (0, "lower", 90.0),
            (1, "lower", 80.0),
            (1, "upper", 120.0),
        )

    def test_no_barriers_no_events(self):
        assert Regime(mu=[0.0], sigma=[0.2]).events() == ()

    def test_barrier_length_mismatch(self):
        with pytest.raises(ModelError, match="barrier entries"):
            Regime(mu=[0.0, 0.0], sigma=[0.2, 0.2], lower=[90.0])


class TestMarketModel:
    def test_single_regime_broadcast(self):
        regime = Regime(mu=[0.1], sigma=[0.3], lower=[90.0])
        model = MarketModel(
            spot=[100.0], rate=0.1, grid=TimeGrid.uniform(1.0, 8), regimes=(regime,)
        )
        assert len(model.regimes) == 8
        assert all(r is regime for r in model.regimes)

    def test_d(self):
        assert one_asset_model().d == 1


class TestFactorCorrelation:
    def test_identity(self):
        assert np.array_equal(factor_correlation(np.eye(2)), np.eye(2))

    def test_positive_definite_roundtrip(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        ell = factor_correlation(corr)
        assert np.max(np.abs(ell @ ell.T - corr)) <= 1e-10
        assert np.allclose(np.triu(ell, 1), 0.0)

    def test_perfect_dependence_rank_one(self):
        corr = np.ones((2, 2))
        ell = factor_correlation(corr)
        assert np.max(np.abs(ell @ ell.T - corr)) <= 1e-10
        assert np.allclose(np.triu(ell, 1), 0.0)

    def test_perfect_anticorrelation(self):
        corr = np.array([[1.0, -1.0], [-1.0, 1.0]])
        ell = factor_correlation(corr)
        assert np.max(np.abs(ell @ ell.T - corr)) <= 1e-10

    def test_random_psd_matrices_roundtrip(self):
        """L from any valid correlation matrix reproduces it to 1e-10."""
        rng = np.random.default_rng(7)
        for d in (2, 3, 5, 8):
            a = rng.standard_normal((d, d + 1))
            cov = a @ a.T
            scale = np.sqrt(np.diag(cov))
            corr = cov / np.outer(scale, scale)
            corr = 0.5 * (corr + corr.T)
            np.fill_diagonal(corr, 1.0)
            ell = factor_correlation(corr)
            assert np.max(np.abs(ell @ ell.T - corr)) <= 1e-10
            assert np.allclose(np.triu(ell, 1), 0.0)

    def test_tiny_negative_eigenvalue_repaired(self):
        # eigenvalues {2 - 1e-9, 1e-9 isn't reachable exactly}; build one
        # from a rank-1 matrix perturbed just below the tolerance
        corr = np.ones((2, 2))
        corr[0, 1] = corr[1, 0] = 1.0 + 4e-9
        ell = factor_correlation(corr)
        assert np.max(np.abs(ell @ ell.T - corr)) <= 1e-8

    def test_rejects_indefinite(self):
        corr = np.array([[1.0, 0.8, -0.8], [0.8, 1.0, 0.8], [-0.8, 0.8, 1.0]])
        with pytest.raises(ModelError, match="positive semi-definite"):
            factor_correlation(corr)

    def test_rejects_non_square(self):
        with pytest.raises(ModelError, match="square"):
            factor_correlation(np.ones((2, 3)))


class TestValidate:
    def test_shipped_single_asset_config_valid(self):
        model, spec = load_config("table1a")
        report = validate(model, spec)
        assert report.ok
        assert report.violations == []

    def test_spot_on_barrier_is_violation(self):
        model = one_asset_model(spot=100.0, lower=100.0)
        report = validate(model)
        assert not report.ok
        assert any("exactly on" in v for v in report.violations)
        with pytest.raises(ModelError):
            report.raise_if_invalid()

    def test_spot_outside_barrier_raises(self):
        """A dead-at-inception option is a hard error, not a report entry."""
        model = one_asset_model(spot=80.0, lower=90.0)
        with pytest.raises(ModelError, match="outside"):
            validate(model)

    def test_spot_above_upper_barrier_raises(self):
        model = one_asset_model(spot=130.0, lower=None, upper=120.0)
        with pytest.raises(ModelError, match="outside"):
            validate(model)

    def test_perfect_correlation_config_valid(self):
        """Correlation 1 is rank deficient but perfectly legal."""
        model, spec = load_config("table3_rho1")
        assert validate(model, spec).ok
        ell = factor_correlation(model.regimes[0].corr)
        assert np.max(np.abs(ell @ ell.T - model.regimes[0].corr)) <= 1e-10

    def test_indefinite_correlation_raises_with_regime_index(self):
        bad = np.array([[1.0, 0.8, -0.8], [0.8, 1.0, 0.8], [-0.8, 0.8, 1.0]])
        regime = Regime(mu=[0.1] * 3, sigma=[0.2] * 3, corr=bad)
        model = MarketModel(
            spot=[100.0] * 3, rate=0.1, grid=TimeGrid.uniform(1.0, 1), regimes=(regime,)
        )
        with pytest.raises(ModelError, match="regime 0"):
            validate(model)

    def test_nonpositive_sigma_flagged(self):
        model = one_asset_model(sigma=0.0)
        assert any("sigma" in v for v in validate(model).violations)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_named(self, bad):
        """NaN used to slip past every sign and range check."""
        model = MarketModel(
            spot=[bad, 100.0],
            rate=bad,
            grid=TimeGrid([0.0, 0.5, bad]),
            regimes=(
                Regime(mu=[0.1, bad], sigma=[bad, 0.2], lower=[bad, None], upper=[None, bad]),
                Regime(mu=[0.1, 0.1], sigma=[0.2, 0.2], corr=[[1.0, bad], [bad, 1.0]]),
            ),
        )
        violations = validate(model, OptionSpec(strike=bad, rebate=bad)).violations
        for field in (
            "grid dates",
            "spots",
            "rate",
            "regime 0: mu",
            "regime 0: sigma",
            "regime 0: lower barrier on asset 0",
            "regime 0: upper barrier on asset 1",
            "regime 1: correlation entries",
            "strike",
            "rebate",
        ):
            assert f"{field} must be finite" in violations

    def test_asymmetric_correlation_flagged(self):
        corr = np.array([[1.0, 0.5], [0.4, 1.0]])
        regime = Regime(mu=[0.1, 0.1], sigma=[0.2, 0.2], corr=corr)
        model = MarketModel(
            spot=[100.0, 100.0], rate=0.1, grid=TimeGrid.uniform(1.0, 1), regimes=(regime,)
        )
        assert any("symmetric" in v for v in validate(model).violations)

    def test_barrier_ordering_flagged(self):
        # the inverted pair sits in regime 1 so the spot stays legal at t=0
        good = Regime(mu=[0.1], sigma=[0.2], lower=[90.0], upper=[120.0])
        bad = Regime(mu=[0.1], sigma=[0.2], lower=[110.0], upper=[105.0])
        model = MarketModel(
            spot=[100.0], rate=0.1, grid=TimeGrid.uniform(1.0, 2), regimes=(good, bad)
        )
        assert any("below upper" in v for v in validate(model).violations)

    def test_option_spec_problems_flagged(self):
        model = one_asset_model()
        report = validate(model, OptionSpec(kind="put", strike=-1.0, knock="maybe", asset=3))
        text = " ".join(report.violations)
        assert "kind" in text
        assert "strike" in text
        assert "knock" in text
        assert "asset index" in text

    def test_rebate_on_knock_in_flagged(self):
        """``validate`` reports the spec that ``price`` refuses."""
        report = validate(one_asset_model(), OptionSpec(strike=100.0, knock="in", rebate=1.0))
        assert report.violations == ["rebate is only supported for knock-out options"]
        with pytest.raises(ModelError, match="rebate"):
            report.raise_if_invalid()

    def test_broadcast_regime_checked_once(self):
        """One bad regime broadcast over 64 steps gives one message per field, not 64."""
        regime = Regime(mu=[np.nan], sigma=[np.nan], lower=[90.0])
        model = MarketModel(
            spot=[100.0], rate=0.1, grid=TimeGrid.uniform(1.0, 64), regimes=regime
        )
        assert validate(model).violations == [
            "regime 0: mu must be finite",
            "regime 0: sigma must be finite",
        ]

    @pytest.mark.parametrize(
        "model, message",
        [
            pytest.param(
                MarketModel(spot=[100.0], rate=0.1, grid=TimeGrid([0.0]), regimes=()),
                "time grid needs at least one step",
                id="grid-without-steps",
            ),
            pytest.param(
                MarketModel(spot=[100.0], rate=0.1, grid=TimeGrid([]), regimes=()),
                "time grid needs at least one step",
                id="grid-without-dates",
            ),
            pytest.param(
                MarketModel(
                    spot=[100.0], rate=0.1, grid=TimeGrid([0.25, 0.5, 1.0]), regimes=FREE
                ),
                "grid must start at 0, got 0.25",
                id="grid-not-at-zero",
            ),
            pytest.param(
                MarketModel(
                    spot=[100.0], rate=0.1, grid=TimeGrid.uniform(1.0, 3), regimes=(FREE, FREE)
                ),
                "expected 3 regimes, got 2",
                id="regime-count",
            ),
            pytest.param(
                two_asset_model(np.eye(3)),
                "regime 0: correlation must be 2x2",
                id="corr-shape",
            ),
            pytest.param(
                two_asset_model([[1.0, 0.2], [0.2, 0.9]]),
                "regime 0: correlation diagonal must be 1",
                id="corr-diagonal",
            ),
            pytest.param(
                # off its unit diagonal too: a unit diagonal with an entry
                # beyond 1 is indefinite, which raises instead
                two_asset_model([[4.0, 1.5], [1.5, 4.0]]),
                "regime 0: correlation entries must lie in [-1, 1]",
                id="corr-range",
            ),
            pytest.param(
                MarketModel(spot=[100.0], rate=None, grid=TimeGrid.uniform(1.0, 1), regimes=FREE),
                "rate must be a real number, got None",
                id="null-rate",
            ),
        ],
    )
    def test_refusal_named(self, model, message):
        report = validate(model)
        assert message in report.violations
        with pytest.raises(ModelError):
            report.raise_if_invalid()

    @pytest.mark.parametrize("dates", [[], [0.0]], ids=["no-dates", "one-date"])
    def test_grid_without_steps_is_one_violation(self, dates):
        model = MarketModel(spot=[100.0], rate=0.1, grid=TimeGrid(dates), regimes=())
        assert model.grid.n_steps == 0
        assert validate(model).violations == ["time grid needs at least one step"]

    @pytest.mark.parametrize(
        "model, message",
        [
            pytest.param(
                one_regime_model_of(Regime(mu=[0.1], sigma=[[0.3]])),
                "regime 0: sigma must be one-dimensional",
                id="sigma",
            ),
            pytest.param(
                one_regime_model_of(Regime(mu=[[0.1]], sigma=[0.3])),
                "regime 0: mu must be one-dimensional",
                id="mu",
            ),
            pytest.param(
                MarketModel(spot=[[100.0]], rate=0.1, grid=TimeGrid.uniform(1.0, 1), regimes=FREE),
                "spot must be one-dimensional, got shape (1, 1)",
                id="spot",
            ),
            pytest.param(
                MarketModel(spot=[100.0], rate=0.1, grid=TimeGrid([[0.0, 1.0]]), regimes=FREE),
                "grid dates must be one-dimensional, got shape (1, 2)",
                id="dates",
            ),
        ],
    )
    def test_not_one_dimensional_named(self, model, message):
        """A field of the wrong rank is reported by name, not raised on later."""
        report = validate(model, OptionSpec(strike=100.0))
        assert message in report.violations

    @pytest.mark.parametrize("spec, message", [
        pytest.param(OptionSpec(strike=100.0, asset=True),
                     "option asset index must be an integer, got True", id="bool-asset"),
        pytest.param(OptionSpec(strike=None), "strike must be a real number, got None",
                     id="null-strike"),
        pytest.param(OptionSpec(strike=100.0, rebate="1"), "rebate must be a real number, got '1'",
                     id="string-rebate"),
    ])
    def test_option_field_of_wrong_type_named(self, spec, message):
        """Reported by name, never raised as a TypeError or taken as a number."""
        model, _ = load_config("table3_rho0")
        assert message in validate(model, spec).violations

    def test_custom_kind_needs_hook(self):
        model = one_asset_model()
        report = validate(model, OptionSpec(kind="custom", strike=0.0))
        assert any("payoff hook" in v for v in report.violations)

    def test_idempotent(self):
        model, spec = load_config("table2")
        first = validate(model, spec)
        second = validate(model, spec)
        assert first.violations == second.violations == []


class TestOptionSpec:
    def test_call_payoff(self):
        spec = OptionSpec(kind="call", strike=100.0, asset=1)
        prices = np.array([[50.0, 120.0], [50.0, 80.0]])
        assert np.array_equal(spec.terminal_payoff(prices), [20.0, 0.0])

    def test_digital_payoff(self):
        spec = OptionSpec(kind="digital", strike=100.0)
        prices = np.array([[120.0], [100.0], [80.0]])
        assert np.array_equal(spec.terminal_payoff(prices), [1.0, 0.0, 0.0])

    def test_custom_payoff(self):
        spec = OptionSpec(kind="custom", payoff=lambda s: s.mean(axis=1))
        prices = np.array([[90.0, 110.0]])
        assert spec.terminal_payoff(prices) == pytest.approx([100.0])

    def test_custom_without_hook_raises(self):
        with pytest.raises(ModelError, match="hook"):
            OptionSpec(kind="custom").terminal_payoff(np.array([[100.0]]))

    def test_unknown_kind_raises(self):
        with pytest.raises(ModelError, match="unknown option kind"):
            OptionSpec(kind="swaption").terminal_payoff(np.array([[100.0]]))


BASE_CONFIG = {
    "assets": 2,
    "spot": [100.0, 100.0],
    "rate": 0.1,
    "grid": {"maturity": 1.0, "steps": 4},
    "regimes": [{"sigma": [0.3, 0.3], "lower": [None, 90.0]}],
    "option": {"kind": "call", "strike": 100.0},
}


class TestLoadConfig:
    def test_from_dict(self):
        model, spec = load_config(BASE_CONFIG)
        assert model.d == 2
        assert model.grid.n_steps == 4
        assert len(model.regimes) == 4
        assert spec.kind == "call"
        assert spec.knock == "out"
        assert spec.rebate == 0.0

    def test_mu_defaults_to_rate(self):
        model, _ = load_config(BASE_CONFIG)
        assert np.array_equal(model.regimes[0].mu, [0.1, 0.1])

    def test_corr_defaults_to_identity(self):
        model, _ = load_config(BASE_CONFIG)
        assert np.array_equal(model.regimes[0].corr, np.eye(2))

    def test_null_barrier_means_absent(self):
        model, _ = load_config(BASE_CONFIG)
        assert model.regimes[0].lower == (None, 90.0)
        assert model.regimes[0].upper == (None, None)

    def test_steps_override(self):
        model, _ = load_config(BASE_CONFIG, steps=16)
        assert model.grid.n_steps == 16
        assert len(model.regimes) == 16

    def test_steps_override_rejected_for_explicit_dates(self):
        cfg = dict(BASE_CONFIG, grid={"dates": [0.0, 0.5, 1.0]})
        with pytest.raises(ModelError, match="explicit dates"):
            load_config(cfg, steps=8)

    def test_steps_override_rejected_for_per_step_regimes(self):
        regime = {"sigma": [0.3, 0.3]}
        cfg = dict(BASE_CONFIG, grid={"maturity": 1.0, "steps": 2}, regimes=[regime, regime])
        with pytest.raises(ModelError, match="per-step regimes"):
            load_config(cfg, steps=2)

    def test_regime_count_must_match_grid(self):
        regime = {"sigma": [0.3, 0.3]}
        cfg = dict(BASE_CONFIG, regimes=[regime, regime])
        with pytest.raises(ModelError, match="length 1 or 4"):
            load_config(cfg)

    def test_explicit_dates(self):
        """``grid.dates`` sets a non-uniform grid; a single regime broadcasts over it."""
        model, spec = load_config(dict(BASE_CONFIG, grid={"dates": [0.0, 0.25, 1.0]}))
        assert np.array_equal(model.grid.dates, [0.0, 0.25, 1.0])
        assert np.array_equal(np.diff(model.grid.dates), [0.25, 0.75])
        assert len(model.regimes) == 2
        assert validate(model, spec).ok

    @pytest.mark.parametrize(
        "cfg, message",
        [
            pytest.param(
                dict(BASE_CONFIG, regimes=[]), "regimes must be a non-empty list", id="no-regimes"
            ),
            pytest.param(
                dict(BASE_CONFIG, regimes=[{"lower": [None, 90.0]}]),
                "regime is missing required key 'sigma'",
                id="regime-without-sigma",
            ),
            pytest.param(
                dict(BASE_CONFIG, grid=[1.0, 4]),
                "grid section must be a JSON object",
                id="section-not-object",
            ),
            pytest.param(
                dict(BASE_CONFIG, grid={"steps": 1}),
                "grid is missing required key 'maturity'",
                id="grid-without-maturity",
            ),
            pytest.param(
                dict(BASE_CONFIG, grid={"maturity": 1.0}),
                "grid is missing required key 'steps'",
                id="grid-without-steps",
            ),
            pytest.param(
                dict(BASE_CONFIG, grid={"dates": [0.0, 1.0], "steps": 1}),
                "grid key 'steps' cannot be combined with 'dates'",
                id="dates-and-steps",
            ),
            pytest.param(
                dict(BASE_CONFIG, regimes=[{"sigma": [0.3, 0.3], "lower": 90}]),
                "lower must be a list of numbers or nulls, got 90",
                id="scalar-barrier",
            ),
            # A ragged array is refused with its key named, not left to
            # numpy's unnamed ValueError.
            pytest.param(
                dict(BASE_CONFIG, regimes=[{"sigma": [0.3, 0.3], "corr": [[1, 0], [0]]}]),
                "corr must be a rectangular array, got [[1, 0], [0]]",
                id="ragged-corr",
            ),
            pytest.param(
                dict(BASE_CONFIG, regimes=[{"sigma": [0.3, [0.3]]}]),
                "sigma must be a rectangular array, got [0.3, [0.3]]",
                id="ragged-sigma",
            ),
            pytest.param(
                dict(BASE_CONFIG, regimes=[{"sigma": [0.3, 0.3], "mu": [[0.1], 0.1]}]),
                "mu must be a rectangular array, got [[0.1], 0.1]",
                id="ragged-mu",
            ),
            pytest.param(
                dict(BASE_CONFIG, spot=[100.0, [100.0, 90.0]]),
                "spot must be a rectangular array, got [100.0, [100.0, 90.0]]",
                id="ragged-spot",
            ),
        ],
    )
    def test_refusal_named(self, cfg, message):
        with pytest.raises(ModelError, match=re.escape(message)):
            load_config(cfg)

    @pytest.mark.parametrize("change, message", [
        pytest.param({"rate": [0.1]}, "rate must be a real number, got [0.1]", id="list-rate"),
        pytest.param({"rate": True}, "rate must be a real number, got True", id="bool-rate"),
        pytest.param({"assets": None}, "assets must be an integer, got None", id="null-assets"),
        pytest.param({"option": {"strike": [100]}}, "strike must be a real number, got [100]",
                     id="list-strike"),
        pytest.param({"option": {"strike": 100.0, "rebate": None}},
                     "rebate must be a real number, got None", id="null-rebate"),
        pytest.param({"option": {"strike": 100.0, "asset": 0.7}},
                     "asset must be an integer, got 0.7", id="fractional-asset"),
        pytest.param({"grid": {"maturity": [1], "steps": 4}},
                     "maturity must be a real number, got [1]", id="list-maturity"),
        pytest.param({"grid": {"maturity": 1.0, "steps": 16.7}},
                     "steps must be an integer, got 16.7", id="fractional-steps"),
        pytest.param({"grid": {"maturity": 1.0, "steps": True}},
                     "steps must be an integer, got True", id="bool-steps"),
        pytest.param({"grid": {"maturity": 1.0, "steps": "16"}},
                     "steps must be an integer, got '16'", id="string-steps"),
        pytest.param({"regimes": {"sigma": [0.3, 0.3]}}, "regimes must be a non-empty list",
                     id="regimes-object"),
        pytest.param({"option": {"strike": 100.0, "asset": True}},
                     "asset must be an integer, got True", id="bool-asset"),
        # Array elements are read one by one, with the key named.
        pytest.param({"spot": "abc"}, "spot must be a real number, got 'abc'", id="string-spot"),
        pytest.param({"spot": [100, True]}, "spot must be a real number, got True",
                     id="bool-spot"),
        pytest.param({"grid": {"dates": [0.0, "1"]}}, "dates must be a real number, got '1'",
                     id="string-date"),
        pytest.param({"regimes": [{"sigma": {}}]}, "sigma must be a real number, got {}",
                     id="object-sigma"),
        pytest.param({"regimes": [{"sigma": [0.3, 0.3], "mu": [0.1, None]}]},
                     "mu must be a real number, got None", id="null-mu"),
        pytest.param({"regimes": [{"sigma": [0.3, 0.3], "corr": [[1, 0], [0, True]]}]},
                     "corr must be a real number, got True", id="bool-corr"),
        pytest.param({"regimes": [{"sigma": [0.3, 0.3], "lower": [None, True]}]},
                     "lower must be a real number, got True", id="bool-lower"),
        pytest.param({"regimes": [{"sigma": [0.3, 0.3], "upper": ["90", None]}]},
                     "upper must be a real number, got '90'", id="string-upper"),
    ])
    def test_scalar_refused_by_key(self, change, message):
        """A scalar of the wrong type, or a fractional count, is refused with its key named."""
        with pytest.raises(ModelError, match=re.escape(message)):
            load_config(dict(BASE_CONFIG, **change))

    def test_steps_override_refused_unless_integral(self):
        with pytest.raises(ModelError, match=re.escape("steps must be an integer, got 2.5")):
            load_config(BASE_CONFIG, steps=2.5)
        assert load_config(BASE_CONFIG, steps=2.0)[0].grid.n_steps == 2

    def test_integral_values_read_as_integers(self):
        cfg = dict(BASE_CONFIG, assets=2.0, grid={"maturity": 1.0, "steps": 16.0},
                   option={"kind": "call", "strike": 100, "asset": 1.0})
        model, spec = load_config(cfg)
        assert model.grid.n_steps == 16 and model.d == 2
        assert spec.asset == 1 and isinstance(spec.asset, int)
        assert spec.strike == 100.0 and isinstance(spec.strike, float)

    def test_unknown_key_rejected(self):
        cfg = dict(BASE_CONFIG, dividends=0.02)
        with pytest.raises(ModelError, match="unknown config key"):
            load_config(cfg)

    def test_unknown_option_key_rejected(self):
        cfg = dict(BASE_CONFIG, option={"kind": "call", "strike": 100.0, "style": "asian"})
        with pytest.raises(ModelError, match="unknown option key"):
            load_config(cfg)

    def test_missing_key_rejected(self):
        cfg = {k: v for k, v in BASE_CONFIG.items() if k != "rate"}
        with pytest.raises(ModelError, match="rate"):
            load_config(cfg)

    def test_spot_length_checked(self):
        cfg = dict(BASE_CONFIG, spot=[100.0])
        with pytest.raises(ModelError, match="spot"):
            load_config(cfg)

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(BASE_CONFIG))
        model, spec = load_config(path)
        assert model.d == 2

    def test_shipped_configs_all_load_and_validate(self):
        names = [
            "table1a",
            "table1b",
            "table2",
            "table3_rho1",
            "table3_rho0.5",
            "table3_rho0",
            "table3_rho-0.5",
            "table3_rho-1",
            "table4_d3",
            "table4_d10",
            "fig5",
        ]
        for name in names:
            assert config_path(name).exists()
            model, spec = load_config(name)
            assert validate(model, spec).ok, name

    def test_unknown_shipped_name(self):
        with pytest.raises(ModelError, match="no shipped config"):
            config_path("table99")


class TestShippedConfigContents:
    """Spot-check the benchmark configurations' headline parameters."""

    def test_single_asset_benchmark(self):
        model, spec = load_config("table1a")
        assert model.d == 1
        assert model.spot[0] == 100.0
        assert model.rate == 0.1
        assert model.grid.maturity == 0.5
        assert model.regimes[0].sigma[0] == 0.3
        assert model.regimes[0].lower == (90.0,)
        assert spec.strike == 100.0

    def test_two_asset_benchmark_barrier_on_second_asset_only(self):
        model, spec = load_config("table1b")
        assert model.d == 2
        assert model.regimes[0].lower == (None, 90.0)
        assert model.regimes[0].corr[0, 1] == 0.5
        assert spec.asset == 0

    def test_double_barrier_benchmark(self):
        model, _ = load_config("table2")
        assert model.regimes[0].lower == (900.0,)
        assert model.regimes[0].upper == (1100.0,)
        assert model.regimes[0].sigma[0] == 0.2

    def test_high_dimensional_benchmark(self):
        model, spec = load_config("table4_d10")
        assert model.d == 10
        assert model.regimes[0].lower == (80.0,) * 10
        off_diag = model.regimes[0].corr[~np.eye(10, dtype=bool)]
        assert np.all(off_diag == 0.5)
        assert spec.asset == 0
