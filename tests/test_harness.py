"""Tests for the benchmark driver: sweeps, CSV round-trips, fits, tables."""

from __future__ import annotations

import csv
import io
import math

import pytest

from bridgebound import harness
from bridgebound.estimators import ESTIMATOR_NAMES, EstimatorResult, PricingReport, price
from bridgebound.harness import (
    CSV_HEADER,
    ConvergenceFit,
    GoldenCheck,
    SweepSpec,
    TableReport,
    _ordering_check,
    fit_convergence,
    fit_from_csv,
    report_rows,
    reproduce_table,
    run_sweep,
)
from bridgebound.model import ModelError, load_config


def write_csv(path, rows):
    lines = [",".join(CSV_HEADER)]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def bracket_rows(gaps, config="synthetic", se=1e-9):
    """q_lower pinned at 1, q_upper at 1 + gap, both with tiny errors."""
    rows = []
    for m, gap in gaps.items():
        rows.append((config, m, "q_lower", repr(1.0), repr(se)))
        rows.append((config, m, "q_upper", repr(1.0 + gap), repr(se)))
    return rows


class TestSweepSpec:
    def test_m_values_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SweepSpec(config="table2", m_values=(4, 2), n_paths=100)

    def test_m_values_non_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            SweepSpec(config="table2", m_values=(), n_paths=100)

    def test_m_values_floor(self):
        with pytest.raises(ValueError, match=">= 1"):
            SweepSpec(config="table2", m_values=(0, 1), n_paths=100)

    @pytest.mark.parametrize(
        "bad", [2.5, math.nan, True, "2"], ids=["fraction", "nan", "bool", "string"]
    )
    def test_m_values_integral(self, bad):
        """A fractional M is refused, not truncated to an integer, and a bool or string is no M."""
        with pytest.raises(ValueError, match=f"m_values must be an integer, got {bad!r}"):
            SweepSpec(config="table2", m_values=(1, bad), n_paths=100)

    def test_integral_floats_accepted(self):
        assert SweepSpec(config="table2", m_values=(1, 2.0), n_paths=100).m_values == (1, 2)

    def test_n_paths_floor(self):
        with pytest.raises(ValueError, match="n_paths"):
            SweepSpec(config="table2", m_values=(1,), n_paths=1)

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"n_paths": 1000.5}, "n_paths must be an integer", id="fractional-paths"),
        pytest.param({"n_paths": 1e5}, "n_paths must be an integer", id="float-paths"),
        pytest.param({"seed": 1.5}, "seed must be an integer", id="float-seed"),
        pytest.param({"seed": -1}, r"seed must be in \[0, 2\*\*64\)", id="negative-seed"),
        pytest.param({"seed": True}, "seed must be an integer, got True", id="bool-seed"),
        pytest.param({"n_paths": True}, "n_paths must be an integer, got True", id="bool-paths"),
    ])
    def test_run_arguments_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SweepSpec(**{"config": "table2", "m_values": (1,), "n_paths": 100, **kwargs})


class TestReportRows:
    def test_rows_follow_estimator_order(self):
        model, spec = load_config("table2", steps=2)
        report = price(model, spec, 2000, seed=0)
        rows = report_rows("table2", 2, report)
        names = [r["estimator"] for r in rows]
        assert names == [n for n in ESTIMATOR_NAMES if n != "q_exact"] + ["ci_low", "ci_high"]
        assert all(r["config"] == "table2" and r["m"] == "2" for r in rows)

    def test_exact_row_present_for_single_event_config(self):
        model, spec = load_config("table1a", steps=2)
        report = price(model, spec, 2000, seed=0)
        names = [r["estimator"] for r in report_rows("table1a", 2, report)]
        assert "q_exact" in names

    def test_ci_rows_have_no_std_error(self):
        model, spec = load_config("table2", steps=2)
        report = price(model, spec, 2000, seed=0)
        rows = {r["estimator"]: r for r in report_rows("table2", 2, report)}
        assert rows["ci_low"]["std_error"] == ""
        assert float(rows["ci_low"]["mean"]) == report.ci[0]

    def test_floats_roundtrip_exactly(self):
        model, spec = load_config("table2", steps=2)
        report = price(model, spec, 2000, seed=0)
        rows = {r["estimator"]: r for r in report_rows("table2", 2, report)}
        assert float(rows["q_upper"]["mean"]) == report.q_upper.mean
        assert float(rows["q_upper"]["std_error"]) == report.q_upper.std_error


class TestEstimatorTable:
    @pytest.mark.parametrize("table_id", [1, 2], ids=["single_event", "multi_event"])
    def test_every_output_reads_the_one_table(self, table_id):
        """CSV rows, the JSON view and the golden checks all carry the
        report's (value, std_error) pairs, the first two in table order."""
        result = reproduce_table(table_id, n_paths=2000, seed=4)
        for (label, m), report in result.reports.items():
            table = report.estimates
            exact = ["q_exact"] if table_id == 1 else []
            assert list(table) == ["q_s", "q_lower", "q_indep", "q_upper", *exact, "q0", "q1", "q2"]
            rows = report_rows(label, m, report)
            assert [
                (r["estimator"], (float(r["mean"]), float(r["std_error"]))) for r in rows[:-2]
            ] == list(table.items())
            assert [r["estimator"] for r in rows[-2:]] == ["ci_low", "ci_high"]
            payload = report.to_dict()
            emitted = [(n, (e["mean"], e["std_error"])) for n, e in payload["estimators"].items()]
            emitted += [
                (n, (e["value"], e["std_error"])) for n, e in payload["point_estimates"].items()
            ]
            assert emitted == list(table.items())
        named = 0
        for check in result.checks:
            label, m, est = check.label.split()[:3]
            if est in ESTIMATOR_NAMES:
                report = result.reports[(label, int(m.removeprefix("M=")))]
                assert (check.value, check.std_error) == report.estimates[est]
                named += 1
        assert named > 0


class TestRunSweep:
    def test_reports_and_csv_roundtrip(self):
        out = io.StringIO()
        spec = SweepSpec(config="table2", m_values=(1, 2), n_paths=3000, seed=5)
        reports = run_sweep(spec, out=out)
        assert sorted(reports) == [1, 2]
        out.seek(0)
        rows = {(int(r["m"]), r["estimator"]): r for r in csv.DictReader(out)}
        for m, report in reports.items():
            q_upper = rows[(m, "q_upper")]
            assert float(q_upper["mean"]) == report.q_upper.mean
            assert float(q_upper["std_error"]) == report.q_upper.std_error
            assert float(rows[(m, "ci_low")]["mean"]) == report.ci[0]

    def test_workers_default_to_the_usable_cpus(self, monkeypatch):
        counts = []
        price = harness.price

        def counting_price(*args, **kwargs):
            counts.append(kwargs["workers"])
            return price(*args, **kwargs)

        monkeypatch.setattr(harness, "price", counting_price)
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 3)
        spec = SweepSpec(config="table2", m_values=(1,), n_paths=3000, seed=5)
        assert run_sweep(spec)[1] == run_sweep(spec, workers=1)[1]
        assert counts == [3, 1]

    def test_rows_flushed_after_each_m(self):
        """Each M's rows reach the stream, flushed, before the next M is priced."""

        class Recorder(io.StringIO):
            def __init__(self):
                super().__init__()
                self.flushed = []

            def flush(self):
                self.flushed.append(self.getvalue())

        out = Recorder()
        run_sweep(SweepSpec(config="table2", m_values=(1, 2), n_paths=2000), out=out)
        assert len(out.flushed) == 2
        header, *first = out.flushed[0].splitlines()
        assert header == ",".join(CSV_HEADER)
        assert {row.split(",")[1] for row in first} == {"1"}
        assert out.flushed[1] == out.getvalue()

    def test_same_seed_every_m(self, tmp_path):
        """Each M prices the same paths, so M=1 rows match a direct run."""
        spec = SweepSpec(config="table2", m_values=(1,), n_paths=3000, seed=7)
        reports = run_sweep(spec)
        model, option = load_config("table2", steps=1)
        direct = price(model, option, 3000, seed=7)
        assert reports[1].to_dict() == direct.to_dict()

    def test_config_label_strips_extension(self):
        out = io.StringIO()
        run_sweep(SweepSpec(config="table2.json", m_values=(1,), n_paths=2000), out=out)
        text = out.getvalue()
        assert "table2," in text
        assert "table2.json" not in text


class TestReadSweepCsv:
    """The checks that fit_from_csv makes while it reads a sweep CSV."""

    def test_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            fit_from_csv(path)

    def test_rejects_multiple_configs(self, tmp_path):
        path = tmp_path / "two.csv"
        write_csv(path, bracket_rows({1: 0.5}) + bracket_rows({1: 0.5}, config="other"))
        with pytest.raises(ValueError, match="configs"):
            fit_from_csv(path)


class TestFitFromCsv:
    def test_exact_exponential_decay(self, tmp_path):
        """gap = e^{-0.5 m} fits slope -0.5 with a perfect R^2."""
        path = tmp_path / "exp.csv"
        write_csv(path, bracket_rows({m: math.exp(-0.5 * m) for m in (1, 2, 4, 8)}))
        fit = fit_from_csv(path, "exponential")
        assert fit.model_kind == "exponential"
        assert fit.slope == pytest.approx(-0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.m_used == (1, 2, 4, 8)

    def test_exact_power_decay(self, tmp_path):
        path = tmp_path / "pow.csv"
        write_csv(path, bracket_rows({m: m**-2.0 for m in (1, 2, 4, 8, 16)}))
        fit = fit_from_csv(path, "power")
        assert fit.slope == pytest.approx(-2.0, abs=1e-9)
        assert fit.intercept == pytest.approx(0.0, abs=1e-9)

    def test_noise_floor_drops_points(self, tmp_path):
        path = tmp_path / "noisy.csv"
        rows = bracket_rows({m: math.exp(-0.5 * m) for m in (1, 2, 4)})
        rows += bracket_rows({16: 1e-12}, se=1e-3)
        write_csv(path, rows)
        fit = fit_from_csv(path, "exponential")
        assert fit.m_used == (1, 2, 4)

    def test_too_few_usable_points(self, tmp_path):
        path = tmp_path / "flat.csv"
        write_csv(path, bracket_rows({m: 1e-12 for m in (1, 2, 4, 8)}, se=1e-3))
        with pytest.raises(ValueError, match="increase n_paths"):
            fit_from_csv(path, "exponential")

    def test_missing_bracket_rows(self, tmp_path):
        path = tmp_path / "partial.csv"
        write_csv(path, [("synthetic", 1, "q_s", repr(1.0), repr(0.1))])
        with pytest.raises(ValueError, match="q_upper"):
            fit_from_csv(path)

    def test_bad_model_kind(self, tmp_path):
        path = tmp_path / "ok.csv"
        write_csv(path, bracket_rows({m: math.exp(-m) for m in (1, 2, 3)}))
        with pytest.raises(ValueError, match="model_kind"):
            fit_from_csv(path, "cubic")


class TestFitConvergence:
    def test_real_sweep_has_negative_slope(self):
        """The double-barrier bracket visibly tightens as M grows."""
        spec = SweepSpec(config="table2", m_values=(1, 2, 3), n_paths=100_000, seed=2)
        reports = run_sweep(spec)
        fit = fit_convergence(reports, "exponential")
        assert isinstance(fit, ConvergenceFit)
        assert fit.slope < 0.0
        assert fit.m_used == (1, 2, 3)

    def test_single_event_config_is_all_noise(self):
        """One barrier means zero bracket width, so nothing is fittable."""
        spec = SweepSpec(config="table1a", m_values=(1, 2, 4), n_paths=2000, seed=0)
        reports = run_sweep(spec)
        with pytest.raises(ValueError, match="noise floor"):
            fit_convergence(reports)


class TestGoldenChecks:
    def test_table_report_formatting(self):
        check = GoldenCheck(
            label="demo M=1 q_s", value=10.4, std_error=0.1,
            target=10.5, target_se=0.05, z_score=0.89, passed=True,
        )
        bad = GoldenCheck(
            label="demo M=1 q_upper", value=9.0, std_error=0.1,
            target=10.5, target_se=0.0, z_score=15.0, passed=False,
        )
        report = TableReport(table_id=2, checks=(check, bad), reports={})
        text = report.format()
        assert not report.ok
        assert "ok   demo M=1 q_s" in text
        assert "FAIL demo M=1 q_upper" in text
        assert text.endswith("table 2: FAIL")

    def test_all_passing_report(self):
        check = GoldenCheck("x", 1.0, 0.1, 1.0, 0.0, 0.0, True)
        report = TableReport(table_id=1, checks=(check,), reports={})
        assert report.ok
        assert report.format().endswith("table 1: PASS")

    def test_ordering_row_fails_when_q_upper_exceeds_q_s(self):
        """Every bundled table prices a knock-out call without a rebate, which
        pays at least as much alive as knocked out, so q_upper above q_s is
        a broken chain."""

        def report(q_s):
            means = {"q_s": q_s, "q_lower": 1.0, "q_indep": 1.5, "q_upper": 2.0}
            columns = {name: EstimatorResult(mean, 0.01) for name, mean in means.items()}
            return PricingReport(**columns, q_exact=None, alpha=0.05, n_paths=2, seed=0)

        assert _ordering_check("demo", 1, report(2.0)).passed
        row = _ordering_check("demo", 1, report(1.9))
        assert not row.passed
        assert row.label == "demo M=1 ordering q_lower <= q_indep <= q_upper <= q_s"
        assert "FAIL demo M=1 ordering" in TableReport(table_id=1, checks=(row,), reports={}).format()

    def test_unknown_table_rejected(self):
        with pytest.raises(ValueError, match="table_id"):
            reproduce_table(9)

    @pytest.mark.parametrize("bad, message", [
        pytest.param(True, "table_id must be an integer, got True", id="bool"),
        pytest.param(1.0, "table_id must be an integer, got 1.0", id="float"),
        pytest.param(0, r"table_id must be in \[1, 5\), got 0", id="zero"),
    ])
    def test_table_id_refused_before_any_run(self, bad, message):
        """True and 1.0 used to run table 1."""
        with pytest.raises(ModelError, match=message):
            reproduce_table(bad)

    def test_sweep_workers_refused(self):
        with pytest.raises(ModelError, match="workers must be an integer, got True"):
            run_sweep(SweepSpec(config="table1a", m_values=(1,), n_paths=100), workers=True)

    def test_double_barrier_table_reproduces_at_reduced_paths(self):
        """Smaller N widens the z-window through its own standard errors."""
        report = reproduce_table(2, n_paths=50_000, seed=3)
        assert report.table_id == 2
        assert ("table2", 1) in report.reports
        assert ("table2", 16) in report.reports
        labels = [c.label for c in report.checks]
        assert any("q_upper vs continuous" in lbl for lbl in labels)
        failed = [c for c in report.checks if not c.passed]
        assert report.ok, "\n".join(c.label for c in failed)
