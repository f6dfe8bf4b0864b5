"""End-to-end checks of the command-line interface.

Each test drives ``main`` with an argv list and inspects the exit code
plus whatever landed on stdout, stderr, or the output file.  Path counts
are kept small: these tests exercise plumbing and formats, not
statistics.
"""

from __future__ import annotations

import csv
import io
import json
import math

import pytest

from bridgebound import cli, harness
from bridgebound.cli import main
from bridgebound.harness import CSV_HEADER, GoldenCheck, TableReport
from bridgebound.simulate import CHUNK


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


class TestPrice:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "price", "table1a", "--paths", "2000")
        assert code == 0
        assert err == ""
        rows = parse_csv(out)
        assert rows
        assert tuple(rows[0].keys()) == CSV_HEADER
        names = {row["estimator"] for row in rows}
        assert {"q_s", "q_lower", "q_indep", "q_upper", "q_exact"} <= names
        assert {"q0", "q1", "q2", "ci_low", "ci_high"} <= names
        assert all(row["config"] == "table1a" for row in rows)
        # single monitoring date in this configuration
        assert all(row["m"] == "1" for row in rows)
        for row in rows:
            assert math.isfinite(float(row["mean"]))

    def test_json_payload(self, capsys):
        code, out, err = run_cli(
            capsys, "price", "table1a", "--paths", "2000", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"] == "table1a"
        assert payload["m"] == 1
        assert payload["n_paths"] == 2000
        assert payload["seed"] == 0
        assert set(payload["estimators"]) == {
            "q_s",
            "q_lower",
            "q_indep",
            "q_upper",
            "q_exact",
        }
        assert set(payload["point_estimates"]) == {"q0", "q1", "q2"}
        lo, hi = payload["ci"]
        assert lo <= hi

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "price.csv"
        code, out, _ = run_cli(
            capsys, "price", "table1a", "--paths", "2000", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        rows = parse_csv(target.read_text(encoding="utf-8"))
        assert rows and rows[0]["config"] == "table1a"

    def test_same_seed_reproduces_output(self, capsys):
        argv = ("price", "table1a", "--paths", "2000", "--seed", "7")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_config_path_accepted(self, tmp_path, capsys):
        from bridgebound.model import config_path

        source = config_path("table1a").read_text(encoding="utf-8")
        target = tmp_path / "local.json"
        target.write_text(source, encoding="utf-8")
        code, out, _ = run_cli(capsys, "price", str(target), "--paths", "2000")
        assert code == 0
        rows = parse_csv(out)
        assert all(row["config"] == "local" for row in rows)

    def test_unknown_config_fails(self, capsys):
        code, out, err = run_cli(capsys, "price", "no_such_table")
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("change, key", [
        ({"grid": {"steps": 1}}, "'maturity'"),
        ({"grid": {"maturity": 0.5}}, "'steps'"),
        ({"grid": {"dates": [0.0, 0.5], "steps": 1}}, "'steps'"),
        ({"regimes": [{"sigma": [0.3], "lower": 90}]}, "lower"),
        ({"rate": [0.1]}, "rate"),
        ({"assets": None}, "assets"),
        ({"option": {"strike": [100]}}, "strike"),
        ({"option": {"strike": 100.0, "rebate": None}}, "rebate"),
        ({"option": {"strike": 100.0, "asset": 0.7}}, "asset"),
        ({"grid": {"maturity": [1], "steps": 1}}, "maturity"),
        ({"grid": {"maturity": 0.5, "steps": 16.7}}, "steps"),
        ({"grid": {"maturity": 0.5, "steps": True}}, "steps"),
        ({"regimes": {"sigma": [0.3], "lower": [90.0]}}, "regimes"),
        ({"regimes": [{"sigma": {}}]}, "sigma"),
        ({"spot": "abc"}, "spot"),
        ({"spot": [True], "regimes": [{"sigma": [0.3]}]}, "spot"),
        ({"regimes": [{"sigma": [0.3], "lower": [True]}]}, "lower"),
        ({"regimes": [{"sigma": [0.3], "lower": ["90"]}]}, "lower"),
        ({"option": {"strike": 100.0, "asset": True}}, "asset"),
    ], ids=["no-maturity", "no-steps", "dates-and-steps", "scalar-barrier", "list-rate",
            "null-assets", "list-strike", "null-rebate", "fractional-asset", "list-maturity",
            "fractional-steps", "bool-steps", "regimes-object", "object-sigma", "string-spot",
            "bool-spot", "bool-lower", "string-lower", "bool-asset"])
    def test_malformed_config_exits_one(self, tmp_path, capsys, change, key):
        """A malformed config ends with an error naming the key, not a traceback."""
        from bridgebound.model import config_path

        cfg = json.loads(config_path("table1a").read_text(encoding="utf-8"))
        target = tmp_path / "bad.json"
        target.write_text(json.dumps({**cfg, **change}), encoding="utf-8")
        code, out, err = run_cli(capsys, "price", str(target), "--paths", "100")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and key in err

    def test_usage_error_exits_one(self, capsys):
        code, _, _ = run_cli(capsys, "price", "table1a", "--paths", "many")
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_missing_subcommand_exits_one(self, capsys):
        assert run_cli(capsys)[0] == 1


class TestSweep:
    def test_csv_stdout_covers_every_m(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "table1a", "--m", "1,2,4", "--paths", "2000"
        )
        assert code == 0
        rows = parse_csv(out)
        assert {row["m"] for row in rows} == {"1", "2", "4"}
        per_m = {row["m"] for row in rows if row["estimator"] == "q_upper"}
        assert per_m == {"1", "2", "4"}

    def test_output_file_holds_full_sweep(self, tmp_path, capsys):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "table1a",
            "--m",
            "1,2",
            "--paths",
            "2000",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        rows = parse_csv(target.read_text(encoding="utf-8"))
        assert {row["m"] for row in rows} == {"1", "2"}

    @pytest.mark.parametrize("argv", [
        ("sweep", "table2", "--m", "1,2", "--paths", "2000", "--seed", "7"),
        ("sweep", "table2", "--m", "1,2", "--paths", "2000", "--seed", "7", "--format", "json"),
        ("price", "table1a", "--paths", "2000"),
        ("price", "table1a", "--paths", "2000", "--format", "json"),
        ("table", "2", "--paths", "2000", "--seed", "3"),
        ("table", "2", "--paths", "2000", "--seed", "3", "--format", "json"),
        ("fit", "{sweep}", "--kind", "exp"),
        ("fit", "{sweep}", "--kind", "exp", "--format", "json"),
    ], ids=["sweep-csv", "sweep-json", "price-csv", "price-json", "table-text", "table-json",
            "fit-csv", "fit-json"])
    def test_output_file_matches_stdout(self, tmp_path, capsys, argv):
        """stdout and the --output file get the same bytes, final LF included."""
        source = tmp_path / "sweep_in.csv"
        TestFit.write_sweep(source, "exp")
        argv = tuple(str(source) if arg == "{sweep}" else arg for arg in argv)
        code, out, _ = run_cli(capsys, *argv)
        assert out.endswith("\n")
        target = tmp_path / "out"
        assert run_cli(capsys, *argv, "--output", str(target)) == (code, "", "")
        assert target.read_bytes() == out.encode("utf-8")
        assert b"\r" not in target.read_bytes()

    def test_json_results_sorted_by_m(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep",
            "table1a",
            "--m",
            "1,4",
            "--paths",
            "2000",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["config"] == "table1a"
        assert [entry["m"] for entry in payload["results"]] == [1, 4]
        assert all("estimators" in entry for entry in payload["results"])

    def test_workers_default_to_the_usable_cpus(self, capsys, monkeypatch):
        """Results do not depend on the worker count, so by default every
        CPU the process may use prices."""
        counts = []
        price = harness.price

        def counting_price(*args, **kwargs):
            counts.append(kwargs["workers"])
            return price(*args, **kwargs)

        monkeypatch.setattr(harness, "price", counting_price)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)
        argv = ("sweep", "table3_rho0", "--m", "1,2", "--paths", str(CHUNK + 1))
        _, by_default, _ = run_cli(capsys, *argv)
        assert counts == [3, 3]
        _, one_worker, _ = run_cli(capsys, *argv, "--workers", "1")
        assert by_default == one_worker
        _, usage, _ = run_cli(capsys, "sweep", "--help")
        assert "default: 3, the CPUs this process may use" in " ".join(usage.split())

    def test_malformed_m_fails(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "table1a", "--m", "1,x,4")
        assert code == 1
        assert "comma-separated" in err

    def test_non_increasing_m_fails(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "table1a", "--m", "4,2")
        assert code == 1
        assert err.startswith("error:")


class TestTable:
    def test_table_two_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "2", "--paths", "50000", "--seed", "3"
        )
        assert code == 0
        assert out.rstrip().endswith("table 2: PASS")
        assert "FAIL" not in out

    def test_json_report(self, capsys):
        """Every table serializes, including checks against scipy-computed targets."""
        for table_id in ("1", "2", "3", "4"):
            code, out, _ = run_cli(
                capsys, "table", table_id, "--paths", "2000", "--seed", "3", "--format", "json"
            )
            payload = json.loads(out)
            assert payload["table"] == int(table_id)
            assert code == (0 if payload["ok"] else 2), table_id
            assert payload["checks"]
            for check in payload["checks"]:
                assert list(check) == [
                    "label", "value", "std_error", "target", "target_se", "z_score", "passed"
                ]
                assert isinstance(check["passed"], bool)

    def test_failed_check_exits_two(self, capsys, monkeypatch):
        bad = GoldenCheck(
            label="q_s at M=1",
            value=99.0,
            std_error=0.01,
            target=1.0,
            target_se=0.01,
            z_score=6929.6,
            passed=False,
        )
        fake = TableReport(table_id=2, checks=(bad,), reports={})
        monkeypatch.setattr("bridgebound.cli.reproduce_table", lambda *a, **k: fake)
        code, out, _ = run_cli(capsys, "table", "2")
        assert code == 2
        assert "FAIL" in out

    def test_unknown_table_rejected(self, capsys):
        assert run_cli(capsys, "table", "9")[0] == 1


class TestFit:
    @staticmethod
    def write_sweep(path, kind: str) -> None:
        """Synthetic bracket rows with a known decay law and tiny noise."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for m in (1, 2, 4, 8):
                gap = math.exp(-0.5 * m) if kind == "exp" else m**-2.0
                writer.writerow(("synthetic", m, "q_upper", repr(gap), "1e-12"))
                writer.writerow(("synthetic", m, "q_lower", "0.0", "1e-12"))

    def test_exponential_fit_recovers_slope(self, tmp_path, capsys):
        source = tmp_path / "sweep.csv"
        self.write_sweep(source, "exp")
        code, out, _ = run_cli(capsys, "fit", str(source), "--kind", "exp")
        assert code == 0
        row = parse_csv(out)[0]
        assert row["model_kind"] == "exponential"
        assert float(row["slope"]) == pytest.approx(-0.5, rel=1e-9)
        assert float(row["r_squared"]) == pytest.approx(1.0, abs=1e-12)
        assert row["m_used"] == "1;2;4;8"

    def test_power_fit_json(self, tmp_path, capsys):
        source = tmp_path / "sweep.csv"
        self.write_sweep(source, "power")
        code, out, _ = run_cli(
            capsys, "fit", str(source), "--kind", "power", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model_kind"] == "power"
        assert payload["slope"] == pytest.approx(-2.0, rel=1e-9)
        assert payload["m_used"] == [1, 2, 4, 8]

    def test_sweep_then_fit_pipeline(self, tmp_path, capsys):
        """The sweep CSV feeds straight into the fit subcommand."""
        source = tmp_path / "sweep.csv"
        code, _, _ = run_cli(
            capsys,
            "sweep",
            "table2",
            "--m",
            "1,2,3",
            "--paths",
            "100000",
            "--output",
            str(source),
        )
        assert code == 0
        code, out, _ = run_cli(capsys, "fit", str(source), "--kind", "exp")
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["slope"]) < 0.0

    def test_missing_file_exits_one(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "fit", str(tmp_path / "absent.csv"), "--kind", "exp"
        )
        assert code == 1
        assert err.startswith("error:")

    def test_unknown_kind_rejected(self, tmp_path, capsys):
        source = tmp_path / "sweep.csv"
        self.write_sweep(source, "exp")
        assert run_cli(capsys, "fit", str(source), "--kind", "cubic")[0] == 1
