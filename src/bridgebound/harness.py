"""Experiment driver: M-sweeps, CSV output, convergence fits, golden tables.

The driver prices a configuration over a list of monitoring-date counts M,
emits long-format CSV (one row per estimator per M), fits the decay of the
bracket width q_upper - q_lower against M, and reproduces the four shipped
reference tables with z-score checks against their published values.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .analytic import reference_price
from .estimators import PricingReport, price
from .model import ModelError, _read_count, load_config, read_int

__all__ = [
    "SweepSpec",
    "ConvergenceFit",
    "GoldenCheck",
    "TableReport",
    "run_sweep",
    "fit_convergence",
    "fit_from_csv",
    "reproduce_table",
]

CSV_HEADER = ("config", "m", "estimator", "mean", "std_error")

# Points whose bracket width is buried in noise carry no rate information.
NOISE_FLOOR_MULTIPLE = 4.0


@dataclass(frozen=True)
class SweepSpec:
    """One M-sweep: a config reference plus the run protocol.

    ``config`` is a shipped config name or a JSON path; every M prices the
    same configuration on a uniform grid with M steps, same seed each time.
    """

    config: str
    m_values: tuple[int, ...]
    n_paths: int
    seed: int = 0

    def __post_init__(self) -> None:
        m_values = tuple(_read_count("m_values", m, 1) for m in self.m_values)
        object.__setattr__(self, "m_values", m_values)
        if not m_values:
            raise ModelError("m_values must be non-empty")
        if any(b <= a for a, b in zip(m_values, m_values[1:])):
            raise ModelError("m_values must be strictly increasing")
        read_int("n_paths", self.n_paths, 2)
        read_int("seed", self.seed, 0, 2**64)


@dataclass(frozen=True)
class ConvergenceFit:
    """Least-squares fit of ln(q_upper - q_lower) against M or ln M."""

    model_kind: str  # "exponential": x = M; "power": x = ln M
    slope: float
    intercept: float
    r_squared: float
    m_used: tuple[int, ...]


def report_rows(label: str, m: int, report: PricingReport) -> list[dict[str, str]]:
    """Long-format CSV rows for one pricing report: the estimator table, then the CI.

    Floats are rendered with ``repr`` so parsing the CSV back reproduces
    the in-memory values exactly.
    """
    values: dict[str, tuple[float, float | None]] = {
        **report.estimates,
        "ci_low": (report.ci[0], None),
        "ci_high": (report.ci[1], None),
    }
    return [
        {
            "config": label,
            "m": str(m),
            "estimator": name,
            "mean": repr(float(mean)),
            "std_error": "" if se is None else repr(float(se)),
        }
        for name, (mean, se) in values.items()
    ]


def csv_writer(out: TextIO) -> csv.DictWriter:
    """A writer of sweep-CSV rows to ``out``, with LF line ends; writes the header."""
    writer = csv.DictWriter(out, fieldnames=CSV_HEADER, lineterminator="\n")
    writer.writeheader()
    return writer


def run_sweep(
    spec: SweepSpec, workers: int = 1, out: TextIO | None = None
) -> dict[int, PricingReport]:
    """Price the configuration at every M in the sweep, in order.

    When ``out`` is given, the CSV header and then each M's rows are written
    to it, flushed after each M, so a long sweep shows its progress and
    partial results survive an interrupted run.
    """
    label = _config_label(spec.config)
    writer = None if out is None else csv_writer(out)
    reports: dict[int, PricingReport] = {}
    for m in spec.m_values:
        model, option = load_config(spec.config, steps=m)
        report = price(model, option, spec.n_paths, seed=spec.seed, workers=workers)
        reports[m] = report
        if writer is not None:
            writer.writerows(report_rows(label, m, report))
            out.flush()
    return reports


def _config_label(config: str | Path) -> str:
    name = Path(str(config)).name
    return name[:-5] if name.endswith(".json") else name


def fit_convergence(
    rows: dict[int, PricingReport], model_kind: str = "exponential"
) -> ConvergenceFit:
    """Fit the decay of the bracket width q_upper - q_lower over M.

    ``model_kind`` selects the regressor: ``"exponential"`` fits ln(gap)
    against M (pure exponential decay in the monitoring frequency) and
    ``"power"`` fits ln(gap) against ln M.  Points whose gap is within
    ``NOISE_FLOOR_MULTIPLE`` combined standard errors of zero are dropped;
    fewer than 3 survivors raise a ValueError suggesting more paths.
    """
    points = [
        (
            m,
            r.q_upper.mean - r.q_lower.mean,
            math.hypot(r.q_upper.std_error, r.q_lower.std_error),
        )
        for m, r in sorted(rows.items())
    ]
    return _fit_points(points, model_kind)


def _fit_points(points: list[tuple[int, float, float]], model_kind: str) -> ConvergenceFit:
    if model_kind not in ("exponential", "power"):
        raise ValueError(f"model_kind must be 'exponential' or 'power', got {model_kind!r}")
    usable = [(m, gap) for m, gap, se in points if gap > NOISE_FLOOR_MULTIPLE * se and gap > 0.0]
    if len(usable) < 3:
        raise ValueError(
            f"only {len(usable)} of {len(points)} points have a bracket width above "
            "the noise floor; increase n_paths or use smaller M values"
        )
    ms = np.array([m for m, _ in usable], dtype=float)
    x = ms if model_kind == "exponential" else np.log(ms)
    y = np.log([gap for _, gap in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    ss_res = float(resid @ resid)
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return ConvergenceFit(
        model_kind=model_kind,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r_squared,
        m_used=tuple(int(m) for m, _ in usable),
    )


def fit_from_csv(path: str | Path, model_kind: str = "exponential") -> ConvergenceFit:
    """Fit convergence directly from a sweep CSV file.

    Rows without a standard error (the CI bounds) read as se = 0.0.  A file
    containing several configs is rejected; fit one config at a time.
    """
    table: dict[int, dict[str, tuple[float, float]]] = {}
    configs = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or tuple(reader.fieldnames) != CSV_HEADER:
            raise ValueError(f"{path}: expected header {','.join(CSV_HEADER)}")
        for row in reader:
            configs.add(row["config"])
            se = float(row["std_error"]) if row["std_error"] else 0.0
            table.setdefault(int(row["m"]), {})[row["estimator"]] = (float(row["mean"]), se)
    if len(configs) > 1:
        raise ValueError(f"{path}: contains {len(configs)} configs, expected one")
    points = []
    for m in sorted(table):
        row = table[m]
        if "q_upper" not in row or "q_lower" not in row:
            raise ValueError(f"{path}: M={m} lacks q_upper/q_lower rows")
        (hi, hi_se), (lo, lo_se) = row["q_upper"], row["q_lower"]
        points.append((m, hi - lo, math.hypot(hi_se, lo_se)))
    return _fit_points(points, model_kind)


# ---------------------------------------------------------------------------
# Reference tables


@dataclass(frozen=True)
class GoldenCheck:
    """One comparison against a published value.

    ``target_se`` is the published standard error (0 for exact values);
    the z-score uses the quadrature sum of both errors.  Checks of
    identities (exact zeros, ordering) carry ``z_score = 0`` and encode
    the outcome directly in ``passed``.
    """

    label: str
    value: float
    std_error: float
    target: float
    target_se: float
    z_score: float
    passed: bool


@dataclass(frozen=True)
class TableReport:
    """Outcome of reproducing one reference table."""

    table_id: int
    checks: tuple[GoldenCheck, ...]
    reports: dict[tuple[str, int], PricingReport]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = [f"table {self.table_id}: {len(self.checks)} checks"]
        for c in self.checks:
            target = f"{c.target:.4g}"
            if c.target_se:
                target += f"({c.target_se:.2g})"
            lines.append(
                f"  {'ok  ' if c.passed else 'FAIL'} {c.label}: "
                f"{c.value:.6g}({c.std_error:.2g}) vs {target}, z={c.z_score:.2f}"
            )
        lines.append(f"table {self.table_id}: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines)


Z_TOLERANCE = 3.0


@dataclass(frozen=True)
class _Golden:
    """One config of a published table.

    ``published`` maps M to {estimator: (published value, published std
    error)}.  At the largest M, where the published rows agree with the
    continuously monitored price, the ``vs_continuous`` estimators are
    checked against ``reference_price`` of the config's contract.
    """

    config: str
    n_paths: int
    published: dict[int, dict[str, tuple[float, float]]]
    vs_continuous: tuple[str, ...] = ()


_TABLE_PLAN: dict[int, tuple[_Golden, ...]] = {
    1: (
        _Golden(
            "table1a",
            400_000,
            {
                1: {"q_exact": (8.79, 0.02), "q_s": (10.91, 0.02)},
                16: {"q_exact": (8.79, 0.02), "q_s": (9.74, 0.02)},
                1024: {"q_exact": (8.80, 0.02), "q_s": (8.94, 0.02)},
            },
            ("q_exact",),
        ),
        _Golden(
            "table1b",
            800_000,
            {1: {"q_exact": (8.26, 0.02), "q_s": (14.93, 0.03)}},
            ("q_exact",),
        ),
    ),
    2: (
        _Golden(
            "table2",
            400_000,
            {
                1: {
                    "q_upper": (3.01, 0.01),
                    "q_indep": (2.41, 0.01),
                    "q_lower": (1.11, 0.01),
                    "q_s": (12.23, 0.04),
                    "q1": (1.76, 0.66),
                    "q0": (2.06, 0.96),
                },
                16: {
                    "q_upper": (1.78, 0.01),
                    "q_indep": (1.78, 0.01),
                    "q_lower": (1.78, 0.01),
                    "q_s": (4.50, 0.02),
                    "q0": (1.78, 0.01),
                },
            },
            ("q_upper", "q_lower", "q0"),
        ),
    ),
    3: (
        _Golden(
            "table3_rho0",
            100_000,
            {
                1: {
                    "q_upper": (5.02, 0.03),
                    "q_indep": (3.65, 0.03),
                    "q_lower": (2.27, 0.02),
                    "q_s": (11.76, 0.07),
                    "q0": (3.64, 1.41),
                },
                8: {"q_indep": (3.66, 0.04), "q0": (3.70, 0.12)},
                64: {
                    "q_upper": (3.65, 0.04),
                    "q_indep": (3.65, 0.04),
                    "q_lower": (3.65, 0.04),
                    "q0": (3.65, 0.04),
                },
            },
            ("q_indep", "q0"),
        ),
        _Golden(
            "table3_rho0.5",
            100_000,
            {
                64: {
                    "q_upper": (6.55, 0.06),
                    "q_indep": (6.54, 0.06),
                    "q_lower": (6.54, 0.06),
                    "q0": (6.55, 0.06),
                }
            },
            ("q0",),
        ),
        _Golden(
            "table3_rho-0.5",
            100_000,
            {
                64: {
                    "q_upper": (1.39, 0.02),
                    "q_indep": (1.39, 0.02),
                    "q_lower": (1.39, 0.02),
                    "q0": (1.39, 0.02),
                }
            },
            ("q0",),
        ),
        _Golden(
            "table3_rho1",
            100_000,
            {
                1: {"q_upper": (11.36, 0.06), "q_s": (16.79, 0.08)},
                64: {"q_upper": (11.34, 0.07), "q0": (11.12, 0.29)},
            },
            ("q0",),
        ),
        _Golden(
            "table3_rho-1",
            100_000,
            {
                1: {
                    "q_upper": (0.415, 0.002),
                    "q_indep": (0.167, 0.001),
                    "q_s": (2.839, 0.018),
                },
                8: {"q_upper": (0.018, 0.001), "q0": (0.016, 0.003)},
                64: {
                    "q_upper": (0.013, 0.001),
                    "q_indep": (0.013, 0.001),
                    "q_lower": (0.013, 0.001),
                    "q0": (0.013, 0.001),
                },
            },
            ("q0",),
        ),
    ),
    4: (
        _Golden(
            "table4_d3",
            100_000,
            {
                1: {
                    "q_upper": (8.96, 0.07),
                    "q_indep": (6.69, 0.06),
                    "q_lower": (5.13, 0.06),
                    "q_s": (14.96, 0.10),
                    "q2": (7.83, 1.20),
                    "q0": (7.04, 1.97),
                },
                8: {"q2": (7.58, 0.14)},
                64: {
                    "q_upper": (7.60, 0.08),
                    "q_indep": (7.59, 0.08),
                    "q_lower": (7.59, 0.08),
                    "q_s": (8.80, 0.08),
                    "q2": (7.59, 0.08),
                },
            },
        ),
        _Golden(
            "table4_d10",
            100_000,
            {
                1: {
                    "q_upper": (4.62, 0.05),
                    "q_indep": (1.19, 0.02),
                    "q_lower": (0.21, 0.01),
                    "q_s": (10.36, 0.09),
                },
                8: {"q2": (2.70, 0.15)},
                64: {
                    "q_upper": (2.65, 0.05),
                    "q_indep": (2.64, 0.05),
                    "q_lower": (2.64, 0.05),
                    "q_s": (3.48, 0.06),
                    "q2": (2.65, 0.05),
                },
            },
        ),
    ),
}


def reproduce_table(
    table_id: int, n_paths: int | None = None, seed: int = 0, workers: int = 1
) -> TableReport:
    """Re-run the configurations behind one published table and check them.

    Published Monte Carlo rows are compared with a z-score built from both
    standard errors in quadrature; exact continuous values use our error
    alone.  ``n_paths`` overrides the published path counts (smaller runs
    get proportionally wider tolerances through their own larger errors).
    Special cases checked as identities: the two-asset rho = -1 lower
    bound at M = 1 is exactly zero, and the estimator ordering
    q_lower <= q_indep <= q_upper holds at every M.
    """
    table_id = read_int("table_id", table_id, 1, len(_TABLE_PLAN) + 1)
    checks: list[GoldenCheck] = []
    reports: dict[tuple[str, int], PricingReport] = {}
    for golden in _TABLE_PLAN[table_id]:
        label = golden.config
        n = golden.n_paths if n_paths is None else n_paths
        m_values = sorted(golden.published)
        sweep = run_sweep(SweepSpec(label, m_values, n, seed), workers)
        for m, report in sweep.items():
            reports[(label, m)] = report
            named = report.estimates
            for est, (target, target_se) in sorted(golden.published[m].items()):
                value, se = named[est]
                checks.append(_z_check(f"{label} M={m} {est}", value, se, target, target_se))
            checks.append(_ordering_check(label, m, report))
            if label == "table3_rho-1" and m == 1:
                ok = report.q_lower.mean == 0.0 and report.q_lower.std_error == 0.0
                checks.append(
                    GoldenCheck(
                        label=f"{label} M=1 q_lower exactly zero",
                        value=report.q_lower.mean,
                        std_error=report.q_lower.std_error,
                        target=0.0,
                        target_se=0.0,
                        z_score=0.0,
                        passed=ok,
                    )
                )
            if m == m_values[-1] and golden.vs_continuous:
                exact = reference_price(*load_config(label))
                for est in golden.vs_continuous:
                    value, se = named[est]
                    checks.append(
                        _z_check(f"{label} M={m} {est} vs continuous", value, se, exact, 0.0)
                    )
    return TableReport(table_id=table_id, checks=tuple(checks), reports=reports)


def _z_check(label: str, value: float, se: float, target: float, target_se: float) -> GoldenCheck:
    combined = math.hypot(se, target_se)
    if combined > 0.0:
        z = abs(value - target) / combined
    else:
        z = 0.0 if value == target else math.inf
    return GoldenCheck(
        label=label,
        value=value,
        std_error=se,
        target=target,
        target_se=target_se,
        z_score=float(z),
        passed=bool(z <= Z_TOLERANCE),  # z is a numpy float when the target came from scipy
    )


def _ordering_check(label: str, m: int, report: PricingReport) -> GoldenCheck:
    ok = report.q_lower.mean <= report.q_indep.mean <= report.q_upper.mean
    return GoldenCheck(
        label=f"{label} M={m} ordering q_lower <= q_indep <= q_upper",
        value=report.q_indep.mean,
        std_error=report.q_indep.std_error,
        target=report.q_indep.mean,
        target_se=0.0,
        z_score=0.0,
        passed=bool(ok),
    )
