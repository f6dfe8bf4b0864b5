"""Market, option, and time-grid data model with validation.

The model is deliberately small: piecewise-constant drifts, volatilities,
correlations, and barriers per time interval (a "regime"), plus a payoff
evaluated at maturity.  Everything downstream treats these objects as
immutable.

Barriers use ``None`` for "no barrier on this side", never infinite
sentinels, so code that needs the single-barrier fast path can select it
structurally.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "TimeGrid",
    "Regime",
    "MarketModel",
    "OptionSpec",
    "ValidationReport",
    "ModelError",
    "validate",
    "factor_correlation",
    "load_config",
    "config_path",
]

# Eigenvalues of a correlation matrix above this (negative) floor are treated
# as rounding noise and clipped to zero; anything below is rejected outright.
MIN_EIGENVALUE = -1e-8


class ModelError(ValueError):
    """Raised for invalid market models, option specs, or config files."""


def _is(kind: type, value) -> bool:
    """Whether ``value`` is a number of ``kind``; never a bool, which Python counts an int."""
    return isinstance(value, kind) and not isinstance(value, bool)


def read_int(name: str, value, least: int, below: int | None = None) -> int:
    """``value``, the argument called ``name``, as an int in [least, below), or ModelError."""
    if not _is(numbers.Integral, value):
        raise ModelError(f"{name} must be an integer, got {value!r}")
    if below is None and value < least:
        raise ModelError(f"{name} must be >= {least}, got {value}")
    if below is not None and not least <= value < below:
        top = f"2**{below.bit_length() - 1}" if below > 2**32 and below.bit_count() == 1 else below
        raise ModelError(f"{name} must be in [{least}, {top}), got {value}")
    return int(value)


def read_real(name: str, value) -> float:
    """``value``, the argument called ``name``, as a float, or ModelError; NaN and inf pass."""
    if not _is(numbers.Real, value):
        raise ModelError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class TimeGrid:
    """Sampling dates 0 = t_0 < t_1 < ... < t_M = T, in years."""

    dates: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "dates", np.asarray(self.dates, dtype=float))

    @classmethod
    def uniform(cls, maturity: float, steps: int) -> TimeGrid:
        """Equally spaced grid with ``steps`` intervals ending at ``maturity``."""
        steps = read_int("steps", steps, 1)
        return cls(np.linspace(0.0, read_real("maturity", maturity), steps + 1))

    @property
    def n_steps(self) -> int:
        return max(len(self.dates) - 1, 0)

    @property
    def maturity(self) -> float:
        return float(self.dates[-1])

    def dt(self, m: int) -> float:
        return float(self.dates[m + 1] - self.dates[m])


@dataclass(frozen=True)
class Regime:
    """Constant market parameters over one time interval.

    Parameters
    ----------
    mu, sigma : array_like, shape (d,)
        Drift and volatility per asset (1/year and 1/sqrt(year)).
    corr : array_like, shape (d, d), optional
        Correlation matrix; identity when omitted.
    lower, upper : sequence of float or None, optional
        Barrier per asset; ``None`` means no barrier on that side.
    """

    mu: np.ndarray
    sigma: np.ndarray
    corr: np.ndarray = None  # type: ignore[assignment]
    lower: tuple[float | None, ...] = None  # type: ignore[assignment]
    upper: tuple[float | None, ...] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma = np.atleast_1d(np.asarray(self.sigma, dtype=float))
        d = len(sigma)
        corr = np.eye(d) if self.corr is None else np.asarray(self.corr, dtype=float)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "lower", _as_barriers(self.lower, d, "lower"))
        object.__setattr__(self, "upper", _as_barriers(self.upper, d, "upper"))

    @property
    def d(self) -> int:
        return len(self.sigma)

    def events(self) -> tuple[tuple[int, str, float], ...]:
        """Active barrier events as (asset, side, level), in canonical order.

        The order (ascending asset, lower before upper) is fixed because
        downstream floating-point reductions follow it.
        """
        out: list[tuple[int, str, float]] = []
        for k in range(self.d):
            if self.lower[k] is not None:
                out.append((k, "lower", self.lower[k]))
            if self.upper[k] is not None:
                out.append((k, "upper", self.upper[k]))
        return tuple(out)


def _as_barriers(values, d: int, side: str) -> tuple[float | None, ...]:
    if values is None:
        return (None,) * d
    try:
        out = tuple(None if v is None else read_real(side, v) for v in values)
    except TypeError:
        raise ModelError(f"{side} must be a list of numbers or nulls, got {values!r}") from None
    if len(out) != d:
        raise ModelError(f"expected {d} {side} barrier entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class MarketModel:
    """A complete market: spots, rate, time grid, and one Regime per interval.

    ``regimes`` may be given as a single Regime (broadcast to every interval)
    or as a sequence of length ``grid.n_steps``.
    """

    spot: np.ndarray
    rate: float
    grid: TimeGrid
    regimes: tuple[Regime, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "spot", np.atleast_1d(np.asarray(self.spot, dtype=float)))
        regimes = self.regimes
        if isinstance(regimes, Regime):
            regimes = (regimes,) * self.grid.n_steps
        else:
            regimes = tuple(regimes)
            if len(regimes) == 1 and self.grid.n_steps > 1:
                regimes = regimes * self.grid.n_steps
        object.__setattr__(self, "regimes", regimes)

    @property
    def d(self) -> int:
        return len(self.spot)


@dataclass(frozen=True)
class OptionSpec:
    """Payoff description evaluated at maturity.

    ``kind`` is one of ``"call"`` (pays max[S_k(T) - K, 0]), ``"digital"``
    (pays 1 if S_k(T) > K), or ``"custom"`` with a ``payoff`` hook mapping
    terminal prices of shape (n, d) to finite undiscounted payoffs of shape
    (n,); any other output raises ModelError.  A knock-out price passes the
    hook only the paths that survive to maturity; the payoff of a knocked-out
    path is never read.
    ``rebate`` is paid at maturity if the option knocks out; a knock-in
    option takes none.
    """

    kind: str = "call"
    strike: float = 0.0
    asset: int = 0
    knock: str = "out"
    rebate: float = 0.0
    payoff: Callable[[np.ndarray], np.ndarray] | None = None

    def terminal_payoff(self, prices: np.ndarray) -> np.ndarray:
        """Undiscounted payoff for terminal prices of shape (n, d)."""
        prices = np.atleast_2d(np.asarray(prices, dtype=float))
        if self.kind == "call":
            return np.maximum(prices[:, self.asset] - self.strike, 0.0)
        if self.kind == "digital":
            return (prices[:, self.asset] > self.strike).astype(float)
        if self.kind == "custom":
            if self.payoff is None:
                raise ModelError("custom option kind requires a payoff hook")
            out = np.asarray(self.payoff(prices), dtype=float)
            if out.shape != (len(prices),):
                raise ModelError(
                    f"payoff hook must return shape ({len(prices)},), got {out.shape}"
                )
            if not np.all(np.isfinite(out)):
                raise ModelError("payoff hook returned non-finite values")
            return out
        raise ModelError(f"unknown option kind {self.kind!r}")


@dataclass
class ValidationReport:
    """Violated invariants collected by :func:`validate` (empty means valid)."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def raise_if_invalid(self) -> None:
        if self.violations:
            raise ModelError("; ".join(self.violations))


def factor_correlation(corr: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T equal to ``corr`` within 1e-10.

    Strictly positive-definite input takes the plain Cholesky path.  Singular
    or slightly indefinite input falls back to an eigendecomposition:
    eigenvalues in [MIN_EIGENVALUE, 0) are clipped to zero (repair) and the
    matrix square root is re-triangularized with a QR step, which stays
    lower-triangular at any rank deficiency (e.g. correlation +/-1).

    Raises
    ------
    ModelError
        If the smallest eigenvalue is below ``MIN_EIGENVALUE``.
    """
    a = np.asarray(corr, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ModelError(f"correlation matrix must be square, got shape {a.shape}")
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    if w[0] < MIN_EIGENVALUE:
        raise ModelError(
            f"correlation matrix is not positive semi-definite (min eigenvalue {w[0]:.3e})"
        )
    b = v * np.sqrt(np.clip(w, 0.0, None))
    ell = np.linalg.qr(b.T, mode="r").T
    signs = np.sign(np.diag(ell))
    signs[signs == 0.0] = 1.0
    return ell * signs  # flip column signs so diagonal entries are >= 0


def _regime_violations(regime: Regime, d: int, label: str) -> list[str]:
    """The violations of one regime against ``d`` assets, each prefixed with ``label``.

    A correlation matrix that is not positive semi-definite raises
    ModelError instead, naming ``label``.
    """
    out: list[str] = []
    flat = [name for name in ("mu", "sigma") if getattr(regime, name).ndim != 1]
    if flat:
        out.append(f"{label}: {', '.join(flat)} must be one-dimensional")
        return out
    mismatched = [name for name in ("mu", "sigma") if len(getattr(regime, name)) != d]
    if mismatched:
        out.append(
            f"{label}: parameter length does not match {d} assets ({', '.join(mismatched)})"
        )
        return out
    if not np.all(np.isfinite(regime.mu)):
        out.append(f"{label}: mu must be finite")
    if not np.all(np.isfinite(regime.sigma)):
        out.append(f"{label}: sigma must be finite")
    if np.any(regime.sigma <= 0.0):
        out.append(f"{label}: sigma must be strictly positive")
    c = regime.corr
    if c.shape != (d, d):
        out.append(f"{label}: correlation must be {d}x{d}")
        return out
    if not np.all(np.isfinite(c)):
        out.append(f"{label}: correlation entries must be finite")
        return out
    if not np.allclose(c, c.T, atol=1e-12):
        out.append(f"{label}: correlation is not symmetric")
    if not np.allclose(np.diag(c), 1.0, atol=1e-12):
        out.append(f"{label}: correlation diagonal must be 1")
    if np.any(np.abs(c) > 1.0 + 1e-12):
        out.append(f"{label}: correlation entries must lie in [-1, 1]")
    w_min = float(np.linalg.eigvalsh(0.5 * (c + c.T))[0])
    if w_min < MIN_EIGENVALUE:
        raise ModelError(
            f"{label}: correlation is not positive semi-definite "
            f"(min eigenvalue {w_min:.3e})"
        )
    for k in range(d):
        lo, hi = regime.lower[k], regime.upper[k]
        for side, b in (("lower", lo), ("upper", hi)):
            if b is not None and not math.isfinite(b):
                out.append(f"{label}: {side} barrier on asset {k} must be finite")
        if lo is not None and lo < 0.0:
            out.append(f"{label}: lower barrier on asset {k} is negative")
        if hi is not None and hi <= 0.0:
            out.append(f"{label}: upper barrier on asset {k} must be > 0")
        if lo is not None and hi is not None and lo >= hi:
            out.append(f"{label}: lower barrier must be below upper on asset {k}")
    return out


def validate(model: MarketModel, spec: OptionSpec | None = None) -> ValidationReport:
    """Check every model/option invariant; return the list of violations.

    Two classes of problem raise immediately instead of being reported:
    a correlation matrix whose smallest eigenvalue is below the repair
    tolerance (the regime index is named), and a spot strictly outside the
    regime-0 barriers (the option would be dead at inception).  A spot
    exactly on a barrier is reported as a violation.

    Idempotent and side-effect free.
    """
    report = ValidationReport()
    d = model.d
    dates = model.grid.dates

    if dates.ndim != 1:
        report.violations.append(f"grid dates must be one-dimensional, got shape {dates.shape}")
    elif len(dates) < 2:
        report.violations.append("time grid needs at least one step")
    if not np.all(np.isfinite(dates)):
        report.violations.append("grid dates must be finite")
    if dates.ndim == 1 and dates.size and dates[0] != 0.0:
        report.violations.append(f"grid must start at 0, got {dates[0]}")
    if dates.ndim == 1 and np.any(np.diff(dates) <= 0.0):
        report.violations.append("grid dates must be strictly increasing")

    if model.spot.ndim != 1:
        report.violations.append(f"spot must be one-dimensional, got shape {model.spot.shape}")
    if not np.all(np.isfinite(model.spot)):
        report.violations.append("spots must be finite")
    if np.any(model.spot <= 0.0):
        report.violations.append("spots must be strictly positive")
    report.violations += _real_violations("rate", model.rate)
    if len(model.regimes) != model.grid.n_steps:
        report.violations.append(
            f"expected {model.grid.n_steps} regimes, got {len(model.regimes)}"
        )

    # A broadcast regime is one object: check it once, under its first step.
    checked: set[int] = set()
    for m, regime in enumerate(model.regimes):
        if id(regime) not in checked:
            checked.add(id(regime))
            report.violations += _regime_violations(regime, d, f"regime {m}")

    # Dead-at-inception configurations: strictly outside is a hard error,
    # exactly on the barrier is reported (boundary counts as a hit).
    if model.regimes and model.spot.ndim == 1:
        first = model.regimes[0]
        if first.d == d:
            for k in range(d):
                s = float(model.spot[k])
                # a non-finite barrier is reported above, not taken as crossed
                lo, hi = (
                    b if b is not None and math.isfinite(b) else None
                    for b in (first.lower[k], first.upper[k])
                )
                if (lo is not None and s < lo) or (hi is not None and s > hi):
                    raise ModelError(
                        f"spot {s} of asset {k} lies outside the regime-0 barriers"
                    )
                if (lo is not None and s == lo) or (hi is not None and s == hi):
                    report.violations.append(
                        f"spot of asset {k} sits exactly on a regime-0 barrier"
                    )

    if spec is not None:
        if spec.kind not in ("call", "digital", "custom"):
            report.violations.append(f"unknown option kind {spec.kind!r}")
        if spec.kind == "custom" and spec.payoff is None:
            report.violations.append("custom option kind requires a payoff hook")
        if spec.knock not in ("out", "in"):
            report.violations.append(f"knock must be 'out' or 'in', got {spec.knock!r}")
        for name in ("strike", "rebate"):
            report.violations += _real_violations(name, getattr(spec, name), nonnegative=True)
        if spec.knock == "in" and spec.rebate != 0.0:
            report.violations.append("rebate is only supported for knock-out options")
        if not _is(numbers.Integral, spec.asset):
            report.violations.append(f"option asset index must be an integer, got {spec.asset!r}")
        elif not 0 <= spec.asset < d:
            report.violations.append(f"option asset index {spec.asset} out of range for d={d}")

    return report


def _real_violations(name: str, value, nonnegative: bool = False) -> list[str]:
    """Why ``value`` of field ``name`` is not a finite real number (>= 0 where ``nonnegative``)."""
    if not _is(numbers.Real, value):
        return [f"{name} must be a real number, got {value!r}"]
    if not math.isfinite(value):
        return [f"{name} must be finite"]
    return [f"{name} must be >= 0"] if nonnegative and value < 0.0 else []


# ---------------------------------------------------------------------------
# JSON configuration files


_TOP_KEYS = {"assets", "spot", "rate", "grid", "regimes", "option"}
_REGIME_KEYS = {"mu", "sigma", "corr", "lower", "upper"}
_OPTION_KEYS = {"kind", "strike", "asset", "knock", "rebate"}
_GRID_KEYS = {"maturity", "steps", "dates"}


def config_path(name: str) -> Path:
    """Path of a shipped configuration, e.g. ``config_path("table2")``."""
    p = Path(__file__).parent / "configs" / (name if name.endswith(".json") else name + ".json")
    if not p.exists():
        raise ModelError(f"no shipped config named {name!r}")
    return p


def load_config(
    source: str | Path | dict, *, steps: int | None = None
) -> tuple[MarketModel, OptionSpec]:
    """Build (MarketModel, OptionSpec) from a JSON config file or dict.

    Schema (keys in brackets optional)::

        {
          "assets": 2,
          "spot": [100.0, 100.0],
          "rate": 0.1,
          "grid": {"maturity": 1.0, "steps": 16},      # or {"dates": [...]}
          "regimes": [                                  # length 1 broadcasts
            {["mu"], "sigma", ["corr"], ["lower"], ["upper"]}
          ],
          "option": {"kind": "call", ["asset"], "strike", ["knock"], ["rebate"]}
        }

    ``null`` in ``lower``/``upper`` means no barrier; ``mu`` defaults to the
    risk-free rate; ``corr`` defaults to the identity.  ``steps`` overrides
    the grid's step count, which requires a single (broadcastable) regime.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if not path.exists() and isinstance(source, str) and "/" not in source:
            path = config_path(source)
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    else:
        cfg = source

    _check_keys(cfg, _TOP_KEYS, "config")
    for key in ("assets", "spot", "rate", "grid", "regimes", "option"):
        if key not in cfg:
            raise ModelError(f"config is missing required key {key!r}")

    d = _read_count("assets", cfg["assets"], 1)
    spot = np.asarray(_reals("spot", cfg["spot"]))
    if spot.shape != (d,):
        raise ModelError(f"spot must have {d} entries")
    rate = read_real("rate", cfg["rate"])

    grid_cfg = cfg["grid"]
    _check_keys(grid_cfg, _GRID_KEYS, "grid")
    if "dates" in grid_cfg:
        if steps is not None:
            raise ModelError("cannot override steps for a config with explicit dates")
        extra = sorted(set(grid_cfg) - {"dates"})
        if extra:
            raise ModelError(f"grid key {extra[0]!r} cannot be combined with 'dates'")
        grid = TimeGrid(_reals("dates", grid_cfg["dates"]))
    else:
        for key in ("maturity", "steps") if steps is None else ("maturity",):
            if key not in grid_cfg:
                raise ModelError(f"grid is missing required key {key!r}")
        n = _read_count("steps", grid_cfg["steps"] if steps is None else steps, 1)
        grid = TimeGrid.uniform(grid_cfg["maturity"], n)

    regime_cfgs = cfg["regimes"]
    if not isinstance(regime_cfgs, list) or not regime_cfgs:
        raise ModelError("regimes must be a non-empty list")
    if len(regime_cfgs) not in (1, grid.n_steps):
        raise ModelError(
            f"regimes must have length 1 or {grid.n_steps}, got {len(regime_cfgs)}"
        )
    if steps is not None and len(regime_cfgs) != 1:
        raise ModelError("cannot override steps for a config with per-step regimes")

    regimes = []
    for rc in regime_cfgs:
        _check_keys(rc, _REGIME_KEYS, "regime")
        if "sigma" not in rc:
            raise ModelError("regime is missing required key 'sigma'")
        regimes.append(
            Regime(
                mu=_reals("mu", rc.get("mu", [rate] * d)),
                sigma=_reals("sigma", rc["sigma"]),
                corr=None if rc.get("corr") is None else _reals("corr", rc["corr"]),
                lower=rc.get("lower"),
                upper=rc.get("upper"),
            )
        )
    model = MarketModel(spot=spot, rate=rate, grid=grid, regimes=tuple(regimes))

    oc = cfg["option"]
    _check_keys(oc, _OPTION_KEYS, "option")
    spec = OptionSpec(
        kind=oc.get("kind", "call"),
        strike=read_real("strike", oc.get("strike", 0.0)),
        asset=_read_count("asset", oc.get("asset", 0), 0),
        knock=oc.get("knock", "out"),
        rebate=read_real("rebate", oc.get("rebate", 0.0)),
    )
    return model, spec


def _read_count(key: str, value, least: int) -> int:
    # JSON has no integer type: a config's 16.0 is 16.  Run arguments stay strict.
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return read_int(key, value, least)


def _reals(key: str, values):
    """The config array under ``key``, nested lists kept, each number read by :func:`read_real`."""
    if isinstance(values, (list, tuple)):
        return [_reals(key, v) for v in values]
    return read_real(key, values)


def _check_keys(d: dict, allowed: set[str], context: str) -> None:
    if not isinstance(d, dict):
        raise ModelError(f"{context} section must be a JSON object")
    unknown = set(d) - allowed
    if unknown:
        raise ModelError(f"unknown {context} key(s): {', '.join(sorted(unknown))}")
