"""Monte Carlo pricing of multi-asset options with continuous barriers.

Discrete-time simulation misses barrier crossings between sampling dates.
This package removes that bias by conditioning on the simulated endpoints
of each interval: the hit probability of a single barrier is known in
closed form given the endpoints, and with several active barriers the
joint no-hit probability is bracketed between sharp bounds (and estimated
under an independence approximation).  Path weights built from these
probabilities turn a coarse discrete simulation into estimators that
bracket the continuously monitored price.
"""

from .bridge import (
    BridgeWeights,
    IntervalContext,
    interval_weights,
    oracle_no_hit,
)
from .estimators import (
    EstimatorResult,
    PointEstimate,
    PricingReport,
    path_contributions,
    price,
)
from .harness import (
    ConvergenceFit,
    SweepSpec,
    TableReport,
    fit_convergence,
    fit_from_csv,
    reproduce_table,
    run_sweep,
)
from .model import (
    MarketModel,
    ModelError,
    OptionSpec,
    Regime,
    TimeGrid,
    ValidationReport,
    config_path,
    factor_correlation,
    load_config,
    validate,
)
from .simulate import CHUNK, PathBatch, PathState, path_batches, simulate_path

__all__ = [
    "BridgeWeights",
    "CHUNK",
    "ConvergenceFit",
    "EstimatorResult",
    "IntervalContext",
    "MarketModel",
    "ModelError",
    "OptionSpec",
    "PathBatch",
    "PathState",
    "PointEstimate",
    "PricingReport",
    "Regime",
    "SweepSpec",
    "TableReport",
    "TimeGrid",
    "ValidationReport",
    "config_path",
    "factor_correlation",
    "fit_convergence",
    "fit_from_csv",
    "interval_weights",
    "load_config",
    "oracle_no_hit",
    "path_batches",
    "path_contributions",
    "price",
    "reproduce_table",
    "run_sweep",
    "simulate_path",
    "validate",
]

__version__ = "0.1.0"
