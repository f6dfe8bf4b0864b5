"""Correlated GBM path generation with reproducible counter-based streams.

Paths are simulated in fixed chunks of :data:`CHUNK` paths.  Each chunk owns
a counter-based random stream (Philox) keyed by ``seed * 2**64 + chunk``,
and draws inside a chunk are consumed step-major: each step owns the next
(CHUNK, d) block of uniforms, one uniform per normal.  A chunk draws only
the leading rows of that block that it walks and then advances the counter
past the rest, so the draw behind path i never depends on the total path
count.  It maps the walked rows through the normal inverse CDF, correlates
them with the regime's factor and advances them.  A knock-out price needs
nothing from a row once it touches a barrier, so its walk drops dead rows:
when fewer than half of the walked rows are alive it gathers the alive
ones, and from then on draws up to the last of them and keeps only theirs.
A walk carries exactly the rows it prices, with no spare row; a lone row
is doubled in the correlation product only (see ``_walk``).
Together these make every output a pure function of
(seed, n_paths, model) no matter how chunks are scheduled across workers.

The draws stay row-major, (rows, d) in stream order, through the inverse
CDF and the correlation product.  The walk then keeps prices asset-major,
as (d, rows) arrays, because the hit probabilities and the alive checks
work one asset at a time: each reads one contiguous row.  Every element
goes through a row-major walk's operations in the same order, so the
layout changes no bit.

Prices evolve in log space; exponentials happen only where prices are
reported.  A sampled value exactly on a barrier counts as a hit.  Each
step's events, alive check and no-hit bounds are bridge.py's vector kernel.
A chunk's alive flags and weights always come back at full length, dropped
rows as dead; the walk mode only chooses which terminal prices come back.
The public entries raise ModelError for a model that ``validate`` refuses,
and for a path count, path index or seed that is not an integer in range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from scipy.special import ndtri

from .bridge import _clear_touched, _Event, _events, _no_hit
from .model import MarketModel, factor_correlation, read_int, validate

__all__ = [
    "CHUNK",
    "PathState",
    "PathBatch",
    "simulate_path",
    "path_batches",
]

# Paths per random stream.  Part of the reproducibility contract: changing it
# changes which draw lands on which path.
CHUNK = 32768

# Generator.random can return exactly 0.0, where the inverse CDF diverges;
# half an ulp below the smallest positive draw is statistically invisible.
_U_FLOOR = 2.0**-54


@dataclass(frozen=True)
class PathState:
    """One simulated trajectory at the sampling dates.

    ``values`` holds prices of shape (M+1, d); ``alive_discrete`` is the
    discretely monitored no-hit indicator (every sampled vector strictly
    inside its dates' barriers, boundary counting as a hit).
    """

    values: np.ndarray
    alive_discrete: bool
    path_index: int


@dataclass(frozen=True)
class PathBatch:
    """Batch outputs of the path engine for one chunk of paths.

    The batch analog of PathState, keeping only what estimators need:
    terminal prices, the discrete no-hit indicator, and the accumulated
    per-path no-hit weight under each bound.  Where every interval has at
    most one active barrier event the three weights are one array, the
    exact weight.  ``terminal`` has shape (rows, d) and may be the
    transposed view of an asset-major array.  A batch walked with dead rows
    dropped carries the terminal prices of its alive rows only, in row
    order; ``alive`` and the weights always cover every row.
    """

    terminal: np.ndarray
    alive: np.ndarray
    w_lower: np.ndarray
    w_indep: np.ndarray
    w_upper: np.ndarray


def _stream(seed: int, chunk_index: int) -> np.random.Generator:
    """The counter-based generator owning the draws of one chunk."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) + chunk_index))


def _normal_block(gen: np.random.Generator, d: int, index: np.ndarray) -> np.ndarray:
    """Normals for the chunk rows ``index`` (increasing) from the step's (CHUNK, d) block.

    Draws the block's rows up to the last of ``index`` and advances the
    counter past the rest, so the next step starts at the next block.
    """
    rows = int(index[-1]) + 1
    # One Philox4x64 counter step yields four doubles, so draw whole steps;
    # CHUNK makes the whole block whole steps too.
    n = -(-rows * d // 4) * 4
    u = gen.random(n)[: rows * d].reshape(rows, d)
    if n < CHUNK * d:
        gen.bit_generator.advance((CHUNK * d - n) // 4)
    if len(index) < rows:
        u = u[index]
    np.fmax(u, _U_FLOOR, out=u)
    return ndtri(u, out=u)


class _Rows:
    """The rows a walk carries, gathered together when it drops dead rows.

    ``index`` is each walked row's position in the chunk, increasing;
    ``alive`` its discrete no-hit flag, which the walk clears in place; and
    ``weights`` the per-row arrays that the walk's consumer accumulates.
    Read the attributes afresh at every step: gathering replaces them.
    """

    def __init__(self, rows: int, n_weights: int = 0):
        self.index = np.arange(rows)
        self.alive = np.ones(rows, dtype=bool)
        self.weights = [np.ones(rows) for _ in range(n_weights)]

    def keep(self, keep: np.ndarray) -> None:
        self.index = self.index[keep]
        self.alive = self.alive[keep]
        self.weights = [w[keep] for w in self.weights]


@dataclass(frozen=True)
class _StepKernel:
    drift: np.ndarray  # (d, 1) (mu - sigma^2/2) dt, a column against (d, rows) prices
    vol: np.ndarray  # (d, 1) sigma sqrt(dt)
    factor: np.ndarray | None  # None where the regime's factor is the identity
    events: tuple[_Event, ...]


@dataclass(frozen=True)
class _EnginePlan:
    d: int
    log_spot: np.ndarray
    steps: tuple[_StepKernel, ...]
    exact: bool  # every interval has at most one event


def _plan(model: MarketModel) -> _EnginePlan:
    steps = []
    exact = True
    previous = factor = None
    for m, regime in enumerate(model.regimes):
        if regime is not previous:  # a broadcast regime is one object, factored once
            previous = regime
            factor = factor_correlation(regime.corr)
            if np.array_equal(factor, np.eye(model.d)):
                factor = None
        dt = model.grid.dt(m)
        events = _events(regime, dt)
        exact = exact and len(events) <= 1
        drift = ((regime.mu - 0.5 * regime.sigma**2) * dt)[:, None]
        vol = (regime.sigma * math.sqrt(dt))[:, None]
        steps.append(_StepKernel(drift, vol, factor, events))
    return _EnginePlan(model.d, np.log(model.spot), tuple(steps), exact)


def _front(buffer: np.ndarray, d: int, rows: int) -> np.ndarray:
    """The first ``d * rows`` elements of a C-contiguous buffer, as a (d, rows) array."""
    return buffer.reshape(-1)[: d * rows].reshape(d, rows)


def _walk(plan: _EnginePlan, seed: int, chunk_index: int, state: _Rows, compact: bool = False):
    """Walk the rows ``state`` carries of one chunk: yield ``(kernel, x0, x1)`` per step.

    ``x0`` and ``x1`` are the walked rows' log prices at the step's ends,
    asset-major: C-contiguous (d, rows) arrays, so ``x0[k]`` is asset k's
    row.  They live in buffers that the walk reuses: read them before the
    next step.  The draws stay row-major, in stream order; the correlation
    product, or a copy where the regime has no factor, moves them into the
    walk's third (d, rows) buffer.  ``state.alive`` is cleared in place
    where a path's sampled endpoints touch or cross a barrier of the step.
    With ``compact``, a step that finds fewer than half of the walked rows
    alive first gathers the alive ones, and a step that finds none ends the
    walk.

    numpy hands a one-row matrix product to gemv, which can round the
    correlated draws differently in the last bit from the same row of a
    many-row product; from two rows on, any subset of rows agrees with the
    full product.  So a walk of one row multiplies it twice and keeps one.
    """
    gen = _stream(seed, chunk_index)
    d, rows = plan.d, len(state.index)
    x0 = np.repeat(plan.log_spot[:, None], rows, axis=1)
    x1 = np.empty_like(x0)
    zt = np.empty_like(x0)
    for kernel in plan.steps:
        if compact:
            live = np.count_nonzero(state.alive)
            if not live:
                return
            if 2 * live < rows:
                keep = np.flatnonzero(state.alive)
                state.keep(keep)
                rows = live
                # Gather into the front of the spare buffer; every buffer
                # keeps its first d * rows elements from here on.  A mode
                # other than "raise" lets take() write to ``out`` unbuffered.
                x0, x1 = (
                    np.take(x0, keep, axis=1, out=_front(x1, d, rows), mode="clip"),
                    _front(x0, d, rows),
                )
                zt = _front(zt, d, rows)
        # ndtri maps in place, faster than into a transposed output.
        z = _normal_block(gen, d, state.index)
        if kernel.factor is None:
            np.copyto(zt.T, z)
        elif rows == 1:
            np.copyto(zt.T, (np.repeat(z, 2, axis=0) @ kernel.factor.T)[:1])
        else:
            # The same row-major BLAS product, and so the same bits, as into
            # a (rows, d) array.
            np.matmul(z, kernel.factor.T, out=zt.T)
        np.add(x0, kernel.drift, out=x1)
        zt *= kernel.vol
        x1 += zt
        _clear_touched(state.alive, kernel.events, x0, x1)
        yield kernel, x0, x1
        x0, x1 = x1, x0


def _compute_batch(
    plan: _EnginePlan, seed: int, chunk_index: int, n_paths: int, compact: bool = False
) -> PathBatch:
    """Simulate the paths of one chunk that lie among the first ``n_paths``.

    With ``compact`` the walk drops dead rows, and the batch carries the
    terminal prices of the alive rows only.  The plan has at least one step.
    """
    rows = min(CHUNK, n_paths - chunk_index * CHUNK)
    # An exact plan's three weights are equal bit for bit: carry one.
    state = _Rows(rows, n_weights=1 if plan.exact else 3)
    for kernel, x0, x1 in _walk(plan, seed, chunk_index, state, compact):
        if kernel.events:
            # Rows that touch a barrier are dead, and the alive mask zeroes
            # their weights below, so the hit probability is taken as if
            # every row were inside.
            for w, p in zip(state.weights, _no_hit(kernel.events, x0, x1)):
                w *= p
    # Weights lie in [0, 1], so a dead row becomes +0.0.
    for w in state.weights:
        w *= state.alive
    # Rows that a compacting walk dropped are dead: False, and +0.0 weights.
    cols = []
    for kept in (state.alive, *state.weights):
        full = np.zeros(rows, kept.dtype)
        full[state.index] = kept
        cols.append(full)
    alive, *weights = cols
    w_lower, w_indep, w_upper = weights * 3 if plan.exact else weights
    terminal = np.exp(x1[:, state.alive] if compact else x1).T
    return PathBatch(terminal, alive, w_lower, w_indep, w_upper)


def path_batches(model: MarketModel, n_paths: int, seed: int = 0) -> Iterator[PathBatch]:
    """PathBatch chunks covering ``n_paths`` paths, in chunk order.

    Raises ModelError at the call for a model that :func:`validate` refuses,
    a path count below 1 or a seed outside [0, 2**64).
    """
    n_paths = read_int("n_paths", n_paths, 1)
    seed = read_int("seed", seed, 0, 2**64)
    validate(model).raise_if_invalid()
    plan = _plan(model)
    return (_compute_batch(plan, seed, c, n_paths) for c in range(_n_chunks(n_paths)))


def _n_chunks(n_paths: int) -> int:
    return -(-n_paths // CHUNK)


def simulate_path(model: MarketModel, path_index: int, seed: int = 0) -> PathState:
    """Simulate one full trajectory, bit-identical to the batch engine's.

    The chunk containing ``path_index`` is regenerated up to the path's row
    and the row extracted, so the result never depends on worker count or on
    how many other paths a pricing run asked for.  Raises ModelError for a
    model that :func:`validate` refuses, a negative path index or a bad seed.
    """
    path_index = read_int("path_index", path_index, 0)
    seed = read_int("seed", seed, 0, 2**64)
    validate(model).raise_if_invalid()
    plan = _plan(model)
    chunk_index, row = divmod(path_index, CHUNK)
    values = np.empty((len(plan.steps) + 1, plan.d))
    values[0] = model.spot
    state = _Rows(row + 1)
    for m, (_, _, x1) in enumerate(_walk(plan, seed, chunk_index, state)):
        values[m + 1] = np.exp(x1[:, row])
    return PathState(values=values, alive_discrete=bool(state.alive[row]), path_index=path_index)
