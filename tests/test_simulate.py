"""Tests for the path engine: stepping, streams, batches, reproducibility."""

from __future__ import annotations

import functools
import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bridgebound.bridge import IntervalContext, _combine, _xi_inside, interval_weights
from bridgebound import estimators, simulate
from bridgebound.estimators import path_contributions, price
from bridgebound.model import (
    MarketModel,
    ModelError,
    OptionSpec,
    Regime,
    TimeGrid,
    config_path,
    load_config,
)
from bridgebound.simulate import (
    CHUNK,
    PathState,
    _compute_batch,
    _n_chunks,
    _plan,
    _Rows,
    _walk,
    path_batches,
    simulate_path,
)

BUNDLED = sorted(p.stem for p in config_path("table1a").parent.glob("*.json"))


def flat_model(d=1, spot=100.0, sigma=0.3, rate=0.1, corr=None, lower=None, upper=None,
               maturity=0.5, steps=1):
    regime = Regime(
        mu=[rate] * d, sigma=[sigma] * d, corr=corr,
        lower=lower if lower is not None else [None] * d,
        upper=upper if upper is not None else [None] * d,
    )
    return MarketModel(
        spot=[spot] * d, rate=rate, grid=TimeGrid.uniform(maturity, steps), regimes=(regime,)
    )


class TestStep:
    def test_drift_only_limit(self):
        """With zero volatility one step is pure exponential drift.

        ``validate`` refuses a zero sigma, so the model is walked through
        the engine's internals.
        """
        model = flat_model(d=1, sigma=0.0, rate=0.1, maturity=1.0, steps=1)
        (terminal,) = [np.exp(x1[0, 3]) for _, _, x1 in _walk(_plan(model), 0, 0, _Rows(4))]
        assert math.isclose(terminal, 110.51709180756476, rel_tol=1e-14)

    def test_martingale_property(self):
        """Discounted one-step growth has unit mean under mu = r."""
        model = flat_model(d=1, sigma=0.3, rate=0.1, maturity=0.5, steps=1)
        n = 200_000
        total = 0.0
        total_sq = 0.0
        for batch in path_batches(model, n, seed=4):
            g = batch.terminal[:, 0] / 100.0
            total += g.sum()
            total_sq += (g * g).sum()
        mean = total / n
        var = total_sq / n - mean * mean
        target = math.exp(0.1 * 0.5)
        se = math.sqrt(var / n)
        assert abs(mean - target) <= 4.0 * se


class TestSimulatePath:
    def test_values_start_at_spot(self):
        model, _ = load_config("table1a")
        state = simulate_path(model, 7)
        assert np.array_equal(state.values[0], model.spot)
        assert state.values.shape == (2, 1)
        assert np.all(state.values > 0.0)
        assert state.path_index == 7

    def test_deterministic_repeat(self):
        model, _ = load_config("table1b")
        a = simulate_path(model, 123, seed=42)
        b = simulate_path(model, 123, seed=42)
        assert np.array_equal(a.values, b.values)
        assert a.alive_discrete == b.alive_discrete

    def test_seed_changes_draws(self):
        model, _ = load_config("table1a")
        a = simulate_path(model, 0, seed=0)
        b = simulate_path(model, 0, seed=1)
        assert not np.array_equal(a.values[1:], b.values[1:])

    def test_path_independent_of_neighbours(self):
        """A path's draws depend only on (seed, path_index), not on N."""
        model, _ = load_config("table1a")
        state = simulate_path(model, 5, seed=0)
        batch = next(path_batches(model, 10, seed=0))
        assert batch.terminal[5, 0] == state.values[-1, 0]
        assert bool(batch.alive[5]) == state.alive_discrete

    def test_path_beyond_first_chunk(self):
        model, _ = load_config("table1a")
        state = simulate_path(model, CHUNK + 11, seed=3)
        batches = list(path_batches(model, CHUNK + 20, seed=3))
        assert batches[1].terminal[11, 0] == state.values[-1, 0]

    def test_alive_matches_recomputed_indicator(self):
        """alive_discrete is the strict-interior check at every date."""
        model, _ = load_config("table1a")
        lower = model.regimes[0].lower[0]
        hits = 0
        for idx in range(200):
            state = simulate_path(model, idx, seed=8)
            inside = bool(np.all(state.values[:, 0] > lower))
            assert state.alive_discrete == inside
            hits += not inside
        assert hits > 0  # the sample actually exercises both outcomes

    def test_spot_on_barrier_is_dead_at_inception(self):
        """``validate`` refuses a spot on a barrier, so the model is walked
        through the engine's internals."""
        model = flat_model(lower=[100.0])
        state = _Rows(2)
        for _ in _walk(_plan(model), 0, 0, state):
            pass
        assert not state.alive[0]

    def test_multi_step_shape(self):
        model, _ = load_config("table2")
        state = simulate_path(model, 0)
        assert isinstance(state, PathState)
        assert state.values.shape == (model.grid.n_steps + 1, 1)

    def test_negative_index_rejected(self):
        model, _ = load_config("table1a")
        with pytest.raises(ValueError, match="path_index"):
            simulate_path(model, -1)

    def test_seed_range_enforced(self):
        model, _ = load_config("table1a")
        with pytest.raises(ValueError, match="seed"):
            simulate_path(model, 0, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            simulate_path(model, 0, seed=2**64)


def one_regime_model(regime, steps=4):
    return MarketModel(spot=[100.0], rate=0.05, grid=TimeGrid.uniform(1.0, steps),
                       regimes=regime)


class TestEntriesValidate:
    """The public engine entries refuse what ``validate`` refuses, rather
    than walking paths dead with NaN prices or to plausible weights."""

    @pytest.mark.parametrize("entry", [
        lambda model: path_batches(model, 10),
        lambda model: simulate_path(model, 0),
    ], ids=["path_batches", "simulate_path"])
    @pytest.mark.parametrize("model, message", [
        pytest.param(one_regime_model(Regime(mu=[0.05], sigma=[np.nan], lower=[90.0])),
                     "regime 0: sigma must be finite", id="nan-sigma"),
        pytest.param(one_regime_model(Regime(mu=[0.05], sigma=[-0.3], lower=[90.0])),
                     "regime 0: sigma must be strictly positive", id="negative-sigma"),
        pytest.param(flat_model(lower=[100.0]), "exactly on", id="spot-on-barrier"),
    ])
    def test_invalid_model_refused(self, entry, model, message):
        with pytest.raises(ModelError, match=message):
            entry(model)


class TestRunArguments:
    """Counts and seeds are refused at the entry, not deep in a worker's chunk."""

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"n_paths": 1e5}, "n_paths must be an integer", id="float-paths"),
        pytest.param({"n_paths": 40000.0}, "n_paths must be an integer", id="integral-float-paths"),
        pytest.param({"n_paths": -5}, "n_paths must be >= 1, got -5", id="negative-paths"),
        pytest.param({"seed": 1.5}, "seed must be an integer", id="float-seed"),
        pytest.param({"seed": -1}, r"seed must be in \[0, 2\*\*64\)", id="negative-seed"),
        pytest.param({"seed": 2**64}, r"seed must be in \[0, 2\*\*64\)", id="large-seed"),
        pytest.param({"seed": True}, "seed must be an integer, got True", id="bool-seed"),
        pytest.param({"n_paths": True}, "n_paths must be an integer, got True", id="bool-paths"),
    ])
    def test_path_batches_refuses(self, kwargs, message):
        model, _ = load_config("table1a")
        with pytest.raises(ValueError, match=message):
            path_batches(model, **{"n_paths": 10, **kwargs})

    @pytest.mark.parametrize("kwargs, message", [
        pytest.param({"path_index": 0.0}, "path_index must be an integer", id="float-index"),
        pytest.param({"seed": 2.0}, "seed must be an integer", id="float-seed"),
        pytest.param({"seed": True}, "seed must be an integer, got True", id="bool-seed"),
        pytest.param({"path_index": True}, "path_index must be an integer, got True",
                     id="bool-index"),
    ])
    def test_simulate_path_refuses(self, kwargs, message):
        model, _ = load_config("table1a")
        with pytest.raises(ValueError, match=message):
            simulate_path(model, **{"path_index": 0, **kwargs})

    def test_numpy_integer_seed_keys_its_own_stream(self):
        """A numpy seed draws the stream of the same Python int, not of seed 0."""
        model, _ = load_config("table1a")
        (numpy_seed,) = path_batches(model, 100, seed=np.int64(3))
        (int_seed,) = path_batches(model, 100, seed=3)
        (zero,) = path_batches(model, 100, seed=0)
        assert np.array_equal(numpy_seed.terminal, int_seed.terminal)
        assert not np.array_equal(numpy_seed.terminal, zero.terminal)


class TestPathBatches:
    def test_chunk_partitioning(self):
        model, _ = load_config("table1a")
        batches = list(path_batches(model, CHUNK + 3, seed=0))
        assert len(batches) == 2
        assert len(batches[0].terminal) == CHUNK
        assert len(batches[1].terminal) == 3
        for batch in batches:
            assert len(batch.w_lower) == len(batch.terminal)
            assert len(batch.alive) == len(batch.terminal)

    def test_tail_slice_matches_full_chunk(self):
        """Asking for fewer paths returns a prefix of the same stream."""
        model, _ = load_config("table1a")
        small = next(path_batches(model, 100, seed=0))
        full = next(path_batches(model, CHUNK, seed=0))
        assert np.array_equal(small.terminal, full.terminal[:100])
        assert np.array_equal(small.w_upper, full.w_upper[:100])

    def test_single_event_weights_coincide(self):
        model, _ = load_config("table1a")
        assert _plan(model).exact
        batch = next(path_batches(model, 1000, seed=0))
        assert batch.w_lower.tobytes() == batch.w_upper.tobytes()
        assert batch.w_indep.tobytes() == batch.w_upper.tobytes()

    def test_double_barrier_weights_ordered_with_no_exact(self):
        model, _ = load_config("table2")
        assert not _plan(model).exact
        batch = next(path_batches(model, 5000, seed=0))
        assert batch.w_lower.tobytes() != batch.w_upper.tobytes()
        assert np.all(batch.w_lower <= batch.w_indep)
        assert np.all(batch.w_indep <= batch.w_upper)
        assert np.all((batch.w_lower >= 0.0) & (batch.w_upper <= 1.0))

    def test_dead_path_weight_zero(self):
        """A discrete breach forces every no-hit weight to +0.0."""
        # a barrier that appears at the second date, below paths already beyond it
        late = MarketModel(
            spot=[100.0], rate=0.1, grid=TimeGrid.uniform(0.5, 2),
            regimes=(Regime(mu=[0.1], sigma=[0.3]),
                     Regime(mu=[0.1], sigma=[0.3], lower=[95.0])),
        )
        for label, model in [
            ("table1a", load_config("table1a")[0]),
            ("table4_d10", load_config("table4_d10")[0]),
            ("late barrier", late),
        ]:
            batch = next(path_batches(model, CHUNK, seed=0))
            dead = ~batch.alive
            assert dead.any()
            for name in ("w_lower", "w_indep", "w_upper"):
                w = getattr(batch, name)
                assert np.all(w[dead] == 0.0), (label, name)
                assert not np.signbit(w[dead]).any(), (label, name)

    def test_weights_one_when_no_barriers(self):
        model = flat_model(d=2, corr=[[1.0, 0.5], [0.5, 1.0]])
        batch = next(path_batches(model, 1000, seed=0))
        assert np.all(batch.w_lower == 1.0)
        assert np.all(batch.w_upper == 1.0)
        assert np.all(batch.alive)

    @pytest.mark.parametrize("steps", [None, 3], ids=["default_m", "m3"])
    @pytest.mark.parametrize("cfg", BUNDLED)
    def test_bound_chain_holds_path_by_path(self, cfg, steps):
        """0 <= I*W_lower <= I*W_indep <= I*W_upper <= I on every row."""
        model, _ = load_config(cfg, steps=steps)
        for batch in path_batches(model, CHUNK + 100, seed=5):
            alive = batch.alive.astype(float)
            chain = [np.zeros_like(alive)]
            chain += [alive * w for w in (batch.w_lower, batch.w_indep, batch.w_upper)]
            chain.append(alive)
            for k, (lo, hi) in enumerate(zip(chain, chain[1:])):
                assert np.all(lo <= hi), (cfg, steps, k)


_FIELDS = ("terminal", "alive", "w_lower", "w_indep", "w_upper")


@functools.cache
def _columns(cfg: str, n: int) -> dict[str, np.ndarray]:
    """Every PathBatch field of ``n`` paths, concatenated over chunks.

    Three steps at seed 7: there, on ``table4_d10``, a one-row correlation
    product would round the first path of the second chunk differently from
    a many-row one.
    """
    model, _ = load_config(cfg, steps=3)
    batches = list(path_batches(model, n, seed=7))
    return {name: np.concatenate([getattr(b, name) for b in batches]) for name in _FIELDS}


class TestRowCount:
    """A chunk walks only the rows it keeps; what it keeps must not depend
    on how many rows that is."""

    @pytest.mark.parametrize("cfg", ["table4_d10", "table4_d3"])
    @pytest.mark.parametrize("n", [2, 3, 1696, CHUNK + 1, CHUNK + 2])
    def test_prefix_of_two_full_chunks(self, cfg, n):
        full = _columns(cfg, 2 * CHUNK)
        got = _columns(cfg, n)
        assert set(got) == set(full)
        for name, col in got.items():
            assert np.array_equal(col, full[name][:n]), name

    @given(st.integers(min_value=0, max_value=2 * CHUNK - 1))
    @settings(max_examples=25, deadline=None)
    @example(0)
    @example(CHUNK)
    def test_simulate_path_is_the_batch_row(self, i):
        for cfg in ("table1a", "table4_d3"):
            model, _ = load_config(cfg, steps=3)
            full = _columns(cfg, 2 * CHUNK)
            state = simulate_path(model, i, seed=7)
            assert np.array_equal(state.values[-1], full["terminal"][i]), cfg
            assert state.alive_discrete == bool(full["alive"][i]), cfg


class TestGatheredProducts:
    """Dropping dead rows correlates a gathered subset of a chunk's normals,
    into a transposed output; each row must come out as it does in the whole
    chunk's row-major product."""

    @pytest.mark.parametrize("cfg", ["table4_d10", "table4_d3", "table3_rho0.5"])
    def test_row_subsets_match_full_product(self, cfg):
        model, _ = load_config(cfg)
        factor = _plan(model).steps[0].factor
        rng = np.random.default_rng(17)
        z = rng.standard_normal((CHUNK, model.d))
        full = z @ factor.T
        for size in (2, 3, 5, 64, 1697, CHUNK // 2, CHUNK - 1):
            for ordered in (True, False):
                idx = rng.choice(CHUNK, size, replace=False)
                if ordered:
                    idx.sort()
                assert (z[idx] @ factor.T).tobytes() == full[idx].tobytes(), (size, ordered)
                # The walk writes the product into an asset-major buffer.
                out = np.empty((model.d, size))
                np.matmul(z[idx], factor.T, out=out.T)
                assert out.T.tobytes() == full[idx].tobytes(), (size, ordered)


def _assert_compact_batch_is_full_walk(model, n, seed=7):
    """alive, the weights (as bytes, +0.0 on dead rows) and the alive rows'
    terminals of a walk that drops dead rows equal those of the full walk."""
    plan = _plan(model)
    for chunk in range(_n_chunks(n)):
        full = _compute_batch(plan, seed, chunk, n)
        compact = _compute_batch(plan, seed, chunk, n, compact=True)
        assert compact.alive.tobytes() == full.alive.tobytes(), chunk
        for name in ("w_lower", "w_indep", "w_upper"):
            assert getattr(compact, name).tobytes() == getattr(full, name).tobytes(), (chunk, name)
        assert compact.terminal.tobytes() == full.terminal[full.alive].tobytes(), chunk
        if plan.exact:
            for name in ("w_lower", "w_indep"):
                assert getattr(compact, name).tobytes() == compact.w_upper.tobytes(), (chunk, name)


def _walk_history(model, rows, seed=7):
    """(walked rows, alive rows) after each step of a compacting walk of one chunk."""
    state = _Rows(rows)
    return [(len(state.index), int(state.alive.sum()))
            for _ in _walk(_plan(model), seed, 0, state, compact=True)]


def _box_model(steps=16):
    """Three correlated assets between barriers at 97 and 103: most rows die
    at the first date, and at seed 7 a 1000-row chunk keeps 33, then one."""
    corr = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]
    regime = Regime(mu=[0.1] * 3, sigma=[0.3] * 3, corr=corr,
                    lower=[97.0] * 3, upper=[103.0] * 3)
    return MarketModel(spot=[100.0] * 3, rate=0.1, grid=TimeGrid.uniform(1.0, steps),
                       regimes=(regime,))


class TestDeadRowsDropped:
    """A knock-out price walks only the rows that are still alive."""

    @pytest.mark.parametrize("n", [2, 3, 1697, CHUNK + 1])
    @pytest.mark.parametrize("steps", [None, 3], ids=["default_m", "m3"])
    @pytest.mark.parametrize("cfg", BUNDLED)
    def test_compact_batch_is_the_full_walk(self, cfg, steps, n):
        model, _ = load_config(cfg, steps=steps)
        _assert_compact_batch_is_full_walk(model, n)

    def test_rows_are_dropped(self, monkeypatch):
        """The comparisons above are not vacuous: table4_d10 at M=3 gathers."""
        kept = []
        keep = _Rows.keep
        monkeypatch.setattr(_Rows, "keep", lambda self, k: (kept.append(len(k)), keep(self, k)))
        model, _ = load_config("table4_d10", steps=3)
        _compute_batch(_plan(model), 7, 0, CHUNK, compact=True)
        assert kept and all(2 <= k < CHUNK // 2 for k in kept)

    def test_every_row_dies_and_the_walk_stops(self):
        """Keeping one alive row walks that row alone; no alive row ends the walk."""
        model = _box_model()
        assert _walk_history(model, 1000) == [(1000, 33), (33, 1), (1, 0)]
        _assert_compact_batch_is_full_walk(model, 1000)

    def test_spot_on_barrier_ends_walk_after_first_step(self):
        model = flat_model(d=2, corr=[[1.0, 0.3], [0.3, 1.0]], lower=[100.0, None], steps=4)
        assert _walk_history(model, 50) == [(50, 0)]
        _assert_compact_batch_is_full_walk(model, 50)

    @pytest.mark.parametrize("row", [0, 1, 2, 3, 4])
    def test_lone_alive_row_is_walked_as_in_full_chunk(self, row):
        """A gathered lone row, walked alone, gets the full chunk's prices."""
        model, _ = load_config("table4_d10", steps=4)
        plan = _plan(model)
        full = [x1.copy() for _, _, x1 in _walk(plan, 7, 0, _Rows(5))]
        state = _Rows(5)
        for m, (_, _, x1) in enumerate(_walk(plan, 7, 0, state, compact=True)):
            if m == 0:
                state.alive[:] = state.index == row  # every other row dies
            else:
                assert state.index.tolist() == [row]
                state.alive[:] = True  # keep it alive to maturity
                assert x1[:, 0].tobytes() == full[m][:, row].tobytes(), m

    def test_barrier_from_second_date(self):
        corr = [[1.0, 0.4, 0.2], [0.4, 1.0, 0.4], [0.2, 0.4, 1.0]]
        free = Regime(mu=[0.1] * 3, sigma=[0.3] * 3, corr=corr)
        barred = Regime(mu=[0.1] * 3, sigma=[0.3] * 3, corr=corr, lower=[95.0, 90.0, None])
        model = MarketModel(spot=[100.0] * 3, rate=0.1, grid=TimeGrid.uniform(1.0, 6),
                            regimes=(free,) + (barred,) * 5)
        history = _walk_history(model, CHUNK)
        assert history[0] == (CHUNK, CHUNK)
        assert history[-1][0] < CHUNK // 2
        _assert_compact_batch_is_full_walk(model, CHUNK + 1)

    @pytest.mark.parametrize("knock, rebate", [("out", 0.0), ("out", 2.5), ("in", 0.0)])
    @pytest.mark.parametrize("cfg", ["table4_d10", "table1b", "table2"])
    def test_knock_out_sums_are_the_full_walk_sums(self, cfg, knock, rebate, monkeypatch):
        """A price from walks that drop dead rows is, bit for bit, the price
        from full walks whose dead rows' terminals are dropped afterwards."""
        model, spec = load_config(cfg, steps=8)
        spec = replace(spec, knock=knock, rebate=rebate)
        compacted = price(model, spec, CHUNK + 1, seed=7).to_dict()

        def full_walk(plan, seed, chunk, n_paths, compact=False, helper=None):
            batch = _compute_batch(plan, seed, chunk, n_paths, helper=helper)
            return replace(batch, terminal=batch.terminal[batch.alive]) if compact else batch

        monkeypatch.setattr(estimators, "_compute_batch", full_walk)
        assert price(model, spec, CHUNK + 1, seed=7).to_dict() == compacted


class _RecordingHelper(ThreadPoolExecutor):
    """A one-thread helper that keeps every future handed to it."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.futures = []

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        self.futures.append(future)
        return future


# table4_d10 knock-out gathers, and walks its one-row tail chunk as a lone
# row; knock-in walks every row; the box model's walk stops early at seed 7.
DRAW_AHEAD_CASES = [("table4_d10", "out", 0.0), ("table4_d10", "in", 0.0),
                    ("table4_d10", "out", 2.5), ("box", "out", 0.0)]


def _draw_ahead_contract(cfg, knock, rebate):
    if cfg == "box":
        model, spec = _box_model(), OptionSpec(strike=100.0)
    else:
        model, spec = load_config(cfg, steps=8)
    return model, replace(spec, knock=knock, rebate=rebate)


class TestDrawAhead:
    """A helper thread that draws each step's normals during the step before
    changes no bit, and leaves no draw running once a walk ends."""

    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("cfg", ["table4_d10", "box"])
    def test_batches_are_the_batches_without_a_helper(self, cfg, compact):
        model, _ = _draw_ahead_contract(cfg, "out", 0.0)
        plan = _plan(model)
        n = CHUNK + 1
        with _RecordingHelper() as helper:
            for chunk in range(_n_chunks(n)):
                alone = _compute_batch(plan, 7, chunk, n, compact)
                helped = _compute_batch(plan, 7, chunk, n, compact, helper)
                assert all(f.done() for f in helper.futures), chunk
                for name in ("terminal", "alive", "w_lower", "w_indep", "w_upper"):
                    assert getattr(helped, name).tobytes() == getattr(alone, name).tobytes(), (
                        chunk, name)
        assert helper.futures

    def test_early_end_takes_the_unread_block_off_the_helper(self):
        """The box model's walk ends at its fourth step, with the next block
        handed to the helper and never read."""
        plan = _plan(_box_model())
        with _RecordingHelper() as helper:
            state = _Rows(1000)
            steps = sum(1 for _ in _walk(plan, 7, 0, state, compact=True, helper=helper))
            assert steps == 3 < len(plan.steps)
            assert len(helper.futures) == 3
            assert all(f.done() for f in helper.futures)

    @pytest.mark.parametrize("cfg, knock, rebate", DRAW_AHEAD_CASES)
    def test_price_and_contributions_keep_every_bit(self, cfg, knock, rebate, monkeypatch):
        """price with one worker draws ahead on a helper, with two workers it
        does not; path_contributions draws ahead unless one CPU is usable."""
        model, spec = _draw_ahead_contract(cfg, knock, rebate)
        n = CHUNK + 1
        threads = set()
        draw = simulate._normals
        caller = threading.get_ident()

        def recording_draw(*args):
            threads.add(threading.get_ident() == caller)
            return draw(*args)

        monkeypatch.setattr(simulate, "_normals", recording_draw)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        pooled = price(model, spec, n, seed=7, workers=2).to_dict()
        threads.clear()
        assert price(model, spec, n, seed=7, workers=1).to_dict() == pooled
        assert threads == {True, False}  # the helper drew, and so did the walk
        threads.clear()
        helped = path_contributions(model, spec, n, seed=7)
        assert threads == {True, False}
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 1)
        threads.clear()
        alone = path_contributions(model, spec, n, seed=7)
        assert threads == {True}
        assert helped.keys() == alone.keys()
        for name in alone:
            assert helped[name].tobytes() == alone[name].tobytes(), name


@functools.cache
def _row_major_walk(cfg: str, chunk: int, walked: int, seed: int = 7):
    """One chunk's first ``walked`` rows, walked row-major, written out step by step.

    Each step draws its whole (CHUNK, d) block of stream 2 normals from the
    step's own SFC64 generator, keeps the walked rows, correlates them as
    (rows, d) @ F.T and advances every row as x1 = (x0 + drift) + z * vol.
    Returns the (walked, d) log prices at every date, the alive flags and
    the three weights, with the dead rows' weights +0.0.
    """
    model, _ = load_config(cfg, steps=3)
    plan = _plan(model)
    xs = [np.broadcast_to(np.log(model.spot), (walked, model.d)).copy()]
    alive = np.ones(walked, dtype=bool)
    weights = [np.ones(walked) for _ in range(3)]
    for m, kernel in enumerate(plan.steps):
        regime, dt = model.regimes[m], model.grid.dt(m)
        key = np.random.SeedSequence(seed, spawn_key=(chunk, m))
        z = np.random.Generator(np.random.SFC64(key)).standard_normal((CHUNK, model.d))[:walked]
        if kernel.factor is not None:
            z = z @ kernel.factor.T
        x0 = xs[-1]
        x1 = (x0 + (regime.mu - 0.5 * regime.sigma**2) * dt) + z * (regime.sigma * math.sqrt(dt))
        xs.append(x1)
        if not kernel.events:
            continue
        xis = []
        for ev in kernel.events:
            a, b = x0[:, ev.asset], x1[:, ev.asset]
            if ev.side == "lower":
                alive &= (a > ev.log_level) & (b > ev.log_level)
            else:
                alive &= (a < ev.log_level) & (b < ev.log_level)
            xis.append(_xi_inside(a, b, ev.log_level, ev.variance))
        for w, p in zip(weights, _combine(xis)):
            w *= p
    return xs, alive, [w * alive for w in weights]


class TestRowMajorReference:
    """The engine keeps prices asset-major; its outputs are the bits of a
    row-major walk."""

    @pytest.mark.parametrize("compact", [False, True], ids=["full", "compact"])
    @pytest.mark.parametrize("n", [2, 3, 1697, CHUNK + 1])
    @pytest.mark.parametrize("cfg", BUNDLED)
    def test_batches_are_the_reference_walk(self, cfg, n, compact):
        plan = _plan(load_config(cfg, steps=3)[0])
        for chunk in range(_n_chunks(n)):
            rows = min(CHUNK, n - chunk * CHUNK)
            xs, alive, weights = _row_major_walk(cfg, chunk, max(rows, 2))
            alive = alive[:rows]
            terminal = np.exp(xs[-1][:rows])
            batch = _compute_batch(plan, 7, chunk, n, compact=compact)
            assert batch.alive.tobytes() == alive.tobytes(), chunk
            for name, w in zip(("w_lower", "w_indep", "w_upper"), weights):
                assert getattr(batch, name).tobytes() == w[:rows].tobytes(), (chunk, name)
            want = terminal[alive] if compact else terminal
            assert batch.terminal.shape == want.shape
            assert batch.terminal.tobytes() == want.tobytes(), chunk

    @pytest.mark.parametrize("cfg", BUNDLED)
    def test_simulate_path_is_the_reference_row(self, cfg):
        model, _ = load_config(cfg, steps=3)
        xs, alive, _ = _row_major_walk(cfg, 0, CHUNK)
        for row in (0, CHUNK - 1):
            state = simulate_path(model, row, seed=7)
            assert state.values[0].tobytes() == model.spot.tobytes()
            want = np.exp(np.array([x[row] for x in xs[1:]]))
            assert state.values[1:].tobytes() == want.tobytes(), row
            assert state.alive_discrete == bool(alive[row])


def _standard_increments(model, chunk, rows, seed):
    """Each step's standardized log returns for one chunk's first ``rows`` paths,
    as a (steps, d, rows) array: the normals that drove them, correlated."""
    steps = []
    for kernel, x0, x1 in _walk(_plan(model), seed, chunk, _Rows(rows)):
        steps.append((x1 - x0 - kernel.drift) / kernel.vol)
    return np.array(steps)


class TestStream2:
    """Stream 2's contract: each (chunk, step) draws from its own keyed
    generator, and a row's normals sit at fixed positions in it."""

    def test_barrier_bump_keeps_every_terminal(self):
        """Common random numbers: moving a barrier moves which paths die, but
        no full-walk terminal price by a bit, and a knock-out walk, which
        drops the dead rows, keeps the alive rows' prices too."""
        base, _ = load_config("table4_d3", steps=8)
        r = base.regimes[0]
        bumped = MarketModel(
            spot=base.spot, rate=base.rate, grid=base.grid,
            regimes=Regime(mu=r.mu, sigma=r.sigma, corr=r.corr, lower=[90.0, 85.0, 80.0]),
        )
        n = CHUNK + 100
        plan, bumped_plan = _plan(base), _plan(bumped)
        for chunk in range(_n_chunks(n)):
            full = _compute_batch(plan, 21, chunk, n)
            moved = _compute_batch(bumped_plan, 21, chunk, n)
            assert moved.terminal.tobytes() == full.terminal.tobytes(), chunk
            assert moved.alive.tobytes() != full.alive.tobytes(), chunk
            compact = _compute_batch(bumped_plan, 21, chunk, n, compact=True)
            assert compact.terminal.tobytes() == full.terminal[moved.alive].tobytes(), chunk

    def test_adjacent_steps_and_chunks_uncorrelated(self):
        """Sample correlations of the normals of steps s and s+1 of one chunk,
        and of step s of chunks 0 and 1, are 0 within 4 se."""
        model = flat_model(d=2, sigma=0.3, rate=0.1, maturity=1.0, steps=4)
        first = _standard_increments(model, 0, CHUNK, seed=21)
        second = _standard_increments(model, 1, CHUNK, seed=21)
        pairs = [(first[s], first[s + 1]) for s in range(3)]
        pairs += [(first[s], second[s]) for s in range(4)]
        se = 1.0 / math.sqrt(first[0].size)
        for k, (a, b) in enumerate(pairs):
            corr = np.corrcoef(a.ravel(), b.ravel())[0, 1]
            assert abs(corr) <= 4.0 * se, (k, corr)

    def test_late_step_is_standard_normal(self):
        """The standardized log returns of step 64 of 64 look N(0,1): mean, var, skew."""
        model = flat_model(d=1, sigma=0.3, rate=0.1, maturity=1.0, steps=64)
        n = 200_000
        z = np.concatenate([
            _standard_increments(model, c, min(CHUNK, n - c * CHUNK), seed=21)[-1, 0]
            for c in range(_n_chunks(n))
        ])
        assert abs(z.mean()) <= 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)
        skew = float(np.mean(z**3))
        assert abs(skew) <= 4.0 * math.sqrt(6.0 / n)


class TestEngineMatchesIntervalWeights:
    def test_weights_are_products_of_interval_weights(self):
        """Each path's engine weights are the product over steps of the
        scalar interval weights on that path's sampled endpoints."""
        base, _ = load_config("table4_d3", steps=4)
        r = base.regimes[0]
        # asset 0 carries both a lower and an upper barrier
        regime = Regime(mu=r.mu, sigma=r.sigma, corr=r.corr, lower=r.lower,
                        upper=[150.0, None, None])
        model = MarketModel(spot=base.spot, rate=base.rate, grid=base.grid, regimes=regime)
        batches = list(path_batches(model, CHUNK + 40, seed=9))
        cols = {name: np.concatenate([getattr(b, name) for b in batches])
                for name in ("alive", "w_lower", "w_indep", "w_upper")}
        # the first three surviving paths and the first dead one of each chunk
        picked = []
        for first in (0, CHUNK):
            chunk = cols["alive"][first:first + CHUNK]
            picked += [first + int(i) for i in np.flatnonzero(chunk)[:3]]
            picked.append(first + int(np.flatnonzero(~chunk)[0]))
        for i in picked:
            state = simulate_path(model, i, seed=9)
            prods = {"w_lower": 1.0, "w_indep": 1.0, "w_upper": 1.0}
            for m in range(model.grid.n_steps):
                ctx = IntervalContext(state.values[m], state.values[m + 1],
                                      model.regimes[m], model.grid.dt(m))
                w = interval_weights(ctx)
                prods["w_lower"] *= w.p_lower
                prods["w_indep"] *= w.p_indep
                prods["w_upper"] *= w.p_upper
            for name, value in prods.items():
                assert cols[name][i] == pytest.approx(value, rel=1e-9, abs=1e-12), (i, name)
            assert bool(cols["alive"][i]) == state.alive_discrete


class TestStatisticalProperties:
    def test_discounted_terminal_mean_is_spot(self):
        """e^{-rT} E[S_i(T)] = S_i(0) for every asset, at 4 se."""
        corr = [[1.0, 0.6], [0.6, 1.0]]
        model = flat_model(d=2, sigma=0.25, rate=0.08, corr=corr, maturity=1.0, steps=2)
        n = 200_000
        disc = math.exp(-0.08)
        sums = np.zeros(2)
        sums_sq = np.zeros(2)
        for batch in path_batches(model, n, seed=12):
            x = disc * batch.terminal
            sums += x.sum(axis=0)
            sums_sq += (x * x).sum(axis=0)
        mean = sums / n
        se = np.sqrt((sums_sq / n - mean**2) / n)
        assert np.all(np.abs(mean - 100.0) <= 4.0 * se)

    def test_log_return_correlation(self):
        corr_target = 0.6
        corr = [[1.0, corr_target], [corr_target, 1.0]]
        model = flat_model(d=2, sigma=0.25, rate=0.08, corr=corr, maturity=1.0, steps=1)
        n = 200_000
        logs = []
        for batch in path_batches(model, n, seed=13):
            logs.append(np.log(batch.terminal / 100.0))
        sample = np.corrcoef(np.concatenate(logs).T)[0, 1]
        # se of a correlation estimate ~ (1 - rho^2)/sqrt(n)
        se = (1.0 - corr_target**2) / math.sqrt(n)
        assert abs(sample - corr_target) <= 4.0 * se

    def test_normal_marginals(self):
        """Standardized one-step log returns look N(0,1): mean, var, skew."""
        model = flat_model(d=1, sigma=0.3, rate=0.1, maturity=0.5, steps=1)
        n = 200_000
        zs = []
        for batch in path_batches(model, n, seed=14):
            x = np.log(batch.terminal[:, 0] / 100.0)
            z = (x - (0.1 - 0.045) * 0.5) / (0.3 * math.sqrt(0.5))
            zs.append(z)
        z = np.concatenate(zs)
        assert abs(z.mean()) <= 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)
        skew = float(np.mean(z**3))
        assert abs(skew) <= 4.0 * math.sqrt(6.0 / n)
