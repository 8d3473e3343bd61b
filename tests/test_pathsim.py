import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from treebolic import pathsim
from treebolic.analysis import ks_against_cdf, ks_two_sample
from treebolic.closed_forms import ModelParams
from treebolic.pathsim import (
    NumericalError,
    SimConfig,
    _advance,
    _Arrays,
    _coeffs,
    _DrawBlock,
    _drive,
    _observe,
    _observe_run,
    _quiet_rows,
    _replay,
    _tree_point,
    distance_to_origin,
    final_tree_points,
    first_exit_batch,
    rebuild_vertices,
    run_batch,
    simulate_path,
)
from treebolic.padic import PadicRational
from treebolic.skeleton import RngStream, _sojourn_law, run_skeleton, sample_tau_batch
from treebolic.space import HTParams, HTPoint, origin
from treebolic.tree import TreePoint, TreeVertex

BASE = ModelParams(2.0, 2, 1.0, 0.5)
DRIFTED = ModelParams(2.0, 2, 1.0, 1.0)
ROOT = TreeVertex.root(2)


class _FakeRng:
    """Deterministic draws: fixed normal values, uniform 0.9."""

    def __init__(self, z=0.0):
        self.z = z

    def standard_normal(self, size=None, out=None):
        if out is not None:
            out.fill(self.z)
            return out
        return np.full(size, self.z) if size is not None else self.z

    def random(self, size=None):
        return np.full(size, 0.9) if size is not None else 0.9


class _FlipX:
    """Wraps a generator, negating the abscissa normals: the one-dimensional
    normal draws, one per observation (the height normals come in 2-D
    blocks)."""

    def __init__(self, seed):
        self.g = np.random.default_rng(seed)

    def standard_normal(self, size=None, out=None):
        z = self.g.standard_normal(size, out=out)
        return -z if np.ndim(z) == 1 else z

    def random(self, size=None):
        return self.g.random(size)


def _walk(start, dirs, childs):
    """The oracle of the event replay: the vertex walk, start and then one
    predecessor or successor per event."""
    out = [start]
    for d, c in zip(dirs, childs):
        out.append(out[-1].successor(int(c)) if d > 0 else out[-1].predecessor())
    return out


class _Recording(_DrawBlock):
    """A draw block that keeps the uniforms handed out since the last reset."""

    taken: list

    def uniforms(self, k):
        u = super().uniforms(k)
        self.taken.append(u.copy())
        return u


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.02)
        with pytest.raises(ValueError):
            SimConfig(dt=1e-3, horizon=1e-4)
        with pytest.raises(ValueError):
            SimConfig(record_stride=0)
        for horizon in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                SimConfig(dt=1e-3, horizon=horizon)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, 0.05])
    @pytest.mark.parametrize("sampler", [first_exit_batch, sample_tau_batch])
    def test_samplers_check_the_step_size(self, sampler, dt):
        with pytest.raises(ValueError, match="dt must lie in"):
            sampler(BASE, 4, RngStream(1).generator(), dt=dt)


def _one_step(params, dt, rng, rel=0.0):
    """One kernel step of a single planar path anchored at the root line."""
    st = _Arrays(1, 0, rel)
    draws = _DrawBlock(rng)
    eids, dirs, _ = _advance(st, _coeffs(params, dt), draws.next(1), draws)
    return st, eids, dirs


class TestKernelStep:
    def test_deterministic_drift_only(self):
        # zero noise: the height moves by the drift, the abscissa stays put
        # while its variance accrues: q**(2 Y) at the pre-step height, in
        # units of 2 dt at level 0
        m = ModelParams(2.0, 2, 0.0, 1.0)  # drift (1 - 0)/log 2
        st, eids, _ = _one_step(m, 1e-3, _FakeRng(0.0), rel=-0.5)
        assert st.rel[0] == pytest.approx(-0.5 + 1e-3 / math.log(2.0))
        assert st.x[0] == 0.0
        assert st.xvar[0] == pytest.approx(2.0**-1.0)
        assert st.t[0] == pytest.approx(1e-3)
        assert eids.size == 0 and st.level[0] == 0 and np.sign(st.rel[0]) != 0

    def test_observation_draws_the_accrued_variance(self):
        co = _coeffs(BASE, 1e-3)
        st = _Arrays(2, 0, -0.5)
        st.xvar[:] = [0.25, 4.0]
        _observe(st, co, _FakeRng(1.5), np.array([1]))
        assert st.x.tolist() == [0.0, 1.5 * math.sqrt(2e-3 * 4.0)]
        assert st.xvar.tolist() == [0.25, 0.0]

    def test_observation_at_a_large_level(self):
        # q**(2 level) overflows at level 600 with q = 2; q**level does not
        co = _coeffs(BASE, 1e-3)
        st = _Arrays(1, 600, -0.5)
        st.xvar[:] = 1.0
        _observe(st, co, _FakeRng(1.0), np.array([0]))
        assert st.x[0] == pytest.approx(math.sqrt(2e-3) * 2.0**600)
        fe = first_exit_batch(BASE, 16, RngStream(21).generator(), dt=1e-3, start_level=600)
        assert np.isfinite(fe.x).all()

    def test_line_departure_bookkeeping(self):
        st, _, _ = _one_step(BASE, 1e-3, _FakeRng(1.0))  # uniform 0.9 > gamma: down
        assert np.sign(st.rel[0]) == -1
        rel = float(st.rel[0])
        assert rel == pytest.approx(-math.sqrt(2.0) / math.log(2.0) * math.sqrt(1e-3))
        w = _tree_point(ROOT, int(st.child[0]), rel)
        assert w == TreePoint(ROOT, 1.0 + rel)
        assert w.upper == ROOT  # the strip vertex

    def test_line_departure_carries_the_drift(self):
        m = ModelParams(2.0, 2, 0.0, 1.0)  # drift 1/log 2, gamma 2/3 < 0.9: down
        co = _coeffs(m, 1e-3)
        st, _, _ = _one_step(m, 1e-3, _FakeRng(1.0))
        assert st.rel[0] == pytest.approx(co.mu_dt - co.vol_sdt)
        # a down-departure the drift carries across the line starts an
        # up-excursion, in the branch (0.9 - gamma)/(1 - gamma) = 0.7 picks
        st, _, _ = _one_step(m, 1e-3, _FakeRng(0.5 * co.mu_dt / co.vol_sdt))
        assert st.rel[0] == pytest.approx(0.5 * co.mu_dt)
        assert np.sign(st.rel[0]) == 1 and st.child[0] == 1

    def test_numerical_guard(self):
        st = _Arrays(1, 0, -0.5)
        draws = _DrawBlock(_FakeRng(80.0))
        with pytest.raises(NumericalError):
            _advance(st, _coeffs(BASE, 1e-2), draws.next(1), draws)

    def test_sojourn_sampler_raises_on_a_two_level_step(self):
        with pytest.raises(NumericalError):
            first_exit_batch(BASE, 4, _FakeRng(80.0), dt=1e-2)

    def test_event_moves_anchor(self):
        st, eids, dirs = _one_step(BASE, 1e-3, _FakeRng(-1.0), rel=-0.999)
        assert eids.tolist() == [0] and dirs.tolist() == [-1]
        assert st.level[0] == -1 and st.n_events[0] == 1
        assert np.sign(st.rel[0]) == 0 and st.rel[0] == 0.0
        assert _walk(ROOT, dirs, st.child[eids])[-1] == ROOT.predecessor()


class TestDrawBlock:
    def test_compaction_keeps_each_paths_column(self):
        draws = _DrawBlock(np.random.default_rng(4))
        ids = np.arange(6)  # the path of each current slot
        rows = [(draws.next(6), ids)]
        block = draws.z.copy()  # 256 rows of 6 columns
        for keep in ([1, 0, 1, 1, 0, 1], [0, 1, 1, 1]):  # two compactions inside the block
            rows += [(draws.next(ids.size), ids) for _ in range(5)]
            keep = np.array(keep, bool)
            draws.compress(keep)
            ids = ids[keep]
        assert ids.tolist() == [2, 3, 5]
        # the unread rows, ending with the block
        assert np.array_equal(draws.ahead(1000), block[len(rows) :, ids])
        rows += [(draws.next(ids.size), ids) for _ in range(len(block) - len(rows))]
        # each surviving path read its own column to the end of the block
        for r, (row, cols) in enumerate(rows):
            assert np.array_equal(row, block[r, cols])
        # the next block is drawn at the surviving width
        after = draws.next(3)
        gen = np.random.default_rng(4)
        gen.standard_normal(block.shape)
        assert draws.z.shape == (256, 3) and np.array_equal(after, gen.standard_normal((256, 3))[0])


_PARAMS = hst.builds(
    ModelParams,
    q=hst.floats(1.05, 4.0),
    p=hst.integers(1, 4),
    alpha=hst.floats(-1.0, 3.0),
    beta=hst.floats(0.1, 5.0),
)


def _proposed_offsets(on_line, rel, co, z, u_side):
    """Where each path's offset would land before the line and boundary
    rules: a free Euler step, or a departure from the line plus the drift."""
    out = rel + (co.vol_sdt * z + co.mu_dt)
    dep = np.abs(z[on_line]) * co.vol_sdt
    out[on_line] = np.where(u_side < co.gamma, dep, -dep) + co.mu_dt
    return out


class TestKernelProperties:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        params=_PARAMS,
        dt=hst.floats(1e-5, 1e-2),
        seed=hst.integers(0, 2**32 - 1),
        rel=hst.sampled_from([0.0, -0.5, 0.9]),
    )
    def test_step_invariants(self, params, dt, seed, rel):
        n = 16
        co = _coeffs(params, dt)
        st = _Arrays(n, 0, rel)
        draws = _Recording(np.random.default_rng(seed))
        for _ in range(300):
            z = draws.next(n)
            draws.taken = []
            on_line, rel0, level, t = np.sign(st.rel) == 0, st.rel, st.level.copy(), st.t.copy()
            try:
                eids, dirs, quiet = _advance(st, co, z, draws)
                error = False
            except NumericalError:
                error = True
            # the guard fires exactly when a step would carry the height two
            # levels away from its anchor line; line departures take the
            # first uniforms of the step
            u_side = draws.taken[0] if on_line.any() else np.empty(0)
            too_far = bool(np.abs(_proposed_offsets(on_line, rel0, co, z, u_side)).max() >= 2.0)
            assert error == too_far
            if error:
                return
            if quiet:  # the plain Euler step for every path, with no draws
                assert not draws.taken and not eids.size and not (np.sign(st.rel) == 0).any()
                assert np.array_equal(st.rel, rel0 + (co.vol_sdt * z + co.mu_dt))
                assert np.all(np.abs(st.rel) <= 1.0 - co.near_cut)
            assert np.all(np.abs(st.rel) < 1.0)
            assert np.all(st.rel[np.sign(st.rel) == 0] == 0.0)
            child = st.child[np.sign(st.rel) > 0]
            assert np.all((child >= 0) & (child < params.p))
            assert np.all(np.abs(dirs) == 1)
            moved = st.level - level
            assert np.array_equal(moved[eids], dirs)
            moved[eids] = 0
            assert not moved.any()
            # clocks advance by at most dt, up to the rounding of t + dt
            ulp = 4.0 * np.spacing(st.t)
            assert np.all(st.t >= t - ulp) and np.all(st.t <= t + dt + ulp)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        params=_PARAMS.filter(lambda m: m.q >= 2.0),
        dt=hst.floats(1e-5, 1e-2),
        steps=hst.integers(1, 200),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_horizon_run_stops_within_a_step(self, params, dt, steps, seed):
        horizon = steps * dt
        run = run_batch(params, SimConfig(dt=dt, horizon=horizon), 8, np.random.default_rng(seed))
        assert np.all(run.t >= horizon) and np.all(run.t < horizon + dt)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        params=_PARAMS.filter(lambda m: m.q >= 2.0),
        dt=hst.floats(1e-4, 1e-2),
        steps=hst.integers(1, 200),
        width=hst.sampled_from([1, 2, 8]),
        before=hst.lists(hst.floats(0.0, 1.0, exclude_min=True, allow_subnormal=False), max_size=5, unique=True),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_a_checkpoint_at_the_horizon_is_the_final_state(self, params, dt, steps, width, before, seed):
        horizon = steps * dt
        cps = np.unique(np.append(np.asarray(before) * horizon, horizon))
        run = run_batch(params, SimConfig(dt=dt, horizon=horizon), width, np.random.default_rng(seed), checkpoints=cps)
        for f, a in run.state.items():
            assert a[:, -2].tobytes() == a[:, -1].tobytes() == getattr(run, f).tobytes(), f

    def test_a_finished_path_takes_no_more_steps(self, monkeypatch):
        # 50 steps to the horizon, not a multiple of the compaction interval;
        # a step is a kernel call or a row taken by the quiet pass
        clocks, rows = [], []

        def advance(st, *args):
            clocks.append(st.t.copy())
            rows.append(1)
            return _advance(st, *args)

        def quiet_rows(st, *args):
            clocks.append(st.t.copy())
            taken = _quiet_rows(st, *args)
            rows.append(taken[0])
            return taken

        monkeypatch.setattr(pathsim, "_advance", advance)
        monkeypatch.setattr(pathsim, "_quiet_rows", quiet_rows)
        run = run_batch(DRIFTED, SimConfig(dt=1e-3, horizon=0.05), 1, RngStream(23).generator())
        assert run.t[0] >= 0.05 and sum(rows) >= 50
        assert all(t.size == 1 and t[0] < 0.05 for t in clocks)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        dt=hst.floats(1e-4, 1e-2),
        steps=hst.integers(1, 200),
        grid=hst.one_of(
            # multiples of a spacing of stride * dt, as simulate_path sets them
            hst.tuples(hst.just("grid"), hst.sampled_from([1 / 3, 1.0, 2.0, 3.0])),
            hst.tuples(hst.just("random"), hst.lists(hst.floats(0.0, 1.0), max_size=40, unique=True)),
        ),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_checkpoint_states_are_the_first_at_or_after(self, dt, steps, grid, seed):
        horizon = steps * dt
        kind, value = grid
        if kind == "grid":
            cps = value * dt * np.arange(1, int(horizon / (value * dt)) + 2)
            cps = cps[cps <= horizon]
        else:
            cps = np.unique(np.asarray(value, dtype=float) * horizon)
        st = _Arrays(6, 0, 0.0)
        run = _drive(DRIFTED, dt, np.random.default_rng(seed), st, horizon=horizon, checkpoints=cps)
        t = run.state["t"][:, :-1]
        # a step adds at most dt: the first clock at or after cp is at most
        # cp + dt, which it reaches only by rounding
        assert np.all(t >= cps) and np.all(t <= cps + dt)
        assert np.all(np.diff(t, axis=1) >= 0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        params=_PARAMS.filter(lambda m: m.q >= 2.0),
        dt=hst.floats(1e-4, 5e-3),
        steps=hst.integers(1, 300),
        width=hst.integers(1, 300),
        level=hst.integers(-2, 3),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_final_event_counts_are_the_stream_counts(self, params, dt, steps, width, level, seed):
        # the replay of a path's final state takes its first n_events events
        st = _Arrays(width, level, 0.0)
        run = _drive(params, dt, np.random.default_rng(seed), st, horizon=steps * dt)
        assert np.array_equal(run.state["n_events"][:, -1], np.bincount(run.ev_path, minlength=width))



def _no_rows(st, co, draws, m):
    """The quiet pass, taking no rows: every step is a kernel call."""
    return _quiet_rows(st, co, draws, 0)


def _drive_with_and_without_the_pass(params, dt, make_rng, width, rel, horizon, cps, level=0):
    """Everything _drive keeps (bytewise) and the generator state after it,
    with the quiet pass and without, the rows the pass took and the cases
    its checkpoint observations met (see _OBSERVED)."""
    taken, met = [], set()

    def quiet_rows(*args):
        rows = _quiet_rows(*args)
        taken.append(rows[0])
        return rows

    def observe_run(st, co, rng, xvar, reached):
        rows, slots, passes, x = _observe_run(st, co, rng, xvar, reached)
        cases = (
            passes.max(initial=0) > 0,
            (rows == len(xvar) - 2).any(),
            0 < np.unique(slots).size < xvar.shape[1],
            (st.level[slots] != 0).any(),
        )
        met.update(case for case, seen in zip(_OBSERVED, cases) if seen)
        return rows, slots, passes, x

    kept = []
    for rows in (quiet_rows, _no_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pathsim, "_quiet_rows", rows)
            mp.setattr(pathsim, "_observe_run", observe_run)
            rng = make_rng()
            try:
                run = _drive(params, dt, rng, _Arrays(width, level, rel), horizon=horizon, checkpoints=cps)
            except NumericalError as exc:
                kept.append(repr(exc))
                continue
        arrays = {f: a for f, a in vars(run).items() if isinstance(a, np.ndarray)}
        arrays.update({"state " + f: a for f, a in run.state.items()})
        kept.append(({f: (a.dtype, a.shape, a.tobytes()) for f, a in arrays.items()}, rng.bit_generator.state))
    return kept[0], kept[1], sum(taken), met


#: what a quiet run's checkpoint observation can meet: a path reaching two
#: checkpoints in one row, a hit on the run's last row, a path with no hit
#: while another has one, and a path off level 0 (its abscissa scale is not 1)
_OBSERVED = ("two passes in a row", "a hit on the last row", "a path without a hit", "a hit off level 0")


def _row_by_row_observation(st, co, rng, xvar, reached):
    """The per-row loop that _observe_run replaces: at each row where some
    path reaches a checkpoint, sum the variances up to that row and observe
    once per checkpoint reached, one draw per pass."""
    xvar, a, hits = xvar.copy(), 0, {}
    reach = np.diff(reached, axis=0)
    passes = reach.max(axis=1).tolist()
    for r in np.flatnonzero(passes).tolist():
        np.cumsum(xvar[a : r + 2], axis=0, out=xvar[a : r + 2])
        st.xvar, a = xvar[r + 1], r + 1
        for j in range(passes[r]):
            h = np.flatnonzero(reach[r] > j)
            _observe(st, co, rng, h)
            hits.update({(r, s, j): x for s, x in zip(h.tolist(), st.x[h].tolist())})
    np.cumsum(xvar[a:], axis=0, out=xvar[a:])
    st.xvar = xvar[-1]
    return hits


class TestQuietPass:
    """_drive takes the rows on which every path is on the regular branch in
    one vectorized pass; it must keep what the kernel, row by row, keeps."""

    def test_the_pass_changes_nothing(self):
        one_path_rows, met = [], set()

        @settings(max_examples=60, deadline=None, derandomize=True)
        @given(
            params=_PARAMS.filter(lambda m: m.q >= 1.5),
            dt=hst.floats(1e-4, 1e-2),
            width=hst.sampled_from([1, 1, 2, 3, 8, 40]),
            rel=hst.sampled_from([0.0, 0.0, -0.5, 0.3]),
            level=hst.sampled_from([0, 0, -2, 3]),
            steps=hst.integers(20, 400),
            grid=hst.one_of(
                # spacing in units of dt; below 1, one row reaches two checkpoints
                hst.tuples(hst.just("grid"), hst.sampled_from([0.4, 1, 2, 3])),
                hst.tuples(hst.just("random"), hst.lists(hst.floats(0.0, 1.0), max_size=40, unique=True)),
            ),
            first_exit=hst.booleans(),
            seed=hst.integers(0, 2**32 - 1),
        )
        # two paths whose clocks part at line crossings: a quiet run past the
        # first one's horizon observes the other alone
        @example(
            params=DRIFTED, dt=1e-3, width=2, rel=0.0, level=0, steps=50, grid=("random", []), first_exit=False, seed=3
        )
        def check(params, dt, width, rel, level, steps, grid, first_exit, seed):
            horizon = steps * dt
            kind, value = grid
            if kind == "grid":  # multiples of stride * dt below the horizon, as simulate_path sets them
                cps = value * dt * np.arange(1, int(horizon / (value * dt)) + 2)
                cps = cps[cps < horizon]
            else:
                cps = np.unique(np.asarray(value, dtype=float) * horizon)
            if first_exit:  # it takes no checkpoints
                horizon, cps = None, None
                width = min(width, 8)  # a wide batch runs until its slowest first exit
            with_pass, without, taken, cases = _drive_with_and_without_the_pass(
                params, dt, lambda: np.random.default_rng(seed), width, rel, horizon, cps, level
            )
            assert with_pass == without
            met.update(cases)
            if width == 1:
                one_path_rows.append(taken)

        check()
        # not vacuous: the pass took rows in most one-path runs (a path can
        # stay near its line or the boundary for all of a short run), and
        # its checkpoint observations met every case
        assert sum(rows > 0 for rows in one_path_rows) > 0.8 * len(one_path_rows) > 0
        assert met == set(_OBSERVED)

    def test_one_draw_observes_as_the_row_loop(self):
        # random runs of up to 3 paths and 6 rows, each path reaching 0, 1
        # or 2 checkpoints in a row: the hits, abscissae, variances and the
        # generator state must equal the row loop's, bytewise
        gen = np.random.default_rng(5)
        co = _coeffs(DRIFTED, 1e-3)
        for seed in range(300):
            n, rows = int(gen.integers(1, 4)), int(gen.integers(1, 7))
            reach = gen.integers(0, 3, (rows, n)) * (gen.random((rows, n)) < 0.5)
            reached = np.cumsum(np.vstack((gen.integers(0, 3, n), reach)), axis=0)
            xvar = gen.random((rows + 1, n))
            outs = []
            for observe in (_row_by_row_observation, _observe_run):
                st = _Arrays(n, 0, 0.3)
                st.level[:] = np.arange(n) - 1
                st.x[:], st.xvar[:] = np.arange(n) * 0.25, xvar[0]
                rng = np.random.default_rng(seed)
                hits = observe(st, co, rng, xvar, reached)
                if observe is _observe_run:
                    r, s, j, x = hits
                    hits = dict(zip(zip(r.tolist(), s.tolist(), j.tolist()), x.tolist()))
                outs.append((hits, st.x.tobytes(), st.xvar.tobytes(), rng.bit_generator.state))
            assert outs[0] == outs[1]

    def test_the_pass_runs_on_past_a_finished_path(self):
        # line crossings cost two paths from the root line different
        # fractions of a step: one finishes rows before the other, whose
        # last rows still go through the pass
        dt, horizon, taken = 1e-3, 0.05, []

        def quiet_rows(st, *args):
            rows = _quiet_rows(st, *args)
            taken.append(rows[0] if st.t.max() >= horizon else 0)
            return rows

        kept = []
        for rows in (quiet_rows, _no_rows):
            rng = np.random.default_rng(3)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pathsim, "_quiet_rows", rows)
                run = _drive(DRIFTED, dt, rng, _Arrays(2, 0, 0.0), horizon=horizon)
            assert np.all(run.t >= horizon)
            kept.append(([getattr(run, f).tobytes() for f in ("t", "x", "rel")], rng.bit_generator.state))
        assert sum(taken) > 0
        assert kept[0] == kept[1]

    @pytest.mark.parametrize(
        "seed, dt, horizon", [(15, 7e-4, 0.5), (16, 1e-4, 0.3), (0, 7e-4, 0.5)]
    )
    def test_stride_one_rounding_cases(self, seed, dt, horizon):
        # one path, a checkpoint at every multiple of dt: one step may reach
        # two checkpoints by rounding, and the last may be the final state
        cps = dt * np.arange(1, int(horizon / dt) + 2)
        cps = cps[cps < horizon]
        with_pass, without, taken, _ = _drive_with_and_without_the_pass(
            DRIFTED, dt, RngStream(seed).generator, 1, 0.0, horizon, cps
        )
        assert with_pass == without
        assert taken > 0.5 * horizon / dt


class TestSymmetries:
    def test_reflection_pairing(self):
        cfg = SimConfig(dt=2e-4, horizon=0.5)
        a = run_batch(BASE, cfg, 64, np.random.default_rng(42))
        b = run_batch(BASE, cfg, 64, _FlipX(42))
        assert (a.y == b.y).all()
        assert (a.level == b.level).all()
        assert (a.ev_path == b.ev_path).all() and (a.ev_dir == b.ev_dir).all()
        assert np.allclose(a.x, -b.x)

    def test_translation_equivariance(self):
        # the kernel runs on the displacement: a start abscissa moves no draw
        a = first_exit_batch(BASE, 64, np.random.default_rng(1), dt=2e-4, start_x=0.0)
        b = first_exit_batch(BASE, 64, np.random.default_rng(1), dt=2e-4, start_x=5.0)
        assert a.tau.tobytes() == b.tau.tobytes() and a.dx.tobytes() == b.dx.tobytes()
        assert np.array_equal(b.x, 5.0 + b.dx) and np.array_equal(a.x, a.dx)
        assert a.pulled_back_x().tobytes() == b.pulled_back_x().tobytes()

    def test_determinism(self):
        cfg = SimConfig(dt=5e-4, horizon=0.3)
        a = run_batch(DRIFTED, cfg, 32, RngStream(3, 1).generator())
        b = run_batch(DRIFTED, cfg, 32, RngStream(3, 1).generator())
        assert (a.x == b.x).all() and (a.y == b.y).all()
        assert (a.ev_time == b.ev_time).all()


class TestFirstExit:
    def test_matches_skeleton_sampler(self):
        n = 4000
        fe = first_exit_batch(BASE, n, RngStream(4, 0).generator(), dt=5e-4)
        tau, side = sample_tau_batch(BASE, n, RngStream(4, 1).generator())
        assert ks_two_sample(fe.tau, tau).statistic < 0.04
        p1, p2 = np.mean(fe.side == 1), np.mean(side == 1)
        assert abs(p1 - p2) <= 3 * math.sqrt(0.5 * 2 / n)

    def test_line_start_matches_the_exact_law(self):
        n = 4000
        tau = first_exit_batch(BASE, n, RngStream(4, 2).generator(), dt=5e-4).tau
        law = _sojourn_law(BASE)
        cdf = lambda t: 0.0 if t < law.t_min else 1.0 - law.survival(t)[0]  # noqa: E731
        assert ks_against_cdf(tau, cdf).statistic < 0.04

    def test_interior_start_mean(self):
        # beta p = 1 removes the line weight, so from y0 the exit time of the
        # interval [-1, 1] has mean (1 - y0) (y0 + 1) / vol^2
        n = 20000
        y0 = 0.5
        run = _drive(BASE, 5e-4, RngStream(12).generator(), _Arrays(n, 0, y0))
        tau, side = run.t, run.level
        vol2 = 2.0 / math.log(2.0) ** 2
        expected = (1.0 - y0) * (y0 + 1.0) / vol2
        se = tau.std(ddof=1) / math.sqrt(n)
        assert abs(tau.mean() - expected) <= max(4 * se, 0.03 * expected)
        # exit side of driftless diffusion from y0: P[+1] = (y0 + 1)/2; the
        # coarse dt used here leaves an O(sqrt dt) bias on top of the noise
        assert abs(np.mean(side == 1) - 0.75) <= 3 * math.sqrt(0.1875 / n) + 0.012

    def test_side_tau_independence(self):
        n = 20000
        fe = first_exit_batch(DRIFTED, n, RngStream(11).generator(), dt=5e-4)
        corr = np.corrcoef(fe.tau, fe.side)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(n)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_up_exits_choose_uniform_children(self, p):
        n = 4000
        fe = first_exit_batch(ModelParams(2.0, p, 1.0, 0.5), n, RngStream(5, p - 2).generator(), dt=5e-4)
        up = fe.side == 1
        share = np.bincount(fe.child[up], minlength=p) / up.sum()
        assert share.size == p
        assert np.all(np.abs(share - 1.0 / p) <= 3 * math.sqrt((1.0 / p) * (1 - 1.0 / p) / up.sum()))

    def test_branches_beyond_the_int16_range(self):
        p = 40000
        fe = first_exit_batch(ModelParams(2.0, p, 1.0, 1.0), 2000, RngStream(6).generator(), dt=1e-3)
        assert np.all((fe.child >= 0) & (fe.child < p))
        assert fe.line_masses().sum() == pytest.approx(1.0)
        run = run_batch(ModelParams(2.0, p, 1.0, 1.0), SimConfig(dt=1e-3, horizon=2.0), 20, RngStream(7).generator())
        assert run.ev_child.size and np.all((run.ev_child >= 0) & (run.ev_child < p))
        assert len(final_tree_points(run)) == 20

    def test_a_first_exit_run_takes_no_checkpoints(self):
        with pytest.raises(ValueError, match="checkpoints need a horizon"):
            _drive(BASE, 1e-3, RngStream(1).generator(), _Arrays(2, 0, 0.0), checkpoints=[0.1])

    def test_a_branch_number_beyond_int32_is_refused(self):
        with pytest.raises(ValueError, match=r"2\*\*31"):
            first_exit_batch(ModelParams(2.0, 2**31, 1.0, 1.0), 4, RngStream(1).generator(), dt=1e-3)


class TestHorizonRuns:
    def test_height_marginal_without_lines(self):
        # p = 1, beta = 1: the line condition is invisible, so the height is
        # a plain drifted Brownian motion; the scheme's bias is O(sqrt dt)
        m = ModelParams(2.0, 1, 0.0, 1.0)
        t, dt = 1.0, 1e-3
        run = run_batch(m, SimConfig(dt=dt, horizon=t), 16000, RngStream(8).generator())
        mean_target = (1.0 - m.alpha) / m.log_q * t
        var_target = 2.0 / m.log_q**2 * t
        y = run.y
        se_mean = math.sqrt(var_target / y.size)
        assert abs(y.mean() - mean_target) <= 3 * se_mean + math.sqrt(dt)
        se_var = var_target * math.sqrt(2.0 / y.size)
        assert abs(y.var(ddof=1) - var_target) <= 3 * se_var + 0.1

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_abscissa_second_moment_without_lines(self, alpha):
        # p = 1, beta = 1: with Y a drifted Brownian motion,
        # E x_t^2 = 2 int_0^t E q^(2 Y_s) ds = 2 (e^(c t) - 1)/c, c = 2 log q mu + 4
        m = ModelParams(2.0, 1, alpha, 1.0)
        n, cp, horizon = 40000, 0.125, 0.25
        run = run_batch(
            m, SimConfig(dt=1e-3, horizon=horizon), n, RngStream(20, int(alpha)).generator(),
            checkpoints=[cp],
        )
        mu = (1.0 - alpha) / m.log_q
        c = 2.0 * m.log_q * mu + 4.0

        def second_moment(t):
            return 2.0 * (np.exp(c * t) - 1.0) / c

        x_cp = run.checkpoint_x[:, 0]
        for sample, target in (
            (x_cp**2, second_moment(cp)),
            (run.x**2, second_moment(run.t).mean()),
            ((run.x - x_cp) ** 2, (second_moment(run.t) - second_moment(cp)).mean()),
        ):
            assert abs(sample.mean() - target) <= 4 * sample.std() / math.sqrt(n)

    def test_event_clock_increments_match_sojourn_law(self):
        run = run_batch(
            ModelParams(2.0, 2, 1.0, 0.75),
            SimConfig(dt=5e-4, horizon=6.0),
            400,
            RngStream(9).generator(),
        )
        order = np.argsort(run.ev_path, kind="stable")
        path_sorted = run.ev_path[order]
        time_sorted = run.ev_time[order]
        gaps = np.diff(time_sorted)
        same = np.diff(path_sorted) == 0
        increments = np.concatenate(
            [time_sorted[np.searchsorted(path_sorted, np.arange(run.n_paths))],
             gaps[same]]
        )
        tau, _ = sample_tau_batch(ModelParams(2.0, 2, 1.0, 0.75), 8000, RngStream(10).generator())
        assert ks_two_sample(increments, tau).statistic < 0.035

    def test_event_counter_and_levels(self):
        run = run_batch(DRIFTED, SimConfig(dt=5e-4, horizon=2.0), 200, RngStream(11).generator())
        counts = np.bincount(run.ev_path, minlength=run.n_paths)
        assert (counts == run.n_events).all()
        # every path's final anchor level equals its net event direction sum
        for i in range(run.n_paths):
            sel = run.ev_path == i
            assert run.level[i] == run.ev_dir[sel].sum()
        assert (run.t >= 2.0).all() and (run.t < 2.0 + 5e-4).all()

    def test_final_tree_points_consistent(self):
        run = run_batch(DRIFTED, SimConfig(dt=5e-4, horizon=2.0), 100, RngStream(12).generator())
        points = final_tree_points(run)
        for i, w in enumerate(points):
            assert w.hor == pytest.approx(run.y[i])

    def test_final_tree_points_from_the_start_level(self):
        run = _drive(DRIFTED, 1e-3, np.random.default_rng(1), _Arrays(5, 2, 0.0), horizon=0.5)
        start = TreeVertex(PadicRational.zero(2), 2)
        for i, w in enumerate(final_tree_points(run)):
            assert w.hor == pytest.approx(run.y[i])
            sel = run.ev_path == i
            anchor = _walk(start, run.ev_dir[sel], run.ev_child[sel])[-1]
            assert anchor.level == run.level[i]
            assert w == _tree_point(anchor, int(run.child[i]), float(run.rel[i]))

    def test_checkpoint_tree_points(self):
        dt = 5e-4
        run = run_batch(
            DRIFTED, SimConfig(dt=dt, horizon=2.0), 100, RngStream(22).generator(),
            checkpoints=[1.0, 2.0],
        )
        cs = run.state
        t_cp = cs["t"][:, 0]
        assert (t_cp >= 1.0).all() and (t_cp < 1.0 + dt).all()
        # oracle: replay each path's events up to its checkpoint clock
        for i, w in enumerate(final_tree_points(run, checkpoint=0)):
            sel = (run.ev_path == i) & (run.ev_time <= t_cp[i])
            anchor = _walk(ROOT, run.ev_dir[sel], run.ev_child[sel])[-1]
            rel = float(cs["rel"][i, 0])
            assert w == _tree_point(anchor, int(cs["child"][i, 0]), rel)
            assert w.hor == pytest.approx(cs["level"][i, 0] + rel)
        # a checkpoint at the horizon is the final state
        assert final_tree_points(run, checkpoint=1) == final_tree_points(run)
        assert (run.checkpoint_x[:, 1] == run.x).all()

    def test_replay_rejects_events_out_of_time_order(self):
        run = run_batch(DRIFTED, SimConfig(dt=5e-4, horizon=2.0), 20, RngStream(18).generator())
        i, j = np.nonzero(run.ev_path == run.ev_path[0])[0][:2]
        swap = np.arange(run.ev_path.size)
        swap[[i, j]] = [j, i]
        swapped = dataclasses.replace(
            run, ev_dir=run.ev_dir[swap], ev_child=run.ev_child[swap], ev_time=run.ev_time[swap]
        )
        final_tree_points(run)
        with pytest.raises(ValueError, match="time order"):
            final_tree_points(swapped)

    def test_checkpoint_recording(self):
        run = run_batch(
            BASE,
            SimConfig(dt=1e-3, horizon=1.0),
            50,
            RngStream(13).generator(),
            checkpoints=[0.25, 0.5],
        )
        assert run.checkpoint_x.shape == (50, 2)
        # a NaN would run to the iteration budget, and a checkpoint at or
        # below 0 would keep the state after the first step
        for bad in ([0.5, 0.25], [math.nan], [0.0, 0.5], [-1.0, 0.5]):
            with pytest.raises(ValueError):
                run_batch(
                    BASE,
                    SimConfig(dt=1e-3, horizon=1.0),
                    4,
                    RngStream(14).generator(),
                    checkpoints=bad,
                )


class TestTrajectories:
    def test_records_structure(self):
        cfg = SimConfig(dt=1e-3, horizon=0.25, record_stride=20)
        recs = simulate_path(BASE, cfg, RngStream(15).generator())
        assert recs[0].t == 0.0 and recs[0].vertex == ROOT
        assert recs[-1].t >= cfg.horizon
        ts = [r.t for r in recs]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        ns = [r.n_events for r in recs]
        assert all(b >= a for a, b in zip(ns, ns[1:]))
        assert all(r.dist is None for r in recs)

    def test_distance_column(self):
        cfg = SimConfig(dt=1e-3, horizon=0.05, record_stride=10)
        recs = simulate_path(BASE, cfg, RngStream(16).generator(), with_distance=True)
        assert recs[0].dist == 0.0
        assert all(r.dist >= 0.0 for r in recs)

    @pytest.mark.parametrize(
        "dt, horizon, stride, seed, dropped",
        [
            (1e-4, 0.3, 2, 1, 0),  # a horizon that is a multiple of stride * dt
            (7e-4, 0.5, 1, 0, 1),  # the last checkpoint state is the final state
            (7e-4, 0.5, 1, 15, 1),  # one step reaches two checkpoints, by rounding
            (1e-4, 0.3, 1, 16, 2),
        ],
    )
    def test_records_are_the_checkpoint_states_of_a_one_path_batch(self, dt, horizon, stride, seed, dropped):
        cfg = SimConfig(dt=dt, horizon=horizon, record_stride=stride)
        recs = simulate_path(DRIFTED, cfg, RngStream(seed).generator())
        step = stride * dt
        cps = step * np.arange(1, int(horizon / step) + 2)
        cps = cps[cps < horizon]
        run = run_batch(
            DRIFTED, SimConfig(dt=dt, horizon=horizon), 1, RngStream(seed).generator(), checkpoints=cps
        )
        cs = {f: a[0, :-1] for f, a in run.state.items()}
        ts = [r.t for r in recs]
        assert ts[0] == 0.0 and recs[0].vertex == ROOT
        assert all(b > a for a, b in zip(ts, ts[1:]))
        # the start, each distinct checkpoint state before the horizon, the end
        assert len(recs) == cps.size + 2 - dropped
        assert ts[1:-1] == sorted(set(cs["t"][cs["t"] < horizon].tolist()))
        if not dropped:
            k = np.arange(1, cps.size + 1)
            inner = np.array(ts[1:-1])
            assert np.all((inner >= k * step) & (inner < k * step + dt))
        for r in recs[1:-1]:
            j = int(np.searchsorted(cs["t"], r.t))
            assert (r.x, r.y, r.n_events) == (cs["x"][j], cs["level"][j] + cs["rel"][j], cs["n_events"][j])
            assert r.vertex == final_tree_points(run, checkpoint=j)[0].upper
        end = recs[-1]
        assert (end.t, end.x, end.y, end.n_events) == (run.t[0], run.x[0], run.y[0], run.n_events[0])
        assert end.vertex == final_tree_points(run)[0].upper

    def test_trajectory_end_matches_a_one_path_batch(self):
        # with no record inside the run, simulate_path draws what a one-path
        # run_batch draws, so its vertex replay and the batch's integer
        # replay must end at the same point
        m = ModelParams(2.0, 3, 0.5, 1.0)
        dt, horizon = 1e-3, 3.0
        cfg = SimConfig(dt=dt, horizon=horizon, record_stride=10 * round(horizon / dt))
        last = simulate_path(m, cfg, RngStream(5).generator(), with_distance=True)[-1]
        run = run_batch(m, SimConfig(dt=dt, horizon=horizon), 1, RngStream(5).generator())
        w = final_tree_points(run)[0]
        assert last.n_events == run.n_events[0] > 10
        assert (last.t, last.x, last.y) == (run.t[0], run.x[0], run.y[0])
        assert last.vertex == w.upper
        assert last.dist == distance_to_origin(m, run.x[0], w)


def test_rebuild_vertices():
    vs = rebuild_vertices(2, [1, 1, -1], [0, 1, 0])
    assert [v.hor for v in vs] == [0, 1, 2, 1]
    assert vs[-1] == vs[1]


@settings(max_examples=200, deadline=None)
@given(
    p=hst.integers(1, 4),
    level=hst.integers(-6, 6),
    num=hst.integers(0, 10**6),
    denom=hst.integers(0, 8),
    moves=hst.lists(hst.tuples(hst.sampled_from([-1, 1]), hst.integers(0, 3)), max_size=80),
    data=hst.data(),
)
def test_replay_matches_the_oracle_walk(p, level, num, denom, moves, data):
    start = TreeVertex(PadicRational(p, num if p > 1 else 0, denom), level)
    dirs = [d for d, _ in moves]
    childs = [c % p for _, c in moves]
    walk = _walk(start, dirs, childs)
    # counts anywhere in the sequence, repeated or not, and its two ends
    counts = sorted(data.draw(hst.lists(hst.integers(0, len(dirs)), min_size=1, max_size=6)))
    assert _replay(start, dirs, childs, counts) == [walk[n] for n in counts]
    assert _replay(start, dirs, childs, [0, len(dirs)]) == [start, walk[-1]]
    assert _replay(start, dirs, childs, range(len(dirs) + 1)) == walk


@pytest.mark.parametrize("params", [DRIFTED, ModelParams(2.0, 3, 2.5, 0.5), ModelParams(1.5, 1, 1.0, 1.0)])
def test_skeleton_vertices_are_the_oracle_walk(params):
    # run_skeleton draws its sojourns and sides, then one branch per step
    states = run_skeleton(params, 300, RngStream(19).generator())
    rng = RngStream(19).generator()
    _, sides = sample_tau_batch(params, 300, rng)
    branches = rng.integers(params.p, size=300)
    assert [s.vertex for s in states] == _walk(TreeVertex.root(params.p), sides, branches)


def test_the_side_is_the_sign_of_the_offset():
    # a short coarse run leaves some paths on their line
    run = run_batch(DRIFTED, SimConfig(dt=1e-2, horizon=0.5), 300, RngStream(24).generator())
    rel = run.state["rel"][:, -1]
    assert run.side.dtype == np.int8 and np.array_equal(run.side, np.sign(rel))
    assert np.array_equal(run.side == 0, rel == 0.0)
    assert (run.side == 0).any() and (run.side > 0).any() and (run.side < 0).any()
    # on the line at the anchor, above it in the recorded branch, below it
    # on the anchor's lower edge
    assert _tree_point(ROOT, 1, 0.0) == TreePoint.at_vertex(ROOT)
    assert _tree_point(ROOT, 1, 0.25) == TreePoint(ROOT.successor(1), 0.25)
    assert _tree_point(ROOT, 1, -0.25) == TreePoint(ROOT, 0.75)


def test_origin_state_roundtrip():
    st = _Arrays(1, 0, 0.0)
    w = _tree_point(ROOT, int(st.child[0]), float(st.rel[0]))
    assert HTPoint(float(st.x[0]), w) == origin(HTParams(2.0, 2))
    assert w.upper == ROOT
