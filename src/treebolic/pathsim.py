"""Euler simulation of the full two-dimensional diffusion on the glued strips.

The height is simulated in level units (the vertical drift and noise are
state independent there, and the gluing lines sit at integers); the abscissa
keeps its raw scale, with volatility sqrt(2) q**Y per the half-plane factor
of the generator, evaluated at the pre-step height.  Per step:

    dY = (1 - alpha)/log q dt + (sqrt 2 / log q) dB2
    dx = sqrt 2 * q**Y dB1

State is anchored at the last-touched line: a path stores that line's level,
the height offset rel in (-1, 1) relative to it, and which side of the line
(and, going up, which of the p forward branches) the current excursion
occupies.  When the offset reaches +-1 the path commits to a neighboring
line: that is a skeleton event, the anchor moves, and the event is recorded
so the tree position can be replayed afterwards.

Line touches and boundary hits are interpolated inside the step, which then
counts for its fraction of dt; a Brownian-bridge test catches steps that
crossed +-1 in between.  A departure from a line moves |N(0, 2 dt / log^2 q)|
up with probability gamma = beta p/(beta p + 1), else down, plus the drift,
which may carry it across the line; its uniform, rescaled within its side,
picks the branch.

Only the height noise is drawn on every step.  Given the height path the
abscissa increments are independent centred Gaussians, so a path accrues
their variance and draws one normal when its abscissa is read (an event, a
checkpoint or the horizon): exact in law for the Euler scheme.
The side and bridge uniforms come from a shared pool, one per path on a line
or near a boundary.

The kernel's abscissa is a displacement from 0, whose law the isometries
of HT(q, p) make independent of the start abscissa: a first-exit sample
adds that only where its abscissae are read.

One kernel, `_advance`, takes every Euler step, and one batch loop, `_drive`,
runs it to a fixed horizon (`run_batch`; `simulate_path` is a one-path run
checkpointed every record_stride * dt) or to each path's first skeleton
event (`first_exit_batch`).  The loop hands back what it kept, as a
`BatchRun`: one store with each path's state at each checkpoint and, in its
last column, the final state (the horizon, or a first exit's event), and,
at a horizon, the event stream.  Tree vertices are replayed afterwards from
the event stream, by one walk on integers (`_replay`) that yields the anchor
after any requested event count.

Inside a strip, away from its lines and boundary, the kernel is a plain
drifted Brownian step: three additions and no uniforms.  After a step on
which every path took that regular branch, the loop takes the next rows of
the draw block in one vectorized pass (`_quiet_rows`: running sums of the
offsets, clocks and abscissa variances) for as long as every path stays
regular, also past the horizon of a finished path.  Running sums add in the
kernel's order, and the checkpoints reached inside the pass, the horizon
among them, are observed in one draw (`_observe_run`) whose normals go to
them in the order the loop would draw them, so every output and the
generator's state are bit-identical.  A one-path trajectory takes most of
its steps this way.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .closed_forms import ModelParams, prob_up
from .padic import PadicRational
from .space import HTParams, HTPoint, ht_distance, origin
from .tree import TreePoint, TreeVertex

#: Largest step size the kernel is run at.
MAX_DT = 1e-2

_SNAP = 1e-12
_HARD_ITER_CAP = 1_000_000_000
_BLOCK = 256
_POOL = 16384
_COMPACT_EVERY = 64


class NumericalError(RuntimeError):
    """The height moved by a whole level in one step: dt is too large."""


def check_dt(dt: float) -> None:
    """Reject a step size the kernel is not run at."""
    if not 0.0 < dt <= MAX_DT:
        raise ValueError(f"dt must lie in (0, {MAX_DT:g}]")


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon and recording cadence for path runs."""

    dt: float = 1e-4
    horizon: float = 1.0
    record_stride: int = 1

    def __post_init__(self):
        check_dt(self.dt)
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least dt")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class _Coeffs:
    dt: float
    mu_dt: float
    vol_sdt: float
    bridge_rate: float  # -2 / (the height variance of one step)
    x_scale: float
    two_log_q: float
    gamma: float
    p: int
    near_cut: float  # distance from the boundary below which the bridge test runs


def _coeffs(params: ModelParams, dt: float) -> _Coeffs:
    if params.p >= 2**31:
        raise ValueError(f"p must be below 2**31, the int32 limit of a branch number, got {params.p}")
    log_q = params.log_q
    vol_sdt = math.sqrt(2.0) / log_q * math.sqrt(dt)
    return _Coeffs(
        dt=dt,
        mu_dt=(1.0 - params.alpha) / log_q * dt,
        vol_sdt=vol_sdt,
        bridge_rate=-2.0 / (vol_sdt * vol_sdt),
        x_scale=math.sqrt(2.0 * dt),
        two_log_q=2.0 * log_q,
        gamma=params.beta * params.p / (params.beta * params.p + 1.0),
        p=params.p,
        near_cut=min(5.0 * vol_sdt, 0.5),
    )


class _Arrays:
    """Mutable per-path state: anchor level, offset, clock, excursion side
    (0 on the line) and branch, events so far, the abscissa displacement at
    its last observation and the variance accrued since, in units of
    2 dt q**(2 level)."""

    __slots__ = ("t", "x", "level", "rel", "side", "child", "n_events", "xvar")

    def __init__(self, n: int, level: int, rel: float):
        self.level = np.full(n, level, dtype=np.int64)
        self.rel = np.full(n, float(rel))
        self.t = np.zeros(n)
        self.side = np.full(n, np.sign(rel), dtype=np.int8)
        self.child = np.zeros(n, dtype=np.int32)
        self.n_events = np.zeros(n, dtype=np.int64)
        self.x = np.zeros(n)
        self.xvar = np.zeros(n)

    def compress(self, keep: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[keep])


class _DrawBlock:
    """Pre-drawn noise, to amortize generator call overhead.  The height
    normals, read by every path on every step, come in blocks of rows, less
    deep for wide batches.  Each path reads its own column to the end of the
    block, so compaction, which narrows the index from the current paths to
    their columns, moves no noise; the next block has the surviving width.
    The side and bridge uniforms, read only on a line or near a boundary,
    come in order from a pool.

    Each block is drawn into the front of one buffer, grown only when a
    block outsizes it: blocks are megabytes, and freeing and reallocating
    them around the allocator's mmap threshold makes the peak memory depend
    on the heap layout of the process."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buf = np.empty(0)
        self.z = np.empty((0, 0))
        self.cols = slice(None)  # each current path's column of z
        self.pool = np.empty(0)
        self.i = self.j = 0

    def next(self, n: int) -> np.ndarray:
        """The height normals of the next step of the n current paths."""
        if self.i >= self.z.shape[0]:
            size = max(8, min(_BLOCK, 2_000_000 // n)) * n
            if self.buf.size < size:
                self.buf = np.empty(size)
            self.z = self.buf[:size].reshape(-1, n)
            self.rng.standard_normal(out=self.z)
            self.i, self.cols = 0, slice(None)
        self.i += 1
        return self.z[self.i - 1, self.cols]

    def ahead(self, m: int) -> np.ndarray:
        """The next m unread rows, or fewer at the block's end; not taken."""
        return self.z[self.i : self.i + m, self.cols]

    def uniforms(self, k: int) -> np.ndarray:
        if self.j + k > self.pool.size:
            self.pool = self.rng.random(max(k, _POOL))
            self.j = 0
        self.j += k
        return self.pool[self.j - k : self.j]

    def compress(self, keep: np.ndarray) -> None:
        self.cols = np.arange(self.z.shape[1])[self.cols][keep]


def _observe(st: _Arrays, co: _Coeffs, rng: np.random.Generator, loc: np.ndarray) -> None:
    """Bring the abscissae at loc up to their clocks: one normal each, with
    the variance accrued since the last observation."""
    sd = np.sqrt(st.xvar[loc]) * np.exp(0.5 * co.two_log_q * st.level[loc])
    st.x[loc] += co.x_scale * sd * rng.standard_normal(sd.size)
    st.xvar[loc] = 0.0


def _advance(st: _Arrays, co: _Coeffs, z: np.ndarray, draws: _DrawBlock):
    """One synchronized Euler step over all paths, with height normals z and
    the side and bridge uniforms taken from draws.

    Returns (event_ids, event_dirs, quiet): the paths that committed to a
    new line this step, the direction they moved, and whether every path
    took the regular branch (off the lines, no crossing, none near the
    boundary).  Everything else in st is updated in place."""
    rel0 = st.rel
    new_rel = rel0 + (co.vol_sdt * z + co.mu_dt)

    lin = np.nonzero(st.side == 0)[0]
    if lin.size:
        u = draws.uniforms(lin.size)
        # up with probability gamma, then the drift
        dep = np.copysign(np.abs(z[lin]), co.gamma - u) * co.vol_sdt + co.mu_dt
        new_rel[lin] = dep
        st.side[lin] = np.sign(dep)  # the drift may carry it across the line
        # within its side u is uniform again: rescaled, it picks the branch
        v = np.where(u < co.gamma, u / co.gamma, (u - co.gamma) / (1.0 - co.gamma))
        st.child[lin] = np.minimum(v * co.p, co.p - 1)

    # crossed the anchor line, or landed within _SNAP of it (side = sign of rel0)
    absn = np.abs(new_rel)
    crossed = new_rel * st.side < _SNAP
    if lin.size:
        crossed[lin] = False

    # paths at or near the boundary: events, or the bridge test, which asks
    # whether an inside-to-inside step crossed the boundary in between
    cand = np.nonzero(absn > 1.0 - co.near_cut)[0]
    if cand.size and absn[cand].max() >= 2.0:
        raise NumericalError("height moved more than one level in one step")
    cand = cand[~crossed[cand]]
    reached = absn[cand] >= 1.0
    hid, nid = cand[reached], cand[~reached]
    if nid.size:
        gap = 1.0 - np.sign(new_rel[nid]) * rel0[nid]
        gap *= 1.0 - absn[nid]
        fired = draws.uniforms(nid.size) < np.exp(gap * co.bridge_rate)
        bridge_ids = nid[fired]
    else:
        bridge_ids = nid

    # clock and abscissa variance (in units of 2 dt q**(2 level)); split
    # steps end at their fraction of the step and accrue that fraction
    w = np.exp(co.two_log_q * rel0)
    st.t += co.dt
    cid = np.nonzero(crossed)[0]
    if cid.size:
        frac = np.minimum(rel0[cid] / (rel0[cid] - new_rel[cid]), 1.0)
        st.t[cid] -= co.dt * (1.0 - frac)
        w[cid] *= frac
    if hid.size:
        tgt = np.sign(new_rel[hid])
        frac = (tgt - rel0[hid]) / (new_rel[hid] - rel0[hid])
        st.t[hid] -= co.dt * (1.0 - frac)
        w[hid] *= frac
    if bridge_ids.size:
        st.t[bridge_ids] -= 0.5 * co.dt
        w[bridge_ids] *= 0.5
    st.xvar += w

    st.rel = new_rel
    if cid.size:
        new_rel[cid] = 0.0
        st.side[cid] = 0
    event_ids = np.sort(np.concatenate([hid, bridge_ids])) if hid.size else bridge_ids
    if not event_ids.size:
        return event_ids, event_ids, not (lin.size or cand.size or cid.size)
    dirs = np.where(new_rel[event_ids] > 0, 1, -1)
    new_rel[event_ids] = 0.0
    st.side[event_ids] = 0
    st.level[event_ids] += dirs
    st.n_events[event_ids] += 1
    st.xvar[event_ids] *= np.exp(-co.two_log_q * dirs)
    return event_ids, dirs, False


def _quiet_rows(st: _Arrays, co: _Coeffs, draws: _DrawBlock, m: int):
    """The kernel's regular branch over the leading unread rows of draws (at
    most m) on which every path takes it: none on a line (the caller's
    condition), crossing its anchor line or within near_cut of the boundary.
    The rows may reach checkpoints, the horizon among them, and run on past
    it for a finished path.  Returns the number of rows taken, the offsets
    and clocks before each row and after the last, and the abscissa variance
    of each row; np.cumsum adds along axis 0 one row at a time, as the
    kernel does.

    The window is max(1, _COMPACT_EVERY // n) rows, zero-padded past the
    block's end: runs are long for one path and short for wide batches, and
    one shape per width lets numpy reuse its freed small blocks."""
    window = np.zeros((max(1, _COMPACT_EVERY // st.t.size), st.t.size))
    z = draws.ahead(min(m, len(window)))
    window[: len(z)] = z
    rel = np.cumsum(np.vstack((st.rel, co.vol_sdt * window + co.mu_dt)), axis=0)
    t = np.cumsum(np.vstack((st.t, np.full(window.shape, co.dt))), axis=0)
    new = rel[1:]
    ok = ((new * st.side >= _SNAP) & (np.abs(new) <= 1.0 - co.near_cut)).all(axis=1)
    ok[len(z) :] = False
    taken = ok.size if ok.all() else int(ok.argmin())
    return taken, rel, t, np.exp(co.two_log_q * rel[:-1])


def _observe_run(st: _Arrays, co: _Coeffs, rng: np.random.Generator, xvar: np.ndarray, reached: np.ndarray):
    """Observe the abscissae at the checkpoints reached inside a quiet run,
    with all their normals in one draw.

    xvar (rows + 1, n) holds the carried variance and then each row's, and
    reached (rows + 1, n) the checkpoints each path has reached before each
    row and after the last.  A path reaching c checkpoints in one row is
    observed c times there, the later ones with no variance.  Variances add
    in row order from the path's last observation, and the normals go to
    the hits by row, pass and slot, the order in which the loop's
    checkpoint passes draw them.  Leaves st.x and st.xvar as they are after
    the run; returns each hit's row, slot, pass and abscissa, in that order."""
    end, n = xvar.shape[0] - 1, xvar.shape[1]
    reach = np.diff(reached, axis=0)
    depth = int(reach.max(initial=0))
    rows, passes, slots = np.nonzero(reach[:, None, :] > np.arange(depth)[:, None])
    # a first pass at row r closes its path's segment at index r + 1 of
    # xvar and the next one starts at r + 2; a later pass closes an empty
    # one, and the run's end closes each path's last (empty after a hit on
    # the last row)
    start = np.zeros((end + 2, n), np.int64)
    start[rows + 2, slots] = rows + 2
    start = np.maximum.accumulate(start, axis=0)
    start = np.concatenate((np.where(passes == 0, start[rows + 1, slots], end + 1), start[end + 1]))
    close = np.concatenate((rows + 1, np.full(n, end)))
    owner = np.concatenate((slots, np.arange(n)))
    # zeros before a segment's start leave its running sum exact
    segs = np.where(np.arange(end + 1) >= start[:, None], xvar[:, owner].T, 0.0)
    acc = np.cumsum(segs, axis=1)[np.arange(close.size), close]
    sd = np.sqrt(acc[: rows.size]) * np.exp(0.5 * co.two_log_q * st.level[slots])
    # each path's abscissae: the running sum of its increments by row and
    # pass, with -0.0 (which adds exactly, also to -0.0) where it has none
    x = np.full((end * depth + 1, n), -0.0)
    at = rows * depth + passes + 1
    x[0], x[at, slots] = st.x, co.x_scale * sd * rng.standard_normal(rows.size)
    x = np.cumsum(x, axis=0)
    st.x, st.xvar = x[-1], acc[rows.size :]
    return rows, slots, passes, x[at, slots]


@dataclass
class BatchRun:
    """What a batch run kept: the store of each path's states, its final
    state's fields (views of the store's last column) and, at a horizon,
    the event stream and each path's events that arrived at level 0."""

    params: ModelParams
    dt: float
    horizon: float | None
    start_level: int
    t: np.ndarray
    x: np.ndarray
    level: np.ndarray
    rel: np.ndarray
    side: np.ndarray
    child: np.ndarray
    n_events: np.ndarray
    zero_visits: np.ndarray
    ev_path: np.ndarray
    ev_dir: np.ndarray
    ev_child: np.ndarray
    ev_time: np.ndarray
    #: per field of the final state, (n, k + 1): its values at the k checkpoints, then the final state
    state: dict[str, np.ndarray]
    checkpoint_times: np.ndarray | None = None

    @property
    def checkpoint_x(self) -> np.ndarray | None:
        """The abscissae at the checkpoints, (n, k); None without them."""
        return None if self.checkpoint_times is None else self.state["x"][:, :-1]

    @property
    def y(self) -> np.ndarray:
        return self.level + self.rel

    @property
    def n_paths(self) -> int:
        return self.t.size


def _drive(
    params: ModelParams,
    dt: float,
    rng: np.random.Generator,
    st: _Arrays,
    *,
    horizon: float | None = None,
    checkpoints=None,
) -> BatchRun:
    """Step every path of st (all on one start level) with the kernel until
    it finishes, and return what was kept.

    A path is kept at the first state its clock reaches each checkpoint (an
    increasing sequence) and then the horizon, where it finishes; a run
    without a horizon takes no checkpoints and keeps each path at its first
    skeleton event.  The final state is the store's last column.  Abscissae
    are observed before they are kept.

    Rows taken by the quiet pass (see the module docstring) count as
    iterations; the pass stops before the next compaction, and the
    checkpoints reached inside it are observed in one draw.
    """
    check_dt(dt)
    if horizon is None and checkpoints is not None:
        raise ValueError("checkpoints need a horizon")
    co, draws = _coeffs(params, dt), _DrawBlock(rng)
    n = st.t.size
    start_level = int(st.level[0]) if n else 0
    # the k columns kept: the checkpoints, then the horizon (inf: the first
    # event); then inf, the next column of a finished path
    end = math.inf if horizon is None else horizon
    cps = np.concatenate((() if checkpoints is None else checkpoints, (end, math.inf)))
    k = cps.size - 1
    # all fields but the accrued variance (0 once observed), path-major (n, k)
    kept = {f: np.zeros(n * k, getattr(st, f).dtype) for f in _Arrays.__slots__ if f != "xvar"}
    ptr = np.zeros(n, dtype=np.int64)  # per slot: its next column, k once finished
    ev_path, ev_dir, ev_child, ev_time = array("q"), array("q"), array("i"), array("d")
    zero_visits = np.zeros(n, dtype=np.int64)
    # the per-path tests run only once t_top, at or above every clock (they
    # start at 0 and a step adds at most dt), reaches t_cp, the earliest
    # pending checkpoint
    max_iter, t_top, t_cp = _HARD_ITER_CAP, 0.0, cps[0]
    if horizon is not None:
        max_iter = min(max_iter, int(2 * horizon / dt) + 100_000)

    def keep(loc):
        nonlocal left
        _observe(st, co, rng, loc)
        col = ptr[loc]
        at = idx[loc] * k + col
        for f, arr in kept.items():
            arr[at] = getattr(st, f)[loc]
        ptr[loc] = col + 1
        left -= np.count_nonzero(col == k - 1)

    idx = np.arange(n)  # path id per current (compacted) slot
    iters, left = 0, n  # left: the paths not yet finished
    while left:
        iters += 1
        if iters > max_iter:
            raise RuntimeError("path run exceeded its iteration budget")
        eids, dirs, quiet = _advance(st, co, draws.next(idx.size), draws)
        t_top += co.dt
        if eids.size:
            live = ptr[eids] < k
            eids, dirs = eids[live], dirs[live]
        if horizon is None and eids.size:
            keep(eids)
        elif eids.size:
            g = idx[eids]
            ev_path.extend(g.tolist())
            ev_dir.extend(dirs.tolist())
            ev_child.extend(st.child[eids].tolist())
            ev_time.extend(st.t[eids].tolist())
            zero_visits[g] += st.level[eids] == 0
        if t_top >= t_cp:
            t_top = st.t.max()  # the bound, made tight
            while t_top >= t_cp:
                h = np.nonzero(st.t >= cps[ptr])[0]
                if not h.size:
                    break
                keep(h)
                t_cp = cps[ptr].min()
        if iters % _COMPACT_EVERY == 0 and left < idx.size:
            live = ptr < k
            st.compress(live)
            draws.compress(live)
            idx, ptr = idx[live], ptr[live]
        if quiet and left:  # the quiet pass
            m = min(_COMPACT_EVERY - 1 - iters % _COMPACT_EVERY, max_iter - iters)
            taken, rel, t, w = _quiet_rows(st, co, draws, m)
            if taken:
                draws.i += taken
                iters += taken
                xvar = np.vstack((st.xvar, w[:taken]))  # the carried variance, then each row's
                if t[taken].max() >= t_cp:
                    # a path has reached[r] columns before row r (reached[0] = ptr)
                    reached = np.searchsorted(cps, t[: taken + 1], side="right")
                    rows, slots, passes, x = _observe_run(st, co, rng, xvar, reached)
                    at = idx[slots] * k + reached[rows, slots] + passes
                    after = rows + 1, slots
                    moved = {"t": t[after], "rel": rel[after], "x": x}
                    for f, arr in kept.items():
                        arr[at] = moved[f] if f in moved else getattr(st, f)[slots]
                    ptr = reached[taken]
                    t_cp = cps[ptr].min()
                    left = np.count_nonzero(ptr < k)
                else:
                    st.xvar = np.cumsum(xvar, axis=0)[taken]
                st.rel, st.t, t_top = rel[taken], t[taken], t[taken].max()
    state = {f: arr.reshape(n, k) for f, arr in kept.items()}
    return BatchRun(
        params,
        dt,
        horizon,
        start_level,
        **{f: arr[:, -1] for f, arr in state.items()},
        zero_visits=zero_visits,
        ev_path=np.array(ev_path, np.int64),
        ev_dir=np.array(ev_dir, np.int64),
        ev_child=np.array(ev_child, np.int32),
        ev_time=np.array(ev_time),
        state=state,
        checkpoint_times=checkpoints,
    )


def run_batch(
    params: ModelParams,
    config: SimConfig,
    n_paths: int,
    rng: np.random.Generator,
    checkpoints=None,
) -> BatchRun:
    """Simulate n_paths paths from the origin (abscissa 0 on the root's
    line) up to the horizon.

    Every path is kept at its first state with clock >= each checkpoint and
    the horizon, its final state (the overshoot is below one step).
    Skeleton events are returned as a flat stream (path id, direction,
    branch, clock), in per-path time order.
    """
    cps = None if checkpoints is None else np.asarray(checkpoints, dtype=float)
    if cps is not None and cps.size:
        if np.any(np.diff(cps) <= 0) or cps[-1] > config.horizon:
            raise ValueError("checkpoints must be increasing and within the horizon")
    st = _Arrays(n_paths, 0, 0.0)
    return _drive(params, config.dt, rng, st, horizon=config.horizon, checkpoints=cps)


@dataclass(frozen=True)
class ExitMeasure:
    """First exits from the star around one line: per path the clock, the
    boundary line (down, side -1, or up into branch child) and the abscissa
    displacement from the start at the moment of its first committed line
    change."""

    params: ModelParams
    start_level: int
    start_x: float
    tau: np.ndarray
    side: np.ndarray
    child: np.ndarray
    dx: np.ndarray

    @property
    def x(self) -> np.ndarray:
        """The exit abscissae."""
        return self.start_x + self.dx

    @property
    def n(self) -> int:
        return self.side.size

    def line_masses(self) -> np.ndarray:
        """Empirical masses (down line, branch line 0, ..., branch line p-1)."""
        p = self.params.p
        up = self.side == 1
        masses = np.empty(p + 1)
        masses[0] = np.mean(~up)
        for j in range(p):
            masses[j + 1] = np.mean(up & (self.child == j))
        return masses

    def expected_masses(self) -> np.ndarray:
        up = prob_up(self.params)
        return np.array([1.0 - up] + [up / self.params.p] * self.params.p)

    def pulled_back_x(self) -> np.ndarray:
        """Exit abscissae mapped back by the isometry that moves the start
        line to the base line at the base abscissa: the displacements,
        scaled by q**-start_level."""
        return self.dx * self.params.q ** (-self.start_level)


def first_exit_batch(
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
    dt: float = 1e-4,
    start_level: int = 0,
    start_x: float = 0.0,
) -> ExitMeasure:
    """Run n paths from abscissa start_x on the line at start_level until
    their first skeleton event: samples of the one-step transition of the
    induced walk (exit time, which neighboring line, branch, exit abscissa).
    The kernel runs each path from abscissa 0: start_x is added only where
    the exit abscissae are read.
    """
    run = _drive(params, dt, rng, _Arrays(n, start_level, 0.0))
    # a path's only event is its first: its direction is the change of level
    side = (run.level - start_level).astype(np.int8)
    return ExitMeasure(params, start_level, start_x, run.t, side, run.child, run.x)


def _replay(start: TreeVertex, dirs: list[int], childs: list[int], counts) -> list[TreeVertex]:
    """The anchor vertex after the first c events, for each c of the
    (nonempty, nondecreasing) counts, walking the events once from start:
    down to the predecessor, or up into the recorded branch.

    The walk runs on integers: scaled by p**shift, with shift large enough
    to clear the denominators at every level the walk visits, the ball
    center at level m is an integer below pk = p**(m + shift).  An up-move
    into branch c adds c pk, and a down-move keeps the residue mod pk / p.
    A vertex is built only where the count moves on."""
    p, c0 = start.p, start.center
    shift = max(c0.denom_exp, -(start.level + min(accumulate(dirs[: counts[-1]], initial=0))))
    num = c0.num * p ** (shift - c0.denom_exp)
    k = start.level + shift
    pk = p**k
    moves, v, done, out = zip(dirs, childs), start, 0, []
    for n in counts:
        if n > done:
            for d, c in islice(moves, n - done):
                if d > 0:
                    num += c * pk
                    pk *= p
                    k += 1
                else:
                    k -= 1
                    pk //= p
                    num %= pk
            v, done = TreeVertex(PadicRational(p, num, shift), k - shift), n
        out.append(v)
    return out


def rebuild_vertices(p: int, dirs, childs) -> list[TreeVertex]:
    """Anchor vertices after each event: the root, then one per event."""
    dirs, childs = np.asarray(dirs).tolist(), np.asarray(childs).tolist()
    return _replay(TreeVertex.root(p), dirs, childs, range(len(dirs) + 1))


def _events_by_path(run: BatchRun):
    order = np.argsort(run.ev_path, kind="stable")
    path = run.ev_path[order]
    t = run.ev_time[order]
    back = t[1:] < t[:-1]
    back &= path[1:] == path[:-1]
    if back.any():
        raise ValueError("event stream is not in time order within each path")
    starts = np.searchsorted(path, np.arange(run.n_paths + 1))
    return order, starts.tolist()


def _tree_point(
    anchor: TreeVertex, side: int, child: int, rel: float, successor=TreeVertex.successor
) -> TreePoint:
    if side == 0 or rel == 0.0:
        return TreePoint.at_vertex(anchor)
    if side > 0:
        return TreePoint(successor(anchor, child), rel)
    return TreePoint(anchor, 1.0 + rel)


def final_tree_points(run: BatchRun, checkpoint: int = -1) -> list[TreePoint]:
    """Replay the event stream from the start vertex, above 0 on the start
    level (the root for run_batch), and return each path's tree position at
    the store's column of that index: by default the last, its final state."""
    base = TreeVertex(PadicRational.zero(run.params.p), run.start_level)
    order, starts = _events_by_path(run)
    # a path's events up to the column are its first n_events
    side, child, rel, counts = (run.state[f][:, checkpoint].tolist() for f in ("side", "child", "rel", "n_events"))
    points = []
    for i, (s0, n) in enumerate(zip(starts, counts)):
        sl = order[s0 : s0 + n]
        anchor = _replay(base, run.ev_dir[sl].tolist(), run.ev_child[sl].tolist(), [n])[0]
        points.append(_tree_point(anchor, side[i], child[i], rel[i]))
    return points


@dataclass(frozen=True)
class TrajectoryRecord:
    """One recorded sample of a trajectory."""

    t: float
    x: float
    y: float
    vertex: TreeVertex
    n_events: int
    dist: float | None = None


def simulate_path(
    params: ModelParams,
    config: SimConfig,
    rng: np.random.Generator,
    with_distance: bool = False,
) -> list[TrajectoryRecord]:
    """Simulate one path from the origin to the horizon, recorded at the
    start, at its first state at or after each multiple of record_stride * dt
    and at the end, each state once.  Each record carries the upper vertex of
    the strip the path is in, replayed from the event stream after the run:
    a one-path run_batch checkpointed at the multiples below the horizon."""
    step = config.record_stride * config.dt
    cps = step * np.arange(1, int(config.horizon / step) + 2)
    run = run_batch(params, config, 1, rng, checkpoints=cps[cps < config.horizon])
    cols = ("t", "x", "level", "rel", "side", "child", "n_events")
    *kept, end = zip(*(run.state[f][0].tolist() for f in cols))
    states = [(0.0, 0.0, 0, 0.0, 0, 0, 0)]  # the origin, on the root's line
    for state in kept:
        if states[-1][0] < state[0] < config.horizon:
            states.append(state)
    states.append(end)
    root = TreeVertex.root(params.p)
    anchors = _replay(root, run.ev_dir.tolist(), run.ev_child.tolist(), [s[-1] for s in states])
    successor = functools.cache(TreeVertex.successor)  # records above an anchor share it
    distance = _origin_distance(params) if with_distance else None
    records = []
    for (t, x, level, rel, side, child, k), anchor in zip(states, anchors):
        w = _tree_point(anchor, side, child, rel, successor)
        d = distance(x, w) if distance else None
        records.append(TrajectoryRecord(t, x, level + rel, w.upper, k, d))
    return records


def _origin_distance(params: ModelParams):
    """The distance from (x, w) to the base point, as a function of (x, w)
    with the geometry and the base point built once."""
    geo = HTParams(params.q, params.p)
    base = origin(geo)
    return lambda x, w: ht_distance(geo, HTPoint(float(x), w), base)


def distance_to_origin(params: ModelParams, x: float, w: TreePoint) -> float:
    """Distance from (x, w) to the base point."""
    return _origin_distance(params)(x, w)


def final_points_and_distances(run: BatchRun, checkpoint: int = -1) -> tuple[list[TreePoint], np.ndarray]:
    """Each path's tree position at the store's column of that index (by
    default its final state), and its distance to the origin there."""
    points = final_tree_points(run, checkpoint)
    distance = _origin_distance(run.params)
    return points, np.array([distance(xi, w) for xi, w in zip(run.state["x"][:, checkpoint], points)])
