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

One kernel, `_advance`, takes every Euler step, and one batch loop, `_drive`,
runs it to a fixed horizon (`run_batch`; `simulate_path` is a one-path run
checkpointed every record_stride * dt) or to each path's first skeleton
event (`first_exit_batch`).
The loop returns what it kept: each path's finished state and, at a
horizon, the event stream and the checkpoint states.  Tree vertices are
rebuilt afterwards from the event stream.

Inside a strip, away from its lines and boundary, the kernel is a plain
drifted Brownian step: three additions and no uniforms.  After a step on
which every path took that regular branch, the loop takes the next rows of
the draw block in one vectorized pass (`_quiet_rows`: running sums of the
offsets, clocks and abscissa variances) for as long as every path stays
regular and below the horizon.  Running sums add in the kernel's order, and
the checkpoints reached inside the pass are observed in one draw
(`_observe_run`) whose normals go to them in the order the loop would draw
them, so every output and the generator's state are bit-identical.  A
one-path trajectory takes most of its steps this way.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .closed_forms import ModelParams
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
    """Mutable per-path state: anchor level, offset, clock, on-line flag,
    excursion side and branch, events so far, the abscissa at its last
    observation and the variance accrued since, in units of
    2 dt q**(2 level)."""

    __slots__ = ("t", "x", "level", "rel", "on_line", "side", "child", "n_events", "xvar")

    def __init__(self, n: int, level: int, rel: float, x: float = 0.0):
        self.level = np.full(n, level, dtype=np.int64)
        self.rel = np.full(n, float(rel))
        self.t = np.zeros(n)
        self.on_line = np.full(n, rel == 0.0)
        self.side = np.full(n, np.sign(rel), dtype=np.int8)
        self.child = np.zeros(n, dtype=np.int16)
        self.n_events = np.zeros(n, dtype=np.int64)
        self.x = np.full(n, float(x))
        self.xvar = np.zeros(n)

    def compress(self, keep: np.ndarray) -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name)[keep])


class _DrawBlock:
    """Pre-drawn noise, to amortize generator call overhead.  The height
    normals, read by every path on every step, come in blocks of rows, less
    deep for wide batches; compaction keeps the surviving columns, so it
    does not disturb the other paths' draws.  The side and bridge uniforms,
    read only on a line or near a boundary, come in order from a pool.

    Each block is drawn into the front of one buffer, grown only when a
    block outsizes it, and compaction packs it in place: blocks are
    megabytes, and freeing and reallocating them around the allocator's mmap
    threshold makes the peak memory depend on the heap layout of the
    process."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.buf = np.empty(0)
        self.z = np.empty((0, 0))
        self.pool = np.empty(0)
        self.i = self.j = 0

    def next(self, n: int) -> np.ndarray:
        """The height normals of the next step of n paths."""
        if self.i >= self.z.shape[0] or n != self.z.shape[1]:
            size = max(8, min(_BLOCK, 2_000_000 // n)) * n
            if self.buf.size < size:
                self.buf = np.empty(size)
            self.z = self.buf[:size].reshape(-1, n)
            self.rng.standard_normal(out=self.z)
            self.i = 0
        self.i += 1
        return self.z[self.i - 1]

    def uniforms(self, k: int) -> np.ndarray:
        if self.j + k > self.pool.size:
            self.pool = self.rng.random(max(k, _POOL))
            self.j = 0
        self.j += k
        return self.pool[self.j - k : self.j]

    def compress(self, keep: np.ndarray) -> None:
        """Keep the unread rows of the surviving columns, packed into the
        front of the buffer a chunk of rows at a time.  Each chunk is copied
        out before it is written, and a packed chunk ends before the next
        unread row starts, so no row is overwritten before it is read.  A
        chunk is at most 64 KiB, half the allocator's default mmap
        threshold, so its temporary comes from the heap (see above)."""
        rows, m = self.z.shape[0] - self.i, int(keep.sum())
        packed = self.buf[: rows * m].reshape(rows, m)
        chunk = max(1, 8192 // max(m, 1))
        for r in range(0, rows, chunk):
            packed[r : r + chunk] = self.z[self.i + r : self.i + r + chunk, keep]
        self.z, self.i = packed, 0


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

    lin = np.nonzero(st.on_line)[0]
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
    st.on_line = crossed
    if cid.size:
        new_rel[cid] = 0.0
        st.side[cid] = 0
    event_ids = np.sort(np.concatenate([hid, bridge_ids])) if hid.size else bridge_ids
    if not event_ids.size:
        return event_ids, event_ids, not (lin.size or cand.size or cid.size)
    dirs = np.where(new_rel[event_ids] > 0, 1, -1)
    new_rel[event_ids] = 0.0
    crossed[event_ids] = True
    st.side[event_ids] = 0
    st.level[event_ids] += dirs
    st.n_events[event_ids] += 1
    st.xvar[event_ids] *= np.exp(-co.two_log_q * dirs)
    return event_ids, dirs, False


def _quiet_rows(st: _Arrays, co: _Coeffs, z: np.ndarray, horizon: float | None):
    """The kernel's regular branch over the leading rows of the height
    normals z (rows, n) on which every path takes it: none on a line (the
    caller's condition), crossing its anchor line or within near_cut of the
    boundary, and every clock below the horizon.  Returns the number of
    rows taken, the offsets and clocks before each row and after the last,
    and the abscissa variance of each row; np.cumsum adds along axis 0 one
    row at a time, as the kernel does.

    The window is max(1, _COMPACT_EVERY // n) rows of z, zero-padded: runs
    are long for one path and short for wide batches, and one shape per
    width lets numpy reuse its freed small blocks."""
    window = np.zeros((max(1, _COMPACT_EVERY // z.shape[1]), z.shape[1]))
    z = z[: len(window)]
    window[: len(z)] = z
    rel = np.cumsum(np.vstack((st.rel, co.vol_sdt * window + co.mu_dt)), axis=0)
    t = np.cumsum(np.vstack((st.t, np.full(window.shape, co.dt))), axis=0)
    new = rel[1:]
    ok = ((new * st.side >= _SNAP) & (np.abs(new) <= 1.0 - co.near_cut)).all(axis=1)
    if horizon is not None:
        ok &= t[1:].max(axis=1) < horizon
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
class _Kept:
    """What `_drive` kept, per state field: each path's finished state
    (final, (n,)) and its states at the checkpoints (checkpoints, (n, k)).
    Horizon runs also keep the event stream and each path's events that
    arrived at level 0."""

    final: dict[str, np.ndarray]
    checkpoints: dict[str, np.ndarray]
    ev_path: np.ndarray
    ev_dir: np.ndarray
    ev_child: np.ndarray
    ev_time: np.ndarray
    zero_visits: np.ndarray


def _drive(
    params: ModelParams,
    dt: float,
    rng: np.random.Generator,
    st: _Arrays,
    *,
    horizon: float | None = None,
    checkpoints=(),
) -> _Kept:
    """Step every path of st with the kernel until it finishes, and return
    what was kept (see _Kept).

    With a horizon a path finishes at its first state with clock >= horizon
    and is kept at the first state its clock reaches each checkpoint (an
    increasing sequence); without one, it finishes at its first skeleton
    event.  Abscissae are observed before they are kept.

    Rows taken by the quiet pass (see the module docstring) count as
    iterations; the pass stops before the next compaction, and the
    checkpoints reached inside it are observed in one draw.
    """
    check_dt(dt)
    co, draws = _coeffs(params, dt), _DrawBlock(rng)
    n = st.t.size
    # the state to keep: all but the accrued variance (0 once observed)
    fields = [f for f in _Arrays.__slots__ if f != "xvar"]
    final = {f: np.empty(n, getattr(st, f).dtype) for f in fields}
    cps = np.append(np.asarray(checkpoints, dtype=float), np.inf)  # inf: no checkpoint left
    k = cps.size - 1
    cp = {f: np.zeros(n * k, getattr(st, f).dtype) for f in fields}  # path-major (n, k)
    ptr = np.zeros(n, dtype=np.int64)  # per slot: its next checkpoint
    ev_path, ev_dir, ev_child, ev_time = array("q"), array("q"), array("h"), array("d")
    zero_visits = np.zeros(n, dtype=np.int64)
    # the per-path tests run only once t_top, at or above every clock (they
    # start at 0 and a step adds at most dt), reaches t_next: the horizon or
    # t_cp, the earliest pending checkpoint, whichever comes first
    max_iter, t_top, t_cp, t_next = _HARD_ITER_CAP, 0.0, cps[0], math.inf
    if horizon is not None:
        max_iter = min(max_iter, int(2 * horizon / dt) + 100_000)
        t_next = min(horizon, t_cp)

    def finish(loc):
        nonlocal left
        _observe(st, co, rng, loc)
        g = idx[loc]
        for f, arr in final.items():
            arr[g] = getattr(st, f)[loc]
        done[loc] = True
        left -= loc.size

    idx = np.arange(n)  # path id per current (compacted) slot
    done = np.zeros(n, dtype=bool)
    iters, left = 0, n  # left: the paths not yet finished
    while left:
        iters += 1
        if iters > max_iter:
            raise RuntimeError("path run exceeded its iteration budget")
        eids, dirs, quiet = _advance(st, co, draws.next(idx.size), draws)
        t_top += co.dt
        if eids.size:
            live = ~done[eids]
            eids, dirs = eids[live], dirs[live]
        if horizon is None and eids.size:
            finish(eids)
        elif eids.size:
            g = idx[eids]
            ev_path.extend(g.tolist())
            ev_dir.extend(dirs.tolist())
            ev_child.extend(st.child[eids].tolist())
            ev_time.extend(st.t[eids].tolist())
            zero_visits[g] += st.level[eids] == 0
        if t_top >= t_next:
            t_top = st.t.max()  # the bound, made tight
            while t_top >= t_cp:
                h = np.nonzero(~done & (st.t >= cps[ptr]))[0]
                if not h.size:
                    break
                _observe(st, co, rng, h)
                at = idx[h] * k + ptr[h]
                for f, arr in cp.items():
                    arr[at] = getattr(st, f)[h]
                ptr[h] += 1
                t_cp = cps[ptr].min()
            if t_top >= horizon:
                finish(np.nonzero(~done & (st.t >= horizon))[0])
            t_next = min(horizon, t_cp)
        if iters % _COMPACT_EVERY == 0 and done.any():
            keep = ~done
            st.compress(keep)
            draws.compress(keep)
            idx, ptr = idx[keep], ptr[keep]
            done = np.zeros(idx.size, dtype=bool)
        if quiet and left:  # the quiet pass
            m = min(draws.z.shape[0] - draws.i, _COMPACT_EVERY - 1 - iters % _COMPACT_EVERY, max_iter - iters)
            taken, rel, t, w = _quiet_rows(st, co, draws.z[draws.i : draws.i + m], horizon)
            if taken:
                draws.i += taken
                iters += taken
                xvar = np.vstack((st.xvar, w[:taken]))  # the carried variance, then each row's
                if t[taken].max() >= t_next:
                    # no path is finished (clocks are below the horizon); a path
                    # has reached[r] checkpoints before row r (reached[0] = ptr)
                    reached = np.searchsorted(cps, t[: taken + 1], side="right")
                    rows, slots, passes, x = _observe_run(st, co, rng, xvar, reached)
                    at = idx[slots] * k + reached[rows, slots] + passes
                    after = rows + 1, slots
                    moved = {"t": t[after], "rel": rel[after], "x": x}
                    for f, arr in cp.items():
                        arr[at] = moved[f] if f in moved else getattr(st, f)[slots]
                    ptr = reached[taken]
                    t_cp = cps[ptr].min()
                    t_next = min(horizon, t_cp)
                else:
                    st.xvar = np.cumsum(xvar, axis=0)[taken]
                st.rel, st.t, t_top = rel[taken], t[taken], t[taken].max()
    cp = {f: arr.reshape(n, k) for f, arr in cp.items()}
    events = np.array(ev_path, np.int64), np.array(ev_dir, np.int64), np.array(ev_child, np.int16)
    return _Kept(final, cp, *events, np.array(ev_time), zero_visits)


@dataclass
class BatchRun:
    """Final states and the event stream of a fixed-horizon batch."""

    params: ModelParams
    dt: float
    horizon: float
    start_level: int
    t: np.ndarray
    x: np.ndarray
    level: np.ndarray
    rel: np.ndarray
    on_line: np.ndarray
    side: np.ndarray
    child: np.ndarray
    n_events: np.ndarray
    zero_visits: np.ndarray
    ev_path: np.ndarray
    ev_dir: np.ndarray
    ev_child: np.ndarray
    ev_time: np.ndarray
    checkpoint_times: np.ndarray | None = None
    #: per field of the final state, its values at the checkpoints, (n, k)
    checkpoint_state: dict[str, np.ndarray] | None = None

    @property
    def checkpoint_x(self) -> np.ndarray | None:
        return None if self.checkpoint_state is None else self.checkpoint_state["x"]

    @property
    def y(self) -> np.ndarray:
        return self.level + self.rel

    @property
    def n_paths(self) -> int:
        return self.t.size


def run_batch(
    params: ModelParams,
    config: SimConfig,
    n_paths: int,
    rng: np.random.Generator,
    checkpoints=None,
    start_level: int = 0,
    start_x: float = 0.0,
) -> BatchRun:
    """Simulate n_paths paths from a line start up to the horizon.

    Every path starts at abscissa start_x on the line of the tree vertex
    TreeVertex(PadicRational.zero(p), start_level) (the root at level 0),
    and is reported at its first state with clock >= horizon (the overshoot
    is below one step).  Skeleton events are returned as a flat stream
    (path id, direction, branch, clock), in per-path time order.
    """
    cps = None if checkpoints is None else np.asarray(checkpoints, dtype=float)
    if cps is not None and cps.size:
        if np.any(np.diff(cps) <= 0) or cps[-1] > config.horizon:
            raise ValueError("checkpoints must be increasing and within the horizon")
    st = _Arrays(n_paths, start_level, 0.0, start_x)
    kept = _drive(
        params, config.dt, rng, st, horizon=config.horizon, checkpoints=() if cps is None else cps
    )
    return BatchRun(
        params=params,
        dt=config.dt,
        horizon=config.horizon,
        start_level=start_level,
        **kept.final,
        zero_visits=kept.zero_visits,
        ev_path=kept.ev_path,
        ev_dir=kept.ev_dir,
        ev_child=kept.ev_child,
        ev_time=kept.ev_time,
        checkpoint_times=cps,
        checkpoint_state=None if cps is None else kept.checkpoints,
    )


@dataclass
class FirstExit:
    """First committed line change per path: clock, direction, branch and
    abscissa at the moment of the event."""

    tau: np.ndarray
    side: np.ndarray
    child: np.ndarray
    x: np.ndarray


def first_exit_batch(
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
    dt: float = 1e-4,
    start_level: int = 0,
    start_x: float = 0.0,
) -> FirstExit:
    """Run paths from abscissa start_x on the line at start_level until
    their first skeleton event: samples of the one-step transition of the
    induced walk (exit time, which neighboring line, branch, exit abscissa).
    """
    st = _Arrays(n, start_level, 0.0, start_x)
    final = _drive(params, dt, rng, st).final
    # a path's only event is its first: its direction is the change of level
    side = (final["level"] - start_level).astype(np.int8)
    return FirstExit(final["t"], side, final["child"], final["x"])


def rebuild_vertices(p: int, dirs, childs, start: TreeVertex | None = None) -> list[TreeVertex]:
    """Anchor vertices after each event: start vertex, then one move per
    event (down to the predecessor or up into the recorded branch)."""
    v = start if start is not None else TreeVertex.root(p)
    out = [v]
    for d, c in zip(dirs, childs):
        v = v.successor(c) if d > 0 else v.predecessor()
        out.append(v)
    return out


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


def _final_vertex(start: TreeVertex, dirs: list[int], childs: list[int]) -> TreeVertex:
    """The last vertex of rebuild_vertices, by integer arithmetic on the ball
    centers.  Scaled by p**shift, with shift large enough to clear the
    denominators at every level the path visits, the center at level m is an
    integer below p**(m + shift): an up-move into branch c adds
    c p**(m + shift), and a down-move keeps the residue mod p**(m - 1 + shift)."""
    if not dirs:
        return start
    p, c0 = start.p, start.center
    shift = max(c0.denom_exp, -(start.level + min(accumulate(dirs, initial=0))))
    num = c0.num * p ** (shift - c0.denom_exp)
    k = start.level + shift
    for d, c in zip(dirs, childs):
        if d > 0:
            num += c * p**k
            k += 1
        else:
            k -= 1
            num %= p**k
    return TreeVertex(PadicRational(p, num, shift), k - shift)


def _tree_point(
    anchor: TreeVertex, side: int, child: int, rel: float, successor=TreeVertex.successor
) -> TreePoint:
    if side == 0 or rel == 0.0:
        return TreePoint.at_vertex(anchor)
    if side > 0:
        return TreePoint(successor(anchor, child), rel)
    return TreePoint(anchor, 1.0 + rel)


def final_tree_points(run: BatchRun, checkpoint: int | None = None) -> list[TreePoint]:
    """Replay the event stream from the start vertex (see run_batch) and
    return each path's final tree position, or its position at the
    checkpoint of that index."""
    base = TreeVertex(PadicRational.zero(run.params.p), run.start_level)
    order, starts = _events_by_path(run)
    ends = starts[1:]
    if checkpoint is None:
        side, child, rel = run.side, run.child, run.rel
    else:
        cs = run.checkpoint_state
        side, child, rel = (cs[name][:, checkpoint] for name in ("side", "child", "rel"))
        # a path's events up to its checkpoint are its first n_events
        ends = [s0 + k for s0, k in zip(starts, cs["n_events"][:, checkpoint].tolist())]
    points = []
    for i in range(run.n_paths):
        sl = order[starts[i] : ends[i]]
        anchor = _final_vertex(base, run.ev_dir[sl].tolist(), run.ev_child[sl].tolist())
        points.append(
            _tree_point(anchor, int(side[i]), int(child[i]), float(rel[i]))
        )
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
    the strip the path is in, replayed from the event stream after the run."""
    step = config.record_stride * config.dt
    cps = step * np.arange(1, int(config.horizon / step) + 2)
    cps = cps[cps < config.horizon]
    st = _Arrays(1, 0, 0.0, 0.0)
    cols = ("t", "x", "level", "rel", "side", "child", "n_events")
    states = [tuple(getattr(st, f).item() for f in cols)]
    kept = _drive(params, config.dt, rng, st, horizon=config.horizon, checkpoints=cps)
    for state in zip(*(kept.checkpoints[f][0].tolist() for f in cols)):
        if states[-1][0] < state[0] < config.horizon:
            states.append(state)
    states.append(tuple(kept.final[f].item() for f in cols))
    anchors = rebuild_vertices(params.p, kept.ev_dir, kept.ev_child)
    successor = functools.cache(TreeVertex.successor)  # records above an anchor share it
    distance = _origin_distance(params) if with_distance else None
    records = []
    for t, x, level, rel, side, child, k in states:
        w = _tree_point(anchors[k], side, child, rel, successor)
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


def final_points_and_distances(
    run: BatchRun, checkpoint: int | None = None
) -> tuple[list[TreePoint], np.ndarray]:
    """Each path's final tree position, or its position at the checkpoint of
    that index, and its distance to the origin there."""
    points = final_tree_points(run, checkpoint=checkpoint)
    x = run.x if checkpoint is None else run.checkpoint_x[:, checkpoint]
    distance = _origin_distance(run.params)
    return points, np.array([distance(xi, w) for xi, w in zip(x, points)])
