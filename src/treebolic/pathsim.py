"""Euler simulation of the full two-dimensional diffusion on the glued strips.

The height is simulated in level units (the vertical drift and noise are
state independent there, and the gluing lines sit at integers); the abscissa
keeps its raw scale, with volatility sqrt(2) q**Y per the half-plane factor
of the generator, evaluated at the pre-step height.  Per step:

    dY = (1 - alpha)/log q dt + (sqrt 2 / log q) dB2
    dx = sqrt 2 * q**Y dB1

State is anchored at the last-touched line: a path stores that line's level,
the height offset rel in (-1, 1) relative to it, and which side of the line
the current excursion occupies (an up-excursion also stores which of the p
forward branches it entered; branches are drawn uniformly at every
departure).  When the offset reaches +-1 the path commits to a neighboring
line: that is a skeleton event, the anchor moves, and the event is recorded
so the tree position can be replayed afterwards.

Line touches and boundary hits are located by linear interpolation inside
the step and the abscissa increment is scaled by sqrt of the step fraction.
Steps that end inside the strip may still have crossed +-1 in between; a
Brownian-bridge test catches those excursions, which removes the dominant
exit-time overshoot of the plain endpoint rule.  Departures from a line draw
the side with up-probability gamma = beta p/(beta p + 1) and restart at
|N(0, 2 dt / log^2 q)| from the line.

One kernel, `_advance`, takes every Euler step of the package, and one
batch loop, `_drive`, runs it until each path of a batch finishes: at a fixed
horizon (`run_batch`, `simulate_path`) or at its first skeleton event
(`first_exit_batch`, and `skeleton.sample_tau_batch`, which runs the kernel
in height-only mode, without the abscissa and the branches).  Tree vertices
never enter the hot loop: they are rebuilt from the recorded event stream,
which keeps the stepping fully vectorized across paths.
"""

from __future__ import annotations

import math
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
_COMPACT_EVERY = 64
_SQRT2 = math.sqrt(2.0)
_SQRT_HALF = math.sqrt(0.5)


class NumericalError(RuntimeError):
    """The height moved by a whole level in one step: dt is too large."""


@dataclass(frozen=True)
class SimConfig:
    """Step size, horizon and recording cadence for path runs."""

    dt: float = 1e-4
    horizon: float = 1.0
    record_stride: int = 1

    def __post_init__(self):
        if not 0.0 < self.dt <= MAX_DT:
            raise ValueError("dt must lie in (0, 1e-2]")
        if self.horizon < self.dt:
            raise ValueError("horizon must be at least dt")
        if self.record_stride < 1:
            raise ValueError("record_stride must be >= 1")


@dataclass
class _Coeffs:
    dt: float
    mu_dt: float
    vol_sdt: float
    vol2_dt: float
    x_scale: float
    log_q: float
    gamma: float
    near_cut: float  # distance from the boundary below which the bridge test runs


def _coeffs(params: ModelParams, dt: float) -> _Coeffs:
    log_q = params.log_q
    vol_sdt = math.sqrt(2.0) / log_q * math.sqrt(dt)
    return _Coeffs(
        dt=dt,
        mu_dt=(1.0 - params.alpha) / log_q * dt,
        vol_sdt=vol_sdt,
        vol2_dt=vol_sdt * vol_sdt,
        x_scale=_SQRT2 * math.sqrt(dt),
        log_q=log_q,
        gamma=params.beta * params.p / (params.beta * params.p + 1.0),
        near_cut=min(5.0 * vol_sdt, 0.5),
    )


class _Arrays:
    """Mutable per-path state: anchor level, offset, clock, on-line flag,
    excursion side and branch, and events so far.  Planar state also carries
    the abscissa (plus an optional running maximum of the sideways
    displacement); height-only state has x = None."""

    __slots__ = ("level", "rel", "t", "on_line", "side", "child", "n_events", "x", "xmax", "x0")

    def __init__(self, n: int, level: int, rel: float, x: float | None = None, track_max=False):
        self.level = np.full(n, level, dtype=np.int64)
        self.rel = np.full(n, float(rel))
        self.t = np.zeros(n)
        self.on_line = np.full(n, rel == 0.0)
        self.side = np.full(n, np.sign(rel), dtype=np.int8)
        self.child = np.zeros(n, dtype=np.int16)
        self.n_events = np.zeros(n, dtype=np.int64)
        self.x = None if x is None else np.full(n, float(x))
        self.xmax = np.zeros(n) if track_max else None
        self.x0 = np.full(n, float(x)) if track_max else None

    def compress(self, keep: np.ndarray) -> None:
        for name in self.__slots__:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])


class _DrawBlock:
    """Pre-drawn blocks of step noise to amortize generator call overhead.
    Planar runs draw the x-noise, the height noise, the side and bridge
    uniforms and the branches; height-only runs draw the middle three.
    Block depth shrinks for wide path batches to bound the memory held in
    raw draws.  On compaction the surviving columns are kept, so removing
    paths does not disturb the others' draws."""

    def __init__(self, rng: np.random.Generator, p: int, planar: bool):
        self.rng = rng
        self.p = p
        self.planar = planar
        self.rows = 0
        self.i = 0
        self.n = -1
        self.z1 = self.uc = None

    def next(self, n: int):
        if self.i >= self.rows or n != self.n:
            self.rows = max(8, min(_BLOCK, 2_000_000 // max(n, 1)))
            shape = (self.rows, n)
            if self.planar:
                self.z1 = self.rng.standard_normal(shape)
            self.z2 = self.rng.standard_normal(shape)
            self.us = self.rng.random(shape)
            self.ub = self.rng.random(shape)
            if self.planar:
                self.uc = self.rng.integers(0, self.p, size=shape, dtype=np.int16)
            self.i = 0
            self.n = n
        i = self.i
        self.i += 1
        if self.planar:
            return self.z1[i], self.z2[i], self.us[i], self.ub[i], self.uc[i]
        return None, self.z2[i], self.us[i], self.ub[i], None

    def compress(self, keep: np.ndarray) -> None:
        if self.n != -1 and self.i < self.rows:
            for name in ("z1", "z2", "us", "ub", "uc"):
                block = getattr(self, name)
                if block is not None:
                    setattr(self, name, block[:, keep])
            self.n = int(keep.sum()) if keep.dtype == bool else keep.size
        else:
            self.n = -1


class _Buf:
    """Growable flat buffer for the event stream."""

    def __init__(self, dtype):
        self.a = np.empty(1024, dtype)
        self.n = 0

    def extend(self, vals: np.ndarray) -> None:
        m = vals.size
        while self.n + m > self.a.size:
            self.a = np.concatenate([self.a, np.empty(self.a.size, self.a.dtype)])
        self.a[self.n : self.n + m] = vals
        self.n += m

    def data(self) -> np.ndarray:
        return self.a[: self.n].copy()


def _advance(st: _Arrays, co: _Coeffs, z1, z2, u_side, u_bridge, u_child):
    """One synchronized Euler step over all paths.

    In height-only mode (st.x is None) z1 and u_child are None and the
    abscissa and branches are left alone.  Returns (event_ids, event_dirs):
    the paths that committed to a new line this step and the direction they
    moved.  The anchor level, offsets, clocks, event counts, abscissae and
    excursion bookkeeping are updated in place.
    """
    rel0 = st.rel
    new_rel = rel0 + (co.vol_sdt * z2 + co.mu_dt)

    lin = np.nonzero(st.on_line)[0]
    if lin.size:
        mags = np.abs(z2[lin]) * co.vol_sdt
        up = u_side[lin] < co.gamma
        new_rel[lin] = np.where(up, mags, -mags)
        st.side[lin] = np.where(up, 1, -1)
        if u_child is not None:
            st.child[lin] = np.where(up, u_child[lin], st.child[lin])

    absn = np.abs(new_rel)
    if absn.max() >= 2.0:
        raise NumericalError("height moved more than one level in one step")

    crossed = (rel0 > 0.0) != (new_rel > 0.0)
    crossed |= absn < _SNAP
    if lin.size:
        crossed[lin] = False
    hit = (absn >= 1.0) & ~crossed

    # bridge test: did an inside-to-inside step cross the boundary in between?
    near = (absn > 1.0 - co.near_cut) & ~crossed & ~hit
    nid = np.nonzero(near)[0]
    if nid.size:
        s = np.sign(new_rel[nid])
        gap = (1.0 - s * rel0[nid]) * (1.0 - s * new_rel[nid])
        fired = u_bridge[nid] < np.exp(-2.0 * gap / co.vol2_dt)
        bridge_ids = nid[fired]
    else:
        bridge_ids = nid

    # clock and abscissa; split steps end at their fraction of the step and
    # get the sqrt-scaled share of the x-noise
    planar = st.x is not None
    if planar:
        dx = np.exp(co.log_q * (st.level + rel0))
        dx *= co.x_scale
        dx *= z1
    st.t += co.dt
    cid = np.nonzero(crossed)[0]
    if cid.size:
        frac = np.clip(rel0[cid] / (rel0[cid] - new_rel[cid]), 0.0, 1.0)
        st.t[cid] -= co.dt * (1.0 - frac)
        if planar:
            dx[cid] *= np.sqrt(frac)
    hid = np.nonzero(hit)[0]
    if hid.size:
        tgt = np.sign(new_rel[hid])
        frac = np.clip((tgt - rel0[hid]) / (new_rel[hid] - rel0[hid]), 0.0, 1.0)
        st.t[hid] -= co.dt * (1.0 - frac)
        if planar:
            dx[hid] *= np.sqrt(frac)
    if bridge_ids.size:
        st.t[bridge_ids] -= 0.5 * co.dt
        if planar:
            dx[bridge_ids] *= _SQRT_HALF
    if planar:
        st.x += dx
        if st.xmax is not None:
            np.maximum(st.xmax, np.abs(st.x - st.x0), out=st.xmax)

    st.rel = new_rel
    st.on_line = crossed
    if cid.size:
        new_rel[cid] = 0.0
        st.side[cid] = 0
    if bridge_ids.size:
        event_ids = np.sort(np.concatenate([hid, bridge_ids])) if hid.size else bridge_ids
    else:
        event_ids = hid
    if not event_ids.size:
        return event_ids, event_ids  # both empty
    dirs = np.where(new_rel[event_ids] > 0, 1, -1)
    new_rel[event_ids] = 0.0
    crossed[event_ids] = True
    st.side[event_ids] = 0
    st.level[event_ids] += dirs
    st.n_events[event_ids] += 1
    return event_ids, dirs


def _drive(
    st: _Arrays,
    draws: _DrawBlock,
    co: _Coeffs,
    *,
    max_iter: int,
    on_finish,
    horizon: float | None = None,
    on_events=None,
    on_checkpoints=None,
    record_stride: int = 0,
    on_record=None,
) -> None:
    """Step every path of st with the kernel until it finishes.

    With a horizon a path finishes at its first state with clock >= horizon;
    without one, at its first skeleton event.  Hooks see the global path ids
    g and the paths' current slots loc in st:

    * on_finish(g, loc, dirs), once per path (dirs is None at a horizon);
    * on_events(g, loc, dirs), horizon runs only, for the events of
      unfinished paths;
    * on_checkpoints(idx, live), horizon runs only, every iteration before
      paths finish;
    * on_record(g, loc) for the unfinished paths every record_stride
      iterations.

    Finished paths keep stepping until the next compaction, unseen by hooks.
    """
    idx = np.arange(st.t.size)
    recorded = np.zeros(idx.size, dtype=bool)  # over current (compacted) slots
    iters = 0
    while idx.size:
        iters += 1
        if iters > max_iter:
            raise RuntimeError("path run exceeded its iteration budget")
        eids, dirs = _advance(st, co, *draws.next(idx.size))
        if eids.size:
            live = ~recorded[eids]
            eids, dirs = eids[live], dirs[live]
            if eids.size:
                if horizon is None:
                    on_finish(idx[eids], eids, dirs)
                    recorded[eids] = True
                elif on_events is not None:
                    on_events(idx[eids], eids, dirs)
        if horizon is not None:
            if on_checkpoints is not None:
                on_checkpoints(idx, ~recorded)
            done = ~recorded & (st.t >= horizon)
            if done.any():
                d = np.nonzero(done)[0]
                on_finish(idx[d], d, None)
                recorded[d] = True
        if record_stride and iters % record_stride == 0:
            loc = np.nonzero(~recorded)[0]
            if loc.size:
                on_record(idx[loc], loc)
        if iters % _COMPACT_EVERY == 0 and recorded.any():
            keep = ~recorded
            st.compress(keep)
            draws.compress(keep)
            idx = idx[keep]
            recorded = np.zeros(idx.size, dtype=bool)


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
    checkpoint_x: np.ndarray | None = None

    @property
    def y(self) -> np.ndarray:
        return self.level + self.rel

    @property
    def n_paths(self) -> int:
        return self.t.size


_FINAL = ("t", "x", "level", "rel", "on_line", "side", "child", "n_events")


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

    Every path is reported at its first state with clock >= horizon (the
    overshoot is below one step).  Skeleton events are returned as a flat
    stream (path id, direction, branch, clock), in per-path time order.
    """
    st = _Arrays(n_paths, start_level, 0.0, start_x)
    return _run_to_horizon(params, config, rng, st, start_level, checkpoints)


def _run_to_horizon(
    params: ModelParams,
    config: SimConfig,
    rng: np.random.Generator,
    st: _Arrays,
    start_level: int,
    checkpoints=None,
    on_record=None,
) -> BatchRun:
    """Drive the planar paths of st to the horizon, keeping the event stream,
    the abscissae at the checkpoints and, through on_record, the states every
    record_stride steps."""
    n = st.t.size
    out = _Arrays(n, start_level, 0.0, 0.0)
    zero_visits = np.zeros(n, dtype=np.int64)
    ev_path, ev_dir = _Buf(np.int64), _Buf(np.int64)
    ev_child, ev_time = _Buf(np.int16), _Buf(float)

    def on_events(g, loc, dirs):
        ev_path.extend(g)
        ev_dir.extend(dirs)
        ev_child.extend(st.child[loc])
        ev_time.extend(st.t[loc])
        zero_visits[g] += st.level[loc] == 0

    def on_finish(g, loc, _dirs):
        for name in _FINAL:
            getattr(out, name)[g] = getattr(st, name)[loc]

    cps = None if checkpoints is None else np.asarray(checkpoints, dtype=float)
    on_checkpoints = None
    if cps is not None:
        if cps.size and (np.any(np.diff(cps) <= 0) or cps[-1] > config.horizon):
            raise ValueError("checkpoints must be increasing and within the horizon")
        cp_x = np.zeros((n, cps.size))
    if cps is not None and cps.size:
        cp_ptr = np.zeros(n, dtype=np.int64)
        cps_ext = np.append(cps, np.inf)

        def on_checkpoints(idx, live):
            while True:
                due = np.take(cps_ext, np.minimum(cp_ptr[idx], cps.size))
                hit = live & (st.t >= due)
                if not hit.any():
                    return
                h = np.nonzero(hit)[0]
                g = idx[h]
                cp_x[g, cp_ptr[g]] = st.x[h]
                cp_ptr[g] += 1

    _drive(
        st,
        _DrawBlock(rng, params.p, planar=True),
        _coeffs(params, config.dt),
        max_iter=min(_HARD_ITER_CAP, int(2 * config.horizon / config.dt) + 100_000),
        on_finish=on_finish,
        horizon=config.horizon,
        on_events=on_events,
        on_checkpoints=on_checkpoints,
        record_stride=config.record_stride if on_record is not None else 0,
        on_record=on_record,
    )
    return BatchRun(
        params=params,
        dt=config.dt,
        horizon=config.horizon,
        start_level=start_level,
        t=out.t,
        x=out.x,
        level=out.level,
        rel=out.rel,
        on_line=out.on_line,
        side=out.side,
        child=out.child,
        n_events=out.n_events,
        zero_visits=zero_visits,
        ev_path=ev_path.data(),
        ev_dir=ev_dir.data(),
        ev_child=ev_child.data(),
        ev_time=ev_time.data(),
        checkpoint_times=cps,
        checkpoint_x=cp_x if cps is not None else None,
    )


@dataclass
class FirstExit:
    """First committed line change per path: clock, direction, branch and
    abscissa at the moment of the event."""

    tau: np.ndarray
    side: np.ndarray
    child: np.ndarray
    x: np.ndarray
    max_abs_dx: np.ndarray | None = None


def first_exit_batch(
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
    dt: float = 1e-4,
    start_level: int = 0,
    start_x: float = 0.0,
    start_rel: float = 0.0,
    track_max: bool = False,
) -> FirstExit:
    """Run paths until their first skeleton event and record it.

    From a line start this samples the one-step transition of the induced
    walk (exit time, which neighboring line, branch, exit abscissa); from an
    interior start (start_rel in (-1, 0)) it samples the star exit.  With
    track_max the running maximum of |x - x0| is recorded as well.
    """
    if not -1.0 < start_rel <= 0.0:
        raise ValueError("start_rel must lie in (-1, 0]")
    st = _Arrays(n, start_level, start_rel, start_x, track_max=track_max)
    return FirstExit(*_first_events(params, dt, rng, st))


def _first_events(params: ModelParams, dt: float, rng: np.random.Generator, st: _Arrays):
    """Drive the paths of st to their first skeleton event.

    Returns per path the event's clock and direction, then the branch, the
    abscissa and the running maximum of |x - x0| at the event; the last
    three are None where st does not carry them (height-only state, or no
    tracked maximum).
    """
    n = st.t.size
    planar = st.x is not None
    tau = np.empty(n)
    side = np.empty(n, dtype=np.int8)
    child = np.empty(n, dtype=np.int16) if planar else None
    x = np.empty(n) if planar else None
    xmax = np.empty(n) if st.xmax is not None else None

    def on_finish(g, loc, dirs):
        tau[g] = st.t[loc]
        side[g] = dirs
        if planar:
            child[g] = st.child[loc]
            x[g] = st.x[loc]
            if xmax is not None:
                xmax[g] = st.xmax[loc]

    draws = _DrawBlock(rng, params.p, planar)
    _drive(st, draws, _coeffs(params, dt), max_iter=_HARD_ITER_CAP, on_finish=on_finish)
    return tau, side, child, x, xmax


def rebuild_vertices(p: int, dirs, childs, start: TreeVertex | None = None) -> list[TreeVertex]:
    """Anchor vertices after each event: start vertex, then one move per
    event (down to the predecessor or up into the recorded branch)."""
    v = start if start is not None else TreeVertex.root(p)
    out = [v]
    for d, c in zip(dirs, childs):
        v = v.successors()[int(c)] if d > 0 else v.predecessor()
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


def _tree_point(anchor: TreeVertex, side: int, child: int, rel: float) -> TreePoint:
    if side == 0 or rel == 0.0:
        return TreePoint.at_vertex(anchor)
    if side > 0:
        return TreePoint(anchor.successors()[int(child)], rel)
    return TreePoint(anchor, 1.0 + rel)


def final_tree_points(run: BatchRun, start: TreeVertex | None = None) -> list[TreePoint]:
    """Replay the event stream and return each path's final tree position."""
    p = run.params.p
    base = start if start is not None else TreeVertex.root(p)
    order, starts = _events_by_path(run)
    points = []
    for i in range(run.n_paths):
        sl = order[starts[i] : starts[i + 1]]
        anchor = _final_vertex(base, run.ev_dir[sl].tolist(), run.ev_child[sl].tolist())
        points.append(
            _tree_point(anchor, int(run.side[i]), int(run.child[i]), float(run.rel[i]))
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


def _state_row(st, i) -> tuple:
    return (
        float(st.t[i]),
        float(st.x[i]),
        int(st.level[i]),
        float(st.rel[i]),
        int(st.side[i]),
        int(st.child[i]),
        int(st.n_events[i]),
    )


def simulate_path(
    params: ModelParams,
    config: SimConfig,
    rng: np.random.Generator,
    start: HTPoint | None = None,
    with_distance: bool = False,
) -> list[TrajectoryRecord]:
    """Simulate one path to the horizon, recording every record_stride steps
    (plus the initial and final states).  Each record carries the upper
    vertex of the strip the path is in, replayed from the event stream after
    the run."""
    if start is None:
        anchor, rel = TreeVertex.root(params.p), 0.0
    else:
        anchor, rel = start.w.upper, 0.0 if start.w.is_vertex else start.w.offset - 1.0
    st = _Arrays(1, anchor.level, rel, 0.0 if start is None else start.x)
    rows = [_state_row(st, 0)]

    def on_record(_g, loc):
        rows.append(_state_row(st, loc[0]))

    run = _run_to_horizon(params, config, rng, st, anchor.level, on_record=on_record)
    rows.append(_state_row(run, 0))
    anchors = rebuild_vertices(params.p, run.ev_dir, run.ev_child, anchor)
    records = []
    for t, x, level, rel, side, child, k in rows:
        w = _tree_point(anchors[k], side, child, rel)
        d = distance_to_origin(params, x, w) if with_distance else None
        records.append(TrajectoryRecord(t, x, level + rel, w.upper, k, d))
    return records


def distance_to_origin(params: ModelParams, x: float, w: TreePoint) -> float:
    """Distance from (x, w) to the base point."""
    geo = HTParams(params.q, params.p)
    return ht_distance(geo, HTPoint(float(x), w), origin(geo))
