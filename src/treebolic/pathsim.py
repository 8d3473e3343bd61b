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
checkpoint, a record, the horizon, or every step when its running maximum
is tracked): exact in law for the Euler scheme.  The side and bridge
uniforms come from a shared pool, one per path on a line or near a boundary.

One kernel, `_advance`, takes every Euler step, and one batch loop, `_drive`,
runs it to a fixed horizon (`run_batch`, `simulate_path`) or to each path's
first skeleton event (`first_exit_batch`; `skeleton.sample_tau_batch` runs
it height-only).  The loop returns what it kept: each path's finished state
and, at a horizon, the event stream, the checkpoint states and the stride
records.  Tree vertices are rebuilt afterwards from the event stream.
"""

from __future__ import annotations

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
    excursion side and branch, and events so far.  Planar state adds the
    abscissa at its last observation, the variance accrued since, in units
    of 2 dt q**(2 level), and optionally the running max of |x - x0|."""

    __slots__ = ("t", "x", "level", "rel", "on_line", "side", "child", "n_events", "xvar", "xmax", "x0")

    def __init__(self, n: int, level: int, rel: float, x: float | None = None, track_max=False):
        self.level = np.full(n, level, dtype=np.int64)
        self.rel = np.full(n, float(rel))
        self.t = np.zeros(n)
        self.on_line = np.full(n, rel == 0.0)
        self.side = np.full(n, np.sign(rel), dtype=np.int8)
        self.child = np.zeros(n, dtype=np.int16)
        self.n_events = np.zeros(n, dtype=np.int64)
        self.x = None if x is None else np.full(n, float(x))
        self.xvar = None if x is None else np.zeros(n)
        self.xmax = np.zeros(n) if track_max else None
        self.x0 = np.full(n, float(x)) if track_max else None

    def compress(self, keep: np.ndarray) -> None:
        for name in self.__slots__:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])


class _DrawBlock:
    """Pre-drawn noise, to amortize generator call overhead.  The height
    normals, read by every path on every step, come in blocks of rows, less
    deep for wide batches; compaction keeps the surviving columns, so it
    does not disturb the other paths' draws.  The side and bridge uniforms,
    read only on a line or near a boundary, come in order from a pool."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.z = np.empty((0, 0))
        self.pool = np.empty(0)
        self.i = self.j = 0

    def next(self, n: int) -> np.ndarray:
        """The height normals of the next step of n paths."""
        if self.i >= self.z.shape[0] or n != self.z.shape[1]:
            self.z = self.rng.standard_normal((max(8, min(_BLOCK, 2_000_000 // n)), n))
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
        self.z = self.z[self.i :, keep]
        self.i = 0


def _observe(st: _Arrays, co: _Coeffs, rng: np.random.Generator, loc=slice(None)) -> None:
    """Bring the abscissae at loc (default: all) up to their clocks: one
    normal each, with the variance accrued since the last observation.
    Height-only state has no abscissae."""
    if st.x is None:
        return
    sd = np.sqrt(st.xvar[loc]) * np.exp(0.5 * co.two_log_q * st.level[loc])
    st.x[loc] += co.x_scale * sd * rng.standard_normal(sd.size)
    st.xvar[loc] = 0.0


def _advance(st: _Arrays, co: _Coeffs, z: np.ndarray, draws: _DrawBlock):
    """One synchronized Euler step over all paths, with height normals z and
    the side and bridge uniforms taken from draws.  Height-only state
    (st.x is None) skips the abscissa variance and the branches.

    Returns (event_ids, event_dirs): the paths that committed to a new line
    this step and the direction they moved.  Everything else in st is
    updated in place."""
    planar = st.x is not None
    rel0 = st.rel
    new_rel = rel0 + (co.vol_sdt * z + co.mu_dt)

    lin = np.nonzero(st.on_line)[0]
    if lin.size:
        u = draws.uniforms(lin.size)
        # up with probability gamma, then the drift
        dep = np.copysign(np.abs(z[lin]), co.gamma - u) * co.vol_sdt + co.mu_dt
        new_rel[lin] = dep
        st.side[lin] = np.sign(dep)  # the drift may carry it across the line
        if planar:
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
    if planar:
        w = np.exp(co.two_log_q * rel0)
    st.t += co.dt
    cid = np.nonzero(crossed)[0]
    if cid.size:
        frac = np.minimum(rel0[cid] / (rel0[cid] - new_rel[cid]), 1.0)
        st.t[cid] -= co.dt * (1.0 - frac)
        if planar:
            w[cid] *= frac
    if hid.size:
        tgt = np.sign(new_rel[hid])
        frac = (tgt - rel0[hid]) / (new_rel[hid] - rel0[hid])
        st.t[hid] -= co.dt * (1.0 - frac)
        if planar:
            w[hid] *= frac
    if bridge_ids.size:
        st.t[bridge_ids] -= 0.5 * co.dt
        if planar:
            w[bridge_ids] *= 0.5
    if planar:
        st.xvar += w
        if st.xmax is not None:
            _observe(st, co, draws.rng)
            np.maximum(st.xmax, np.abs(st.x - st.x0), out=st.xmax)

    st.rel = new_rel
    st.on_line = crossed
    if cid.size:
        new_rel[cid] = 0.0
        st.side[cid] = 0
    event_ids = np.sort(np.concatenate([hid, bridge_ids])) if hid.size else bridge_ids
    if not event_ids.size:
        return event_ids, event_ids  # both empty
    dirs = np.where(new_rel[event_ids] > 0, 1, -1)
    new_rel[event_ids] = 0.0
    crossed[event_ids] = True
    st.side[event_ids] = 0
    st.level[event_ids] += dirs
    st.n_events[event_ids] += 1
    if planar:
        st.xvar[event_ids] *= np.exp(-co.two_log_q * dirs)
    return event_ids, dirs


@dataclass
class _Kept:
    """What `_drive` kept, per state field: each path's finished state
    (final, (n,)) and its states at the checkpoints (checkpoints, (n, k)).
    Horizon runs also keep the event stream, each path's events that
    arrived at level 0 and, with a record stride, one (path id, t, x, level,
    rel, side, child, n_events) tuple per path at the start, every
    record_stride iterations and at the finish."""

    final: dict[str, np.ndarray]
    checkpoints: dict[str, np.ndarray]
    ev_path: np.ndarray
    ev_dir: np.ndarray
    ev_child: np.ndarray
    ev_time: np.ndarray
    zero_visits: np.ndarray
    records: list[tuple]


def _drive(
    params: ModelParams,
    dt: float,
    rng: np.random.Generator,
    st: _Arrays,
    *,
    horizon: float | None = None,
    checkpoints=(),
    record_stride: int = 0,
) -> _Kept:
    """Step every path of st with the kernel until it finishes, and return
    what was kept (see _Kept).

    With a horizon a path finishes at its first state with clock >= horizon
    and is kept at the first state its clock reaches each checkpoint (an
    increasing sequence); without one, it finishes at its first skeleton
    event.  Abscissae are observed before they are kept; records need
    planar state.  Finished paths keep stepping until the next compaction,
    but nothing more of them is kept.
    """
    co, draws = _coeffs(params, dt), _DrawBlock(rng)
    n = st.t.size
    # the state to keep: all but the accrued variance (0 once observed) and x0
    fields = [
        f for f in _Arrays.__slots__ if f not in ("xvar", "x0") and getattr(st, f) is not None
    ]
    final = {f: np.empty(n, getattr(st, f).dtype) for f in fields}
    cps = np.append(np.asarray(checkpoints, dtype=float), np.inf)  # inf: no checkpoint left
    cp = {f: np.zeros((n, cps.size - 1), getattr(st, f).dtype) for f in fields}
    cp_ptr = np.zeros(n, dtype=np.int64)
    ev_path, ev_dir, ev_child, ev_time = array("q"), array("q"), array("h"), array("d")
    zero_visits = np.zeros(n, dtype=np.int64)
    records: list[tuple] = []
    max_iter = _HARD_ITER_CAP
    if horizon is not None:
        max_iter = min(max_iter, int(2 * horizon / dt) + 100_000)

    def record(loc):
        for i in loc.tolist():
            records.append(
                (idx.item(i), st.t.item(i), st.x.item(i), st.level.item(i), st.rel.item(i),
                 st.side.item(i), st.child.item(i), st.n_events.item(i))
            )

    def finish(loc):
        _observe(st, co, draws.rng, loc)
        g = idx[loc]
        for f, arr in final.items():
            arr[g] = getattr(st, f)[loc]
        if record_stride:
            record(loc)
        done[loc] = True

    idx = np.arange(n)  # path id per current (compacted) slot
    done = np.zeros(n, dtype=bool)
    if record_stride:
        record(idx)
    iters = 0
    while idx.size:
        iters += 1
        if iters > max_iter:
            raise RuntimeError("path run exceeded its iteration budget")
        eids, dirs = _advance(st, co, draws.next(idx.size), draws)
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
        if horizon is not None:
            while cps.size > 1:
                hit = ~done & (st.t >= cps[cp_ptr[idx]])
                if not hit.any():
                    break
                h = np.nonzero(hit)[0]
                g = idx[h]
                _observe(st, co, draws.rng, h)
                for f, arr in cp.items():
                    arr[g, cp_ptr[g]] = getattr(st, f)[h]
                cp_ptr[g] += 1
            at_horizon = ~done & (st.t >= horizon)
            if at_horizon.any():
                finish(np.nonzero(at_horizon)[0])
        if record_stride and iters % record_stride == 0:
            loc = np.nonzero(~done)[0]
            if loc.size:
                _observe(st, co, draws.rng, loc)
                record(loc)
        if iters % _COMPACT_EVERY == 0 and done.any():
            keep = ~done
            st.compress(keep)
            draws.compress(keep)
            idx = idx[keep]
            done = np.zeros(idx.size, dtype=bool)
    events = np.array(ev_path, np.int64), np.array(ev_dir, np.int64), np.array(ev_child, np.int16)
    return _Kept(final, cp, *events, np.array(ev_time), zero_visits, records)


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
        t=kept.final["t"],
        x=kept.final["x"],
        level=kept.final["level"],
        rel=kept.final["rel"],
        on_line=kept.final["on_line"],
        side=kept.final["side"],
        child=kept.final["child"],
        n_events=kept.final["n_events"],
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
    final = _drive(params, dt, rng, st).final
    # a path's only event is its first: its direction is the change of level
    side = (final["level"] - start_level).astype(np.int8)
    return FirstExit(final["t"], side, final["child"], final["x"], final.get("xmax"))


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
    kept = _drive(
        params, config.dt, rng, st, horizon=config.horizon, record_stride=config.record_stride
    )
    anchors = rebuild_vertices(params.p, kept.ev_dir, kept.ev_child, anchor)
    records = []
    for _, t, x, level, rel, side, child, k in kept.records:
        w = _tree_point(anchors[k], side, child, rel)
        d = distance_to_origin(params, x, w) if with_distance else None
        records.append(TrajectoryRecord(t, x, level + rel, w.upper, k, d))
    return records


def distance_to_origin(params: ModelParams, x: float, w: TreePoint) -> float:
    """Distance from (x, w) to the base point."""
    geo = HTParams(params.q, params.p)
    return ht_distance(geo, HTPoint(float(x), w), origin(geo))
