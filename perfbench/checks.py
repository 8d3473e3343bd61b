"""Correctness checks of the benchmark's outputs.

Every check compares against a closed form, an exact oracle or a property
the method must have; none compares against stored output.  Statistical
tolerances are Z standard errors plus a stated discretization allowance for
the Euler step dt (see README.md, "Tolerances").
"""

from __future__ import annotations

import math

import numpy as np

from treebolic import analysis, space
from treebolic.space import DELTA, HTPoint
from treebolic.tree import TreePoint

#: Standard errors per statistical gate; a two-sided normal tail of 5.7e-7.
Z = 5.0
#: Two-sample KS quantile at level 1e-6: sqrt(log(2 / 1e-6) / 2).
KS_C = math.sqrt(math.log(2.0 / 1e-6) / 2.0)
#: Rounding slack for the exact-geometry comparisons.
GEO_TOL = 1e-7

# Discretization allowances, as multiples of sqrt(dt): about twice the bias
# measured with 200k sojourn samples at dt = 5e-3 and 1e-2 (relative for the
# mean and the transform, absolute for probabilities).
MEAN_ALLOW = 0.6
LAPLACE_ALLOW = 0.15
PROB_ALLOW = 0.3
#: KS allowance for the finite horizon of the drift-free limit law, in units
#: of 1/sqrt(horizon / E tau): the additive O(1) part of the distance.
LIMIT_HORIZON_ALLOW = 4.0
#: Grid bias of E M+ for a Gaussian walk with n steps on [0, 1]:
#: -zeta(1/2) / sqrt(2 pi n) = 0.5826 / sqrt(n).
GRID_BIAS = 0.5826


class Checks:
    """Collects (name, passed, text) outcomes."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def expect(self, name: str, passed, text: str) -> None:
        self.items.append((name, bool(passed), text))

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.items)

    def failures(self) -> list[str]:
        return [f"{name}: {text}" for name, passed, text in self.items if not passed]


def _se_prop(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


# -- exact ------------------------------------------------------------------


def check_replay(c: Checks, run, points) -> None:
    """Replayed tree points against the kernel's own state, exactly: the
    vertex level, the height level + rel, and the event directions summing
    to the final level."""
    dir_sum = np.bincount(run.ev_path, weights=run.ev_dir, minlength=run.n_paths)
    bad_sum = int(np.count_nonzero(dir_sum.astype(np.int64) != run.level - run.start_level))
    c.expect("replay.direction_sum", bad_sum == 0, f"{bad_sum} paths whose event directions do not sum to the final level")
    bad_level, worst_hor = 0, 0.0
    for i, w in enumerate(points):
        level, rel = int(run.level[i]), float(run.rel[i])
        upper = level + 1 if (run.side[i] > 0 and rel != 0.0) else level
        bad_level += w.upper.level != upper
        worst_hor = max(worst_hor, abs(w.hor - (level + rel)))
    c.expect("replay.vertex_level", bad_level == 0, f"{bad_level} replayed vertices on the wrong level")
    c.expect("replay.height", worst_hor <= 1e-9, f"worst |hor - (level + rel)| = {worst_hor:.2e} <= 1e-9")


# -- properties ---------------------------------------------------------------


def check_distances(c: Checks, geo, xs, points, dists, label: str = "distance") -> None:
    """Each distance to the origin lies in the sandwich [mid - 2 delta, mid]
    and is at least log q |Y|."""
    org = space.origin(geo)
    worst_hi, worst_lo, worst_y = 0.0, 0.0, 0.0
    for x, w, d in zip(xs, points, dists):
        mid, _, _ = space.sandwich(geo, HTPoint(float(x), w), org)
        worst_hi = max(worst_hi, d - mid)
        worst_lo = max(worst_lo, mid - 2.0 * DELTA - d)
        worst_y = max(worst_y, geo.log_q * abs(w.hor) - d)
    c.expect(
        f"{label}.sandwich",
        worst_hi <= GEO_TOL and worst_lo <= GEO_TOL,
        f"worst sandwich violations {worst_hi:.2e} above, {worst_lo:.2e} below (<= {GEO_TOL:g})",
    )
    c.expect(f"{label}.height_bound", worst_y <= GEO_TOL, f"worst log q |Y| - d = {worst_y:.2e} <= {GEO_TOL:g}")


def check_trajectory(c: Checks, geo, records, horizon: float, dt: float, label: str) -> None:
    """Clocks increase and end in [horizon, horizon + dt); the strip vertex
    satisfies level - 1 < Y <= level; distances obey the sandwich."""
    t = np.array([r.t for r in records])
    c.expect(f"{label}.clock_increasing", bool(np.all(np.diff(t) > 0)), "record clocks strictly increase")
    c.expect(
        f"{label}.clock_end",
        horizon <= t[-1] < horizon + dt,
        f"last clock {t[-1]!r} in [{horizon!r}, {horizon + dt!r})",
    )
    bad_strip = sum(not (r.vertex.level - 1 < r.y <= r.vertex.level) for r in records)
    c.expect(f"{label}.strip_vertex", bad_strip == 0, f"{bad_strip} records with Y outside (level - 1, level]")
    n_ev = np.array([r.n_events for r in records])
    c.expect(f"{label}.events_monotone", bool(np.all(np.diff(n_ev) >= 0)), "event counts never decrease")
    if bad_strip == 0:
        points = [TreePoint(r.vertex, r.y - (r.vertex.level - 1)) for r in records]
        check_distances(c, geo, [r.x for r in records], points, [r.dist for r in records], f"{label}.distance")


# -- laws ---------------------------------------------------------------------


def sojourns_from_events(run, margin: float) -> np.ndarray:
    """Inter-event times of the sojourns that start at least `margin` before
    the horizon.  Whether a sojourn is taken depends only on the earlier
    ones, so the taken ones keep the sojourn law; the margin makes a sojourn
    still running at the horizon negligible."""
    order = np.lexsort((run.ev_time, run.ev_path))
    path, t = run.ev_path[order], run.ev_time[order]
    first = np.ones(path.size, dtype=bool)
    first[1:] = path[1:] != path[:-1]
    start = np.where(first, 0.0, np.roll(t, 1))
    return (t - start)[start < run.horizon - margin]


def check_sojourns(c: Checks, label: str, tau, exp_tau: float, laplace_1: float, dt: float) -> None:
    """Sojourn mean against E tau and E e^-tau against the transform at 1."""
    tau = np.asarray(tau, dtype=float)
    n = tau.size
    se = tau.std(ddof=1) / math.sqrt(n)
    tol = Z * se + MEAN_ALLOW * math.sqrt(dt) * exp_tau
    dev = abs(float(tau.mean()) - exp_tau)
    c.expect(f"{label}.mean", dev <= tol, f"|mean tau - {exp_tau:.5f}| = {dev:.2e} <= {tol:.2e} (n = {n})")
    e = np.exp(-tau)
    se_l = e.std(ddof=1) / math.sqrt(n)
    tol_l = Z * se_l + LAPLACE_ALLOW * math.sqrt(dt) * laplace_1
    dev_l = abs(float(e.mean()) - laplace_1)
    c.expect(f"{label}.laplace", dev_l <= tol_l, f"|E e^-tau - {laplace_1:.5f}| = {dev_l:.2e} <= {tol_l:.2e}")


def check_up_fraction(c: Checks, label: str, up, p_up: float, dt: float) -> None:
    up = np.asarray(up, dtype=bool)
    tol = Z * _se_prop(p_up, up.size) + PROB_ALLOW * math.sqrt(dt)
    dev = abs(float(up.mean()) - p_up)
    c.expect(f"{label}.up_fraction", dev <= tol, f"|up fraction - {p_up:.4f}| = {dev:.4f} <= {tol:.4f}")


def check_branches(c: Checks, label: str, branches, p: int) -> None:
    """Up-branches are uniform over the p successors (an exact law)."""
    branches = np.asarray(branches)
    n = branches.size
    freq = np.bincount(branches, minlength=p)[:p] / n
    tol = Z * _se_prop(1.0 / p, n)
    dev = float(np.abs(freq - 1.0 / p).max())
    ok = dev <= tol and int(branches.min()) >= 0 and int(branches.max()) < p
    c.expect(f"{label}.branches", ok, f"max |branch frequency - 1/{p}| = {dev:.4f} <= {tol:.4f}")


def check_events(c: Checks, label: str, run, cf, dt: float) -> None:
    """Laws of the event stream: sojourns, up-fraction and branches."""
    tau = sojourns_from_events(run, 7.5 * cf["exp_tau"])
    check_sojourns(c, label, tau, cf["exp_tau"], cf["laplace_1"], dt)
    up = run.ev_dir > 0
    check_up_fraction(c, label, up, cf["prob_up"], dt)
    check_branches(c, label, run.ev_child[up], run.params.p)


def check_exit_measure(c: Checks, em, dt: float) -> None:
    """Line masses against the closed-form masses; exit abscissae symmetric."""
    n = em.n
    masses, expected = em.line_masses(), em.expected_masses()
    tol = np.array([Z * _se_prop(e, n) for e in expected]) + PROB_ALLOW * math.sqrt(dt)
    c.expect(
        "exit.line_masses",
        bool(np.all(np.abs(masses - expected) <= tol)),
        f"masses {np.array2string(masses, precision=4)} vs {np.array2string(expected, precision=4)}"
        f" within {np.array2string(tol, precision=4)}",
    )
    sk = analysis.skewness(em.x)
    tol_sk = Z * analysis.skewness_se(em.x)
    c.expect("exit.skewness", abs(sk) <= tol_sk, f"|skewness of exit abscissae| = {abs(sk):.4f} <= {tol_sk:.4f}")


def check_limit_law(c: Checks, ks, n_paths: int, n_limit: int, sojourns: float, tops, grid_n: int) -> None:
    """d / sqrt(t) against the limit sampler by KS, and the sampler's E M+
    against sqrt(2 / pi)."""
    thr = LIMIT_HORIZON_ALLOW / math.sqrt(sojourns) + KS_C * math.sqrt(1.0 / n_paths + 1.0 / n_limit)
    c.expect("limit.ks", ks <= thr, f"KS(d / sqrt t, limit sampler) = {ks:.4f} <= {thr:.4f}")
    tops = np.asarray(tops, dtype=float)
    target = math.sqrt(2.0 / math.pi)
    tol = Z * tops.std(ddof=1) / math.sqrt(tops.size) + GRID_BIAS / math.sqrt(grid_n)
    dev = abs(float(tops.mean()) - target)
    c.expect("limit.max_mean", dev <= tol, f"|E M+ - {target:.4f}| = {dev:.4f} <= {tol:.4f}")
