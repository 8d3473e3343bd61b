"""Treebolic space: hyperbolic strips glued p-to-1 along horizontal lines.

A point carries a real abscissa x and a metric-tree point w; its height in
the half-plane is q**hor(w) by construction, so the two coordinates can
never disagree.  The distance between points on a common branch is plain
hyperbolic distance; otherwise every path must cross the line at the level
of the tree confluent, and the crossing abscissa is found by a sampled and
ternary-refined bracketed search (the crossing objective can have one
valley near each abscissa, so a single unimodal search is not enough; see
the property tests).

The reference measures have the densities

    space:  beta**hor(v) * y**alpha           on the strip below vertex v,
    tree:   beta**hor(v) * q**((alpha-1) hor(w))   for w in (v-, v],

where a line belongs to the strip it bounds from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .halfplane import hyp_distance
from .tree import TreePoint, TreeVertex, confluent_point, tree_distance

#: Half the sandwich gap: log(1 + sqrt 2).
DELTA = math.log(1.0 + math.sqrt(2.0))

_MAX_TERNARY_ITER = 400
#: Absolute tolerance of the crossing-abscissa search.
_CROSSING_TOL = 1e-10


@dataclass(frozen=True)
class HTParams:
    """Geometry parameters: strip height ratio q > 1 and branching p >= 1."""

    q: float
    p: int

    def __post_init__(self):
        if not self.q > 1.0:
            raise ValueError("q must be > 1")
        if not (isinstance(self.p, int) and self.p >= 1):
            raise ValueError("p must be an integer >= 1")

    @property
    def log_q(self) -> float:
        return math.log(self.q)


@dataclass(frozen=True)
class HTPoint:
    """Point of treebolic space: abscissa plus metric-tree point."""

    x: float
    w: TreePoint


def origin(params: HTParams) -> HTPoint:
    """The base point (0, root vertex); its height is 1."""
    return HTPoint(0.0, TreePoint.at_vertex(TreeVertex.root(params.p)))


def z_of(params: HTParams, zf: HTPoint) -> complex:
    """Half-plane projection x + i q**hor(w)."""
    return complex(zf.x, params.q**zf.w.hor)


# relative offsets from both bracket endpoints at which the crossing
# objective is sampled before refinement; geometric so narrow valleys that
# hug an endpoint are resolved at every scale
_GRID_OFFSETS = tuple(10.0**-k for k in range(16, 0, -1)) + (0.2, 0.3, 0.4, 0.5)


def _ternary_min(f, lo: float, hi: float, tol: float) -> float:
    for _ in range(_MAX_TERNARY_ITER):
        if hi - lo <= tol:
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if f(m1) <= f(m2):
            hi = m2
        else:
            lo = m1
    return f(0.5 * (lo + hi))


def _crossing_min(z1: complex, z2: complex, y_cross: float) -> float:
    """min over x of d(z1, x + i y_cross) + d(x + i y_cross, z2).

    Both legs decrease strictly as x approaches the nearer abscissa from
    outside, so every local minimum lies between the two abscissae.  Inside
    that bracket the objective need not be unimodal: for horizontally
    distant points it has one valley near each abscissa with a hump in
    between.  The bracket is therefore sampled on a grid concentrated at
    both endpoints and each sampled basin is refined by ternary search.
    The grid is relative to the bracket, which makes the returned value
    equivariant under the affine isometries up to rounding.
    """

    def f(x: float) -> float:
        zc = complex(x, y_cross)
        return hyp_distance(z1, zc) + hyp_distance(zc, z2)

    x1, x2 = sorted((z1.real, z2.real))
    width = x2 - x1
    if width <= _CROSSING_TOL:
        return f(0.5 * (x1 + x2))
    xtol = max(_CROSSING_TOL, width * 1e-13)

    offsets = sorted({s for u in _GRID_OFFSETS for s in (u, 1.0 - u)})
    xs = [x1] + [x1 + s * width for s in offsets] + [x2]
    fs = [f(x) for x in xs]
    best = min(fs)
    last = len(xs) - 1
    for i in range(last + 1):
        if (i == 0 or fs[i] <= fs[i - 1]) and (i == last or fs[i] <= fs[i + 1]):
            best = min(best, _ternary_min(f, xs[max(i - 1, 0)], xs[min(i + 1, last)], xtol))
    return best


def ht_distance(params: HTParams, a: HTPoint, b: HTPoint) -> float:
    """Geodesic distance in treebolic space.

    If one tree point lies on the other's ray toward the reference end the
    two points share a half-plane copy and the distance is hyperbolic;
    otherwise the path must pass through the line at the confluent's level.
    """
    conf = confluent_point(a.w, b.w)
    z1, z2 = z_of(params, a), z_of(params, b)
    if conf == a.w or conf == b.w:
        return hyp_distance(z1, z2)
    y_cross = params.q**conf.hor
    return _crossing_min(z1, z2, y_cross)


def sandwich(params: HTParams, a: HTPoint, b: HTPoint) -> tuple[float, float, float]:
    """Closed-form two-sided estimate of the distance.

    Returns (mid, lower, upper) where

        mid = d_hyp + log q * d_tree - |log Im z1 - log Im z2|

    and the true distance lies in [lower, upper] = [mid - 2*DELTA, mid].
    """
    z1, z2 = z_of(params, a), z_of(params, b)
    mid = (
        hyp_distance(z1, z2)
        + params.log_q * tree_distance(a.w, b.w)
        - params.log_q * abs(a.w.hor - b.w.hor)
    )
    return mid, mid - 2.0 * DELTA, mid


def measure_density(params: HTParams, zf: HTPoint, alpha: float, beta: float) -> float:
    """Density beta**hor(v) * y**alpha of the reference measure at zf."""
    if not beta > 0:
        raise ValueError("beta must be > 0")
    y = params.q**zf.w.hor
    return beta**zf.w.upper.level * y**alpha


def tree_measure_density(w: TreePoint, alpha: float, beta: float, q: float) -> float:
    """Density beta**hor(v) * q**((alpha - 1) * hor(w)) of the projected measure."""
    if not beta > 0:
        raise ValueError("beta must be > 0")
    if not q > 1:
        raise ValueError("q must be > 1")
    return beta**w.upper.level * q ** ((alpha - 1.0) * w.hor)
