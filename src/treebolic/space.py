"""Treebolic space: hyperbolic strips glued p-to-1 along horizontal lines.

A point carries a real abscissa x and a metric-tree point w; its height in
the half-plane is q**hor(w) by construction, so the two coordinates can
never disagree.  The distance between points on a common branch is plain
hyperbolic distance; otherwise every path must cross the line at the level
of the tree confluent.  A geodesic crosses that line where its two arcs meet
it at equal angles (a reflection law), so the crossing abscissa is a real
root of a cubic or an endpoint of the bracket; the crossing objective can
have one valley near each abscissa, and every valley bottom is such a root.

The reference measures have the densities

    space:  beta**hor(v) * y**alpha           on the strip below vertex v,
    tree:   beta**hor(v) * q**((alpha-1) hor(w))   for w in (v-, v],

where a line belongs to the strip it bounds from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .halfplane import hyp_distance
from .tree import TreePoint, TreeVertex, confluent, tree_distance

if TYPE_CHECKING:
    from .closed_forms import ModelParams

#: Half the sandwich gap: log(1 + sqrt 2).
DELTA = math.log(1.0 + math.sqrt(2.0))


@dataclass(frozen=True)
class HTParams:
    """Geometry parameters: strip height ratio q > 1 and branching p >= 1."""

    q: float
    p: int

    def __post_init__(self):
        if not 1.0 < self.q < math.inf:
            raise ValueError("q must be finite and > 1")
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


def _cubic_roots(p: float, q: float) -> list[float]:
    """Real roots of t**3 + p t + q (one root, or all three when they are real)."""
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if p < 0.0 and disc <= 0.0:
        r = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * r))))
        return [r * math.cos((phi - 2.0 * math.pi * k) / 3.0) for k in range(3)]
    a = -math.copysign((abs(q) / 2.0 + math.sqrt(disc)) ** (1.0 / 3.0), q)
    return [a - p / (3.0 * a)] if a else [0.0]


def _crossing_min(z1: complex, z2: complex, y_cross: float) -> float:
    """min over x of d(z1, x + i y_cross) + d(x + i y_cross, z2).

    Both legs decrease strictly as x approaches the nearer abscissa from
    outside, so the minimum lies in [x1, x2] (x1 <= x2).  At an interior
    stationary point c the two arcs meet the horizontal line at equal
    angles, so their centres are mirror images in the vertical line through
    c: z2 reflected in that line lies on the arc from c to z1.  Eliminating
    the common radius leaves, with w = x2 - x1, Y = y_cross and
    t = x - (x1 + x2) / 2, the cubic

        t**3 + p t + q = 0,  p = (y1**2 + y2**2 - 2 Y**2) / 2 - w**2 / 4,
                             q = w (y2**2 - y1**2) / 4.

    The minimum is taken over x1, x2 and the cubic's real roots clamped to
    the bracket; a spurious candidate only evaluates the objective, so it
    cannot undercut the minimum.  The cubic is homogeneous, so it is solved
    in units of max(w, y1, y2), where no power overflows.
    """
    if z2.real < z1.real:
        z1, z2 = z2, z1
    x1, x2 = z1.real, z2.real
    s = max(x2 - x1, z1.imag, z2.imag)
    w, y1, y2, y = (x2 - x1) / s, z1.imag / s, z2.imag / s, y_cross / s
    p = (y1 * y1 + y2 * y2 - 2.0 * y * y) / 2.0 - w * w / 4.0
    q = w * (y2 * y2 - y1 * y1) / 4.0
    mid = 0.5 * (x1 + x2)
    xs = [x1, x2] + [min(max(mid + s * t, x1), x2) for t in _cubic_roots(p, q)]
    return min(
        hyp_distance(z1, complex(x, y_cross)) + hyp_distance(complex(x, y_cross), z2)
        for x in xs
    )


def ht_distance(params: HTParams, a: HTPoint, b: HTPoint) -> float:
    """Geodesic distance in treebolic space.

    If one tree point lies on the other's ray toward the reference end the
    two points share a half-plane copy and the distance is hyperbolic;
    otherwise the path must pass through the line at the confluent's level.
    """
    c = confluent(a.w.upper, b.w.upper)
    z1, z2 = z_of(params, a), z_of(params, b)
    if c is a.w.upper or c is b.w.upper:
        return hyp_distance(z1, z2)
    return _crossing_min(z1, z2, params.q**c.level)


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


def measure_density(params: ModelParams, zf: HTPoint) -> float:
    """Density beta**hor(v) * y**alpha of the reference measure at zf."""
    y = params.q**zf.w.hor
    return params.beta**zf.w.upper.level * y**params.alpha


def tree_measure_density(params: ModelParams, w: TreePoint) -> float:
    """Density beta**hor(v) * q**((alpha - 1) * hor(w)) of the projected measure."""
    return params.beta**w.upper.level * params.q ** ((params.alpha - 1.0) * w.hor)
