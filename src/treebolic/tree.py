"""The homogeneous tree with p forward branches, in p-adic ball coordinates.

A vertex at level m is the closed ball of radius p**-m in the p-adic line,
identified by its canonical center (digits only at indices < m).  Every
vertex has one predecessor (the ball one level coarser) and p successors.
Levels increase away from the fixed reference end ``omega``; the level is the
Busemann value ``hor``.  Edges are unit intervals, parametrized by an offset
t in (0, 1] measured from the predecessor, so a vertex is the point with
t = 1 on its lower edge.

Confluents (last common points of the rays toward omega) sit at the level
min(level v, level w, valuation of the center difference), which one routine
takes on Python integers for confluents, distances and cones alike.
"""

from __future__ import annotations

from .padic import PadicRational


class TreeVertex:
    """Ball (canonical center, level); identity is (level, center)."""

    __slots__ = ("center", "level")

    def __init__(self, center: PadicRational, level: int):
        if not isinstance(level, int) or isinstance(level, bool):
            raise ValueError("level must be an int")
        object.__setattr__(self, "center", center.ball_center(level))
        object.__setattr__(self, "level", level)

    def __setattr__(self, name, value):
        raise AttributeError("TreeVertex is immutable")

    @classmethod
    def root(cls, p: int) -> "TreeVertex":
        return cls(PadicRational.zero(p), 0)

    @property
    def p(self) -> int:
        return self.center.p

    @property
    def hor(self) -> int:
        return self.level

    def predecessor(self) -> "TreeVertex":
        return TreeVertex(self.center, self.level - 1)

    def successor(self, c: int) -> "TreeVertex":
        """The successor in branch c: the ball around center + c p**level,
        one level up."""
        if not 0 <= c < self.p:
            raise ValueError(f"branch must lie in [0, {self.p}), got {c}")
        center = self.center + PadicRational(self.p, int(c)).shift(self.level)
        return TreeVertex(center, self.level + 1)

    def successors(self) -> list["TreeVertex"]:
        return [self.successor(c) for c in range(self.p)]

    def __eq__(self, other):
        if not isinstance(other, TreeVertex):
            return NotImplemented
        return self.level == other.level and self.center == other.center

    def __hash__(self):
        return hash((self.level, self.center))

    def __repr__(self):
        return f"({self.center!r})@{self.level}"


class TreePoint:
    """Point of the metric tree: on the edge below ``upper``, offset in (0,1]."""

    __slots__ = ("upper", "offset")

    def __init__(self, upper: TreeVertex, offset: float):
        if not 0.0 < offset <= 1.0:
            raise ValueError(f"offset must lie in (0, 1], got {offset}")
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "offset", float(offset))

    def __setattr__(self, name, value):
        raise AttributeError("TreePoint is immutable")

    @classmethod
    def at_vertex(cls, v: TreeVertex) -> "TreePoint":
        return cls(v, 1.0)

    @property
    def hor(self) -> float:
        return self.upper.level - 1.0 + self.offset

    @property
    def is_vertex(self) -> bool:
        return self.offset == 1.0

    def __eq__(self, other):
        if not isinstance(other, TreePoint):
            return NotImplemented
        return self.upper == other.upper and self.offset == other.offset

    def __hash__(self):
        return hash((self.upper, self.offset))

    def __repr__(self):
        return f"TreePoint({self.upper!r}, t={self.offset:g})"


class TreeEnd:
    """Boundary point: the reference end omega, or a rational end of the
    p-adic line (the nested balls around a fixed u)."""

    __slots__ = ("value",)

    def __init__(self, value: PadicRational | None = None):
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("TreeEnd is immutable")

    @property
    def is_omega(self) -> bool:
        return self.value is None

    def __eq__(self, other):
        if not isinstance(other, TreeEnd):
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash(("end", self.value))

    def __repr__(self):
        return "omega" if self.is_omega else f"end({self.value!r})"


OMEGA = TreeEnd()


def _meet_level(a: PadicRational, b: PadicRational, cap: int) -> int:
    """min(cap, valuation of a - b): with a, b the centers of two vertices
    and cap the lower of their levels, the level of their confluent."""
    p = a.p
    if p != b.p:
        raise ValueError("base mismatch")
    # scaled by p**e the difference is the integer d, whose factors of p
    # count only up to the cap
    e = max(a.denom_exp, b.denom_exp)
    d = a.num * p ** (e - a.denom_exp) - b.num * p ** (e - b.denom_exp)
    if not d:
        return cap
    k = -e
    while k < cap and d % p == 0:
        d //= p
        k += 1
    return min(cap, k)


def confluent(v: TreeVertex, w: TreeVertex) -> TreeVertex:
    """Maximal common ancestor of two vertices with respect to omega: v or w
    itself when one lies on the other's ray, else a new vertex."""
    j = _meet_level(v.center, w.center, min(v.level, w.level))
    if j == v.level:
        return v
    if j == w.level:
        return w
    return TreeVertex(v.center, j)


def tree_distance(w1: TreeVertex | TreePoint, w2: TreeVertex | TreePoint) -> float:
    """Geodesic length in the metric tree (graph distance on vertices): the
    heights of the two points above their confluent."""
    u1 = w1 if isinstance(w1, TreeVertex) else w1.upper
    u2 = w2 if isinstance(w2, TreeVertex) else w2.upper
    h1, h2 = w1.hor, w2.hor
    j = _meet_level(u1.center, u2.center, min(u1.level, u2.level))
    return h1 + h2 - 2.0 * min(h1, h2, j)


def cone_contains(v: TreeVertex, target: TreeVertex | TreePoint | TreeEnd) -> bool:
    """Whether v lies on the geodesic from omega to ``target``."""
    if isinstance(target, TreeEnd):
        if target.is_omega:
            return False
        # an end lies above every level, so only v's level caps the meet
        return _meet_level(target.value, v.center, v.level) == v.level
    if isinstance(target, TreeVertex):
        u, top = target, target.level
    else:  # a point inside an edge meets v below its upper vertex
        u, top = target.upper, target.upper.level - (not target.is_vertex)
    return _meet_level(v.center, u.center, min(v.level, top)) == v.level


def boundary_mass(v: TreeVertex) -> float:
    """Mass p**(-hor(v)) of the set of ends whose rays pass through v."""
    return float(v.p) ** (-v.level)
