import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from treebolic.padic import PadicRational
from treebolic.tree import (
    OMEGA,
    TreeEnd,
    TreePoint,
    TreeVertex,
    boundary_mass,
    cone_contains,
    confluent,
    tree_distance,
)


def vert(num, level, l=0, p=2):
    return TreeVertex(PadicRational(p, num, l), level)


ROOT = TreeVertex.root(2)


class TestStructure:
    def test_root_children(self):
        assert ROOT.successors() == [vert(0, 1), vert(1, 1)]

    def test_predecessor_of_child_is_root(self):
        assert vert(1, 1).predecessor() == ROOT

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        v = ROOT
        for _ in range(200):
            v = v.successors()[rng.integers(2)] if rng.random() < 0.6 else v.predecessor()
            for w in v.successors():
                assert w.predecessor() == v

    def test_level_bookkeeping(self):
        assert ROOT.predecessor().hor == -1
        assert all(w.hor == 1 for w in ROOT.successors())

    def test_centers_stay_canonical(self):
        v = vert(3, 2)  # canonicalized on construction
        assert v.center == v.center.ball_center(2)

    def test_branching_one(self):
        r1 = TreeVertex.root(1)
        assert r1.successors() == [TreeVertex(PadicRational(1, 0), 1)]
        assert r1.successors()[0].predecessor() == r1

    def test_successor_branch_range(self):
        for c in (-1, 2):
            with pytest.raises(ValueError):
                ROOT.successor(c)


class TestConfluent:
    def test_self(self):
        assert confluent(ROOT, ROOT) == ROOT

    def test_siblings_meet_at_parent(self):
        a, b = ROOT.successors()
        assert confluent(a, b) == ROOT

    def test_valuation_case(self):
        # centers 1 and 3 at level 2 differ by 2, so they merge one level down
        assert confluent(vert(1, 2), vert(3, 2)) == vert(1, 1)


class TestHor:
    def test_edge_point(self):
        assert TreePoint(vert(0, 2), 0.25).hor == pytest.approx(1.25)

    def test_identity_against_confluent_form(self):
        rng = np.random.default_rng(1)
        for _ in range(2000):
            v = ROOT
            for _ in range(rng.integers(0, 10)):
                v = v.predecessor() if rng.random() < 0.4 else v.successors()[rng.integers(2)]
            b = confluent(v, ROOT)
            assert v.hor == tree_distance(v, b) - tree_distance(ROOT, b)

    def test_predecessor_drops_one(self):
        rng = np.random.default_rng(2)
        v = ROOT
        for _ in range(100):
            v = v.predecessor() if rng.random() < 0.5 else v.successors()[rng.integers(2)]
            assert v.predecessor().hor == v.hor - 1


class TestDistance:
    def test_siblings(self):
        a, b = ROOT.successors()
        assert tree_distance(a, b) == 2

    def test_parent(self):
        assert tree_distance(ROOT, ROOT.predecessor()) == 1

    def test_same_edge_points(self):
        a = TreePoint(vert(1, 1), 0.25)
        b = TreePoint(vert(1, 1), 0.875)
        assert tree_distance(a, b) == pytest.approx(0.625)

    def test_stacked_edges(self):
        a = TreePoint(vert(1, 1), 0.5)
        b = TreePoint(vert(3, 2), 0.5)  # directly above
        assert tree_distance(a, b) == pytest.approx(1.0)

    def test_cross_branch_points(self):
        a = TreePoint(vert(0, 1), 0.5)
        b = TreePoint(vert(1, 1), 0.5)
        assert tree_distance(a, b) == pytest.approx(1.0)


class TestCones:
    def test_children_in_root_cone(self):
        for w in ROOT.successors():
            assert cone_contains(ROOT, w)

    def test_sibling_not_in_cone(self):
        a, b = ROOT.successors()
        assert not cone_contains(a, b)

    def test_rational_end(self):
        one = PadicRational(2, 1)
        assert cone_contains(vert(1, 1), TreeEnd(one))
        assert not cone_contains(vert(0, 1), TreeEnd(one))

    def test_omega_never_contained(self):
        assert not cone_contains(ROOT, OMEGA)

    def test_edge_point_follows_lower_vertex(self):
        a, _ = ROOT.successors()
        inner = TreePoint(a, 0.5)  # strictly below a
        assert not cone_contains(a, inner)
        assert cone_contains(ROOT, inner)
        assert cone_contains(a, TreePoint.at_vertex(a))


class TestBoundaryMass:
    def test_level_one(self):
        assert boundary_mass(vert(1, 1)) == pytest.approx(0.5)

    def test_root(self):
        assert boundary_mass(ROOT) == 1.0

    def test_additive_over_children(self):
        rng = np.random.default_rng(3)
        v = ROOT
        for _ in range(50):
            v = v.predecessor() if rng.random() < 0.5 else v.successors()[rng.integers(2)]
            assert boundary_mass(v) == pytest.approx(
                sum(boundary_mass(w) for w in v.successors())
            )


def test_vertex_repr():
    assert repr(vert(3, 2)) == "(3)@2"


def test_vertex_level_validation():
    for level in (1.0, True):  # a bool is an int to isinstance
        with pytest.raises(ValueError):
            TreeVertex(PadicRational(2, 1), level)


def test_point_offset_validation():
    with pytest.raises(ValueError):
        TreePoint(ROOT, 0.0)
    with pytest.raises(ValueError):
        TreePoint(ROOT, 1.5)


@settings(max_examples=200, deadline=None)
@given(
    p=hst.integers(1, 4),
    level=hst.integers(-6, 6),
    num=hst.integers(0, 10**6),
    denom=hst.integers(0, 8),
    c=hst.integers(0, 3),
)
def test_successor_is_one_of_the_successors(p, level, num, denom, c):
    v = TreeVertex(PadicRational(p, num if p > 1 else 0, denom), level)
    c %= p
    kids = v.successors()
    assert kids == [v.successor(j) for j in range(p)]
    assert v.successor(c).predecessor() == v
    assert tree_distance(v, v.successor(c)) == 1
    assert len(set(kids)) == p


def _valuation_confluent(v, w):
    """The confluent from the valuation of the center difference in Z[1/p]
    arithmetic, which builds PadicRational objects: the oracle for the
    integer valuation."""
    if v.p != w.p:
        raise ValueError("base mismatch")
    j = min(v.level, w.level, (v.center - w.center).valuation())
    return TreeVertex(v.center, int(j))


def _valuation_confluent_point(a, b):
    if a.upper == b.upper:
        return a if a.offset <= b.offset else b
    c = _valuation_confluent(a.upper, b.upper)
    if c == a.upper:
        return a
    if c == b.upper:
        return b
    return TreePoint.at_vertex(c)


def _as_point(w):
    return TreePoint.at_vertex(w) if isinstance(w, TreeVertex) else w


@hst.composite
def _vertex_pairs(draw):
    """Two vertices of one tree, p in {1, 2, 3, 4, 6}, levels in [-300, 300]:
    equal (as distinct objects), the second on the first's ray (below it)
    or the first on the second's (above it), or the second's center the
    first's plus a random number times p**k for a random k."""
    p = draw(hst.sampled_from([1, 2, 3, 4, 6]))
    levels = hst.integers(-300, 300)

    def number(denom_exp):
        return PadicRational(p, 0 if p == 1 else draw(hst.integers(-(p**320), p**320)), denom_exp)

    v = TreeVertex(number(draw(hst.integers(0, 320))), draw(levels))
    kind = draw(hst.sampled_from(["equal", "below", "above", "other"]))
    if kind == "equal":
        w = TreeVertex(v.center, v.level)
    elif kind == "below":
        w = TreeVertex(v.center, draw(hst.integers(-300, v.level)))
    elif kind == "above":
        w = TreeVertex(v.center + number(0).shift(v.level), draw(hst.integers(v.level, 300)))
    else:
        w = TreeVertex(v.center + number(draw(hst.integers(0, 320))).shift(draw(levels)), draw(levels))
    return (v, w) if draw(hst.booleans()) else (w, v)


@settings(max_examples=400, deadline=None)
@given(pair=_vertex_pairs(), offsets=hst.tuples(hst.floats(0.0, 1.0), hst.floats(0.0, 1.0)))
# points on a common ray (3 = 1 + 2: (3)@2 is above (1)@1) and on one edge
@example(pair=(vert(1, 1), vert(3, 2)), offsets=(0.25, 0.5))
@example(pair=(vert(1, 1), vert(1, 1)), offsets=(0.25, 0.75))
def test_confluents_match_the_valuation_formula(pair, offsets):
    v, w = pair
    c, want = confluent(v, w), _valuation_confluent(v, w)
    assert c == want
    # the vertex itself when it is the confluent, v first
    assert c is v if want == v else c is w if want == w else c is not v and c is not w
    a, b = (TreePoint(u, max(t, 2.0**-60)) for u, t in zip(pair, offsets))
    for x, y in ((a, b), (b, a), (v, b), (a, w), (v, w)):
        px, py = _as_point(x), _as_point(y)
        want = _valuation_confluent_point(px, py)
        assert tree_distance(x, y) == px.hor + py.hor - 2.0 * want.hor


def _on_the_ray(v, w):
    """Whether v lies on w's ray to omega, by walking w's predecessors down
    to the level of v: the oracle for cone_contains."""
    if w.level < v.level:
        return False
    while w.level > v.level:
        w = w.predecessor()
    return w == v


@settings(max_examples=300, deadline=None)
@given(pair=_vertex_pairs(), offset=hst.floats(0.0, 1.0))
def test_cone_contains_matches_the_ray_walk(pair, offset):
    v, w = pair
    assert cone_contains(v, w) == _on_the_ray(v, w)
    # a point inside the edge below w is on the ray of w's predecessor
    point = TreePoint(w, max(offset, 2.0**-60))
    assert cone_contains(v, point) == _on_the_ray(v, w if point.is_vertex else w.predecessor())


def _cone_contains_by_predecessor(v, w):
    """v is the confluent of itself and w's upper vertex, or of its
    predecessor for a point inside an edge: the oracle for cone_contains on
    tree points."""
    return confluent(v, w.upper if w.is_vertex else w.upper.predecessor()) is v


@settings(max_examples=300, deadline=None)
@given(pair=_vertex_pairs(), offset=hst.just(1.0) | hst.floats(2.0**-60, 1.0))
def test_cone_contains_a_point_matches_the_predecessor_route(pair, offset):
    v, w = pair
    for x, y in ((v, w), (w, v)):
        point = TreePoint(y, offset)
        assert cone_contains(x, point) == _cone_contains_by_predecessor(x, point)


@settings(max_examples=300, deadline=None)
@given(pair=_vertex_pairs(), data=hst.data())
def test_cone_contains_an_end_matches_the_valuation(pair, data):
    v, w = pair
    p = v.p
    num = 0 if p == 1 else data.draw(hst.integers(-(p**320), p**320))
    other = PadicRational(p, num, data.draw(hst.integers(0, 320)))
    # its leading digit lands within two levels of v's, where the answer turns
    lead = 0 if other.is_zero else v.level - other.valuation()
    for u in (v.center, w.center, v.center + other.shift(lead + data.draw(hst.integers(-2, 1)))):
        # the oracle: the end's ray passes v when u lies in v's ball
        assert cone_contains(v, TreeEnd(u)) == ((u - v.center).valuation() >= v.level)


@pytest.mark.parametrize("p, q", [(2, 3), (1, 2), (4, 2)])
def test_confluent_rejects_a_base_mismatch(p, q):
    v, w = TreeVertex.root(p), TreeVertex.root(q)
    for x, y in ((v, w), (w, v)):
        with pytest.raises(ValueError):
            confluent(x, y)
        with pytest.raises(ValueError):
            tree_distance(x, TreePoint(y, 0.5))
        with pytest.raises(ValueError):
            cone_contains(x, TreeEnd(y.center))
