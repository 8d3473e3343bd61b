import math

import numpy as np
import pytest

from treebolic.closed_forms import ModelParams
from treebolic.halfplane import hyp_distance
from treebolic.space import (
    DELTA,
    HTParams,
    HTPoint,
    ht_distance,
    measure_density,
    origin,
    sandwich,
    tree_measure_density,
    z_of,
)
from treebolic.tree import TreePoint, TreeVertex, confluent

GEO = HTParams(2.0, 2)
DRIFTED = ModelParams(2.0, 2, 1.0, 1.0)
ROOT = TreeVertex.root(2)


def _pt(x, vertex, offset=1.0):
    return HTPoint(x, TreePoint(vertex, offset))


def _random_point(rng, geo=GEO, steps=6, x_scale=3.0):
    v = TreeVertex.root(geo.p)
    for _ in range(rng.integers(0, steps + 1)):
        v = v.predecessor() if rng.random() < 0.4 else v.successors()[rng.integers(geo.p)]
    return HTPoint(float(rng.normal(0, x_scale)), TreePoint(v, 1.0 - float(rng.random())))


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HTParams(1.0, 2)
        with pytest.raises(ValueError):
            HTParams(2.0, 0)
        with pytest.raises(ValueError):
            HTParams(float("inf"), 2)

    def test_model_params_are_geometry(self):
        assert isinstance(DRIFTED, HTParams)
        rng = np.random.default_rng(12)
        for _ in range(50):
            a, b = _random_point(rng), _random_point(rng)
            assert ht_distance(DRIFTED, a, b) == ht_distance(GEO, a, b)

    def test_origin_height_is_one(self):
        assert z_of(GEO, origin(GEO)) == 1j


class TestDistanceCases:
    def test_same_point(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = _random_point(rng)
            assert ht_distance(GEO, a, a) == 0.0

    def test_vertical_branch(self):
        # two points stacked on one branch: plain vertical geodesic
        v = ROOT
        up = v.successors()[0].successors()[0]
        d = ht_distance(GEO, _pt(0.0, v), _pt(0.0, up))
        assert d == pytest.approx(2 * math.log(2.0), abs=1e-12)

    def test_sibling_points_drop_to_shared_line(self):
        a, b = ROOT.successors()
        d = ht_distance(GEO, _pt(0.0, a), _pt(0.0, b))
        assert d == pytest.approx(2 * math.log(2.0), abs=1e-9)

    def test_case_one_equals_hyperbolic(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a = _random_point(rng)
            # a second point on the same downward ray
            steps = rng.integers(1, 4)
            v = a.w.upper
            for _ in range(steps):
                v = v.predecessor()
            b = HTPoint(float(rng.normal(0, 3)), TreePoint(v, 1.0 - float(rng.random())))
            if confluent(a.w.upper, b.w.upper) not in (a.w.upper, b.w.upper):
                continue
            d = ht_distance(GEO, a, b)
            assert d == pytest.approx(hyp_distance(z_of(GEO, a), z_of(GEO, b)), abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = _random_point(rng), _random_point(rng)
            assert ht_distance(GEO, a, b) == pytest.approx(
                ht_distance(GEO, b, a), abs=1e-10
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        tol = 1e-10
        for _ in range(300):
            a, b, c = (_random_point(rng) for _ in range(3))
            assert ht_distance(GEO, a, c) <= (
                ht_distance(GEO, a, b) + ht_distance(GEO, b, c) + 2 * tol
            )


class TestCrossingSearch:
    def test_matches_dense_grid_oracle(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 60:
            a, b = _random_point(rng), _random_point(rng)
            conf = confluent(a.w.upper, b.w.upper)
            if conf == a.w.upper or conf == b.w.upper:
                continue
            checked += 1
            z1, z2 = z_of(GEO, a), z_of(GEO, b)
            yc = GEO.q**conf.level
            lo, hi = min(z1.real, z2.real), max(z1.real, z2.real)
            xs = np.linspace(lo, hi, 40001)
            fs = [
                hyp_distance(z1, complex(x, yc)) + hyp_distance(complex(x, yc), z2)
                for x in xs
            ]
            d = ht_distance(GEO, a, b)
            # the search evaluates the true objective, so it can only sit at or
            # below any sampled value; the grid pins it from above
            assert d <= min(fs) + 1e-9
            assert d >= min(fs) - 1e-4  # grid resolution allowance

    def test_minima_lie_between_the_abscissae(self):
        # all grid local minima of the crossing objective sit inside [x1, x2];
        # there can legitimately be two of them (one valley near each side)
        rng = np.random.default_rng(5)
        seen_two = 0
        checked = 0
        while checked < 80:
            a, b = _random_point(rng, x_scale=6.0), _random_point(rng, x_scale=6.0)
            conf = confluent(a.w.upper, b.w.upper)
            if conf == a.w.upper or conf == b.w.upper:
                continue
            checked += 1
            z1, z2 = z_of(GEO, a), z_of(GEO, b)
            yc = GEO.q**conf.level
            lo, hi = min(z1.real, z2.real), max(z1.real, z2.real)
            pad = max(1.0, hi - lo)
            xs = np.linspace(lo - pad, hi + pad, 8001)
            fs = np.array(
                [hyp_distance(z1, complex(x, yc)) + hyp_distance(complex(x, yc), z2) for x in xs]
            )
            interior = (fs[1:-1] <= fs[:-2]) & (fs[1:-1] <= fs[2:])
            mins = xs[1:-1][interior]
            assert len(mins) >= 1
            assert (mins >= lo - 1e-9).all() and (mins <= hi + 1e-9).all()
            if len(mins) > 1:
                seen_two += 1
        assert seen_two > 0  # the two-valley shape genuinely occurs

    @staticmethod
    def _grid_min(z1, z2, yc, lo, hi):
        xs = np.linspace(lo, hi, 40001)
        return min(
            hyp_distance(z1, complex(x, yc)) + hyp_distance(complex(x, yc), z2) for x in xs
        )

    def test_equal_abscissae(self):
        # w = 0: the crossing sits straight below both points
        a, b = _pt(0.7, ROOT.successors()[0], 0.4), _pt(0.7, ROOT.successors()[1], 0.9)
        z1, z2 = z_of(GEO, a), z_of(GEO, b)
        d = ht_distance(GEO, a, b)
        assert d == hyp_distance(z1, 0.7 + 1j) + hyp_distance(0.7 + 1j, z2)
        grid = self._grid_min(z1, z2, 1.0, -1.3, 2.7)
        assert grid - 1e-4 <= d <= grid + 1e-9

    def test_point_next_to_the_crossing_line(self):
        # a sits 1e-9 (in level) above the line Y = 1 it must cross, so the
        # distance exceeds the hyperbolic one by at most 2 d(z1, x1 + iY)
        a, b = _pt(0.3, ROOT.successors()[0], 1e-9), _pt(2.5, ROOT.successors()[1], 0.6)
        z1, z2 = z_of(GEO, a), z_of(GEO, b)
        d = ht_distance(GEO, a, b)
        h = hyp_distance(z1, z2)
        assert h <= d <= h + 2.0 * math.log(z1.imag)
        grid = self._grid_min(z1, z2, 1.0, 0.3, 2.5)
        assert grid - 1e-4 <= d <= grid + 1e-9

    def test_two_valleys_far_from_the_origin(self):
        # a two-valley pair near x = 1e3 agrees with its translate near 0
        # and with the grid; translations are isometries
        lo, hi = 1000.25, 1012.0
        z1, z2 = complex(lo, 2.0), complex(hi, 2.0)
        xs = np.linspace(lo, hi, 2001)
        fs = np.array(
            [hyp_distance(z1, complex(x, 1.0)) + hyp_distance(complex(x, 1.0), z2) for x in xs]
        )
        assert ((fs[1:-1] < fs[:-2]) & (fs[1:-1] < fs[2:])).sum() == 2
        ends = ROOT.successors()
        d = ht_distance(GEO, _pt(lo, ends[0]), _pt(hi, ends[1]))
        d0 = ht_distance(GEO, _pt(0.25, ends[0]), _pt(12.0, ends[1]))
        assert d == pytest.approx(d0, rel=1e-12)
        grid = self._grid_min(z1, z2, 1.0, lo, hi)
        assert grid - 1e-4 <= d <= grid + 1e-9

    def test_far_above_the_base_line(self):
        # z -> 2**300 z paired with a 300-level shift is an isometry
        v = ROOT
        for _ in range(300):
            v = v.successors()[0]
        far = [_pt(s * 2.0**300, u, 0.5) for s, u in zip((0.3, 2.1), v.successors())]
        near = [_pt(s, u, 0.5) for s, u in zip((0.3, 2.1), ROOT.successors())]
        assert ht_distance(GEO, *far) == pytest.approx(ht_distance(GEO, *near), rel=1e-12)

    def test_never_below_the_half_plane_distance(self):
        # the projection to the half-plane is 1-Lipschitz; offsets near 0
        # put points next to the line they must cross
        rng = np.random.default_rng(7)
        for _ in range(2000):
            a, b = _random_point(rng), _random_point(rng)
            a = HTPoint(a.x, TreePoint(a.w.upper, 10.0 ** -rng.uniform(0, 12)))
            d, h = ht_distance(GEO, a, b), hyp_distance(z_of(GEO, a), z_of(GEO, b))
            assert d >= h * (1.0 - 1e-15)


class TestSandwich:
    def test_sibling_case_equality(self):
        a, b = ROOT.successors()
        mid, lower, upper = sandwich(GEO, _pt(0.0, a), _pt(0.0, b))
        assert mid == pytest.approx(2 * math.log(2.0), abs=1e-12)
        assert mid == pytest.approx(ht_distance(GEO, _pt(0.0, a), _pt(0.0, b)), abs=1e-9)

    def test_case_one_equality(self):
        v = ROOT.successors()[1]
        a, b = _pt(0.25, v), _pt(0.25, v.successors()[0])
        mid, _, _ = sandwich(GEO, a, b)
        assert mid == pytest.approx(ht_distance(GEO, a, b), abs=1e-12)

    def test_bounds_hold(self):
        rng = np.random.default_rng(6)
        for _ in range(2000):
            a, b = _random_point(rng), _random_point(rng)
            d = ht_distance(GEO, a, b)
            mid, lower, upper = sandwich(GEO, a, b)
            assert lower == pytest.approx(mid - 2 * DELTA)
            assert upper == mid
            assert d <= mid + 1e-8
            assert mid <= d + 2 * DELTA + 1e-8


class TestDensities:
    def test_origin_density_is_one(self):
        assert measure_density(ModelParams(2.0, 2, 1.3, 0.7), origin(GEO)) == 1.0

    def test_alpha_zero_constant_per_strip(self):
        v = ROOT.successors()[0]
        m = ModelParams(2.0, 2, 0.0, 0.5)
        d1 = measure_density(m, _pt(0.0, v, 0.2))
        d2 = measure_density(m, _pt(3.0, v, 0.9))
        assert d1 == d2 == 0.5

    def test_strip_below_level_one_vertex(self):
        v = ROOT.successors()[0]
        val = measure_density(ModelParams(2.0, 2, 1.0, 0.5), _pt(0.0, v, 1.0))
        assert val == pytest.approx(1.0)

    def test_tree_density_base_point(self):
        m = ModelParams(2.0, 2, 2.0, 0.7)
        assert tree_measure_density(m, TreePoint.at_vertex(ROOT)) == pytest.approx(0.7**0)

    def test_tree_density_alpha_one_is_q_free(self):
        w = TreePoint(ROOT.successors()[0], 0.3)
        m2, m3 = ModelParams(2.0, 2, 1.0, 0.5), ModelParams(3.0, 2, 1.0, 0.5)
        assert tree_measure_density(m2, w) == tree_measure_density(m3, w)

    def test_tree_density_midpoint(self):
        w = TreePoint(ROOT.successors()[0], 0.5)  # hor = 0.5, below a level-1 vertex
        assert tree_measure_density(ModelParams(2.0, 2, 2.0, 1.0), w) == pytest.approx(math.sqrt(2.0))


def test_line_points_belong_to_strip_below():
    # a point on the line at a vertex uses that vertex's strip weight
    v = ROOT.successors()[1]
    on_line = _pt(0.0, v, 1.0)
    assert measure_density(ModelParams(2.0, 2, 0.0, 0.25), on_line) == 0.25  # beta**hor(v), v at level 1
