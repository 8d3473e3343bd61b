import math

import numpy as np
import pytest

from treebolic.halfplane import apex, busemann, hyp_distance


class TestDistance:
    def test_vertical_geodesic(self):
        assert hyp_distance(1j, 4j) == pytest.approx(math.log(4.0), abs=1e-14)

    def test_unit_horizontal_offset(self):
        assert hyp_distance(1j, 1 + 1j) == pytest.approx(math.acosh(1.5), abs=1e-14)

    def test_symmetric_and_zero_on_diagonal(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            z1 = complex(rng.uniform(-5, 5), math.exp(rng.uniform(-2, 2)))
            z2 = complex(rng.uniform(-5, 5), math.exp(rng.uniform(-2, 2)))
            assert hyp_distance(z1, z2) == hyp_distance(z2, z1)
        assert hyp_distance(z1, z1) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(5000):
            z = [
                complex(rng.uniform(-5, 5), math.exp(rng.uniform(-2, 2)))
                for _ in range(3)
            ]
            assert hyp_distance(z[0], z[2]) <= (
                hyp_distance(z[0], z[1]) + hyp_distance(z[1], z[2]) + 1e-12
            )

    def test_nearby_points_keep_their_digits(self):
        # horizontal: 2 asinh(gap / 2) = gap to 1e-9; vertical: log(1 + gap / 2)
        for gap in (1e-12, 1e-9, 1e-7, 1e-4):
            assert hyp_distance(1j, gap + 1j) == pytest.approx(gap, rel=1e-9)
            assert hyp_distance(2j, complex(0, 2 + gap)) == pytest.approx(
                math.log1p(gap / 2), rel=1e-12
            )

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            hyp_distance(1j, 1 - 1j)


class TestApex:
    def test_symmetric_pair(self):
        assert apex(-1 + 1j, 1 + 1j) == pytest.approx(complex(0, math.sqrt(2.0)))

    def test_same_point(self):
        assert apex(2 + 3j, 2 + 3j) == 2 + 3j

    def test_vertical_pair_takes_higher(self):
        assert apex(1j, 5j) == 5j

    def test_top_outside_segment_clamps_to_endpoint(self):
        # nearly-stacked points: the circle top is far to the side, off the arc
        z1, z2 = 1j, 0.1 + 100j
        assert apex(z1, z2) == z2

    def test_apex_at_least_as_high(self):
        rng = np.random.default_rng(2)
        for _ in range(5000):
            z1 = complex(rng.uniform(-5, 5), math.exp(rng.uniform(-2, 2)))
            z2 = complex(rng.uniform(-5, 5), math.exp(rng.uniform(-2, 2)))
            assert apex(z1, z2).imag >= max(z1.imag, z2.imag) - 1e-12

    def test_distance_splits_at_apex(self):
        rng = np.random.default_rng(3)
        for _ in range(5000):
            z1 = complex(rng.uniform(-8, 8), math.exp(rng.uniform(-2.5, 2.5)))
            z2 = complex(rng.uniform(-8, 8), math.exp(rng.uniform(-2.5, 2.5)))
            a = apex(z1, z2)
            lhs = hyp_distance(z1, z2)
            assert lhs == pytest.approx(
                hyp_distance(z1, a) + hyp_distance(a, z2), abs=1e-9
            )

    def test_two_log_approximation_bound(self):
        rng = np.random.default_rng(4)
        for _ in range(5000):
            z1 = complex(rng.uniform(-8, 8), math.exp(rng.uniform(-2.5, 2.5)))
            z2 = complex(rng.uniform(-8, 8), math.exp(rng.uniform(-2.5, 2.5)))
            a = apex(z1, z2)
            approx = 2 * math.log(a.imag) - math.log(z1.imag) - math.log(z2.imag)
            assert abs(hyp_distance(z1, z2) - approx) <= math.log(4.0) + 1e-12

    def test_bound_witness_value(self):
        gap = abs(hyp_distance(-1 + 1j, 1 + 1j) - math.log(2.0))
        assert gap == pytest.approx(1.0696, abs=2e-4)
        assert gap <= math.log(4.0)


class TestBusemann:
    def test_base_point(self):
        assert busemann(1j, 2.0) == 0.0

    def test_horizontal_invariance(self):
        for x in (-3.0, 0.0, 7.5):
            assert busemann(complex(x, 2.0**5), 2.0) == pytest.approx(5.0)

    def test_log_base(self):
        assert busemann(3 + 4j, 2.0) == pytest.approx(2.0)

    def test_base_validation(self):
        with pytest.raises(ValueError):
            busemann(1j, 1.0)
