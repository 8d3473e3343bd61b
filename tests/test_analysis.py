import math

import numpy as np
import pytest
import scipy.stats

from treebolic import analysis
from treebolic.closed_forms import (
    ModelParams,
    clt_sigma2,
    clt_sigma2_distance,
    escape_rate,
    exp_tau,
    prob_up,
)
from treebolic.skeleton import RngStream, step_vertex
from treebolic.tree import TreeVertex, cone_contains

BASE = ModelParams(2.0, 2, 1.0, 0.5)  # rho = 1
DRIFTED = ModelParams(2.0, 2, 1.0, 1.0)  # rho = 2
DOWN = ModelParams(2.0, 2, 1.0, 0.25)  # rho = 1/2


class TestKs:
    def test_identical_samples(self):
        a = np.arange(10.0)
        assert analysis.ks_two_sample(a, a).statistic == 0.0

    def test_disjoint_samples(self):
        assert analysis.ks_two_sample([1.0, 2.0], [5.0, 6.0]).statistic == 1.0

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=300), rng.normal(1.0, 2.0, size=500)
        d1 = analysis.ks_two_sample(a, b)
        d2 = analysis.ks_two_sample(b, a)
        assert d1.statistic == d2.statistic
        assert 0.0 <= d1.statistic <= 1.0
        assert (d1.n1, d1.n2) == (300, 500)

    def test_against_scipy_two_sample(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=rng.integers(5, 200))
            b = rng.normal(rng.normal(), 1.5, size=rng.integers(5, 200))
            want = scipy.stats.ks_2samp(a, b).statistic
            assert analysis.ks_two_sample(a, b).statistic == pytest.approx(want, abs=1e-12)

    def test_against_scipy_one_sample(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.normal(size=rng.integers(5, 200))
            want = scipy.stats.kstest(a, "norm").statistic
            got = analysis.ks_against_cdf(a, analysis.normal_cdf).statistic
            assert got == pytest.approx(want, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            analysis.ks_two_sample([], [1.0])


class TestNormalCdfAndSummaries:
    def test_normal_cdf_matches_scipy(self):
        for x in (-3.0, -0.5, 0.0, 1.7):
            assert analysis.normal_cdf(x) == pytest.approx(
                scipy.stats.norm.cdf(x), abs=1e-14
            )
        assert analysis.normal_cdf(2.0, mean=2.0, sd=3.0) == 0.5

    def test_summary_fields(self):
        s = analysis.SampleSummary.from_samples([1.0, 2.0, 3.0, 4.0])
        assert s.n == 4 and s.mean == 2.5
        assert s.se == pytest.approx(math.sqrt(s.variance / 4))
        assert (s.minimum, s.maximum) == (1.0, 4.0)

    def test_skewness(self):
        rng = np.random.default_rng(3)
        sym = rng.normal(size=20000)
        assert abs(analysis.skewness(sym)) < 0.05
        expo = rng.exponential(size=20000)
        assert analysis.skewness(expo) == pytest.approx(2.0, abs=0.25)

    def test_skewness_se(self):
        rng = np.random.default_rng(4)
        n = 50000
        gauss = rng.normal(size=n)
        assert analysis.skewness_se(gauss) == pytest.approx(math.sqrt(6.0 / n), rel=0.1)
        heavy = rng.standard_t(5, size=n)  # leptokurtic: larger skewness error
        assert analysis.skewness_se(heavy) > 1.5 * math.sqrt(6.0 / n)

    def test_escape_rate_estimator(self):
        s = analysis.estimate_escape_rate([10.0, 12.0, 8.0], 10.0)
        assert s.mean == pytest.approx(1.0)


class TestCltStatistics:
    def test_vertical_standardization_on_synthetic_data(self):
        # exact normal draws with the theoretical drift and variance must
        # standardize to a near-perfect unit normal
        rng = np.random.default_rng(4)
        t = 50.0
        for m in (BASE, DRIFTED):
            mu = t * escape_rate(m) / m.log_q
            sd = math.sqrt(t * clt_sigma2(m))
            y = rng.normal(mu, sd, size=4000)
            d = analysis.vertical_clt(m, y, t).statistic
            assert d < 0.035

    def test_distance_standardization_on_synthetic_data(self):
        rng = np.random.default_rng(5)
        t = 50.0
        mu = t * abs(escape_rate(DRIFTED))
        sd = math.sqrt(t * clt_sigma2_distance(DRIFTED))
        d = analysis.distance_clt(DRIFTED, rng.normal(mu, sd, size=4000), t).statistic
        assert d < 0.035

    def test_regime_guards(self):
        with pytest.raises(ValueError):
            analysis.distance_clt(BASE, [1.0], 1.0)
        with pytest.raises(ValueError):
            analysis.drift_free_clt(DRIFTED, [1.0], 1.0, [1.0])
        # rho = 1 up to closed_forms.CRITICAL_TOL counts as drift-free
        near = ModelParams(3.0, 2, 0.5, 0.288675)
        assert analysis.drift_free_clt(near, [1.0], 1.0, [1.0]).statistic == 0.0
        with pytest.raises(ValueError):
            analysis.distance_clt(near, [1.0], 1.0)


class TestLimitSampler:
    def test_draws_are_nonnegative(self):
        out = analysis.draw_limit_samples(BASE, 2000, RngStream(20).generator(), grid_n=1024)
        assert (out >= 0.0).all()

    def test_running_max_mean(self):
        n = 4000
        _, tops = analysis.draw_limit_samples(
            BASE, n, RngStream(21).generator(), grid_n=4096, return_max=True
        )
        target = math.sqrt(2.0 / math.pi)
        se = tops.std(ddof=1) / math.sqrt(n)
        # grid max underestimates the true running max by O(1/sqrt(grid_n))
        assert abs(tops.mean() - target) <= 3 * se + 0.012

    def test_grid_refinement_converges(self):
        n = 20000
        a = analysis.draw_limit_samples(BASE, n, RngStream(22).generator(), grid_n=1024)
        b = analysis.draw_limit_samples(BASE, n, RngStream(23).generator(), grid_n=4096)
        assert abs(a.mean() - b.mean()) / b.mean() < 0.025

    def test_scale_factor(self):
        # at the critical parameters with q = 2 the prefactor is sqrt(2)
        assert BASE.log_q / math.sqrt(exp_tau(BASE)) == pytest.approx(math.sqrt(2.0))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            analysis.draw_limit_samples(BASE, 2, RngStream(24).generator(), grid_n=10)


class TestConeOracle:
    def test_truncation_stability(self):
        a = analysis.cone_hitting_probability(DRIFTED, 1, max_above=10, max_below=10)
        b = analysis.cone_hitting_probability(DRIFTED, 1, max_above=12, max_below=12)
        assert a == pytest.approx(b, abs=1e-3)

    def test_monotone_in_drift(self):
        weak = analysis.cone_hitting_probability(DRIFTED, 1)
        strong = analysis.cone_hitting_probability(ModelParams(2.0, 2, 1.0, 8.0), 1)
        assert strong > weak
        # overwhelming upward drift pins the walk in its first branch
        extreme = analysis.cone_hitting_probability(ModelParams(2.0, 2, 1.0, 200.0), 1)
        assert extreme == pytest.approx(0.5, abs=0.01)

    def test_deeper_cones_are_smaller(self):
        h1 = analysis.cone_hitting_probability(DRIFTED, 1)
        h2 = analysis.cone_hitting_probability(DRIFTED, 2)
        assert 0.0 < h2 < h1 < 1.0
        assert 2 * h1 < 1.0  # part of the mass escapes below the root

    def test_against_direct_walk_simulation(self):
        # independent route: run the exact induced walk and count limiting
        # cone membership (60 steps at rho = 2 pin the limit with high odds)
        rng = RngStream(26).generator()
        target = TreeVertex.root(2).successors()[0]
        up = prob_up(DRIFTED)
        n, hits = 2500, 0
        for _ in range(n):
            v = TreeVertex.root(2)
            for _ in range(60):
                v = step_vertex(v, 1 if rng.random() < up else -1, DRIFTED, rng)
            hits += cone_contains(target, v)
        h = analysis.cone_hitting_probability(DRIFTED, 1)
        assert abs(hits / n - h) <= 3.5 * math.sqrt(h * (1 - h) / n)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            analysis.cone_hitting_probability(DRIFTED, 0)


class TestSeriesSampler:
    def test_deterministic_and_finite(self):
        side = np.array([1, -1, -1, 1, -1], dtype=np.int8)
        xs = np.array([0.3, -0.2, 0.1, -0.4, 0.05])
        a = analysis.zinf_series_samples(side, xs, 2.0, 100, RngStream(27).generator())
        b = analysis.zinf_series_samples(side, xs, 2.0, 100, RngStream(27).generator())
        assert (a == b).all() and np.isfinite(a).all()

    def test_symmetric_pool_gives_symmetric_law(self):
        rng = RngStream(28).generator()
        n_pool = 4000
        side = np.where(rng.random(n_pool) < prob_up(DOWN), 1, -1).astype(np.int8)
        xs = rng.normal(0.0, 0.8, size=n_pool)
        z = analysis.zinf_series_samples(side, xs, 2.0, 4000, rng)
        assert abs(np.median(z)) < 0.1
        assert abs(analysis.skewness(np.clip(z, -20, 20))) < 0.3

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            analysis.zinf_series_samples([], [], 2.0, 5, RngStream(29).generator())


class TestExitMeasureHelpers:
    def test_small_run_masses(self):
        em = analysis.sample_exit_measure(BASE, 3000, RngStream(30).generator(), dt=5e-4)
        masses = em.line_masses()
        assert masses.sum() == pytest.approx(1.0)
        for got, want in zip(masses, em.expected_masses()):
            assert abs(got - want) <= 4 * math.sqrt(want * (1 - want) / em.n)

    def test_pullback(self):
        em = analysis.sample_exit_measure(
            BASE, 500, RngStream(31).generator(), dt=1e-3, start_level=2, start_x=3.0
        )
        assert np.allclose(em.pulled_back_x(), (em.x - 3.0) / 4.0)

    def test_histogram_positivity(self):
        assert analysis.histogram_positivity(np.linspace(-1, 1, 1000), 0.0, 1.0, 10)
        assert not analysis.histogram_positivity([0.1, 0.2], 0.0, 1.0, 4)


def test_critical_diagnostics_shape():
    cp_x = np.array([[1.0, 2.0], [3.0, 4.0], [0.5, 5.0]])
    diag = analysis.critical_diagnostics([1.0, 2.0], cp_x, [0, 2, 1])
    assert diag["median_abs_x"] == [1.0, 4.0]
    assert diag["median_increasing"] is True
    assert diag["paths_with_zero_visit"] == pytest.approx(2.0 / 3.0)
