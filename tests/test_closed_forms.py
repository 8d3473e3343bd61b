import math

import numpy as np
import pytest

from treebolic.closed_forms import (
    CRITICAL_TOL,
    ClosedForms,
    ModelParams,
    Regime,
    b_param,
    classify_regime,
    clt_sigma2,
    clt_sigma2_distance,
    escape_rate,
    exp_tau,
    is_critical,
    laplace_joint,
    laplace_tau,
    mean_step,
    prob_up,
    r_closed,
    r_fun,
    rho,
    s_fun,
    skeleton_probs,
    var_step,
    var_tau,
)

BASE = ModelParams(2.0, 2, 1.0, 0.5)  # rho = 1
DRIFTED = ModelParams(2.0, 2, 1.0, 1.0)  # rho = 2
NEAR_CRITICAL = ModelParams(3.0, 2, 0.5, 0.288675)  # beta typed for 1/(2 sqrt 3)

GRID = [
    ModelParams(q, p, a, b)
    for a in (0.0, 0.5, 1.0, 1.7)
    for q in (2.0, math.e)
    for p in (1, 2, 3)
    for b in (0.25, 1.0)
]


class TestBasics:
    def test_b_vanishes_at_alpha_one(self):
        assert b_param(BASE) == 0.0

    def test_rho_formula(self):
        assert rho(ModelParams(2.0, 2, 0.0, 1.0)) == pytest.approx(4.0)
        assert rho(BASE) == 1.0

    def test_r_at_zero_with_unit_bp(self):
        # beta p = 1, alpha = 1: r(0) = 2
        assert r_fun(BASE, 0.0) == pytest.approx(2.0, abs=1e-14)

    def test_series_matches_trig_both_branches(self):
        m = ModelParams(2.0, 2, 2.0, 0.5)  # b < 0, negative s reachable
        lams = [-0.9, -0.4, -0.26, 0.0, 0.7, 5.0]
        closed = r_closed(m, np.array([s_fun(m, lam) for lam in lams]))
        for lam, r in zip(lams, closed):
            assert r_fun(m, lam) == pytest.approx(r, rel=1e-14, abs=1e-14)
        assert s_fun(m, -0.9) < 0  # the oscillatory branch is exercised

    def test_closed_slope_matches_series_both_branches(self):
        s = np.concatenate([-np.geomspace(1.0, 100.0, 9), np.geomspace(1.0, 100.0, 9)])
        for m in (ModelParams(2.0, 2, 2.0, 0.5), ModelParams(math.e, 3, 0.3, 0.8), ModelParams(8.0, 1, -1.0, 2.0)):
            lams = (s - b_param(m) ** 2) / m.log_q**2
            for lam, slope in zip(lams, r_closed(m, s, 1)):
                assert slope == pytest.approx(r_fun(m, lam, deriv=1), rel=1e-12)
        with pytest.raises(ValueError):
            r_closed(BASE, s, 2)

    def test_series_range_guard(self):
        with pytest.raises(ValueError):
            r_fun(BASE, 2000.0)

    def test_params_validation(self):
        nan, inf = float("nan"), float("inf")
        for bad in (
            dict(q=1.0), dict(p=0), dict(beta=0.0), dict(beta=-1.0),
            dict(q=inf), dict(alpha=nan), dict(alpha=-inf), dict(beta=inf),
        ):
            kw = dict(q=2.0, p=2, alpha=1.0, beta=0.5)
            kw.update(bad)
            with pytest.raises(ValueError):
                ModelParams(**kw)


class TestTransforms:
    def test_normalized_at_zero(self):
        for m in GRID:
            assert laplace_tau(m, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_joint_at_zero_gives_step_probabilities(self):
        for m in GRID:
            r = rho(m)
            assert laplace_joint(m, 0.0, 1) == pytest.approx(r / (r + 1), abs=1e-12)
            assert laplace_joint(m, 0.0, -1) == pytest.approx(1 / (r + 1), abs=1e-12)

    def test_factorization_means_independence(self):
        for m in (BASE, DRIFTED, ModelParams(math.e, 3, 0.3, 0.8)):
            for lam in (0.1, 0.5, 1.0, 2.0):
                assert laplace_joint(m, lam, 1) == pytest.approx(
                    laplace_tau(m, lam) * prob_up(m), abs=1e-12
                )

    def test_side_validation(self):
        with pytest.raises(ValueError):
            laplace_joint(BASE, 0.0, 0)

    def test_pole_raises(self):
        # far enough left the transform blows up through a zero of r
        m = BASE
        with pytest.raises(ValueError):
            lam = -1.0
            for _ in range(100):
                laplace_tau(m, lam)
                lam *= 1.5


class TestMoments:
    def test_alpha_one_mean(self):
        assert exp_tau(BASE) == pytest.approx(math.log(2.0) ** 2 / 2.0, abs=1e-15)

    def test_mean_equals_transform_derivative(self):
        for m in GRID:
            derived = r_fun(m, 0.0, 1) * math.exp(b_param(m)) / (rho(m) + 1.0)
            assert exp_tau(m) == pytest.approx(derived, rel=1e-10)

    def test_mean_near_zero_drift_exponent(self):
        # b -> 0 as alpha -> 1: the closed form must not lose its digits there
        alphas = [1.0 + sign * 10.0**-k for k in range(1, 17) for sign in (1, -1)]
        alphas += [1.21, 0.79, 1.09, 0.91]
        for q in (1.5, 2.0, math.e, 8.0):
            for p in (1, 2, 3):
                for beta in (0.1, 1.0 / p, 1.0, 3.0):
                    for alpha in alphas:
                        m = ModelParams(q, p, alpha, beta)
                        series = r_fun(m, 0.0, 1) * math.exp(b_param(m)) / (rho(m) + 1.0)
                        assert exp_tau(m) == pytest.approx(series, rel=1e-12)

    def test_mean_matches_numerical_derivative(self):
        h = 1e-5
        for m in (BASE, DRIFTED, ModelParams(math.e, 3, 1.7, 0.2)):
            numeric = -(laplace_tau(m, h) - laplace_tau(m, -h)) / (2 * h)
            assert numeric == pytest.approx(exp_tau(m), abs=1e-6)

    def test_variance_positive_and_matches_second_difference(self):
        h = 1e-4
        for m in (BASE, DRIFTED, ModelParams(math.e, 3, 1.7, 0.2), ModelParams(2.0, 1, 0.0, 1.0)):
            v = var_tau(m)
            assert v > 0
            second = (laplace_tau(m, h) - 2.0 + laplace_tau(m, -h)) / h**2
            assert second - exp_tau(m) ** 2 == pytest.approx(v, abs=1e-6)


class TestWalkLaws:
    def test_skeleton_probs_drifted(self):
        up, down, each = skeleton_probs(DRIFTED)
        assert up == pytest.approx(2.0 / 3.0)
        assert down == pytest.approx(1.0 / 3.0)
        assert each == pytest.approx(1.0 / 3.0)

    def test_skeleton_probs_symmetric(self):
        up, down, _ = skeleton_probs(BASE)
        assert up == down == 0.5

    def test_probabilities_sum_to_one(self):
        for m in GRID:
            up, down, each = skeleton_probs(m)
            assert up + down == pytest.approx(1.0)
            assert each * m.p == pytest.approx(up)

    def test_step_moments(self):
        assert mean_step(DRIFTED) == pytest.approx(1.0 / 3.0)
        assert var_step(DRIFTED) == pytest.approx(8.0 / 9.0)


class TestRatesAndRegimes:
    def test_escape_rate_value(self):
        assert escape_rate(DRIFTED) == pytest.approx(0.96180, abs=5e-6)

    def test_zero_iff_critical(self):
        assert escape_rate(BASE) == 0.0
        assert classify_regime(BASE) is Regime.CRITICAL

    def test_sign_matches_rho(self):
        for m in GRID:
            ell = escape_rate(m)
            r = rho(m)
            assert math.copysign(1.0, ell) == math.copysign(1.0, r - 1.0) or ell == 0.0
            expected = (
                Regime.CRITICAL if abs(r - 1) <= CRITICAL_TOL
                else Regime.UPWARD if r > 1 else Regime.DOWNWARD
            )
            assert classify_regime(m) is expected

    def test_critical_up_to_the_tolerance(self):
        assert rho(NEAR_CRITICAL) != 1.0 and abs(rho(NEAR_CRITICAL) - 1.0) < CRITICAL_TOL
        assert is_critical(NEAR_CRITICAL) and is_critical(BASE)
        assert classify_regime(NEAR_CRITICAL) is Regime.CRITICAL
        # a beta off by 10 tolerances in rho leaves the critical regime
        for sign, regime in ((1, Regime.UPWARD), (-1, Regime.DOWNWARD)):
            m = ModelParams(2.0, 2, 1.0, 0.5 * (1.0 + sign * 10 * CRITICAL_TOL))
            assert not is_critical(m) and classify_regime(m) is regime

    def test_sigma2_critical_value(self):
        assert clt_sigma2(BASE) == pytest.approx(2.0 / math.log(2.0) ** 2, rel=1e-12)

    def test_sigma2_distance_scaling(self):
        for m in (BASE, DRIFTED):
            assert clt_sigma2_distance(m) == pytest.approx(
                m.log_q**2 * clt_sigma2(m), rel=1e-14
            )

    def test_renewal_identity(self):
        # sigma2 in height units equals Var(step)/E tau + (ell/log q)^2 Var(tau)/E tau
        for m in GRID:
            direct = clt_sigma2(m)
            ell = escape_rate(m)
            alt = var_step(m) / exp_tau(m) + (ell / m.log_q) ** 2 * var_tau(m) / exp_tau(m)
            assert direct == pytest.approx(alt, rel=1e-12)


def test_bundle_round_trip():
    cf = ClosedForms.from_params(DRIFTED)
    d = cf.as_dict()
    assert d["regime"] == "upward"
    assert d["rho"] == pytest.approx(2.0)
    assert d["prob_up"] == pytest.approx(2.0 / 3.0)
    assert set(d) == {
        "b", "rho", "exp_tau", "var_tau", "prob_up", "mean_step",
        "var_step", "ell", "sigma2", "sigma2_distance", "regime",
    }
