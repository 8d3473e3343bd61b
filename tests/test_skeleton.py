import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from treebolic.acceptance import ALT_TAU, DOWNWARD, DRIFT_FREE, EXIT_PARAMS
from treebolic.closed_forms import (
    ModelParams,
    b_param,
    exp_tau,
    laplace_tau,
    mean_step,
    prob_up,
    var_tau,
)
from treebolic.skeleton import (
    RngStream,
    SkeletonState,
    _sojourn_law,
    _spectrum,
    run_skeleton,
    sample_tau_batch,
)
from treebolic.tree import TreeVertex

BASE = ModelParams(2.0, 2, 1.0, 0.5)  # rho = 1
DRIFTED = ModelParams(2.0, 2, 1.0, 1.0)  # rho = 2
# A + B = beta p + 1 + (beta p - 1) b < 0: the first zero of r is on s > 0
KAPPA = ModelParams(8.0, 1, -5.0, 0.2)
# A + B = 0 to rounding: the first zero sits at s = 0, where r's closed forms cancel
_B = b_param(ModelParams(8.0, 1, -1.0, 1.0))
BALANCED = ModelParams(8.0, 1, -1.0, (_B - 1.0) / (_B + 1.0))


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(7, 3).generator().standard_normal(8)
        b = RngStream(7, 3).generator().standard_normal(8)
        assert (a == b).all()

    def test_streams_differ(self):
        a = RngStream(7, 0).generator().standard_normal(8)
        b = RngStream(7, 1).generator().standard_normal(8)
        assert not (a == b).all()


def _steps(params, n, seed):
    """The (from, to) vertex pairs of the steps of one run_skeleton walk."""
    vs = [st.vertex for st in run_skeleton(params, n, RngStream(seed).generator())]
    return list(zip(vs, vs[1:]))


class TestStepVertex:
    """The vertex steps of run_skeleton: down to the predecessor, or up to a
    uniformly chosen successor."""

    def test_down_is_predecessor(self):
        down = [(v, w) for v, w in _steps(BASE, 400, 2) if w.level < v.level]
        assert down and all(w == v.predecessor() for v, w in down)

    def test_up_changes_level_by_one(self):
        up = [(v, w) for v, w in _steps(BASE, 400, 3) if w.level >= v.level]
        assert up and all(w.hor == v.hor + 1 and w.predecessor() == v for v, w in up)

    def test_branching_one_deterministic(self):
        m = ModelParams(2.0, 1, 1.0, 1.0)
        for v, w in _steps(m, 400, 4):
            assert w == (v.successors()[0] if w.level > v.level else v.predecessor())

    def test_children_uniform(self):
        for params in (BASE, ModelParams(2.0, 3, 1.0, 1.0 / 3.0)):  # rho = 1: the walk stays shallow
            p = params.p
            branches = [v.successors().index(w) for v, w in _steps(params, 30000, 5) if w.level > v.level]
            n = len(branches)
            for c in np.bincount(branches, minlength=p):
                assert abs(c / n - 1.0 / p) <= 3 * math.sqrt((1.0 / p) * (1.0 - 1.0 / p) / n)


def _brownian_survival(params, t, terms=4000):
    """P[tau > t] for alpha = 1, where the height is a Brownian motion and
    tau its exit time of [-1, 1]: (4/pi) sum (-1)^n/(2n+1) e^(-theta_n^2 t / log^2 q)
    with theta_n = (n + 1/2) pi."""
    n = np.arange(terms)
    theta = (n + 0.5) * math.pi
    terms_nt = (-1.0) ** n / (2 * n + 1) * np.exp(-np.multiply.outer(t, theta**2) / params.log_q**2)
    return 4.0 / math.pi * terms_nt.sum(-1)


class TestExactLaw:
    @pytest.mark.parametrize("params", [BASE, DRIFTED, ModelParams(1.5, 3, 1.0, 2.0)])
    def test_brownian_zeros_and_survival_at_alpha_one(self, params):
        law = _sojourn_law(params)
        theta = params.log_q * np.sqrt(-law.lam)
        assert theta == pytest.approx((np.arange(1, theta.size + 1) - 0.5) * math.pi, rel=1e-13)
        t = np.geomspace(law.t_min, 20.0 * exp_tau(params), 200)
        assert np.abs(law.survival(t) - _brownian_survival(params, t)).max() <= 1e-12

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        params=hst.builds(
            ModelParams,
            q=hst.floats(1.05, 8.0),
            p=hst.integers(1, 4),
            alpha=hst.floats(-5.0, 3.0),
            beta=hst.floats(0.1, 5.0),
        )
    )
    @example(params=KAPPA)
    @example(params=BALANCED)
    def test_spectral_moments_match_closed_forms(self, params):
        # E tau = sum R_k / lam_k^2 and E tau^2 = 2 sum R_k / (-lam_k)^3; the
        # alternating tails converge slowly, hence many more zeros than the
        # sampler keeps
        lam, res = _spectrum(params, 4000)
        assert np.all(np.diff(lam) < 0) and lam[0] < 0
        mean = (res / lam**2).sum()
        assert abs(mean - exp_tau(params)) <= 1e-8
        assert abs(2.0 * (res / (-lam) ** 3).sum() - mean**2 - var_tau(params)) <= 1e-8

    def test_examples_reach_both_branches(self):
        # the first zero's s = b^2 + log^2 q lam_1 in the two examples above
        def s1(params):
            return b_param(params) ** 2 + params.log_q**2 * _spectrum(params, 1)[0][0]

        assert s1(KAPPA) > 0.0
        assert abs(s1(BALANCED)) < 1e-9

    @pytest.mark.parametrize("params", [DRIFT_FREE, DRIFTED, DOWNWARD, EXIT_PARAMS, ALT_TAU, KAPPA])
    def test_mass_below_t_min(self, params):
        law = _sojourn_law(params)
        assert 1.0 - law.survival(law.t_min)[0] <= 1e-12

    def test_a_law_with_mass_below_t_min_is_refused(self):
        # F(t_min) = 8.7e-3 at alpha = -40; 1.8e-12 at alpha = -5 still samples
        with pytest.raises(ValueError, match="below t_min"):
            sample_tau_batch(ModelParams(8.0, 4, -40.0, 5.0), 10, RngStream(18).generator())
        tau, _ = sample_tau_batch(ModelParams(8.0, 4, -5.0, 5.0), 1000, RngStream(18).generator())
        assert np.all(tau > _sojourn_law(ModelParams(8.0, 4, -5.0, 5.0)).t_min)

    @pytest.mark.parametrize("params", [DRIFT_FREE, ALT_TAU, KAPPA, BALANCED])
    def test_samples_invert_the_survival_function(self, params):
        n = 5000
        tau, _ = sample_tau_batch(params, n, RngStream(18).generator())
        u = 1.0 - RngStream(18).generator().random(n)
        law = _sojourn_law(params)
        assert np.all(tau >= law.t_min)
        assert np.abs(law.survival(tau) - u).max() <= 1e-12


class TestSampleTau:
    def test_deterministic(self):
        t1, s1 = sample_tau_batch(BASE, 500, RngStream(7).generator(), dt=1e-3)
        t2, s2 = sample_tau_batch(BASE, 500, RngStream(7).generator(), dt=1e-3)
        assert (t1 == t2).all() and (s1 == s2).all()

    def test_mean_and_sides(self):
        n = 20000
        tau, side = sample_tau_batch(BASE, n, RngStream(9).generator())
        et = exp_tau(BASE)
        se = tau.std(ddof=1) / math.sqrt(n)
        assert abs(tau.mean() - et) <= max(4 * se, 0.025 * et)
        up = np.mean(side == 1)
        assert abs(up - prob_up(BASE)) <= 3 * math.sqrt(0.25 / n)

    def test_laplace_point(self):
        n = 20000
        tau, _ = sample_tau_batch(BASE, n, RngStream(10).generator())
        assert np.exp(-tau).mean() == pytest.approx(laplace_tau(BASE, 1.0), rel=0.02)

    def test_input_validation(self):
        rng = RngStream(13).generator()
        with pytest.raises(ValueError):
            sample_tau_batch(BASE, 10, rng, dt=0.0)


class TestRunSkeleton:
    def test_structure_and_telescoping(self):
        states = run_skeleton(DRIFTED, 400, RngStream(14).generator())
        assert len(states) == 401
        assert states[0].vertex == TreeVertex.root(2)
        clocks = [s.clock for s in states]
        assert all(b > a for a, b in zip(clocks, clocks[1:]))
        for prev, cur in zip(states, states[1:]):
            assert abs(cur.hor - prev.hor) == 1
            assert cur.step == prev.step + 1

    def test_law_of_large_numbers(self):
        n = 2000
        states = run_skeleton(DRIFTED, n, RngStream(15).generator())
        drift = states[-1].hor / n
        sd_step = math.sqrt(8.0 / 9.0)
        assert abs(drift - mean_step(DRIFTED)) <= 3 * sd_step / math.sqrt(n)
        clock_rate = states[-1].clock / n
        et = exp_tau(DRIFTED)
        assert abs(clock_rate - et) <= max(4 * 0.2 / math.sqrt(n), 0.03 * et)

    def test_transience_proxy(self):
        # level-walk returns to the start level: geometric with mean
        # r/(1-r), r = 2 (1 - up-probability) when the drift points up
        rng = RngStream(16).generator()
        up = prob_up(DRIFTED)
        walks, steps = 150, 1500
        returns = []
        for _ in range(walks):
            level = 0
            count = 0
            for _ in range(steps):
                level += 1 if rng.random() < up else -1
                count += level == 0
            returns.append(count)
        r = 2.0 * (1.0 - up)
        expected = r / (1.0 - r)
        se = math.sqrt(r / (1.0 - r) ** 2 / walks)
        assert abs(np.mean(returns) - expected) <= 3.5 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            run_skeleton(BASE, 0, RngStream(17).generator())


def test_state_fields():
    st = SkeletonState(TreeVertex.root(2), 1.5, 3)
    assert st.hor == 0 and st.clock == 1.5 and st.step == 3
