"""Acceptance suite: every gate the artifact must pass, runnable from the
CLI (`treebolic verify`) and from the test suite.

Each criterion returns a result object with one detail line per sub-check.
The heavyweight Monte Carlo runs are cached properties shared between
criteria.
All randomness is derived from one master seed, so the suite is a
deterministic program: rerunning it reproduces every number.

Quick mode divides the sample sizes by 10 and widens the purely statistical
tolerances by sqrt(10); exact checks keep their tolerances.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import analysis, closed_forms as cf
from .closed_forms import ModelParams
from .halfplane import apex, hyp_distance
from .isometry import AfElement, AffH, AffT, bs_word
from .padic import PadicRational
from .pathsim import (
    ExitMeasure,
    SimConfig,
    final_points_and_distances,
    first_exit_batch,
    run_batch,
)
from .skeleton import RngStream, sample_tau_batch
from .space import DELTA, HTParams, HTPoint, ht_distance, sandwich
from .tree import TreePoint, TreeVertex, tree_distance

MASTER_SEED = 20260810

DRIFTED = ModelParams(2.0, 2, 1.0, 1.0)  # rho = 2
DRIFT_FREE = ModelParams(2.0, 2, 1.0, 0.5)  # rho = 1
DOWNWARD = ModelParams(2.0, 2, 1.0, 0.25)  # rho = 1/2
EXIT_PARAMS = ModelParams(2.0, 2, 1.0, 0.75)  # rho = 3/2, asymmetric line masses
ALT_TAU = ModelParams(2.0, 2, 0.5, 1.0)  # drifted sojourn-law check

DT = 1e-4


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)
    #: wall time of the call, set by run_all; it includes the shared runs
    #: that this criterion was the first to need
    seconds: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        took = "" if self.seconds is None else f" ({self.seconds:.1f} s)"
        return f"[{status}] criterion {self.index}: {self.name}{took}"


class _Check:
    """Collects sub-check outcomes for one criterion."""

    def __init__(self):
        self.details: list[str] = []
        self.ok = True

    def expect(self, passed: bool, text: str) -> None:
        self.ok &= bool(passed)
        self.details.append(("ok   " if passed else "FAIL ") + text)

    def note(self, text: str) -> None:
        self.details.append("info " + text)

    def result(self, index: int, name: str) -> CriterionResult:
        return CriterionResult(index, name, self.ok, self.details)


def _se_prop(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 1e-12) / n)


class AcceptanceSuite:
    """Runs the eleven acceptance criteria with shared simulation caches."""

    def __init__(self, quick: bool = False, seed: int = MASTER_SEED):
        self.quick = quick
        self.scale = 10 if quick else 1
        self.ks_widen = math.sqrt(self.scale)
        self.seed = seed

    # -- infrastructure ----------------------------------------------------

    def _rng(self, stream: int) -> np.random.Generator:
        return RngStream(self.seed, stream).generator()

    def _n(self, full: int) -> int:
        return max(50, full // self.scale)

    # -- shared simulation products ----------------------------------------

    def _horizon(self, params: ModelParams, multiples: int = 200) -> float:
        return multiples * cf.exp_tau(params)

    @functools.cached_property
    def drifted_run(self):
        t = self._horizon(DRIFTED)
        run = run_batch(
            DRIFTED,
            SimConfig(dt=DT, horizon=t),
            self._n(2000),
            self._rng(4),
            checkpoints=[t / 2.0],
        )
        return (run, *final_points_and_distances(run))

    @functools.cached_property
    def driftfree_run(self):
        t = self._horizon(DRIFT_FREE)
        cps = [t / 4.0, t / 2.0, 3.0 * t / 4.0]
        run = run_batch(
            DRIFT_FREE,
            SimConfig(dt=DT, horizon=t),
            self._n(2000),
            self._rng(5),
            checkpoints=cps,
        )
        return (run, *final_points_and_distances(run))

    @functools.cached_property
    def driftfree_long_run(self):
        """Long-horizon drift-free run for the limit-law comparison.

        The limit criterion does not pin its horizon; the distance carries an
        O(1) additive geometric correction, so the comparison needs
        t large enough for the 1/sqrt(t) offset to sit inside the KS budget
        (measured offset ~ -0.39 at t = 200 mean sojourns, scaling as
        1/sqrt(t)).  A coarser step keeps the run affordable; the sojourn
        bias at dt = 2e-3 is ~1%, an order below the residual offset."""
        t = self._horizon(DRIFT_FREE, multiples=1200 if self.quick else 4800)
        run = run_batch(
            DRIFT_FREE,
            SimConfig(dt=2e-3, horizon=t),
            self._n(2000),
            self._rng(16),
        )
        return run, final_points_and_distances(run)[1]

    @functools.cached_property
    def downward_run(self):
        t = self._horizon(DOWNWARD, multiples=50)
        return run_batch(DOWNWARD, SimConfig(dt=DT, horizon=t), self._n(2000), self._rng(6))

    @functools.cached_property
    def exit_run(self) -> ExitMeasure:
        return first_exit_batch(EXIT_PARAMS, self._n(100_000), self._rng(7), dt=DT)

    # -- criteria ------------------------------------------------------------

    def criterion_1(self) -> CriterionResult:
        c = _Check()
        worst_rel, worst_lt = 0.0, 0.0
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
            for q in (2.0, math.e):
                for p in (1, 2, 3):
                    for beta in (0.2, 1.0 / p, 1.0):
                        m = ModelParams(q, p, alpha, beta)
                        direct = cf.exp_tau(m)
                        derived = (
                            cf.r_fun(m, 0.0, deriv=1)
                            * math.exp(cf.b_param(m))
                            / (cf.rho(m) + 1.0)
                        )
                        worst_rel = max(worst_rel, abs(direct / derived - 1.0))
                        worst_lt = max(worst_lt, abs(cf.laplace_tau(m, 0.0) - 1.0))
        c.expect(
            worst_rel <= 1e-10,
            f"mean sojourn closed form vs transform derivative: worst rel {worst_rel:.2e} <= 1e-10",
        )
        c.expect(
            worst_lt <= 1e-12, f"transform at 0 equals 1: worst dev {worst_lt:.2e} <= 1e-12"
        )
        return c.result(1, "closed-form consistency over the parameter grid")

    def criterion_2(self) -> CriterionResult:
        c = _Check()
        for stream, m in ((2, DRIFT_FREE), (3, ALT_TAU)):
            n = self._n(100_000)
            tau, side = sample_tau_batch(m, n, self._rng(stream))
            et = cf.exp_tau(m)
            se = tau.std(ddof=1) / math.sqrt(n)
            tol = max(4.0 * se, 0.02 * et)
            c.expect(
                abs(tau.mean() - et) <= tol,
                f"alpha={m.alpha} beta={m.beta}: |mean tau - {et:.5f}| = "
                f"{abs(tau.mean() - et):.2e} <= {tol:.2e}",
            )
            pu = cf.prob_up(m)
            dev = abs(float(np.mean(side == 1)) - pu)
            c.expect(
                dev <= 3.0 * _se_prop(pu, n),
                f"alpha={m.alpha} beta={m.beta}: up-frequency dev {dev:.4f} <= {3*_se_prop(pu, n):.4f}",
            )
            lt = cf.laplace_tau(m, 1.0)
            emp = float(np.exp(-tau).mean())
            tol_lt = 0.01 * lt * self.ks_widen
            c.expect(
                abs(emp - lt) <= tol_lt,
                f"alpha={m.alpha} beta={m.beta}: |E e^-tau - {lt:.5f}| = {abs(emp-lt):.2e} <= {tol_lt:.2e}",
            )
        return c.result(2, "sojourn sampler against the exact transform laws")

    def criterion_3(self) -> CriterionResult:
        c = _Check()
        n = self._n(10_000)
        tau_s, side_s = sample_tau_batch(DRIFT_FREE, n, self._rng(8))
        fe = first_exit_batch(DRIFT_FREE, n, self._rng(9), dt=DT)
        ks = analysis.ks_two_sample(tau_s, fe.tau).statistic
        thr = 0.02 * self.ks_widen
        c.expect(ks <= thr, f"KS(sojourn times, exact vs 2-D Euler) = {ks:.4f} <= {thr:.4f}")
        p1, p2 = float(np.mean(side_s == 1)), float(np.mean(fe.side == 1))
        pbar = 0.5 * (p1 + p2)
        tol = 3.0 * math.sqrt(max(pbar * (1 - pbar), 1e-12) * 2.0 / n)
        c.expect(
            abs(p1 - p2) <= tol,
            f"side frequencies {p1:.4f} vs {p2:.4f}: |diff| <= {tol:.4f}",
        )
        return c.result(3, "pathwise first exits agree with the exact skeleton law")

    def criterion_4(self) -> CriterionResult:
        c = _Check()
        run, points, dists = self.drifted_run
        t = run.horizon
        n = self._n(200)
        ell = abs(cf.escape_rate(DRIFTED))
        tol = 0.05 * self.ks_widen
        # d exceeds log q |Y| by an O(1) geometric correction, which cancels
        # in the increment over the second half of the run
        t_half = float(run.checkpoint_times[0])
        d_half = final_points_and_distances(run, checkpoint=0)[1]
        rate = analysis.estimate_escape_rate(dists[:n] - d_half[:n], t - t_half)
        c.expect(
            abs(rate.mean - ell) <= tol * ell,
            f"distance rate over [T/2, T] {rate.mean:.4f} within {tol:.0%} of {ell:.5f}",
        )
        root = TreeVertex.root(2)
        tree_rate = np.array(
            [tree_distance(w, root) for w in points[:n]]
        ) * DRIFTED.log_q / t
        c.expect(
            abs(float(tree_rate.mean()) - ell) <= tol * ell,
            f"tree rate {float(tree_rate.mean()):.4f} within {tol:.0%} of {ell:.5f}",
        )
        c.note(
            f"end-point rate d(X_T)/T = {np.mean(dists[:n]) / t:.4f}: it carries the"
            " additive geometric correction"
            f" (~ +{np.mean(dists - DRIFTED.log_q * np.abs(run.y)) / t / ell:.1%}"
            " of the target at this horizon)"
        )
        return c.result(4, "rate of escape (distance and tree projections)")

    def criterion_5(self) -> CriterionResult:
        c = _Check()
        thr = 0.05 * self.ks_widen
        for label, bundle, m in (
            ("drifted", self.drifted_run, DRIFTED),
            ("drift-free", self.driftfree_run, DRIFT_FREE),
        ):
            run = bundle[0]
            ks = analysis.vertical_clt(m, run.y, run.horizon).statistic
            c.expect(ks <= thr, f"{label}: KS(standardized height, normal) = {ks:.4f} <= {thr:.4f}")
        return c.result(5, "vertical central limit theorem")

    def criterion_6(self) -> CriterionResult:
        c = _Check()
        run, _, dists = self.drifted_run
        t = run.horizon
        ks = analysis.distance_clt(DRIFTED, dists, t).statistic
        thr = 0.07 * self.ks_widen
        c.expect(ks <= thr, f"KS(centered distance / sqrt t, normal) = {ks:.4f} <= {thr:.4f}")
        # decomposition of the statistic: the distance exceeds log q |Y| by an
        # O(1) geometric correction, which at the pinned horizon is an
        # O(1/sqrt t) centering offset of the limit comparison
        sd = math.sqrt(cf.clt_sigma2_distance(DRIFTED) * t)
        stat = (np.asarray(dists) - t * abs(cf.escape_rate(DRIFTED))) / sd
        ks_centered = analysis.ks_against_cdf(stat - stat.mean(), analysis.normal_cdf).statistic
        c.note(
            f"mean offset {stat.mean():+.3f} sd units (additive geometric correction"
            f" E[d - log q |Y|] = {np.mean(dists - DRIFTED.log_q * np.abs(run.y)):+.2f})"
        )
        c.note(f"offset-removed KS = {ks_centered:.4f} (shape agreement)")
        # convergence demonstration at four times the horizon (info only)
        t4 = self._horizon(DRIFTED, multiples=800)
        run4 = run_batch(
            DRIFTED, SimConfig(dt=1e-3, horizon=t4), self._n(1000), self._rng(17)
        )
        d4 = final_points_and_distances(run4)[1]
        ks4 = analysis.distance_clt(DRIFTED, d4, t4).statistic
        c.note(f"same statistic at t = {t4:.0f} (4x horizon): KS = {ks4:.4f}")
        return c.result(6, "distance central limit theorem with drift")

    def criterion_7(self) -> CriterionResult:
        c = _Check()
        run, dists = self.driftfree_long_run
        n = self._n(10_000)
        limit, tops = analysis.draw_limit_samples(
            DRIFT_FREE, n, self._rng(10), grid_n=16384, return_max=True
        )
        ks = analysis.drift_free_clt(DRIFT_FREE, dists, run.horizon, limit).statistic
        thr = 0.07 * self.ks_widen
        c.expect(
            ks <= thr,
            f"KS(distance / sqrt t, limit sampler) = {ks:.4f} <= {thr:.4f}"
            f" (t = {run.horizon:.0f})",
        )
        target = math.sqrt(2.0 / math.pi)
        se = tops.std(ddof=1) / math.sqrt(n)
        c.expect(
            abs(float(tops.mean()) - target) <= 3.0 * se,
            f"sampler max-mean {float(tops.mean()):.4f} within 3 SE of {target:.4f}"
            " (grid bias included)",
        )
        return c.result(7, "drift-free central limit law")

    def criterion_8(self) -> CriterionResult:
        c = _Check()
        geo = HTParams(2.0, 2)
        n = self._n(100_000)
        rng = self._rng(11)

        worst_low, worst_high = 0.0, 0.0
        for _ in range(n):
            a, b = _random_ht_point(geo, rng), _random_ht_point(geo, rng)
            d = ht_distance(geo, a, b)
            mid, _, _ = sandwich(geo, a, b)
            worst_low = max(worst_low, d - mid)
            worst_high = max(worst_high, mid - d - 2.0 * DELTA)
        c.expect(
            worst_low <= 1e-7 and worst_high <= 1e-7,
            f"sandwich bounds on {n} pairs: worst violations {worst_low:.2e}, {worst_high:.2e}",
        )

        worst_split, worst_bound = 0.0, 0.0
        xs = rng.uniform(-10, 10, size=(n, 2))
        ys = np.exp(rng.uniform(-3, 3, size=(n, 2)))
        for i in range(n):
            z1 = complex(xs[i, 0], ys[i, 0])
            z2 = complex(xs[i, 1], ys[i, 1])
            d = hyp_distance(z1, z2)
            ap = apex(z1, z2)
            worst_split = max(
                worst_split, abs(d - hyp_distance(z1, ap) - hyp_distance(ap, z2))
            )
            approx = 2.0 * math.log(ap.imag) - math.log(z1.imag) - math.log(z2.imag)
            worst_bound = max(worst_bound, abs(d - approx) - math.log(4.0))
        c.expect(
            worst_split <= 1e-9,
            f"apex splits the distance on {n} pairs: worst dev {worst_split:.2e} <= 1e-9",
        )
        c.expect(
            worst_bound <= 1e-9,
            f"two-log approximation within log 4 on {n} pairs (worst slack {worst_bound:.2e})",
        )
        w = abs(hyp_distance(complex(-1, 1), complex(1, 1)) - math.log(2.0))
        c.expect(
            abs(w - 1.0696) < 1e-3 and w <= math.log(4.0),
            f"witness pair value {w:.5f} <= log 4 = {math.log(4.0):.5f}",
        )

        for p in (2, 3):
            bad = _tree_distance_vs_bfs(p, depth=6)
            c.expect(bad == 0, f"p={p}: metric formula equals BFS on all pairs ({bad} mismatches)")
        return c.result(8, "geometry suite (sandwich, apex, tree metric)")

    def criterion_9(self) -> CriterionResult:
        c = _Check()
        geo = HTParams(2.0, 2)
        rng = self._rng(12)
        n_iso = self._n(10_000)

        worst = 0.0
        for _ in range(n_iso):
            a = _random_isometry(geo, rng)
            z1, z2 = _random_ht_point(geo, rng), _random_ht_point(geo, rng)
            d0 = ht_distance(geo, z1, z2)
            d1 = ht_distance(geo, a.act(z1), a.act(z2))
            worst = max(worst, abs(d0 - d1))
        c.expect(worst <= 1e-8, f"isometry invariance on {n_iso} maps: worst dev {worst:.2e} <= 1e-8")

        mod_ok = True
        for _ in range(n_iso):
            a1, a2 = _random_isometry(geo, rng), _random_isometry(geo, rng)
            mod_ok &= a1.compose(a2).phi == a1.phi + a2.phi
        c.expect(mod_ok, f"modular function multiplicative (exact exponents) on {n_iso} pairs")

        lhs, rhs = bs_word("a b", 2), bs_word("b b a", 2)
        c.expect(lhs == rhs, "group relation: 'a b' equals 'b b a' exactly")
        act_ok = True
        for _ in range(100):
            v = _random_vertex(2, rng)
            act_ok &= lhs.gamma.apply_vertex(v) == rhs.gamma.apply_vertex(v)
        c.expect(act_ok, "the two relation sides act identically on 100 random vertices")

        n_ultra = self._n(100_000)
        ultra_bad = 0
        for _ in range(n_ultra):
            u = _random_padic(2, rng)
            v = _random_padic(2, rng)
            mshift = int(rng.integers(-6, 7))
            # exact valuation forms of the norm axioms (2 is prime, so the
            # product rule holds with equality)
            if (u + v).valuation() < min(u.valuation(), v.valuation()):
                ultra_bad += 1
            if not u.is_zero and not v.is_zero:
                if (u * v).valuation() != u.valuation() + v.valuation():
                    ultra_bad += 1
            if not u.is_zero and u.shift(mshift).valuation() != u.valuation() + mshift:
                ultra_bad += 1
            if (u.norm() == 0.0) != u.is_zero:
                ultra_bad += 1
        c.expect(ultra_bad == 0, f"ultrametric axioms exact on {n_ultra} random triples")
        return c.result(9, "group suite (isometries, modular function, group relation, norms)")

    def criterion_10(self) -> CriterionResult:
        c = _Check()
        em = self.exit_run
        n = em.n
        masses, expected = em.line_masses(), em.expected_masses()
        ok = all(
            abs(masses[i] - expected[i]) <= 3.0 * _se_prop(expected[i], n)
            for i in range(len(masses))
        )
        c.expect(
            ok,
            "line masses "
            + np.array2string(masses, precision=4)
            + " within 3 SE of "
            + np.array2string(expected, precision=4),
        )
        c.expect(bool((masses > 0).all()), "all p+1 boundary lines are hit")
        sk = analysis.skewness(em.x)
        tol = 3.0 * analysis.skewness_se(em.x)
        c.expect(abs(sk) <= tol, f"|skewness| of exit abscissae {abs(sk):.4f} <= {tol:.4f}")

        window, bins = (5.0, 10) if not self.quick else (3.0, 6)
        pos = analysis.histogram_positivity(
            em.x[em.side == -1], 0.0, window, bins
        ) and analysis.histogram_positivity(em.x[em.side == 1], 0.0, window, bins)
        c.expect(pos, f"every width-{2*window/bins:g} bin over a +-{window:g} window is hit, both line groups")

        n_shift = self._n(20_000)
        shift = AfElement(
            AffH(2.0, 1, 1.5), AffT(2, 1, PadicRational(2, 1))
        )  # start on the line one level up, abscissa 1.5
        em_shift = first_exit_batch(
            EXIT_PARAMS,
            n_shift,
            self._rng(13),
            dt=DT,
            start_level=shift.phi,
            start_x=shift.g.b,
        )
        ks = analysis.ks_two_sample(
            em.pulled_back_x()[:n_shift], em_shift.pulled_back_x()
        ).statistic
        thr = 0.05 * self.ks_widen
        c.expect(
            ks <= thr,
            f"group-shifted start, pulled back: KS = {ks:.4f} <= {thr:.4f}",
        )
        return c.result(10, "exit measure (masses, symmetry, positivity, group invariance)")

    def criterion_11(self) -> CriterionResult:
        c = _Check()
        # upward regime: cone masses against the absorbing-chain oracle
        run, points, _ = self.drifted_run
        n = run.n_paths
        root = TreeVertex.root(2)
        children = root.successors()
        grand = [w for v in children for w in v.successors()]
        h1 = analysis.cone_hitting_probability(DRIFTED, 1)
        h2 = analysis.cone_hitting_probability(DRIFTED, 2)
        m1 = analysis.cone_masses(points, children)
        m2 = analysis.cone_masses(points, grand)
        ok1 = all(abs(m - h1) <= 3.0 * _se_prop(h1, n) for m in m1)
        ok2 = all(abs(m - h2) <= 3.0 * _se_prop(h2, n) for m in m2)
        c.expect(
            ok1,
            f"upward: level-1 cone masses {np.array2string(m1, precision=4)} "
            f"within 3 SE of oracle {h1:.4f}",
        )
        c.expect(
            ok2,
            f"upward: level-2 cone masses {np.array2string(m2, precision=4)} "
            f"within 3 SE of oracle {h2:.4f}",
        )

        # downward regime: final abscissae against the affine-series oracle
        # (the path-sample count is pinned; the oracle side is drawn larger
        # to keep the comparison's own noise floor well inside the gate)
        down = self.downward_run
        pool = first_exit_batch(DOWNWARD, self._n(40_000), self._rng(14), dt=DT)
        series = analysis.zinf_series_samples(
            pool.side, pool.x, DOWNWARD.q, self._n(10_000), self._rng(15)
        )
        ks = analysis.ks_two_sample(down.x, series).statistic
        thr = 0.05 * self.ks_widen
        c.expect(ks <= thr, f"downward: KS(final abscissa, series oracle) = {ks:.4f} <= {thr:.4f}")

        # critical regime: diagnostics only
        free_run = self.driftfree_run[0]
        cp_t = np.append(free_run.checkpoint_times, free_run.horizon)
        diag = analysis.critical_diagnostics(cp_t, free_run.state["x"], free_run.zero_visits)
        c.note(
            "critical: median |x| per checkpoint "
            + str([f"{v:.2f}" for v in diag["median_abs_x"]])
            + f" (increasing: {diag['median_increasing']})"
        )
        c.expect(
            diag["paths_with_zero_visit"] > 0.5,
            f"critical: base level revisited on {diag['paths_with_zero_visit']:.0%} of paths",
        )
        return c.result(11, "boundary regimes (cones, series law, critical diagnostics)")

    def run_all(self) -> list[CriterionResult]:
        results = []
        for i in range(1, 12):
            start = time.perf_counter()
            res = getattr(self, f"criterion_{i}")()
            res.seconds = time.perf_counter() - start
            results.append(res)
        return results


# -- random generators for the exact-geometry checks --------------------------


def _random_vertex(p: int, rng: np.random.Generator, steps: int = 6) -> TreeVertex:
    v = TreeVertex.root(p)
    for _ in range(int(rng.integers(0, steps + 1))):
        if rng.random() < 0.4:
            v = v.predecessor()
        else:
            v = v.successor(rng.integers(p))
    return v


def _random_ht_point(geo: HTParams, rng: np.random.Generator) -> HTPoint:
    v = _random_vertex(geo.p, rng)
    return HTPoint(float(rng.normal(0.0, 3.0)), TreePoint(v, 1.0 - float(rng.random())))


def _random_padic(p: int, rng: np.random.Generator) -> PadicRational:
    return PadicRational(
        p, int(rng.integers(-(p**8), p**8 + 1)), int(rng.integers(0, 5))
    )


def _random_isometry(geo: HTParams, rng: np.random.Generator) -> AfElement:
    k = int(rng.integers(-4, 5))
    b = float(rng.normal(0.0, 4.0))
    c = _random_padic(geo.p, rng)
    return AfElement(AffH(geo.q, k, b), AffT(geo.p, k, c))


def _tree_distance_vs_bfs(p: int, depth: int) -> int:
    """Exhaustive check of the confluent distance formula against BFS on a
    truncation: all descendants (to `depth` levels) of the vertex `depth//2`
    levels below the root."""
    root = TreeVertex.root(p)
    base = root
    for _ in range(depth // 2):
        base = base.predecessor()
    layers = [[base]]
    for _ in range(depth):
        layers.append([w for v in layers[-1] for w in v.successors()])
    verts = [v for layer in layers for v in layer]
    index = {v: i for i, v in enumerate(verts)}
    adj: list[list[int]] = [[] for _ in verts]
    for v, i in index.items():
        for w in v.successors():
            if w in index:
                adj[i].append(index[w])
                adj[index[w]].append(i)

    mismatches = 0
    for src in range(len(verts)):
        dist = [-1] * len(verts)
        dist[src] = 0
        frontier = [src]
        while frontier:
            nxt = []
            for i in frontier:
                for j in adj[i]:
                    if dist[j] < 0:
                        dist[j] = dist[i] + 1
                        nxt.append(j)
            frontier = nxt
        for tgt in range(len(verts)):
            if tree_distance(verts[src], verts[tgt]) != dist[tgt]:
                mismatches += 1
    return mismatches
