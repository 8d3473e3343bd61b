"""Statistical verifiers: escape-rate estimation, the three central-limit
comparisons, exit-measure histograms and boundary-regime diagnostics.

Everything here consumes simulation output as plain arrays and compares it
against the closed forms or against independent numerical oracles:

  * a Kolmogorov-Smirnov distance (one- and two-sample, hand-rolled),
  * an exact sampler for the drift-free limit law built from the endpoint
    and running extremes of a standard Brownian path on [0, 1],
  * an absorbing-chain linear solve for the probability that the induced
    tree walk escapes through a fixed branch (cone masses),
  * a resampled affine-recursion series for the limit abscissa when the
    drift points down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pathsim
from .closed_forms import (
    ModelParams,
    clt_sigma2,
    clt_sigma2_distance,
    escape_rate,
    exp_tau,
    is_critical,
    prob_up,
)
from .tree import cone_contains

# -- summaries and KS distances ---------------------------------------------


@dataclass(frozen=True)
class SampleSummary:
    n: int
    mean: float
    variance: float
    se: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, samples) -> "SampleSummary":
        a = np.asarray(samples, dtype=float)
        if a.size == 0:
            raise ValueError("empty sample")
        var = float(a.var(ddof=1)) if a.size > 1 else 0.0
        return cls(
            n=a.size,
            mean=float(a.mean()),
            variance=var,
            se=math.sqrt(var / a.size),
            minimum=float(a.min()),
            maximum=float(a.max()),
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "mean": self.mean,
            "variance": self.variance,
            "se": self.se,
            "min": self.minimum,
            "max": self.maximum,
        }


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n1: int
    n2: int  # 0 for a one-sample comparison against a reference cdf


def ks_two_sample(a, b) -> KsResult:
    """sup |F1 - F2| over the pooled support of two empirical cdfs."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    pooled = np.concatenate([a, b])
    c1 = np.searchsorted(a, pooled, side="right") / a.size
    c2 = np.searchsorted(b, pooled, side="right") / b.size
    return KsResult(float(np.abs(c1 - c2).max()), a.size, b.size)


def ks_against_cdf(a, cdf) -> KsResult:
    """sup |F_hat - F| against a reference cdf callable."""
    a = np.sort(np.asarray(a, dtype=float))
    if a.size == 0:
        raise ValueError("empty sample")
    f = np.asarray([cdf(x) for x in a], dtype=float)
    grid = np.arange(1, a.size + 1) / a.size
    d = max(float((grid - f).max()), float((f - (grid - 1.0 / a.size)).max()))
    return KsResult(d, a.size, 0)


def normal_cdf(x: float, mean: float = 0.0, sd: float = 1.0) -> float:
    return 0.5 * (1.0 + math.erf((x - mean) / (sd * math.sqrt(2.0))))


def _centred(samples) -> tuple[np.ndarray, float]:
    """The samples less their mean, and their variance, which must not be 0."""
    a = np.asarray(samples, dtype=float)
    c = a - a.mean()
    m2 = float(np.mean(c * c))
    if m2 == 0.0:
        raise ValueError("the samples have zero variance: their skewness is undefined")
    return c, m2


def skewness(samples) -> float:
    """Sample skewness g1 = m3 / m2**1.5."""
    c, m2 = _centred(samples)
    return float(np.mean(c * c * c)) / m2**1.5


def skewness_se(samples) -> float:
    """Standard error of the sample skewness around a symmetric law.

    Moment-based: Var(m3) = (mu6 - 6 mu2 mu4 + 9 mu2^3)/n for symmetric
    data, normalized by mu2^(3/2).  Reduces to sqrt(6/n) for normal data
    but stays honest for the heavy-tailed exit laws."""
    c, m2 = _centred(samples)
    m4 = float(np.mean(c**4))
    m6 = float(np.mean(c**6))
    var_m3 = max(m6 - 6.0 * m2 * m4 + 9.0 * m2**3, 0.0) / c.size
    return math.sqrt(var_m3) / m2**1.5


# -- escape rate and central-limit comparisons -------------------------------


def estimate_escape_rate(distances, horizon: float) -> SampleSummary:
    """Summary of d(X_T, start)/T over paths run to a common horizon."""
    return SampleSummary.from_samples(np.asarray(distances, dtype=float) / horizon)


def vertical_clt(params: ModelParams, heights, t: float) -> KsResult:
    """KS distance of the standardized height marginal from a unit normal.

    The statistic is (Y_t - t ell/log q) / (sqrt t * sigma) with sigma the
    height-unit central-limit deviation.
    """
    y = np.asarray(heights, dtype=float)
    drift = t * escape_rate(params) / params.log_q
    sd = math.sqrt(clt_sigma2(params) * t)
    return ks_against_cdf((y - drift) / sd, normal_cdf)


def distance_clt(params: ModelParams, distances, t: float) -> KsResult:
    """KS of (d(X_t, origin) - t |ell|)/sqrt(t) against its normal limit
    (variance log^2 q times the height-unit one).  Requires drift."""
    if is_critical(params):
        raise ValueError("drift-free parameters: use drift_free_clt")
    ell = escape_rate(params)
    d = np.asarray(distances, dtype=float)
    sd = math.sqrt(clt_sigma2_distance(params) * t)
    return ks_against_cdf((d - t * abs(ell)) / sd, normal_cdf)


#: Reflection terms |k| <= _REFLECTIONS of the series for the law of M-,
#: the width of its bisection bracket below min(0, N), the bisection steps
#: (enough to reach double precision) and the draws per chunk.
_REFLECTIONS = 8
_MIN_BRACKET = 12.0
_BISECT_STEPS = 60
_LIMIT_CHUNK = 1024


def _bisect_minimum(x, b, v):
    """The a with P(M- > a | M+ = b, N = x) = v for a standard Brownian path
    on [0, 1].  That probability is d_b f(a, b, x) / d_b f(-inf, b, x), with

        f(a, b, x) = sum_k [phi(x - 2k(b-a)) - phi(x - 2b + 2k(b-a))]

    the density of N at x on {a < M-, M+ < b} (Levy's reflection series);
    the factor 2 / sqrt(2 pi) of each b-derivative cancels."""
    k = np.arange(-_REFLECTIONS, _REFLECTIONS + 1.0)[:, None]
    y0 = x - 2.0 * b
    target = v * -y0 * np.exp(-0.5 * y0 * y0)
    hi = np.minimum(x, 0.0)
    lo = hi - _MIN_BRACKET
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        w = 2.0 * k * (b - mid)
        y1, y2 = x - w, y0 + w
        slope = (k * y1 * np.exp(-0.5 * y1 * y1) + (k - 1.0) * y2 * np.exp(-0.5 * y2 * y2)).sum(axis=0)
        above = slope > target  # P(M- > mid) > v: the draw lies above mid
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return 0.5 * (lo + hi)


def _path_extremes(n: int, rng: np.random.Generator):
    """The endpoint N, maximum M+ and minimum M- of n standard Brownian
    paths on [0, 1], drawn exactly, _LIMIT_CHUNK paths at a time.  N is
    normal, and M+ given N = x is drawn in closed form from
    P(M+ >= m | x) = exp(-2 m (m - x)); M- given both is bisected."""
    end, top, bottom = np.empty(n), np.empty(n), np.empty(n)
    for i in range(0, n, _LIMIT_CHUNK):
        s = slice(i, min(i + _LIMIT_CHUNK, n))
        x = end[s] = rng.standard_normal(s.stop - i)
        u, v = rng.random((2, x.size))
        b = top[s] = 0.5 * (x + np.sqrt(x * x - 2.0 * np.log1p(-u)))
        bottom[s] = _bisect_minimum(x, b, v)
    return end, top, bottom


def draw_limit_samples(
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
    grid_n: int = 16384,
    return_max: bool = False,
):
    """Exact draws of the drift-free limit law: with (M+, M-, N) the running
    max, running min and endpoint of a standard Brownian path on [0, 1],

        scale * (2 M+ - 2 M- - |N|),    scale = log q / sqrt(E tau).

    Optionally also returns the M+ draws for the sampler's own calibration
    check.  grid_n is not read; it is kept because perfbench/ passes it.
    """
    end, top, bottom = _path_extremes(n, rng)
    out = params.log_q / math.sqrt(exp_tau(params)) * (2.0 * top - 2.0 * bottom - np.abs(end))
    return (out, top) if return_max else out


def drift_free_clt(params: ModelParams, distances, t: float, limit_samples) -> KsResult:
    """Two-sample KS between d(X_t, origin)/sqrt(t) and limit-law draws.
    Requires drift-free parameters (closed_forms.is_critical)."""
    if not is_critical(params):
        raise ValueError("drifted parameters: use distance_clt")
    d = np.asarray(distances, dtype=float) / math.sqrt(t)
    return ks_two_sample(d, np.asarray(limit_samples, dtype=float))


# -- exit measure -------------------------------------------------------------


def sample_exit_measure(
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
    dt: float = 1e-4,
    start_level: int = 0,
    start_x: float = 0.0,
) -> pathsim.ExitMeasure:
    """pathsim.first_exit_batch, kept because perfbench/ calls it."""
    return pathsim.first_exit_batch(params, n, rng, dt=dt, start_level=start_level, start_x=start_x)


def histogram_positivity(xs, center: float, half_width: float, bins: int) -> bool:
    """Whether every bin of the window [center - h, center + h] is hit."""
    counts, _ = np.histogram(
        np.asarray(xs, dtype=float), bins=bins, range=(center - half_width, center + half_width)
    )
    return bool((counts > 0).all())


# -- boundary-regime oracles ---------------------------------------------------


def cone_hitting_probability(
    params: ModelParams, depth: int, max_above: int = 12, max_below: int = 12
) -> float:
    """Probability that the induced tree walk started at the root converges
    into the cone of one fixed vertex at the given depth (> 0).

    Oracle: the walk is collapsed by symmetry onto states (j, k), where j is
    the level at which the current position's ray meets the ray of the
    target vertex (j = depth meaning inside the target cone) and k >= 0 is
    the height above that junction.  The chain is truncated at height
    k = max_above (absorbing: value 1 inside the cone, 0 outside) and at
    j = -max_below (reflecting lower cap), and the linear system is solved
    exactly.  Requires an upward drift to be meaningful.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    p_up = prob_up(params)
    p_dn = 1.0 - p_up
    p = params.p
    r, top, bot = depth, max_above, max_below

    js = list(range(-bot, r + 1))
    ks = list(range(top))  # k = top is absorbing
    index = {(j, k): i for i, (j, k) in enumerate((j, k) for j in js for k in ks)}
    m = len(index)
    mat = np.eye(m)
    rhs = np.zeros(m)

    def add(i, j, k, w):
        if k >= top:
            rhs[i] += w * (1.0 if j == r else 0.0)
        else:
            mat[i, index[(j, k)]] -= w

    for (j, k), i in index.items():
        if j == r:  # inside the target cone, height k above the target
            add(i, r, k + 1, p_up)
            if k >= 1:
                add(i, r, k - 1, p_dn)
            else:
                add(i, r - 1, 0, p_dn)
        elif k >= 1:  # off the target ray, junction at level j
            add(i, j, k + 1, p_up)
            add(i, j, k - 1, p_dn)
        else:  # on the target ray at level j < r
            if j == -bot:  # reflecting cap: renormalize the upward moves
                add(i, j + 1, 0, 1.0 / p)
                if p > 1:
                    add(i, j, 1, (p - 1.0) / p)
            else:
                add(i, j + 1, 0, p_up / p)
                if p > 1:
                    add(i, j, 1, p_up * (p - 1.0) / p)
                add(i, j - 1, 0, p_dn)

    h = np.linalg.solve(mat, rhs)
    return float(h[index[(0, 0)]])


def cone_masses(tree_points, ancestors) -> np.ndarray:
    """Empirical masses of the cones of the given vertices among final tree
    positions."""
    out = np.empty(len(ancestors))
    for i, v in enumerate(ancestors):
        out[i] = np.mean([cone_contains(v, w) for w in tree_points])
    return out


#: Truncation of the affine series: its prefactor tolerance and term cap.
_SERIES_TOL = 1e-8
_SERIES_MAX_TERMS = 200_000


def zinf_series_samples(
    exit_side,
    exit_x,
    q: float,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draws of the limit abscissa via the affine recursion

        Z = B_1 + A_1 B_2 + A_1 A_2 B_3 + ...

    with (A, B) = (q**side, exit abscissa) resampled from an empirical
    first-exit pool.  Converges when the drift points down (mean level step
    negative); each series is truncated once its prefactor drops below
    _SERIES_TOL, and at most _SERIES_MAX_TERMS terms are drawn.
    """
    side = np.asarray(exit_side)
    xs = np.asarray(exit_x, dtype=float)
    if side.size == 0:
        raise ValueError("empty exit pool")
    z = np.zeros(n)
    a = np.ones(n)
    alive = np.arange(n)
    terms = 0
    while alive.size:
        terms += 1
        if terms > _SERIES_MAX_TERMS:
            raise RuntimeError("series did not reach its truncation tolerance")
        pick = rng.integers(0, side.size, size=alive.size)
        z[alive] += a[alive] * xs[pick]
        a[alive] *= np.where(side[pick] > 0, q, 1.0 / q)
        alive = alive[a[alive] > _SERIES_TOL]
    return z


def critical_diagnostics(checkpoint_times, checkpoint_x, zero_visits) -> dict:
    """Non-gating diagnostics for the drift-free regime: the median |x|
    trend across checkpoints and the count of returns to the base level."""
    med = [float(np.median(np.abs(checkpoint_x[:, i]))) for i in range(len(checkpoint_times))]
    return {
        "checkpoint_times": [float(t) for t in checkpoint_times],
        "median_abs_x": med,
        "median_increasing": all(a < b for a, b in zip(med, med[1:])),
        "mean_zero_level_visits": float(np.mean(zero_visits)),
        "paths_with_zero_visit": float(np.mean(np.asarray(zero_visits) > 0)),
    }
