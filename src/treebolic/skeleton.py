"""Exact simulation of the walks induced at the line-visit times.

The vertical skeleton is a +-1 walk with up-probability rho/(rho+1); on the
tree an up-step picks one of the p forward branches uniformly.  Both use the
closed-form probabilities directly, so the walks carry no discretization
error.

The sojourn between distinct lines is independent of the step and has the
transform (rho + 1) e^(-b) / r(lam) (see `closed_forms`).  r is entire with
simple zeros lam_1 > lam_2 > ... on the negative axis, so the sojourn has
the survival function

    S(t) = sum_k R_k e^(lam_k t) / (-lam_k),   R_k = (rho + 1) e^(-b) / r'(lam_k),

and a sojourn is drawn exactly, by solving S(tau) = u for a uniform u.
The closed forms are the oracle, never the sampler.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .closed_forms import ModelParams, b_param, prob_up, r_closed, r_fun, rho
from .pathsim import check_dt, rebuild_vertices
from .tree import TreeVertex

#: Sojourns are sampled at or above t_min = _T_MIN log^2 q, and a draw below
#: it would be returned as t_min.  So a law that puts mass F(t_min) above
#: _MAX_BELOW there is refused.  The mass grows like e^|b|: about 5e-15 at
#: the acceptance parameters, 1.8e-12 at (q, p, alpha, beta) = (8, 4, -5, 5)
#: and 8.7e-3 at (8, 4, -40, 5).
_T_MIN = 0.008
_MAX_BELOW = 1e-8
#: The table keeps zeros until lam_k t_min <= -_TAIL: at t >= t_min the
#: terms left out are below e^-_TAIL, far below any u >= 2^-53 it inverts.
#: The k-th zero has theta > (k - 1) pi and -lam_k t_min >= _T_MIN theta^2.
_TAIL = 40.0
_ZEROS = math.ceil(math.sqrt(_TAIL / _T_MIN) / math.pi) + 1
#: Log-time grid for the starting guess, and the Newton steps that follow.
_GRID = 512
_NEWTON = 4
#: Samples inverted at once, to bound the (chunk, zeros) temporaries.
_CHUNK = 2048


@dataclass(frozen=True)
class RngStream:
    """Reproducible stream: identical (seed, stream) gives identical draws."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream])


@dataclass(frozen=True)
class SkeletonState:
    """One skeleton sample: vertex at the n-th line visit and its clock."""

    vertex: TreeVertex
    clock: float
    step: int

    @property
    def hor(self) -> int:
        return self.vertex.level


def _spectrum(params: ModelParams, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest zeros lam_k < 0 of r and the residues R_k of the
    sojourn transform there.

    With s = b^2 + log^2 q lam = -theta^2, r = A cos theta + B sin theta / theta
    with A = beta p + 1 and B = (beta p - 1) b, so r = (-1)^j A at
    theta = j pi.  The first zero lies in s in (-pi^2, b^2): on theta in
    (0, pi) if A + B > 0, else on the s > 0 branch, where r is the cosh/sinh
    form and r(s = b^2) = r(lam = 0) > 0.  Each later zero lies in one
    bracket theta in (j pi, (j + 1) pi).  Zeros are found by bisection in s,
    down to adjacent doubles.
    """
    b = b_param(params)
    j = np.arange(1, k) * math.pi
    lo = np.concatenate([[-math.pi**2], -((j + math.pi) ** 2)])
    hi = np.concatenate([[b * b], -(j**2)])
    sign_lo = np.sign(r_closed(params, lo))
    while True:
        mid = 0.5 * (lo + hi)
        if not np.any((mid > lo) & (mid < hi)):
            break
        same = np.sign(r_closed(params, mid)) == sign_lo
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    s = 0.5 * (lo + hi)
    lam = (s - b * b) / params.log_q**2
    # r' from the closed form, away from s = 0 where it cancels; the series
    # of r_fun is exact there (only the first zero can come near)
    far = np.abs(s) >= 1.0
    slope = np.empty_like(s)
    slope[far] = r_closed(params, s[far], 1)
    slope[~far] = [r_fun(params, x, deriv=1) for x in lam[~far]]
    return lam, (rho(params) + 1.0) * math.exp(-b) / slope


class _SojournLaw:
    """The exact sojourn law of one parameter set, truncated to t >= t_min:
    its zeros, residues and a log-time grid of log S for the inversion.
    Raises ValueError where the truncation would clip draws (see _T_MIN)."""

    def __init__(self, params: ModelParams):
        self.t_min = _T_MIN * params.log_q**2
        self.lam, self.res = _spectrum(params, _ZEROS)
        self.weight = self.res / -self.lam
        below = 1.0 - self.survival(self.t_min)[0]
        if below > _MAX_BELOW:
            raise ValueError(
                f"the sojourn law puts mass {below:.2g} (more than {_MAX_BELOW:g}) below"
                f" t_min = {self.t_min:.4g}, where its sampler would clip the draws"
            )
        # by t_max the slowest term has decayed by e^-45, below any u
        grid = np.geomspace(self.t_min, self.t_min - 45.0 / self.lam[0], _GRID)
        self.grid_log_t = np.log(grid)[::-1]
        self.grid_log_s = np.log(self.survival(grid))[::-1]  # increasing

    def _sums(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(S(t), the density f(t)), summed per row, independent of BLAS."""
        e = np.exp(np.multiply.outer(t, self.lam))
        return (e * self.weight).sum(1), (e * self.res).sum(1)

    def survival(self, t) -> np.ndarray:
        """S(t) = P[tau > t], for t >= t_min."""
        return self._sums(np.atleast_1d(np.asarray(t, dtype=float)))[0]

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """The tau >= t_min with S(tau) = u, for u in (0, 1]: an interpolated
        guess, then Newton steps on log S, bracketed at t_min."""
        out = np.empty(u.size)
        for i in range(0, u.size, _CHUNK):
            log_u = np.log(u[i : i + _CHUNK])
            t = np.exp(np.interp(log_u, self.grid_log_s, self.grid_log_t))
            for _ in range(_NEWTON):
                surv, dens = self._sums(t)
                t = np.maximum(t + (np.log(surv) - log_u) * surv / dens, self.t_min)
            out[i : i + _CHUNK] = t
        return out


@functools.lru_cache(maxsize=64)
def _sojourn_law(params: ModelParams) -> _SojournLaw:
    return _SojournLaw(params)


def sample_tau_batch(
    params: ModelParams,
    n: int,
    rng: np.random.Generator,
    dt: float = 1e-4,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample n independent (sojourn, exit side) pairs of the height
    diffusion started on a line, from the exact law: each time inverts the
    spectral survival function of a uniform, and each side is an
    independent uniform below prob_up.

    The exact law does not read dt; it is still checked like a kernel step
    size, for callers that pass the step of their other samplers.
    """
    check_dt(dt)
    tau = _sojourn_law(params).quantile(1.0 - rng.random(n))  # u in (0, 1]
    side = np.where(rng.random(n) < prob_up(params), 1, -1).astype(np.int8)
    return tau, side


def run_skeleton(
    params: ModelParams, n_steps: int, rng: np.random.Generator
) -> list[SkeletonState]:
    """Run the skeleton walk for n_steps line visits from the root.

    Sides, branch choices and clock increments are all exact: the sides and
    sojourns of sample_tau_batch, and a uniform branch per step.
    """
    if n_steps < 1:
        raise ValueError("need n_steps >= 1")
    taus, sides = sample_tau_batch(params, n_steps, rng)
    branch = rng.integers(params.p, size=n_steps)
    vertices = rebuild_vertices(params.p, sides, branch)
    clocks = accumulate(taus.tolist(), initial=0.0)
    return [SkeletonState(v, t, i) for i, (v, t) in enumerate(zip(vertices, clocks))]
