"""Closed-form laws of the line-to-line walk.

Observed at the successive visits of distinct horizontal lines, the vertical
coordinate makes +-1 steps and the sojourn times are i.i.d.  Everything is
controlled by

    b   = (1 - alpha) log q / 2            (half the vertical drift exponent)
    rho = beta p q**(1 - alpha)            (odds of stepping up)

and by the entire function

    r(lam) = (beta p + 1) C(s) + (beta p - 1) b S(s),   s = b^2 + (log q)^2 lam,

where C(s) = sum s^n/(2n)! and S(s) = sum s^n/(2n+1)! continue cosh/cos and
sinh/sin across s = 0.  Joint transform of one (step, sojourn) pair:

    E[e^(-lam tau); up]   = beta p e^b / r(lam)
    E[e^(-lam tau); down] = e^(-b) / r(lam)
    E[e^(-lam tau)]       = (rho + 1) e^(-b) / r(lam)

so the step and the sojourn are independent, with P[up] = rho/(rho+1).
Means and variances come from termwise derivatives of the series; the rate
of escape and the central-limit variance follow by renewal-reward:

    ell    = (log q / E tau) (rho - 1)/(rho + 1)
    sigma2 = Var(step)/E tau + ell^2 Var(tau)/(E tau log^2 q)   (height units).

In distance units the variance is log^2 q times sigma2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .space import HTParams

_REL_TOL = 1e-18
#: rho within this of 1 is critical (drift-free): six typed digits, such as
#: beta = 0.288675 for 1/(2 sqrt 3) at q = 3, p = 2, alpha = 0.5, miss rho = 1
#: by a few 1e-7, a drift no simulated horizon resolves.
CRITICAL_TOL = 1e-6
_MAX_TERMS = 200
_S_RANGE = 700.0


@dataclass(frozen=True)
class ModelParams(HTParams):
    """Model parameters: geometry (q, p) plus drift weights (alpha, beta)."""

    alpha: float
    beta: float

    def __post_init__(self):
        super().__post_init__()
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise ValueError("alpha and beta must be finite")
        if not self.beta > 0:
            raise ValueError("beta must be > 0")


class Regime(enum.Enum):
    UPWARD = "upward"
    DOWNWARD = "downward"
    CRITICAL = "critical"


def b_param(params: ModelParams) -> float:
    return 0.5 * (1.0 - params.alpha) * params.log_q


def rho(params: ModelParams) -> float:
    return params.beta * params.p * params.q ** (1.0 - params.alpha)


def s_fun(params: ModelParams, lam: float) -> float:
    b = b_param(params)
    return b * b + params.log_q**2 * lam


def _series(s: float, shift: int, deriv: int) -> float:
    """d^deriv/ds^deriv of sum_n s^n / (2n + shift)! ; shift 0 gives C, 1 gives S."""
    if abs(s) > _S_RANGE:
        raise ValueError(f"series argument out of range: |{s}| > {_S_RANGE}")
    total = 0.0
    for n in range(deriv, _MAX_TERMS):
        coeff = math.perm(n, deriv) / math.factorial(2 * n + shift)
        term = coeff * s ** (n - deriv)
        total += term
        if abs(term) < _REL_TOL * max(abs(total), 1e-300):
            return total
    raise ValueError("series did not converge within the term cap")


def r_fun(params: ModelParams, lam: float, deriv: int = 0) -> float:
    """r(lam), or its deriv-th lambda-derivative via termwise differentiation."""
    b = b_param(params)
    bp = params.beta * params.p
    s = s_fun(params, lam)
    scale = params.log_q ** (2 * deriv)
    return scale * (
        (bp + 1.0) * _series(s, 0, deriv) + (bp - 1.0) * b * _series(s, 1, deriv)
    )


def r_closed(params: ModelParams, s: np.ndarray, deriv: int = 0) -> np.ndarray:
    """r, or for deriv=1 (s != 0) its lambda-derivative, at an array of
    s = s_fun(params, lam): cos, sin of theta = sqrt(-s) below 0, cosh, sinh
    of sqrt(s) above.  Each branch is evaluated only where it applies, so
    cosh never sees the theta of a far zero."""
    if deriv not in (0, 1):
        raise ValueError("deriv must be 0 or 1")
    a = params.beta * params.p + 1.0
    c = (params.beta * params.p - 1.0) * b_param(params)
    th = np.sqrt(np.abs(s))
    neg = s < 0
    cs, sn = np.empty_like(s), np.empty_like(s)
    cs[neg], sn[neg] = np.cos(th[neg]), np.sin(th[neg])
    cs[~neg], sn[~neg] = np.cosh(th[~neg]), np.sinh(th[~neg])
    if deriv == 0:
        return a * cs + c * np.divide(sn, th, out=np.ones_like(s), where=th > 0)
    flip = np.where(neg, -1.0, 1.0)
    return (a * sn + flip * c * (th * cs - sn) / th**2) / (2.0 * th) * params.log_q**2


def laplace_joint(params: ModelParams, lam: float, side: int) -> float:
    """E[e^(-lam tau); step = side] for side = +1 or -1."""
    if side not in (1, -1):
        raise ValueError("side must be +1 or -1")
    r = r_fun(params, lam)
    if r <= 0:
        raise ValueError(f"transform undefined: r({lam}) = {r} <= 0")
    b = b_param(params)
    if side == 1:
        return params.beta * params.p * math.exp(b) / r
    return math.exp(-b) / r


def laplace_tau(params: ModelParams, lam: float) -> float:
    """E[e^(-lam tau)]; equals 1 at lam = 0."""
    r = r_fun(params, lam)
    if r <= 0:
        raise ValueError(f"transform undefined: r({lam}) = {r} <= 0")
    return (rho(params) + 1.0) * math.exp(-b_param(params)) / r


def exp_tau(params: ModelParams) -> float:
    """Mean sojourn time between distinct lines (closed form),

        (log^2 q / 2) [(bp - 1) g(b) + (bp + 1) sinh(b) / b] / den,  bp = beta p,

    with g(b) = (b cosh b - sinh b) / b^2, which cancels near b = 0: for
    |b| < 0.1, g and sinh(b) / b are Taylor polynomials (next terms below
    1e-18 relative), and at b = 0 the result is exactly log^2 q / 2."""
    b = b_param(params)
    bp = params.beta * params.p
    den = (bp + 1.0) * math.cosh(b) + (bp - 1.0) * math.sinh(b)
    if abs(b) >= 0.1:
        num = (bp - 1.0) * b * math.cosh(b) + ((bp + 1.0) * b - (bp - 1.0)) * math.sinh(b)
        return params.log_q**2 / (2.0 * b * b) * num / den
    b2 = b * b
    g = b * (1 / 3 + b2 * (1 / 30 + b2 * (1 / 840 + b2 * (1 / 45360 + b2 / 3991680))))
    sinhc = 1.0 + b2 * (1 / 6 + b2 * (1 / 120 + b2 * (1 / 5040 + b2 / 362880)))
    return 0.5 * params.log_q**2 * (((bp - 1.0) * g + (bp + 1.0) * sinhc) / den)


def var_tau(params: ModelParams) -> float:
    """Sojourn variance E(tau)^2 - r''(0) e^b / (rho + 1)."""
    et = exp_tau(params)
    return et * et - r_fun(params, 0.0, deriv=2) * math.exp(b_param(params)) / (
        rho(params) + 1.0
    )


def skeleton_probs(params: ModelParams) -> tuple[float, float, float]:
    """(up, down, up-per-branch) step probabilities of the induced walks."""
    r = rho(params)
    return r / (1.0 + r), 1.0 / (1.0 + r), r / ((1.0 + r) * params.p)


def prob_up(params: ModelParams) -> float:
    return skeleton_probs(params)[0]


def mean_step(params: ModelParams) -> float:
    r = rho(params)
    return (r - 1.0) / (r + 1.0)


def var_step(params: ModelParams) -> float:
    r = rho(params)
    return 4.0 * r / (r + 1.0) ** 2


def escape_rate(params: ModelParams) -> float:
    """Almost-sure linear rate of the distance to the start (signed)."""
    return params.log_q / exp_tau(params) * mean_step(params)


def clt_sigma2(params: ModelParams) -> float:
    """Central-limit variance of the height coordinate (height units)."""
    et = exp_tau(params)
    ell = escape_rate(params)
    return var_step(params) / et + ell * ell * var_tau(params) / (et * params.log_q**2)


def clt_sigma2_distance(params: ModelParams) -> float:
    """Central-limit variance of the distance to the origin (length units)."""
    return params.log_q**2 * clt_sigma2(params)


def is_critical(params: ModelParams) -> bool:
    """rho = 1 up to CRITICAL_TOL: no vertical drift on the skeleton."""
    return abs(rho(params) - 1.0) <= CRITICAL_TOL


def classify_regime(params: ModelParams) -> Regime:
    if is_critical(params):
        return Regime.CRITICAL
    return Regime.UPWARD if rho(params) > 1.0 else Regime.DOWNWARD


@dataclass(frozen=True)
class ClosedForms:
    """All derived scalars for one parameter set."""

    b: float
    rho: float
    exp_tau: float
    var_tau: float
    prob_up: float
    mean_step: float
    var_step: float
    ell: float
    sigma2: float
    sigma2_distance: float
    regime: Regime

    @classmethod
    def from_params(cls, params: ModelParams) -> "ClosedForms":
        return cls(
            b=b_param(params),
            rho=rho(params),
            exp_tau=exp_tau(params),
            var_tau=var_tau(params),
            prob_up=prob_up(params),
            mean_step=mean_step(params),
            var_step=var_step(params),
            ell=escape_rate(params),
            sigma2=clt_sigma2(params),
            sigma2_distance=clt_sigma2_distance(params),
            regime=classify_regime(params),
        )

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in (
            "b", "rho", "exp_tau", "var_tau", "prob_up", "mean_step",
            "var_step", "ell", "sigma2", "sigma2_distance",
        )}
        d["regime"] = self.regime.value
        return d
