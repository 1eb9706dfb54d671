"""The mixed rough lognormal variance model and its analytical companions.

Instantaneous variance is a convex mixture of two unit-mean (Wick) lognormal
factors driven by the same Gaussian Volterra process with kernel
tau^(H-1/2) exp(-beta tau):

    v_t = v0 * (gamma * E(nu sqrt(2H) B_t) + (1-gamma) * E(eta sqrt(2H) B_t))

where E(X) = exp(X - Var(X)/2). The non-mixed configuration is gamma = 1;
H = 1/2 with beta = 0 recovers the SABR (plain lognormal) case.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .specfun import QuadSpec, gauss_jacobi, integrate, lower_incomplete_gamma

__all__ = [
    "ModelParams",
    "HestonParams",
    "kernel",
    "kernel_variance",
    "kernel_covariance",
    "kernel_covariance_matrix",
    "forward_variance",
]

# Relative tolerance under which two times are treated as the same node when
# classifying endpoint singularities of covariance integrands.
_TIME_EQ_TOL = 1e-12

# Fixed rules of kernel_covariance_matrix: nodes per rule and panel, and the
# geometric panels from the near-field rule out to the noise boundary.
_COV_NODES = 16
_COV_PANELS = 12
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_COV_NODES)
_GL01_X, _GL01_W = 0.5 * (_GL_X + 1.0), 0.5 * _GL_W
# Pairs integrated per pass: bounds the node temporaries (a few MB) at any
# grid size, where one pass over all pairs would grow them with n^2.
_COV_BLOCK = 512


@dataclass(frozen=True)
class ModelParams:
    """Mixed rough lognormal model parameters.

    v0     initial instantaneous variance (> 0)
    H      Hurst parameter of the kernel, in (0, 1/2]
    beta   mean-reversion rate of the kernel (>= 0, per year)
    gamma  mixing weight of the first lognormal factor, in [0, 1]
    nu     vol-of-vol of the first factor (>= 0)
    eta    vol-of-vol of the second factor (>= 0)
    """

    v0: float
    H: float
    beta: float = 0.0
    gamma: float = 1.0
    nu: float = 0.0
    eta: float = 0.0

    def __post_init__(self) -> None:
        for name in ("v0", "H", "beta", "gamma", "nu", "eta"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"ModelParams.{name} must be finite")
        if self.v0 <= 0.0:
            raise ValueError(f"v0 must be positive, got {self.v0!r}")
        if not (0.0 < self.H <= 0.5):
            raise ValueError(f"H must lie in (0, 1/2], got {self.H!r}")
        if self.beta < 0.0:
            raise ValueError(f"beta must be nonnegative, got {self.beta!r}")
        if not (0.0 <= self.gamma <= 1.0):
            raise ValueError(f"gamma must lie in [0, 1], got {self.gamma!r}")
        if self.nu < 0.0 or self.eta < 0.0:
            raise ValueError("nu and eta must be nonnegative")

    @property
    def volvol_mean(self) -> float:
        """First mixture moment of the vol-of-vol, gamma*nu + (1-gamma)*eta."""
        return self.gamma * self.nu + (1.0 - self.gamma) * self.eta

    @property
    def volvol_sq_mean(self) -> float:
        """Second mixture moment, gamma*nu^2 + (1-gamma)*eta^2."""
        return self.gamma * self.nu ** 2 + (1.0 - self.gamma) * self.eta ** 2


@dataclass(frozen=True)
class HestonParams:
    """Heston parameters for the VIX skew-sign formula (assumes v0 = theta)."""

    k: float
    theta: float
    nu: float
    v0: float

    def __post_init__(self) -> None:
        for name in ("k", "theta", "nu", "v0"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"HestonParams.{name} must be positive and finite")
        if not self.feller_ok:
            warnings.warn(
                "Feller condition 2*k*theta > nu^2 violated: the variance "
                "process can touch zero",
                stacklevel=2,
            )

    @property
    def feller_ok(self) -> bool:
        return 2.0 * self.k * self.theta > self.nu ** 2


def kernel(params: ModelParams, lag) -> float | np.ndarray:
    """Volterra kernel tau^(H-1/2) exp(-beta tau); diverges at 0+ when H < 1/2."""
    lag_arr = np.asarray(lag, dtype=float)
    if np.any(lag_arr <= 0.0):
        raise ValueError("kernel lag must be positive")
    out = lag_arr ** (params.H - 0.5) * np.exp(-params.beta * lag_arr)
    return float(out) if np.ndim(lag) == 0 else out


def kernel_variance(params: ModelParams, t: float) -> float:
    """Var(B_t) = int_0^t u^(2H-1) e^(-2 beta u) du, in closed form."""
    if t < 0.0 or not math.isfinite(t):
        raise ValueError(f"time must be nonnegative and finite, got {t!r}")
    if t == 0.0:
        return 0.0
    two_h = 2.0 * params.H
    if params.beta == 0.0:
        return t ** two_h / two_h
    return (2.0 * params.beta) ** -two_h * lower_incomplete_gamma(
        two_h, 2.0 * params.beta * t
    )


def kernel_covariance(params: ModelParams, t1: float, t2: float, upto: float) -> float:
    """Cov of the Volterra integrals to times t1, t2 over driving noise [0, upto].

    Computes int_0^upto k(t1-u) k(t2-u) du by adaptive quadrature with the
    endpoint power law declared: order 2H-1 when upto coincides with both
    times, H-1/2 when it coincides with exactly one.
    """
    if not all(math.isfinite(v) for v in (t1, t2, upto)):
        raise ValueError("kernel_covariance arguments must be finite")
    if t1 <= 0.0 or t2 <= 0.0:
        raise ValueError("t1 and t2 must be positive")
    if upto < 0.0 or upto > min(t1, t2) * (1.0 + _TIME_EQ_TOL):
        raise ValueError(f"upto must lie in [0, min(t1, t2)], got {upto!r}")
    if upto == 0.0:
        return 0.0

    # Snap times that match the upper noise boundary to it exactly, so the
    # declared power law is the true endpoint behaviour.
    def _matches(t: float) -> bool:
        return abs(t - upto) <= _TIME_EQ_TOL * max(1.0, abs(t))

    gap1 = 0.0 if _matches(t1) else t1 - upto
    gap2 = 0.0 if _matches(t2) else t2 - upto
    n_singular = (gap1 == 0.0) + (gap2 == 0.0)

    h_exp = params.H - 0.5
    beta = params.beta

    # Integrate over the distance from the singular endpoint, tau = upto - u,
    # so the power-law endpoint sits exactly at zero.
    def f(tau):
        return (
            (gap1 + tau) ** h_exp
            * (gap2 + tau) ** h_exp
            * np.exp(-beta * (gap1 + gap2 + 2.0 * tau))
        )

    if n_singular == 2:
        spec = QuadSpec(singular_left=True, singular_exponent=2.0 * params.H - 1.0)
    elif n_singular == 1:
        spec = QuadSpec(singular_left=True, singular_exponent=h_exp)
    else:
        spec = QuadSpec()
    # Tolerances relative to the (possibly tiny) scale of the integral.
    scale = kernel_variance(params, upto)
    spec = QuadSpec(
        abs_tol=max(1e-14 * scale, 1e-280),
        rel_tol=1e-11,
        singular_left=spec.singular_left,
        singular_exponent=spec.singular_exponent,
    )
    return integrate(f, 0.0, upto, spec)


def kernel_covariance_matrix(params: ModelParams, times, windows) -> np.ndarray:
    """Symmetric matrix of kernel_covariance(t_i, t_j, min(w_i, w_j)).

    All upper-triangle pairs are integrated at once by fixed rules in the
    distance tau from the noise boundary U, with the gaps g = t - U snapped
    as in :func:`kernel_covariance` and sorted so g_lo <= g_hi:

    - both gaps zero: ``kernel_variance(U)``, in closed form;
    - one gap zero: Gauss-Jacobi with weight tau^(H-1/2) on [0, min(g_hi, U)];
    - no gap zero: Gauss-Legendre on [0, min(g_lo, U)];
    - the rest of [0, U]: Gauss-Legendre on geometric panels, whose widths
      grow with the distance from the kernel singularities at tau <= 0.

    The rule is the same for every beta. :func:`kernel_covariance` is its
    reference in the tests.
    """
    times = np.asarray(times, dtype=float)
    windows = np.asarray(windows, dtype=float)
    if times.ndim != 1 or windows.shape != times.shape:
        raise ValueError("times and windows must be vectors of equal length")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(windows))):
        raise ValueError("kernel_covariance_matrix arguments must be finite")
    if np.any(times <= 0.0):
        raise ValueError("times must be positive")
    if np.any(windows < 0.0) or np.any(windows > times * (1.0 + _TIME_EQ_TOL)):
        raise ValueError("every window must lie in [0, its time]")

    rows, cols = np.triu_indices(times.size)
    upto = np.minimum(windows[rows], windows[cols])

    def gap(t):
        snap = np.abs(t - upto) <= _TIME_EQ_TOL * np.maximum(1.0, np.abs(t))
        return np.where(snap, 0.0, t - upto)

    gap1, gap2 = gap(times[rows]), gap(times[cols])
    g_lo, g_hi = np.minimum(gap1, gap2), np.maximum(gap1, gap2)

    values = np.zeros(rows.size)
    both = (g_hi == 0.0) & (upto > 0.0)
    values[both] = [kernel_variance(params, float(u)) for u in upto[both]]
    pending = np.flatnonzero((g_hi > 0.0) & (upto > 0.0))
    for start in range(0, pending.size, _COV_BLOCK):
        sel = pending[start:start + _COV_BLOCK]
        values[sel] = _covariance_block(params, g_lo[sel], g_hi[sel], upto[sel])
    if not np.all(np.isfinite(values)):
        raise ValueError("kernel covariance not finite; check the model parameters")

    cov = np.empty((times.size, times.size))
    cov[rows, cols] = values
    cov[cols, rows] = values
    return cov


def _covariance_block(params: ModelParams, g_lo: np.ndarray, g_hi: np.ndarray,
                      upto: np.ndarray) -> np.ndarray:
    """Fixed-rule covariance integrals for pairs with g_hi > 0 and U > 0."""
    h_exp = params.H - 0.5
    beta = params.beta
    lo, hi = g_lo[:, None], g_hi[:, None]

    def smooth(tau):
        return (hi + tau) ** h_exp * np.exp(-beta * (lo + hi + 2.0 * tau))

    # Near field: [0, near], with tau^(H-1/2) carried by the Gauss-Jacobi
    # weight when one gap is zero.
    one_zero = g_lo == 0.0
    near = np.minimum(np.where(one_zero, g_hi, g_lo), upto)
    jac_x, jac_w = gauss_jacobi(h_exp, _COV_NODES)
    jacobi = one_zero[:, None]
    tau = near[:, None] * np.where(jacobi, jac_x, _GL01_X)
    f = smooth(tau) * np.where(jacobi, 1.0, (lo + tau) ** h_exp)
    head = (np.where(jacobi, jac_w, _GL01_W) * f).sum(axis=1)
    head *= np.where(one_zero, near ** (h_exp + 1.0), near)

    # Far field: [near, U] on panels in geometric progression (zero width
    # when near = U).
    ratio = (upto / near) ** (1.0 / _COV_PANELS)
    edges = near[:, None] * ratio[:, None] ** np.arange(_COV_PANELS + 1)
    edges[:, -1] = upto
    half = 0.5 * np.diff(edges, axis=1)[:, :, None]
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])[:, :, None]
    tau = (mid + half * _GL_X).reshape(upto.size, -1)
    w = (half * _GL_W).reshape(upto.size, -1)
    tail = (w * smooth(tau) * (lo + tau) ** h_exp).sum(axis=1)
    return head + tail


def forward_variance(params: ModelParams, gaussian: float, s: float, t_obs: float) -> float:
    """Conditional expected variance E_[t_obs] v_s given the simulated factor.

    ``gaussian`` is the value of X = int_0^t_obs k(s-u) dW_u. Splitting
    B_s = X + (independent remainder), the conditional expectation of each
    Wick exponential leaves exp(a X - a^2/2 Var X) with a in
    {nu sqrt(2H), eta sqrt(2H)} and Var X = kernel_covariance(s, s, t_obs).
    """
    if not (math.isfinite(gaussian) and math.isfinite(s) and math.isfinite(t_obs)):
        raise ValueError("forward_variance arguments must be finite")
    if s <= t_obs:
        raise ValueError(f"need s > t_obs, got s={s!r}, t_obs={t_obs!r}")
    if t_obs < 0.0:
        raise ValueError(f"t_obs must be nonnegative, got {t_obs!r}")

    var_x = 0.0 if t_obs == 0.0 else kernel_covariance(params, s, s, t_obs)
    sqrt_2h = math.sqrt(2.0 * params.H)
    a1 = params.nu * sqrt_2h
    a2 = params.eta * sqrt_2h
    mix = params.gamma * math.exp(a1 * gaussian - 0.5 * a1 ** 2 * var_x)
    mix += (1.0 - params.gamma) * math.exp(a2 * gaussian - 0.5 * a2 ** 2 * var_x)
    return params.v0 * mix
