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

from .specfun import QuadSpec, gauss_jacobi, geometric_rule, integrate, lower_incomplete_gamma

__all__ = [
    "ModelParams",
    "HestonParams",
    "kernel",
    "kernel_variance",
    "kernel_covariance",
    "kernel_covariance_matrix",
]

# Fixed rules of kernel_covariance_matrix: nodes per rule and panel.
_COV_NODES = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_COV_NODES)
# Kernel evaluations (active nodes x quadrature points) per Gram pass: bounds
# the temporaries at a few MB for any grid.
_COV_EVALS = 1 << 15


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
        if 2.0 * self.k * self.theta <= self.nu ** 2:
            warnings.warn(
                "Feller condition 2*k*theta > nu^2 violated: the variance "
                "process can touch zero",
                stacklevel=2,
            )


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
    endpoint power law declared: order 2H-1 when upto equals both times,
    H-1/2 when it equals exactly one. A time any distance above upto is
    integrated as it is, its near-singularity resolved by refinement.
    """
    if not all(math.isfinite(v) for v in (t1, t2, upto)):
        raise ValueError("kernel_covariance arguments must be finite")
    if t1 <= 0.0 or t2 <= 0.0:
        raise ValueError("t1 and t2 must be positive")
    if upto < 0.0 or upto > min(t1, t2):
        raise ValueError(f"upto must lie in [0, min(t1, t2)], got {upto!r}")
    if upto == 0.0:
        return 0.0

    gap1, gap2 = t1 - upto, t2 - upto
    n_singular = (gap1 == 0.0) + (gap2 == 0.0)

    h_exp = params.H - 0.5
    beta = params.beta

    # Integrate over the distance from the singular endpoint, tau = upto - u,
    # so the power-law endpoint sits exactly at zero.
    def f(tau):
        value = (gap1 + tau) ** h_exp * (gap2 + tau) ** h_exp
        if beta == 0.0:  # the exponent's argument overflows past half the float range
            return value
        return value * np.exp(-beta * (gap1 + gap2 + 2.0 * tau))

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

    Entry (i, j) integrates phi_i phi_j over the noise time u, where
    phi_i(u) = k(t_i - u) for u < w_i and 0 beyond: each node's kernel is
    evaluated once per quadrature point, and Gram products A A^T with
    A = phi sqrt(weight) sum all pairs. The noise range splits at the
    distinct positive windows. On a segment [s, b], in tau = b - u, the
    active nodes have offsets c = t - b >= 0, zero only for a time equal to
    its window b. With a = min(smallest nonzero c, b - s), 16-point
    Gauss-Legendre takes the head [0, a] for pairs of nonzero offsets, and
    Gauss-Jacobi with weight tau^(H-1/2) for pairs with one; the same
    Gauss-Legendre rule takes the :func:`~vixsmile.specfun.geometric_rule`
    panels from a to b - s, so each singularity tau = -c <= 0 is a panel
    width away. Pairs of zero offsets are ``kernel_variance(b)``. The test
    reference is kernel_covariance.
    """
    times = np.asarray(times, dtype=float)
    windows = np.asarray(windows, dtype=float)
    if times.ndim != 1 or windows.shape != times.shape:
        raise ValueError("times and windows must be vectors of equal length")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(windows))):
        raise ValueError("times and windows must be finite")
    if np.any(times <= 0.0):
        raise ValueError("times must be positive")
    if np.any(windows < 0.0) or np.any(windows > times):
        raise ValueError("every window must lie in [0, its time]")

    # The distinct positive windows, ascending. Python sorts these short lists:
    # numpy's sort kernels would add to the process's resident memory.
    ends = sorted(set(windows[windows > 0.0].tolist()))
    # Nodes in decreasing window order, so those active on a segment lead.
    order = np.array(sorted(range(times.size), key=windows.__getitem__, reverse=True), int)
    t, w = times[order], windows[order]
    jac_x, jac_w = gauss_jacobi(params.H - 0.5, _COV_NODES)
    cov = np.zeros((t.size, t.size))
    for start, end in zip([0.0] + ends[:-1], ends):
        c = t[w >= end] - end
        m, zero = c.size, c == 0.0
        near = np.min(c, where=~zero, initial=end - start)
        far_tau, far_weight = geometric_rule(_GL_X, _GL_W, near, end - start)
        tau = np.concatenate([0.5 * near * (1.0 + _GL_X), far_tau.ravel()])
        root_w = np.sqrt(np.concatenate([0.5 * near * _GL_W, far_weight.ravel()]))
        step = max(_COV_NODES, _COV_EVALS // m)
        for j in range(0, tau.size, step):
            a = kernel(params, c[:, None] + tau[j:j + step]) * root_w[j:j + step]
            if j == 0:
                a[zero, :_COV_NODES] = 0.0
            cov[:m, :m] += a @ a.T
        # The zero offsets' head: Gauss-Jacobi cross terms, and each zero-zero
        # pair is kernel_variance(end).
        idx = np.flatnonzero(zero)
        cross = kernel(params, c[:, None] + near * jac_x) @ (
            near ** (params.H + 0.5) * jac_w * np.exp(-params.beta * near * jac_x))
        cross[idx] = 0.0
        cov[idx, :m] += cross
        cov[:m, idx] += cross[:, None]
        cov[idx[:, None], idx] = kernel_variance(params, float(end))
    if not np.all(np.isfinite(cov)):
        raise ValueError("kernel covariance not finite; check the model parameters")

    cov[np.ix_(order, order)] = cov.copy()  # back to input order
    return cov
