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
from dataclasses import dataclass

import numpy as np

from .specfun import QuadSpec, gauss_jacobi, geometric_rule, integrate, lower_incomplete_gamma

__all__ = [
    "ModelParams",
    "kernel",
    "kernel_variance",
    "kernel_covariance",
    "kernel_covariance_matrix",
    "grid_covariance_matrix",
]

# Fixed rules of kernel_covariance_matrix: nodes per rule and panel.
_COV_NODES = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(_COV_NODES)
# Kernel evaluations (rows x quadrature points) per Gram block of whole
# panels: up to 512 rows this bounds the temporaries at 64 KiB each. On a
# 2-core box with glibc malloc, blocks twice as large left about 0.2 MiB more
# of the process resident.
_COV_EVALS = 1 << 13
# Rows per Gram block are a multiple of this: OpenBLAS splits a threaded
# product between threads on 8-row register tiles, and a partial tile's sums
# then depend on the thread count; whole tiles keep the bits the same.
_ROW_TILE = 8


@dataclass(frozen=True)
class ModelParams:
    """Mixed rough lognormal model parameters.

    H      Hurst parameter of the kernel, in (0, 1/2]
    beta   mean-reversion rate of the kernel (>= 0, per year)
    gamma  mixing weight of the first lognormal factor, in [0, 1]
    nu     vol-of-vol of the first factor (>= 0)
    eta    vol-of-vol of the second factor (>= 0)
    v0     variance level (> 0), read only by the Monte Carlo sampler: every
           implied vol and closed form is scale-free in it
    """

    H: float
    beta: float = 0.0
    gamma: float = 1.0
    nu: float = 0.0
    eta: float = 0.0
    v0: float = 1.0

    def __post_init__(self) -> None:
        for name in ("H", "beta", "gamma", "nu", "eta", "v0"):
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


def kernel(params: ModelParams, lag) -> float | np.ndarray:
    """Volterra kernel tau^(H-1/2) exp(-beta tau); diverges at 0+ when H < 1/2."""
    lag_arr = np.asarray(lag, dtype=float)
    if np.any(lag_arr <= 0.0):
        raise ValueError("kernel lag must be positive")
    out = lag_arr ** (params.H - 0.5)
    if params.beta != 0.0:  # else exp(-0 lag) is 1 (NaN at an infinite lag)
        out *= np.exp(-params.beta * lag_arr)
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

    # Tolerances relative to the (possibly tiny) scale of the integral.
    scale = kernel_variance(params, upto)
    spec = QuadSpec(
        abs_tol=max(1e-14 * scale, 1e-280),
        rel_tol=1e-11,
        singular_exponent=n_singular * h_exp,
    )
    return integrate(f, 0.0, upto, spec)


def kernel_covariance_matrix(params: ModelParams, times, upto: float) -> np.ndarray:
    """Symmetric matrix of kernel_covariance(t_i, t_j, upto): the Volterra
    integrals to the given times, all over the one noise window [0, upto].

    In tau = upto - u the nodes have offsets c = t - upto >= 0, zero only for
    a time equal to upto. With a = min(smallest nonzero c, upto), 16-point
    Gauss-Legendre takes the head [0, a] for pairs of nonzero offsets, and
    Gauss-Jacobi with weight tau^(H-1/2) for pairs with one zero offset; the
    same Gauss-Legendre rule takes the
    :func:`~vixsmile.specfun.geometric_rule` panels from a to upto, so each
    singularity tau = -c <= 0 is a panel width away. Pairs of zero offsets
    are ``kernel_variance(upto)``. Each node's kernel is evaluated once per
    Gauss-Legendre node, weighted by the root of its weight (zero on a zero
    offset's head), and Gram products A A^T of column blocks sum all pairs.
    The test reference is kernel_covariance.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a nonempty vector")
    if not (np.all(np.isfinite(times)) and 0.0 < upto < math.inf):
        raise ValueError("times must be finite, and upto positive and finite")
    if np.any(times < upto):
        raise ValueError(f"upto must not exceed any time, got {upto!r}")

    # Offsets, formed before tau is added (exact for a time within a factor 2
    # of upto, Sterbenz). Padding rows, copies of the last node, fill the last
    # row tile.
    c = np.concatenate([times, times[-1:].repeat(-times.size % _ROW_TILE)]) - upto
    zero = c == 0.0
    near = np.min(c, where=~zero, initial=upto)
    far_tau, far_weight = geometric_rule(_GL_X, _GL_W, near, upto)
    tau = np.concatenate([0.5 * near * (1.0 + _GL_X), far_tau.ravel()])
    root_w = np.sqrt(np.concatenate([0.5 * near * _GL_W, far_weight.ravel()]))
    step = _COV_NODES * max(1, _COV_EVALS // (_COV_NODES * c.size))
    cov = np.zeros((c.size, c.size))
    for j in range(0, tau.size, step):
        a = kernel(params, c[:, None] + tau[j:j + step]) * root_w[j:j + step]
        if j == 0:
            a[zero, :_COV_NODES] = 0.0
        cov += a @ a.T

    # The zero offsets' head: Gauss-Jacobi cross terms with the nonzero
    # offsets, and each zero-zero pair is kernel_variance(upto).
    jac_x, jac_w = gauss_jacobi(params.H - 0.5, _COV_NODES)
    jac_weight = near ** (params.H + 0.5) * jac_w * np.exp(-params.beta * near * jac_x)
    cross = (kernel(params, c[:, None] + near * jac_x) * jac_weight).sum(axis=1)
    idx = np.flatnonzero(zero)
    cov[idx] += cross
    cov[:, idx] += cross[:, None]
    cov[idx[:, None], idx] = kernel_variance(params, upto)
    if not np.isfinite(cov).all():
        raise ValueError("kernel covariance not finite; check the model parameters")
    return np.ascontiguousarray(cov[:times.size, :times.size])


def grid_covariance_matrix(params: ModelParams, maturity: float, n: int) -> np.ndarray:
    """Covariance matrix of the Volterra integrals to the uniform grid times
    t_k = k T/n, k = 1..n, each over its own noise window [0, t_k].

    The kernel depends only on the lag, so the noise on [t_(m-1), t_m] gives
    the node pair (m+p, m+q) the entry that the noise on [0, t_1] gives the
    pair (1+p, 1+q). With S the one-window :func:`kernel_covariance_matrix`
    of the grid over [0, T/n], the matrix is S summed along its diagonals:
    C[k, l] = S[k, l] + C[k-1, l-1] (row k, column l). Both sums run in the
    same order, so C is exactly symmetric.
    """
    if not 0.0 < maturity < math.inf:
        raise ValueError(f"maturity must be positive and finite, got {maturity!r}")
    if n < 1:
        raise ValueError(f"need at least one grid node, got {n!r}")
    width = maturity / n
    cov = kernel_covariance_matrix(params, width * np.arange(1, n + 1), width)
    for k in range(1, n):
        cov[k, 1:] += cov[k - 1, :-1]
    return cov
