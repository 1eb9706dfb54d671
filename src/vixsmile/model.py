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
# Kernel evaluations (rows x quadrature points) per block of a pass: bounds the
# temporaries at 64 KiB each for any grid. On a 2-core box with glibc malloc,
# blocks twice as large were 3-5 % faster at 96 RV nodes but left about
# 0.2 MiB more of the process resident.
_COV_EVALS = 1 << 13
# Rows per Gram block are a multiple of this: OpenBLAS splits a threaded
# product between threads on 8-row register tiles, and a partial tile's sums
# then depend on the thread count; whole tiles keep the bits the same.
_ROW_TILE = 8


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
    out = lag_arr ** (params.H - 0.5)
    if params.beta != 0.0:  # else exp(-0 lag) is 1 (NaN at an infinite lag)
        out *= np.exp(-params.beta * lag_arr)
    return float(out) if np.ndim(lag) == 0 else out


def kernel_variance(params: ModelParams, t):
    """Var(B_t) = int_0^t u^(2H-1) e^(-2 beta u) du, in closed form.

    ``t`` is a float, or an array of times, whose values are returned in its
    shape.
    """
    if isinstance(t, np.ndarray):
        if not np.all((t >= 0.0) & np.isfinite(t)):
            raise ValueError("times must be nonnegative and finite")
    elif t < 0.0 or not math.isfinite(t):
        raise ValueError(f"time must be nonnegative and finite, got {t!r}")
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


def _kernel_blocks(params: ModelParams, t, tau, weight, ends, rows):
    """Yield (j, k, a) over column blocks j:k of a quadrature in tau on the
    segments ending at ``ends``: a[i, c] = k(t_i - ends[c] + tau[c]) weight[c]
    for the rows i < rows[c], and 0 below them.

    ``rows`` holds the counts as floats (numpy's broadcast integer compare
    would add to the process's resident memory) and must not increase, so
    rows[j] bounds a block's active rows; a block has them rounded up to a
    multiple of _ROW_TILE, and a whole number of _COV_NODES columns, about
    _COV_EVALS entries in all. The offset t - end is formed before tau is
    added (exact when t is within a factor 2 of the end, Sterbenz), and a
    masked entry's lag is floored at tau, so no lag reaching the kernel is
    negative. The rows below rows[k - 1] are active in every column of the
    block, so only the rows from there on need the mask.
    """
    j = 0
    while j < tau.size and rows[j] > 0:
        m = min(t.size, -(-int(rows[j]) // _ROW_TILE) * _ROW_TILE)
        k = min(tau.size, j + _COV_NODES * max(1, _COV_EVALS // (_COV_NODES * m)))
        low = int(rows[k - 1])
        lag = t[:m, None] - ends[j:k]
        np.maximum(lag[low:], 0.0, out=lag[low:])
        lag += tau[j:k]
        a = kernel(params, lag)
        a[:low] *= weight[j:k]
        a[low:] *= np.where(np.arange(low, m, dtype=float)[:, None] < rows[j:k],
                            weight[j:k], 0.0)
        yield j, k, a
        j = k


def kernel_covariance_matrix(params: ModelParams, times, windows) -> np.ndarray:
    """Symmetric matrix of kernel_covariance(t_i, t_j, min(w_i, w_j)).

    Entry (i, j) integrates phi_i phi_j over the noise time u, where
    phi_i(u) = k(t_i - u) for u < w_i and 0 beyond. The noise range splits
    at the distinct positive windows. On a segment [s, b], in tau = b - u,
    the active nodes (w >= b) have offsets c = t - b >= 0, zero only for a
    time equal to its window b. With a = min(smallest nonzero c, b - s),
    16-point Gauss-Legendre takes the head [0, a] for pairs of nonzero
    offsets, and Gauss-Jacobi with weight tau^(H-1/2) for pairs with one;
    the same Gauss-Legendre rule takes the
    :func:`~vixsmile.specfun.geometric_rule` panels from a to b - s, so
    each singularity tau = -c <= 0 is a panel width away. Pairs of zero
    offsets are ``kernel_variance(b)``.

    Every segment's head and panel nodes form one list of columns, and each
    node's kernel is evaluated once per column, weighted by the root of the
    column's weight, and zero where the node is inactive: the Gram products
    A A^T of column blocks of about _COV_EVALS entries sum all pairs over
    all segments. A second pass of such blocks sums the Gauss-Jacobi cross
    terms of every zero offset, and one array ``kernel_variance`` call sets
    the zero-zero pairs. So the number of numpy calls grows with the number
    of kernel evaluations, not with the number of windows. The test
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

    # Nodes in decreasing (window, time) order: the nodes active on a segment
    # (window >= its end b) lead, and among them the zero offsets (time = b)
    # come last. One pass in Python over these short lists finds, for each
    # distinct positive window b, the rows active on its segment, the rows
    # with a nonzero offset and the smallest time among them, and the zero
    # offsets' rows; numpy's sort and search kernels would add to the
    # process's resident memory.
    nodes = sorted(zip(windows.tolist(), times.tolist(), range(times.size)), reverse=True)
    ends, active, nonzero, smallest, zero, zero_seg = [], [], [], [], [], []
    least = math.inf
    for row, (w_i, t_i, _) in enumerate(nodes):
        if w_i == 0.0:
            break
        if not ends or w_i != ends[-1]:
            ends.append(w_i)
            active.append(row)
            nonzero.append(row)
            smallest.append(least)
        active[-1] = row + 1
        least = min(least, t_i)
        if t_i > w_i:
            nonzero[-1] = row + 1
            smallest[-1] = least
        else:
            zero.append(row)
            zero_seg.append(len(ends) - 1)
    if not ends:
        return np.zeros((times.size, times.size))
    # Ascending segments [start, b]; a = min(smallest nonzero offset, b - start).
    ends, active, nonzero, smallest = ends[::-1], active[::-1], nonzero[::-1], smallest[::-1]
    width = [b - start for start, b in zip([0.0] + ends[:-1], ends)]
    near = np.array([min(least - b, wide) for least, b, wide in zip(smallest, ends, width)])
    order = [i for _, _, i in nodes]
    # Inactive padding rows (copies of the last node) fill the last row tile.
    t = times[order + order[-1:] * (-len(order) % _ROW_TILE)]
    cov = np.zeros((t.size, t.size))

    # Columns by segment, each segment's panels before its head, so the
    # active rows do not increase along them.
    far_tau, far_weight = geometric_rule(_GL_X, _GL_W, near, np.array(width))
    n_far = far_tau[0].size
    half = 0.5 * near[:, None]
    tau = np.concatenate([far_tau.reshape(near.size, n_far), half * (1.0 + _GL_X)], axis=1)
    root_w = np.sqrt(np.concatenate([far_weight.reshape(near.size, n_far), half * _GL_W], axis=1))
    rows = np.repeat(np.array([active, nonzero], float), [n_far, _COV_NODES], axis=0).T
    for _, _, a in _kernel_blocks(params, t, tau.ravel(), root_w.ravel(),
                                  np.repeat(ends, tau.shape[1]), rows.ravel()):
        cov[:a.shape[0], :a.shape[0]] += a @ a.T

    # The zero offsets' heads, by ascending segment: Gauss-Jacobi cross terms
    # with the nonzero offsets, and each zero-zero pair is kernel_variance(b).
    zero_seg = [len(ends) - 1 - s for s in zero_seg[::-1]]
    zero = np.array(zero[::-1], int)
    jac_x, jac_w = gauss_jacobi(params.H - 0.5, _COV_NODES)
    head = near[zero_seg][:, None]
    jac_weight = head ** (params.H + 0.5) * jac_w * np.exp(-params.beta * head * jac_x)
    zero_end = np.array([ends[s] for s in zero_seg])
    for j, k, a in _kernel_blocks(params, t, (head * jac_x).ravel(), jac_weight.ravel(),
                                  np.repeat(zero_end, _COV_NODES),
                                  np.repeat([float(nonzero[s]) for s in zero_seg], _COV_NODES)):
        cross = a.reshape(a.shape[0], -1, _COV_NODES).sum(axis=2)
        cols = zero[j // _COV_NODES:k // _COV_NODES]
        cov[:a.shape[0], cols] += cross
        cov[cols, :a.shape[0]] += cross.T
    pair_i, pair_j = np.nonzero(zero_end[:, None] == zero_end)  # same window
    cov[zero[pair_i], zero[pair_j]] = kernel_variance(params, zero_end)[pair_i]
    if not np.isfinite(cov).all():
        raise ValueError("kernel covariance not finite; check the model parameters")

    back = np.empty(len(order), int)  # back to input order
    back[order] = np.arange(len(order))
    return cov.take(back, 0).take(back, 1)
