"""Closed-form and semi-closed-form implied-vol asymptotics.

Short-maturity ATM implied-vol levels and skews for VIX and realized-variance
options under the mixed rough lognormal model, their finite-maturity
approximations, the kernel-overlap constant entering the realized-variance
skew, and the Heston/SABR skew-sign examples.

The paper states these results for a general smooth variance map v = f(Y)
through f'(0) and f''(0); the mixture model enters only through
f'(0) = v0 (gamma nu + (1-gamma) eta) sqrt(2H) and
f''(0) = v0 (gamma nu^2 + (1-gamma) eta^2) (2H).
Each quadrature-backed formula has one ``_<name>_err(params, ...)`` function
returning (value, error bound), called by both its public function and
:func:`evaluate`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .model import HestonParams, ModelParams, kernel, kernel_variance
from .specfun import (
    QuadSpec,
    gauss_jacobi,
    gauss_kronrod_15,
    geometric_rule,
    integrate_err,
    kronrod_bound,
    lower_incomplete_gamma,
)

__all__ = [
    "FormulaId",
    "AsymptoteResult",
    "DegenerateModelError",
    "vix_atmi_limit",
    "vix_atmi_approx",
    "vix_skew_limit",
    "sabr_mixed_vix_skew",
    "vix_skew_approx",
    "rv_atmi_limit",
    "rv_atmi_approx",
    "rv_skew_limit",
    "rv_skew_constant",
    "heston_vix_skew_sign",
    "evaluate",
]

# Relative quadrature-error ceiling for any result produced here.
QUAD_BOUND_TOL = 1e-7

_TINY_ABS = 1e-280  # quadrature abs_tol floor; values scale like powers of T

# Geometric Gauss-Kronrod panels of the fixed rule over [0, T] behind the
# level integrals and the skew's inner kernel mass, from T 2^-panels up to T.
_PANELS = 44


class DegenerateModelError(ValueError):
    """Mixture with zero first vol-of-vol moment: skew ratios are undefined."""


class FormulaId(enum.Enum):
    VIX_ATMI_LIMIT = "VIX_ATMI_LIMIT"
    VIX_ATMI_APPROX = "VIX_ATMI_APPROX"
    VIX_SKEW_LIMIT = "VIX_SKEW_LIMIT"
    VIX_SKEW_APPROX = "VIX_SKEW_APPROX"
    SABR_VIX_SKEW = "SABR_VIX_SKEW"
    RV_ATMI_LIMIT = "RV_ATMI_LIMIT"
    RV_ATMI_APPROX = "RV_ATMI_APPROX"
    RV_SKEW_LIMIT = "RV_SKEW_LIMIT"
    HESTON_VIX_SKEW_SIGN = "HESTON_VIX_SKEW_SIGN"


@dataclass(frozen=True)
class AsymptoteResult:
    """A closed-form (or quadrature-backed) value and its quadrature bound."""

    formula_id: FormulaId
    value: float
    quad_error_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.quad_error_bound < 0.0:
            raise ValueError("quad_error_bound must be nonnegative")
        if self.quad_error_bound > QUAD_BOUND_TOL * max(1.0, abs(self.value)):
            raise ValueError(
                f"quadrature bound {self.quad_error_bound!r} exceeds the "
                f"module tolerance for value {self.value!r}"
            )


def _kernel_integral(params: ModelParams, bot, top):
    """int_bot^top u^(H-1/2) e^(-beta u) du, elementwise for 0 <= bot <= top."""
    a = params.H + 0.5
    if params.beta == 0.0:
        return (top ** a - bot ** a) / a
    if np.ndim(bot) == 0 and bot == 0.0:  # gamma(a, 0) = 0: skip its evaluations
        return params.beta ** -a * lower_incomplete_gamma(a, params.beta * top)
    gam = lower_incomplete_gamma(a, params.beta * np.stack([top, bot]))
    return params.beta ** -a * (gam[0] - gam[1])


def _panel_rule(maturity: float):
    """Nodes and weights of the fixed rule on [0, T]: the head ends 0 and
    eps = T 2^-44, then the 15-point Gauss-Kronrod rule on the 44
    :func:`~vixsmile.specfun.geometric_rule` panels from eps to T, weighted
    by Kronrod and by Kronrod minus its embedded Gauss rule."""
    eps = maturity * 2.0 ** -_PANELS
    gk_x, gk_kronrod, gk_gauss = gauss_kronrod_15()
    nodes, weights = geometric_rule(gk_x, [gk_kronrod, gk_kronrod - gk_gauss], eps, maturity)
    return np.concatenate([[0.0, eps], nodes.ravel()]), weights.reshape(2, -1)


def _integral_of_square(nodes, values, weights) -> tuple[float, float]:
    """int_0^T G^2 and its bound from G at the nodes of :func:`_panel_rule`. G^2
    must be monotone on the head, which takes the mean of its end values and
    half their gap as its bound; each panel adds its
    :func:`~vixsmile.specfun.kronrod_bound`."""
    square = values * values
    half_eps = 0.5 * nodes[1]
    panels, gaps = (square[2:] * weights).reshape(2, _PANELS, -1).sum(axis=2)
    return (float(half_eps * (square[0] + square[1]) + panels.sum()),
            float(half_eps * abs(square[1] - square[0]) + kronrod_bound(panels, gaps).sum()))


def _volvol_derivatives(params: ModelParams) -> tuple[float, float]:
    """(f'(0), f''(0)) of the mixture map v = f(Y), as in the module docstring."""
    fprime = params.v0 * params.volvol_mean * math.sqrt(2.0 * params.H)
    fsecond = params.v0 * params.volvol_sq_mean * 2.0 * params.H
    return fprime, fsecond


def _require_nondegenerate(params: ModelParams) -> None:
    if params.volvol_mean <= 0.0:
        raise DegenerateModelError(
            "gamma*nu + (1-gamma)*eta must be positive for skew formulas"
        )


def _skew_derivatives(params: ModelParams) -> tuple[float, float]:
    """(f'(0), f''(0)) for the skew formulas, which divide by f'(0)."""
    _require_nondegenerate(params)
    return _volvol_derivatives(params)


def _check_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


# ---------------------------------------------------------------------------
# VIX ATM implied-vol level
# ---------------------------------------------------------------------------

def vix_atmi_limit(params: ModelParams, delta: float) -> float:
    """Short-maturity VIX ATM implied vol,
    f'(0)/(2 delta v0) * int_0^delta u^(H-1/2) e^(-beta u) du; independent of v0."""
    fprime, _ = _volvol_derivatives(params)
    _check_positive("delta", delta)
    return fprime * _kernel_integral(params, 0.0, delta) / (2.0 * delta * params.v0)


def _window_kernel_sq_integral(params: ModelParams, delta: float,
                               maturity: float) -> tuple[float, float]:
    """W = int_0^T K-bar(s)^2 ds with error bound, by the fixed rule in
    tau = T - s, where K-bar(T - tau) = int_tau^(tau+delta) k falls."""
    nodes, weights = _panel_rule(maturity)
    kbar = _kernel_integral(params, nodes, nodes + delta)
    return _integral_of_square(nodes, kbar, weights)


def _rv_level_integral(params: ModelParams, maturity: float) -> tuple[float, float]:
    """int_0^T G(sigma)^2 dsigma with error bound, G(sigma) = int_0^sigma k,
    by the same fixed rule."""
    nodes, weights = _panel_rule(maturity)
    inner = _kernel_integral(params, 0.0, nodes)
    return _integral_of_square(nodes, inner, weights)


def _vix_atmi_approx_err(params: ModelParams, delta: float,
                         maturity: float) -> tuple[float, float]:
    """:func:`vix_atmi_approx` and its first-order quadrature bound."""
    _check_positive("delta", delta)
    _check_positive("maturity", maturity)
    fprime, _ = _volvol_derivatives(params)
    w_int, w_err = _window_kernel_sq_integral(params, delta, maturity)
    value = fprime * math.sqrt(w_int) / (params.v0 * 2.0 * delta * math.sqrt(maturity))
    return value, abs(value) * w_err / (2.0 * w_int)


def vix_atmi_approx(params: ModelParams, delta: float, maturity: float) -> float:
    """Finite-maturity VIX ATM implied-vol approximation,
    f'(0)/(v0 2 delta sqrt(T)) * sqrt(int_0^T K-bar(s)^2 ds); tends to
    :func:`vix_atmi_limit` as maturity goes to zero.

    First order in the vol-of-vol: sharpest for single-factor configurations
    (gamma in {0, 1}); genuine mixtures pick up curvature terms it omits.
    """
    return _vix_atmi_approx_err(params, delta, maturity)[0]


# ---------------------------------------------------------------------------
# VIX ATM skew
# ---------------------------------------------------------------------------

def vix_skew_limit(params: ModelParams, delta: float) -> float:
    """Short-maturity VIX skew (1/2) (G/J f''/f' - J/delta f'/v0), with the
    window moments G = int_0^delta k^2 (:func:`~vixsmile.model.kernel_variance`)
    and J = int_0^delta k; positive for genuine mixtures (gamma in (0,1),
    nu != eta), zero in the plain lognormal case."""
    fprime, fsecond = _skew_derivatives(params)
    _check_positive("delta", delta)
    int_k = _kernel_integral(params, 0.0, delta)
    ratio_term = kernel_variance(params, delta) / int_k * fsecond / fprime
    level_term = int_k / delta * fprime / params.v0
    return 0.5 * (ratio_term - level_term)


def sabr_mixed_vix_skew(gamma: float, nu: float, eta: float) -> float:
    """Mixed SABR (H = 1/2, beta = 0) VIX skew:
    (1/2) ((g nu^2 + (1-g) eta^2)/(g nu + (1-g) eta) - (g nu + (1-g) eta))."""
    params = ModelParams(v0=1.0, H=0.5, beta=0.0, gamma=gamma, nu=nu, eta=eta)
    _require_nondegenerate(params)
    mean = params.volvol_mean
    return 0.5 * (params.volvol_sq_mean / mean - mean)


def _kernel_mass_rule(params: ModelParams, delta: float, maturity: float):
    """Fixed rule for m(g) = int_0^T K-bar(T - tau) k(g + tau) dtau, any g >= 0.

    Returns ``kernel_mass(gaps) -> (m, err)``, vectorised over the gaps with
    ``err`` an estimate of each m's absolute error, then W and its bound from
    the same K-bar values. The lag tau runs over :func:`_panel_rule`, whose
    panels widen away from the kernel singularity at tau = -g <= 0. On the
    head, K-bar(T - tau) e^(-beta tau) falls, so the head integral lies between
    its two end values times the exact int_0^eps (g + tau)^(H-1/2) dtau: it
    takes the midpoint and reports half the bracket. Each panel's error is its
    gap to the embedded Gauss rule; K-bar is folded into the weights.
    """
    a, beta = params.H + 0.5, params.beta
    nodes, weights = _panel_rule(maturity)
    kbar = _kernel_integral(params, nodes, nodes + delta)
    eps, tau = nodes[1], nodes[2:]
    # K-bar(T - tau) e^(-beta tau) at tau = 0 and tau = eps.
    hi, lo = kbar[:2] * np.exp(-beta * nodes[:2])
    kronrod, diff = kbar[2:] * weights

    def kernel_mass(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # int_0^eps (g + tau)^(H-1/2) e^(-beta g) dtau, with
        # (g + eps)^a - g^a through log1p where g > eps would cancel it away.
        top = gaps + eps
        ratio = np.minimum(eps / top, 0.5)
        power = np.where(
            gaps > eps,
            -top ** a * np.expm1(a * np.log1p(-ratio)),
            top ** a - gaps ** a,
        ) * np.exp(-beta * gaps) / a

        k_vals = kernel(params, gaps[:, None] + tau)
        mass = 0.5 * (hi + lo) * power + k_vals @ kronrod
        err = 0.5 * (hi - lo) * power + np.abs(
            (k_vals * diff).reshape(gaps.size, _PANELS, -1).sum(axis=2)
        ).sum(axis=1)
        return mass, err

    return kernel_mass, *_integral_of_square(nodes, kbar, weights)


def _skew_numerators(params: ModelParams, delta: float, maturity: float):
    """The two nested integrals of the finite-maturity skew, reduced exactly.

    With g_r(t) = K-bar(t) k(r - t), symmetry of the (s, u) integrand over
    {0 <= s <= u <= T} collapses both double integrals:

      int_0^T K-bar(s) int_s^T K-bar(u) I(s,u) du ds
          = 1/2 int_T^(T+delta) (int_0^T K-bar(t) k(r-t) dt)^2 dr
      int_0^T K-bar(s)^2 int_s^T K-bar(u)^2 du ds
          = 1/2 (int_0^T K-bar(s)^2 ds)^2

    where I(s,u) = int_T^(T+delta) k(r-s) k(r-u) dr. The outer integral in r
    is adaptive; the inner kernel mass uses :func:`_kernel_mass_rule` for
    all nodes of an outer panel at once, and W comes from the same rule.
    """
    kernel_mass, w_int, w_err = _kernel_mass_rule(params, delta, maturity)
    outer_spec = QuadSpec(abs_tol=_TINY_ABS, rel_tol=1e-9)

    # Largest relative error estimate of the inner rule, rel: the outer
    # integrand m^2 then carries a first-order error of at most 2 rel m^2.
    worst_inner = 0.0

    def m_squared(r):
        nonlocal worst_inner
        mass, err = kernel_mass(np.atleast_1d(np.asarray(r, dtype=float)) - maturity)
        worst_inner = max(worst_inner, float(np.max(err / mass)))
        return mass * mass

    cross, cross_err = integrate_err(
        m_squared, maturity, maturity + delta, outer_spec
    )
    cross *= 0.5
    cross_err = 0.5 * cross_err + 2.0 * worst_inner * cross
    return cross, cross_err, w_int, w_err


def _vix_skew_approx_err(params: ModelParams, delta: float,
                         maturity: float) -> tuple[float, float]:
    """:func:`vix_skew_approx` and its first-order quadrature bound."""
    fprime, fsecond = _skew_derivatives(params)
    _check_positive("delta", delta)
    _check_positive("maturity", maturity)
    cross, cross_err, w_int, w_err = _skew_numerators(params, delta, maturity)
    curvature = fsecond / fprime
    level = (fprime / params.v0) * w_int ** 2 / (2.0 * delta)
    denominator = w_int ** 1.5 * math.sqrt(maturity)
    value = (curvature * cross - level) / denominator
    # Partial derivatives of the value in Q_A and in W.
    d_cross = curvature / denominator
    d_w = -2.0 * level / (w_int * denominator) - 1.5 * value / w_int
    return value, abs(d_cross) * cross_err + abs(d_w) * w_err


def vix_skew_approx(params: ModelParams, delta: float, maturity: float) -> float:
    """Finite-maturity VIX skew approximation, normalised so the zero-maturity
    limit reproduces :func:`vix_skew_limit` exactly:

        [f''/f' Q_A - f'/v0 Q_B/delta] / (W^(3/2) sqrt(T))

    with W = int K-bar^2, Q_B = W^2/2, and Q_A the cross-kernel double
    integral of :func:`_skew_numerators`. Flat in maturity for the mixed
    SABR configuration.
    """
    return _vix_skew_approx_err(params, delta, maturity)[0]


# ---------------------------------------------------------------------------
# Realized-variance ATM implied-vol level
# ---------------------------------------------------------------------------

def rv_atmi_limit(params: ModelParams) -> float:
    """Power-law coefficient of the short-maturity RV ATM implied vol, the
    limit of T^(1/2-H) times it: f'(0)/((H + 1/2) sqrt(2H + 2) v0);
    independent of beta."""
    fprime, _ = _volvol_derivatives(params)
    hurst = params.H
    return fprime / ((hurst + 0.5) * math.sqrt(2.0 * hurst + 2.0) * params.v0)


def _rv_atmi_approx_err(params: ModelParams, maturity: float) -> tuple[float, float]:
    """:func:`rv_atmi_approx` and its first-order quadrature bound."""
    _check_positive("maturity", maturity)
    if params.beta == 0.0:
        return rv_atmi_limit(params) * maturity ** (params.H - 0.5), 0.0
    fprime, _ = _volvol_derivatives(params)
    integral, err = _rv_level_integral(params, maturity)
    value = fprime * math.sqrt(integral) / (params.v0 * maturity ** 1.5)
    return value, abs(value) * err / (2.0 * integral)


def rv_atmi_approx(params: ModelParams, maturity: float) -> float:
    """Finite-maturity RV ATM implied vol:
    f'(0)/(v0 T^(3/2)) sqrt(int_0^T (int_s^T k(u-s) du)^2 ds).

    For beta = 0 the double integral collapses analytically and the value is
    exactly the limit coefficient times T^(H-1/2).
    """
    return _rv_atmi_approx_err(params, maturity)[0]


# ---------------------------------------------------------------------------
# Realized-variance ATM skew
# ---------------------------------------------------------------------------

# Fixed rules of the kernel-overlap constant: geometric Gauss-Kronrod panels
# per half of the outer integral, and the inner Gauss-Jacobi head and
# Gauss-Legendre panel sizes.
_OVERLAP_PANELS = 40
_OVERLAP_HEAD_NODES = 16
_OVERLAP_PANEL_NODES = 12


@lru_cache(maxsize=64)
def rv_skew_constant(hurst: float) -> float:
    """Kernel-overlap constant of the RV skew,

        I(H) = 1/2 int_0^1 J(rho)^2 drho,
        J(rho) = int_0^rho (1 - rho + x)^(H+1/2) x^(H-1/2) dx,

    which is the nested integral

        [int_0^T (T-s)^(H+1/2) int_s^T (T-u)^(2H+1) (u-s)^(H-1/2)/(H+1/2)
                 * 2F1(1/2-H, H+1/2; H+3/2; (T-u)/(s-u)) du ds] / T^(4H+3)

    after the 2F1 is written as an integral over r in [u, T] and the order
    of integration is swapped. The nested form is homogeneous of degree
    4H+3 in T, so the value does not depend on T. Equals 1/15 at H = 1/2.

    Fixed rules only (see :func:`_rv_skew_constant_err`). Against a 40-digit
    mpmath value over H in [0.01, 1/2] the relative error is at most 1.1e-15
    and the reported bound at most 1.5e-14; H = 1/2 gives 1/15 to one ulp.
    """
    return _rv_skew_constant_err(hurst)[0]


@lru_cache(maxsize=64)
def _rv_skew_constant_err(hurst: float) -> tuple[float, float]:
    """:func:`rv_skew_constant` and its error bound.

    The outer integral is split at rho = 1/2 and each half runs t from its
    end: rho = t on the left, epsilon = 1 - rho = t on the right, over the
    15-point Gauss-Kronrod rule on a head panel [0, 2^-40] and the
    :func:`~vixsmile.specfun.geometric_rule` panels from 2^-40 to 1/2. The
    bound adds each panel's :func:`~vixsmile.specfun.kronrod_bound`.

    Inner integral J, with the x^(H-1/2) endpoint handled by a Gauss-Jacobi
    head: on the left (rho <= epsilon) the head spans all of [0, rho]. On the
    right, in y = x/epsilon,

        J = epsilon^(2H+1) int_0^(rho/epsilon) y^(H-1/2) (1+y)^(H+1/2) dy,

    a head on [0, 1], then doubling Gauss-Legendre panels [2^k, 2^(k+1)]
    out to rho/epsilon. Only the last, clipped panel depends on rho; the
    full ones are summed once into a cumulative table shared by every node.
    """
    if not (0.0 < hurst <= 0.5):
        raise ValueError(f"hurst must lie in (0, 1/2], got {hurst!r}")
    a = hurst + 0.5
    gk_x, gk_kronrod, gk_gauss = gauss_kronrod_15()
    head_y, head_w = gauss_jacobi(hurst - 0.5, _OVERLAP_HEAD_NODES)
    gl_x, gl_w = np.polynomial.legendre.leggauss(_OVERLAP_PANEL_NODES)

    inner, rows = 2.0 ** -_OVERLAP_PANELS, np.array([gk_kronrod, gk_kronrod - gk_gauss])
    t, weights = geometric_rule(gk_x, rows, inner, 0.5)
    t = np.vstack([0.5 * inner * (1.0 + gk_x), t])
    weights = np.concatenate([0.5 * inner * rows[:, None], weights], axis=1)
    ratio = (1.0 - t) / t  # the far end over the near one, >= 1

    # Left half: x = rho y on the head, J = rho^(2H+1) sum w (eps/rho + y)^a.
    j_left = t ** (2.0 * a) * ((ratio[..., None] + head_y) ** a @ head_w)

    # Right half: 2^m <= rho/epsilon < 2^(m+1), exactly, from the exponent.
    m = np.frexp(ratio)[1] - 1

    def panels(lo, hi):
        half_width = 0.5 * (hi - lo)
        y = (0.5 * (lo + hi))[..., None] + half_width[..., None] * gl_x
        return half_width * ((y ** (hurst - 0.5) * (1.0 + y) ** a) @ gl_w)

    lo = 2.0 ** np.arange(m.max(), dtype=float)
    cumulative = np.concatenate([[0.0], np.cumsum(panels(lo, 2.0 * lo))])
    cumulative += (1.0 + head_y) ** a @ head_w
    last = 2.0 ** m.astype(float)
    j_right = t ** (2.0 * a) * (cumulative[m] + panels(last, ratio))

    kronrod, gap = ((j_left ** 2 + j_right ** 2) * weights).sum(axis=2)
    return 0.5 * float(kronrod.sum()), 0.5 * float(kronrod_bound(kronrod, gap).sum())


def _rv_skew_limit_err(params: ModelParams) -> tuple[float, float]:
    """:func:`rv_skew_limit` and its first-order quadrature bound."""
    fprime, fsecond = _skew_derivatives(params)
    hurst = params.H
    # Through the public lru-cached name, so its cache statistics see every lookup.
    overlap = rv_skew_constant(hurst)
    curvature_term = (
        fsecond / fprime * overlap * (2.0 * hurst + 2.0) ** 1.5 * (hurst + 0.5)
    )
    level_term = fprime / (params.v0 * (2.0 * hurst + 1.0) * math.sqrt(2.0 * hurst + 2.0))
    _, overlap_err = _rv_skew_constant_err(hurst)
    return curvature_term - level_term, abs(curvature_term) * overlap_err / overlap


def rv_skew_limit(params: ModelParams) -> float:
    """Power-law coefficient of the short-maturity RV ATM skew, the limit of
    T^(1/2-H) times it:
    f''/f' I(H) (2H+2)^(3/2) (H+1/2) - f'/(v0 (2H+1) sqrt(2H+2)).
    Scales linearly under joint scaling of (nu, eta)."""
    return _rv_skew_limit_err(params)[0]


# ---------------------------------------------------------------------------
# Heston skew sign
# ---------------------------------------------------------------------------

def heston_vix_skew_sign(params: HestonParams, delta: float) -> float:
    """Closed-form short-maturity VIX skew driver for Heston, with the
    long-run variance equal to v0:

        (nu^2 (1-e^(-k delta))/(4 k delta)) (1 - 2(1-e^(-k delta))/(k delta))

    Its sign is the VIX skew's: negative under typical reversion speeds,
    positive for very large k*delta.
    """
    _check_positive("delta", delta)
    k_delta = params.k * delta
    decay = -math.expm1(-k_delta)  # 1 - e^(-k delta)
    return (params.nu ** 2 * decay / (4.0 * k_delta)) * (1.0 - 2.0 * decay / k_delta)


# ---------------------------------------------------------------------------
# Formula registry
# ---------------------------------------------------------------------------

# formula -> (function of (params, delta, maturity) returning (value, quadrature
# bound), needs delta, needs maturity). Closed forms report a zero bound.
_FORMULAS: dict[FormulaId, tuple[Callable[..., tuple[float, float]], bool, bool]] = {
    FormulaId.VIX_ATMI_LIMIT: (
        lambda p, d, t: (vix_atmi_limit(p, d), 0.0), True, False),
    FormulaId.VIX_ATMI_APPROX: (_vix_atmi_approx_err, True, True),
    FormulaId.VIX_SKEW_LIMIT: (
        lambda p, d, t: (vix_skew_limit(p, d), 0.0), True, False),
    FormulaId.VIX_SKEW_APPROX: (_vix_skew_approx_err, True, True),
    FormulaId.SABR_VIX_SKEW: (
        lambda p, d, t: (sabr_mixed_vix_skew(p.gamma, p.nu, p.eta), 0.0), False, False),
    FormulaId.RV_ATMI_LIMIT: (
        lambda p, d, t: (rv_atmi_limit(p), 0.0), False, False),
    FormulaId.RV_ATMI_APPROX: (
        lambda p, d, t: _rv_atmi_approx_err(p, t), False, True),
    FormulaId.RV_SKEW_LIMIT: (
        lambda p, d, t: _rv_skew_limit_err(p), False, False),
    FormulaId.HESTON_VIX_SKEW_SIGN: (
        lambda p, d, t: (heston_vix_skew_sign(p, d), 0.0), True, False),
}


def evaluate(
    formula_id: FormulaId,
    params: ModelParams | HestonParams,
    delta: float | None = None,
    maturity: float | None = None,
) -> AsymptoteResult:
    """Evaluate one registered formula.

    ``delta`` is required for the VIX formulas other than the SABR skew and
    for the Heston one, ``maturity`` for the finite-maturity
    approximations. Closed forms report a zero quadrature bound;
    quadrature-backed values report the achieved error bounds of their
    quadratures, propagated to first order.
    """
    fid = FormulaId(formula_id)
    func, needs_delta, needs_maturity = _FORMULAS[fid]
    if needs_delta and delta is None:
        raise ValueError(f"{fid.value} requires delta")
    if needs_maturity and maturity is None:
        raise ValueError(f"{fid.value} requires maturity")
    required = HestonParams if fid is FormulaId.HESTON_VIX_SKEW_SIGN else ModelParams
    if not isinstance(params, required):
        raise ValueError(f"{fid.value} requires {required.__name__}")
    value, bound = func(params, delta, maturity)
    return AsymptoteResult(fid, value, bound)
