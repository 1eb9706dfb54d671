"""Closed-form and semi-closed-form implied-vol asymptotics.

Short-maturity ATM implied-vol levels and skews for VIX and realized-variance
options under the mixed rough lognormal model, their finite-maturity
approximations, the kernel-overlap constant entering the realized-variance
skew, and the Heston/SABR skew-sign examples.

Each mixture-model operation also has a ``*_general`` sibling taking the
scalars (f', f'', v0) of an arbitrary smooth variance map v = f(Y) at Y = 0;
the mixture versions are the tested specialisations, with
f'(0) = v0 (gamma nu + (1-gamma) eta) sqrt(2H) and
f''(0) = v0 (gamma nu^2 + (1-gamma) eta^2) (2H).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .model import HestonParams, ModelParams, kernel
from .specfun import QuadSpec, gauss_2f1, integrate_err, lower_incomplete_gamma

__all__ = [
    "FormulaId",
    "AsymptoteResult",
    "WindowIntegrals",
    "DegenerateModelError",
    "window_integrals",
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

_lig_vec = np.vectorize(lower_incomplete_gamma, otypes=[float])


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
    """A closed-form (or quadrature-backed) value with provenance echoed."""

    formula_id: FormulaId
    value: float
    inputs_echo: dict = field(default_factory=dict)
    quad_error_bound: float = 0.0

    def __post_init__(self) -> None:
        if self.quad_error_bound < 0.0:
            raise ValueError("quad_error_bound must be nonnegative")
        if self.quad_error_bound > QUAD_BOUND_TOL * max(1.0, abs(self.value)):
            raise ValueError(
                f"quadrature bound {self.quad_error_bound!r} exceeds the "
                f"module tolerance for value {self.value!r}"
            )


@dataclass(frozen=True)
class WindowIntegrals:
    """Window moments of the kernel over [0, delta].

    int_kernel    = int_0^delta u^(H-1/2) e^(-beta u) du
    int_kernel_sq = int_0^delta u^(2H-1) e^(-2 beta u) du
    """

    int_kernel: float
    int_kernel_sq: float
    H: float
    delta: float
    beta: float

    def __post_init__(self) -> None:
        if self.delta > 0.0 and not (self.int_kernel > 0.0 and self.int_kernel_sq > 0.0):
            raise ValueError("window integrals must be positive for delta > 0")


def window_integrals(params: ModelParams, delta: float) -> WindowIntegrals:
    """Kernel window moments in closed form via the incomplete gamma."""
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    hurst, beta = params.H, params.beta
    if beta == 0.0:
        int_k = delta ** (hurst + 0.5) / (hurst + 0.5)
        int_k2 = delta ** (2.0 * hurst) / (2.0 * hurst)
    else:
        int_k = beta ** -(hurst + 0.5) * lower_incomplete_gamma(
            hurst + 0.5, beta * delta
        )
        int_k2 = (2.0 * beta) ** -(2.0 * hurst) * lower_incomplete_gamma(
            2.0 * hurst, 2.0 * beta * delta
        )
    return WindowIntegrals(int_k, int_k2, hurst, delta, beta)


def _window_kernel(params: ModelParams, delta: float, t_mat: float, s):
    """K-bar(s): the kernel mass seen from time s over the window [T, T+delta],
    int_(T-s)^(T+delta-s) u^(H-1/2) e^(-beta u) du, vectorised over s."""
    s_arr = np.asarray(s, dtype=float)
    hurst, beta = params.H, params.beta
    top = np.maximum(t_mat + delta - s_arr, 0.0)
    bot = np.maximum(t_mat - s_arr, 0.0)
    if beta == 0.0:
        out = (top ** (hurst + 0.5) - bot ** (hurst + 0.5)) / (hurst + 0.5)
    else:
        out = beta ** -(hurst + 0.5) * (
            _lig_vec(hurst + 0.5, beta * top) - _lig_vec(hurst + 0.5, beta * bot)
        )
    return float(out) if np.ndim(s) == 0 else out


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


def _check_maturity(maturity: float) -> None:
    if not (maturity > 0.0 and math.isfinite(maturity)):
        raise ValueError(f"maturity must be positive and finite, got {maturity!r}")


# ---------------------------------------------------------------------------
# VIX ATM implied-vol level
# ---------------------------------------------------------------------------

def vix_atmi_limit_general(fprime: float, v0: float, hurst: float, beta: float,
                           delta: float) -> float:
    """Short-maturity VIX ATM implied-vol limit for v = f(Y):
    f'(0)/(2 delta v0) * int_0^delta u^(H-1/2) e^(-beta u) du."""
    wi = window_integrals(
        ModelParams(v0=v0, H=hurst, beta=beta, gamma=1.0, nu=0.0, eta=0.0), delta
    )
    return fprime * wi.int_kernel / (2.0 * delta * v0)


def vix_atmi_limit(params: ModelParams, delta: float) -> float:
    """Short-maturity VIX ATM implied-vol; independent of v0."""
    fprime, _ = _volvol_derivatives(params)
    return vix_atmi_limit_general(fprime, params.v0, params.H, params.beta, delta)


def _window_kernel_sq_integral(params: ModelParams, delta: float,
                               maturity: float) -> tuple[float, float]:
    """int_0^T K-bar(s)^2 ds with error bound."""
    spec = QuadSpec(abs_tol=_TINY_ABS, rel_tol=1e-10)

    def f(s):
        return _window_kernel(params, delta, maturity, s) ** 2

    return integrate_err(f, 0.0, maturity, spec)


def _vix_atmi_approx_err(fprime: float, v0: float, hurst: float, beta: float,
                        delta: float, maturity: float) -> tuple[float, float]:
    """:func:`vix_atmi_approx_general` and its first-order quadrature bound."""
    _check_maturity(maturity)
    params = ModelParams(v0=v0, H=hurst, beta=beta, gamma=1.0, nu=0.0, eta=0.0)
    w_int, w_err = _window_kernel_sq_integral(params, delta, maturity)
    value = fprime * math.sqrt(w_int) / (v0 * 2.0 * delta * math.sqrt(maturity))
    return value, abs(value) * w_err / (2.0 * w_int)


def vix_atmi_approx_general(fprime: float, v0: float, hurst: float, beta: float,
                            delta: float, maturity: float) -> float:
    """Finite-maturity VIX ATM implied-vol approximation:
    f'(0)/(v0 2 delta sqrt(T)) * sqrt(int_0^T K-bar(s)^2 ds)."""
    return _vix_atmi_approx_err(fprime, v0, hurst, beta, delta, maturity)[0]


def vix_atmi_approx(params: ModelParams, delta: float, maturity: float) -> float:
    """Finite-maturity VIX ATM implied-vol approximation; tends to
    :func:`vix_atmi_limit` as maturity goes to zero.

    First order in the vol-of-vol: sharpest for single-factor configurations
    (gamma in {0, 1}); genuine mixtures pick up curvature terms it omits.
    """
    fprime, _ = _volvol_derivatives(params)
    return vix_atmi_approx_general(
        fprime, params.v0, params.H, params.beta, delta, maturity
    )


# ---------------------------------------------------------------------------
# VIX ATM skew
# ---------------------------------------------------------------------------

def vix_skew_limit_general(fprime: float, fsecond: float, v0: float, hurst: float,
                           beta: float, delta: float) -> float:
    """Short-maturity VIX skew for v = f(Y):
    (1/2) (G/J f''/f' - J/delta f'/v0) with G, J the window moments."""
    wi = window_integrals(
        ModelParams(v0=v0, H=hurst, beta=beta, gamma=1.0, nu=0.0, eta=0.0), delta
    )
    ratio_term = wi.int_kernel_sq / wi.int_kernel * fsecond / fprime
    level_term = wi.int_kernel / delta * fprime / v0
    return 0.5 * (ratio_term - level_term)


def vix_skew_limit(params: ModelParams, delta: float) -> float:
    """Short-maturity VIX skew of the mixture model; positive for genuine
    mixtures (gamma in (0,1), nu != eta), zero in the plain lognormal case."""
    _require_nondegenerate(params)
    fprime, fsecond = _volvol_derivatives(params)
    return vix_skew_limit_general(
        fprime, fsecond, params.v0, params.H, params.beta, delta
    )


def sabr_mixed_vix_skew(gamma: float, nu: float, eta: float) -> float:
    """Mixed SABR (H = 1/2, beta = 0) VIX skew:
    (1/2) ((g nu^2 + (1-g) eta^2)/(g nu + (1-g) eta) - (g nu + (1-g) eta))."""
    params = ModelParams(v0=1.0, H=0.5, beta=0.0, gamma=gamma, nu=nu, eta=eta)
    _require_nondegenerate(params)
    mean = params.volvol_mean
    return 0.5 * (params.volvol_sq_mean / mean - mean)


def _skew_numerators(params: ModelParams, delta: float, maturity: float):
    """The two nested integrals of the finite-maturity skew, reduced exactly.

    With g_r(t) = K-bar(t) k(r - t), symmetry of the (s, u) integrand over
    {0 <= s <= u <= T} collapses both double integrals:

      int_0^T K-bar(s) int_s^T K-bar(u) I(s,u) du ds
          = 1/2 int_T^(T+delta) (int_0^T K-bar(t) k(r-t) dt)^2 dr
      int_0^T K-bar(s)^2 int_s^T K-bar(u)^2 du ds
          = 1/2 (int_0^T K-bar(s)^2 ds)^2

    where I(s,u) = int_T^(T+delta) k(r-s) k(r-u) dr.
    """
    inner_spec = QuadSpec(
        abs_tol=_TINY_ABS, rel_tol=1e-10,
        singular_left=True, singular_exponent=params.H - 0.5,
    )
    outer_spec = QuadSpec(abs_tol=_TINY_ABS, rel_tol=1e-9, max_subdivisions=4000)

    # Largest relative error bound of any inner quadrature, rel: the outer
    # integrand m^2 then carries a first-order error of at most 2 rel m^2.
    worst_inner = 0.0

    def kernel_mass(r_scalar: float) -> float:
        nonlocal worst_inner
        gap = r_scalar - maturity

        def f(tau):
            return _window_kernel(params, delta, maturity, maturity - tau) * kernel(
                params, gap + tau
            )

        value, err = integrate_err(f, 0.0, maturity, inner_spec)
        worst_inner = max(worst_inner, err / abs(value))
        return value

    def m_squared(r):
        r_arr = np.atleast_1d(np.asarray(r, dtype=float))
        return np.array([kernel_mass(float(v)) ** 2 for v in r_arr])

    cross, cross_err = integrate_err(
        m_squared, maturity, maturity + delta, outer_spec
    )
    cross *= 0.5
    cross_err = 0.5 * cross_err + 2.0 * worst_inner * cross
    w_int, w_err = _window_kernel_sq_integral(params, delta, maturity)
    return cross, cross_err, w_int, w_err


def _vix_skew_approx_err(fprime: float, fsecond: float, v0: float, hurst: float,
                        beta: float, delta: float,
                        maturity: float) -> tuple[float, float]:
    """:func:`vix_skew_approx_general` and its first-order quadrature bound."""
    _check_maturity(maturity)
    params = ModelParams(v0=v0, H=hurst, beta=beta, gamma=1.0, nu=0.0, eta=0.0)
    cross, cross_err, w_int, w_err = _skew_numerators(params, delta, maturity)
    curvature = fsecond / fprime
    level = (fprime / v0) * w_int ** 2 / (2.0 * delta)
    denominator = w_int ** 1.5 * math.sqrt(maturity)
    value = (curvature * cross - level) / denominator
    # Partial derivatives of the value in Q_A and in W.
    d_cross = curvature / denominator
    d_w = -2.0 * level / (w_int * denominator) - 1.5 * value / w_int
    return value, abs(d_cross) * cross_err + abs(d_w) * w_err


def vix_skew_approx_general(fprime: float, fsecond: float, v0: float, hurst: float,
                            beta: float, delta: float, maturity: float) -> float:
    """Finite-maturity VIX skew approximation, normalised so the zero-maturity
    limit reproduces :func:`vix_skew_limit_general` exactly:

        [f''/f' Q_A - f'/v0 Q_B/delta] / (W^(3/2) sqrt(T))

    with W = int K-bar^2, Q_B = W^2/2, and Q_A the cross-kernel double
    integral of :func:`_skew_numerators`.
    """
    return _vix_skew_approx_err(
        fprime, fsecond, v0, hurst, beta, delta, maturity
    )[0]


def vix_skew_approx(params: ModelParams, delta: float, maturity: float) -> float:
    """Finite-maturity VIX skew of the mixture model; flat in maturity for the
    mixed SABR configuration and converging to :func:`vix_skew_limit`."""
    _require_nondegenerate(params)
    fprime, fsecond = _volvol_derivatives(params)
    return vix_skew_approx_general(
        fprime, fsecond, params.v0, params.H, params.beta, delta, maturity
    )


# ---------------------------------------------------------------------------
# Realized-variance ATM implied-vol level
# ---------------------------------------------------------------------------

def rv_atmi_limit_general(fprime: float, v0: float, hurst: float) -> float:
    """Limit of T^(1/2-H) times the RV ATM implied vol:
    f'(0)/((H + 1/2) sqrt(2H + 2) v0); independent of beta."""
    return fprime / ((hurst + 0.5) * math.sqrt(2.0 * hurst + 2.0) * v0)


def rv_atmi_limit(params: ModelParams) -> float:
    """Power-law coefficient of the short-maturity RV ATM implied vol."""
    fprime, _ = _volvol_derivatives(params)
    return rv_atmi_limit_general(fprime, params.v0, params.H)


def _rv_atmi_approx_err(fprime: float, v0: float, hurst: float, beta: float,
                        maturity: float) -> tuple[float, float]:
    """:func:`rv_atmi_approx_general` and its first-order quadrature bound."""
    _check_maturity(maturity)
    if beta == 0.0:
        return rv_atmi_limit_general(fprime, v0, hurst) * maturity ** (hurst - 0.5), 0.0

    spec = QuadSpec(abs_tol=_TINY_ABS, rel_tol=1e-10)
    scale = beta ** -(hurst + 0.5)

    def f(sigma):
        return (scale * _lig_vec(hurst + 0.5, beta * sigma)) ** 2

    integral, err = integrate_err(f, 0.0, maturity, spec)
    value = fprime * math.sqrt(integral) / (v0 * maturity ** 1.5)
    return value, abs(value) * err / (2.0 * integral)


def rv_atmi_approx_general(fprime: float, v0: float, hurst: float, beta: float,
                           maturity: float) -> float:
    """Finite-maturity RV ATM implied vol:
    f'(0)/(v0 T^(3/2)) sqrt(int_0^T (int_s^T k(u-s) du)^2 ds).

    For beta = 0 the double integral collapses analytically and the value is
    exactly the limit coefficient times T^(H-1/2).
    """
    return _rv_atmi_approx_err(fprime, v0, hurst, beta, maturity)[0]


def rv_atmi_approx(params: ModelParams, maturity: float) -> float:
    """Finite-maturity RV ATM implied vol of the mixture model."""
    fprime, _ = _volvol_derivatives(params)
    return rv_atmi_approx_general(
        fprime, params.v0, params.H, params.beta, maturity
    )


# ---------------------------------------------------------------------------
# Realized-variance ATM skew
# ---------------------------------------------------------------------------

def _geometric_bilateral_edges(cut: float, n_per_side: int) -> np.ndarray:
    """Panel edges on [cut, 1-cut] clustering geometrically at both ends."""
    left = cut * 2.0 ** np.arange(n_per_side, dtype=float)
    left = left[left < 0.5]
    right = 1.0 - left[::-1]
    return np.concatenate([left, [0.5], right])


_RV_SKEW_PROBE = 1e-4  # default t_probe of rv_skew_constant


@lru_cache(maxsize=64)
def rv_skew_constant(hurst: float, t_probe: float = _RV_SKEW_PROBE) -> float:
    """Kernel-overlap constant of the RV skew, by nested quadrature:

        [int_0^T (T-s)^(H+1/2) int_s^T (T-u)^(2H+1) (u-s)^(H-1/2)/(H+1/2)
                 * 2F1(1/2-H, H+1/2; H+3/2; (T-u)/(s-u)) du ds] / T^(4H+3)

    evaluated at T = t_probe. The result is maturity-invariant up to
    quadrature error (the integrand is homogeneous of degree 4H+3 in T);
    equals 1/15 at H = 1/2.

    Only the outer integral in s carries an achieved error bound. The inner
    xi-profile is a fixed composite rule with no bound of its own; acceptance
    criterion C7 checks the constant against a brute-force oracle instead.
    """
    return _rv_skew_constant_err(hurst, t_probe)[0]


@lru_cache(maxsize=64)
def _rv_skew_constant_err(hurst: float, t_probe: float) -> tuple[float, float]:
    """:func:`rv_skew_constant` and the error bound of its outer integral."""
    if not (0.0 < hurst <= 0.5):
        raise ValueError(f"hurst must lie in (0, 1/2], got {hurst!r}")
    if not (1e-5 <= t_probe <= 1e-2):
        raise ValueError(f"t_probe must lie in [1e-5, 1e-2], got {t_probe!r}")

    q = 1.0 / (hurst + 0.5)
    # Inner integral over u in [s, T] after the substitution
    # w = (u - s)^(H+1/2), rescaled to xi = w / (T-s)^(H+1/2):
    #   inner(s) = (T-s)^(3H+3/2)/(H+1/2)^2
    #              * int_0^1 (1 - xi^q)^(2H+1) F(-(1 - xi^q)/xi^q) dxi
    # The xi-profile (and the hypergeometric values on it) is the same for
    # every s, so it is assembled once per call.
    edges = _geometric_bilateral_edges(1e-12, 40)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(12)
    xi = (mid[:, None] + half[:, None] * gl_nodes[None, :]).ravel()
    wts = (half[:, None] * gl_weights[None, :]).ravel()
    xi_q = xi ** q
    hyp = gauss_2f1(0.5 - hurst, hurst + 0.5, hurst + 1.5, -(1.0 - xi_q) / xi_q)
    profile = float(wts @ ((1.0 - xi_q) ** (2.0 * hurst + 1.0) * hyp))

    inner_scale = profile / (hurst + 0.5) ** 2

    def outer(s):
        return (t_probe - s) ** (hurst + 0.5) * (
            inner_scale * (t_probe - s) ** (3.0 * hurst + 1.5)
        )

    spec = QuadSpec(abs_tol=_TINY_ABS, rel_tol=1e-9)
    numerator, err = integrate_err(outer, 0.0, t_probe, spec)
    scale = t_probe ** (4.0 * hurst + 3.0)
    return numerator / scale, err / scale


def _rv_skew_limit_err(fprime: float, fsecond: float, v0: float,
                       hurst: float) -> tuple[float, float]:
    """:func:`rv_skew_limit_general` and its first-order quadrature bound."""
    overlap = rv_skew_constant(hurst)
    curvature_term = (
        fsecond / fprime * overlap * (2.0 * hurst + 2.0) ** 1.5 * (hurst + 0.5)
    )
    level_term = fprime / (v0 * (2.0 * hurst + 1.0) * math.sqrt(2.0 * hurst + 2.0))
    _, overlap_err = _rv_skew_constant_err(hurst, _RV_SKEW_PROBE)
    return curvature_term - level_term, abs(curvature_term) * overlap_err / overlap


def rv_skew_limit_general(fprime: float, fsecond: float, v0: float,
                          hurst: float) -> float:
    """Limit of T^(1/2-H) times the RV ATM skew:
    f''/f' I(H) (2H+2)^(3/2) (H+1/2) - f'/(v0 (2H+1) sqrt(2H+2))."""
    return _rv_skew_limit_err(fprime, fsecond, v0, hurst)[0]


def rv_skew_limit(params: ModelParams) -> float:
    """Power-law coefficient of the short-maturity RV ATM skew; scales
    linearly under joint scaling of (nu, eta)."""
    _require_nondegenerate(params)
    fprime, fsecond = _volvol_derivatives(params)
    return rv_skew_limit_general(fprime, fsecond, params.v0, params.H)


# ---------------------------------------------------------------------------
# Heston skew sign
# ---------------------------------------------------------------------------

def heston_vix_skew_sign(params: HestonParams, delta: float) -> tuple[float, int]:
    """Closed-form short-maturity VIX skew driver for Heston (v0 = theta):

        (nu^2 (1-e^(-k delta))/(4 k delta)) (1 - 2(1-e^(-k delta))/(k delta))

    Negative under typical reversion speeds, implying a negative VIX skew;
    the sign flips for very large k*delta. Returns (value, sign).
    """
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"delta must be positive and finite, got {delta!r}")
    k_delta = params.k * delta
    decay = -math.expm1(-k_delta)  # 1 - e^(-k delta)
    value = (params.nu ** 2 * decay / (4.0 * k_delta)) * (1.0 - 2.0 * decay / k_delta)
    sign = 0 if value == 0.0 else (1 if value > 0.0 else -1)
    return value, sign


# ---------------------------------------------------------------------------
# Formula registry
# ---------------------------------------------------------------------------

def _echo(params, **extra) -> dict:
    out = dict(extra)
    if isinstance(params, ModelParams):
        out.update(
            v0=params.v0, H=params.H, beta=params.beta,
            gamma=params.gamma, nu=params.nu, eta=params.eta,
        )
    elif isinstance(params, HestonParams):
        out.update(k=params.k, theta=params.theta, nu=params.nu, v0=params.v0)
    return out


def evaluate(
    formula_id: FormulaId,
    params: ModelParams | HestonParams,
    delta: float | None = None,
    maturity: float | None = None,
) -> AsymptoteResult:
    """Evaluate one registered formula and echo its inputs.

    ``delta`` is required for the VIX and Heston formulas, ``maturity`` for
    the finite-maturity approximations. Closed forms report a zero
    quadrature bound; quadrature-backed values report the achieved error
    bounds of their adaptive quadratures, propagated to first order.
    """
    fid = FormulaId(formula_id)
    needs_delta = fid in {
        FormulaId.VIX_ATMI_LIMIT, FormulaId.VIX_ATMI_APPROX,
        FormulaId.VIX_SKEW_LIMIT, FormulaId.VIX_SKEW_APPROX,
        FormulaId.SABR_VIX_SKEW, FormulaId.HESTON_VIX_SKEW_SIGN,
    }
    needs_maturity = fid in {
        FormulaId.VIX_ATMI_APPROX, FormulaId.VIX_SKEW_APPROX,
        FormulaId.RV_ATMI_APPROX,
    }
    if needs_delta and delta is None:
        raise ValueError(f"{fid.value} requires delta")
    if needs_maturity and maturity is None:
        raise ValueError(f"{fid.value} requires maturity")

    echo = _echo(params, delta=delta, maturity=maturity)
    if fid is FormulaId.HESTON_VIX_SKEW_SIGN:
        if not isinstance(params, HestonParams):
            raise ValueError("HESTON_VIX_SKEW_SIGN requires HestonParams")
        value, sign = heston_vix_skew_sign(params, delta)
        echo["sign"] = sign
        return AsymptoteResult(fid, value, echo, 0.0)

    if not isinstance(params, ModelParams):
        raise ValueError(f"{fid.value} requires ModelParams")

    closed: dict[FormulaId, Callable[[], float]] = {
        FormulaId.VIX_ATMI_LIMIT: lambda: vix_atmi_limit(params, delta),
        FormulaId.VIX_SKEW_LIMIT: lambda: vix_skew_limit(params, delta),
        FormulaId.SABR_VIX_SKEW: lambda: sabr_mixed_vix_skew(
            params.gamma, params.nu, params.eta
        ),
        FormulaId.RV_ATMI_LIMIT: lambda: rv_atmi_limit(params),
    }
    if fid in closed:
        return AsymptoteResult(fid, closed[fid](), echo, 0.0)

    if fid in (FormulaId.VIX_SKEW_APPROX, FormulaId.RV_SKEW_LIMIT):
        _require_nondegenerate(params)
    fprime, fsecond = _volvol_derivatives(params)
    v0, hurst, beta = params.v0, params.H, params.beta
    quadrature: dict[FormulaId, Callable[[], tuple[float, float]]] = {
        FormulaId.VIX_ATMI_APPROX: lambda: _vix_atmi_approx_err(
            fprime, v0, hurst, beta, delta, maturity
        ),
        FormulaId.VIX_SKEW_APPROX: lambda: _vix_skew_approx_err(
            fprime, fsecond, v0, hurst, beta, delta, maturity
        ),
        FormulaId.RV_ATMI_APPROX: lambda: _rv_atmi_approx_err(
            fprime, v0, hurst, beta, maturity
        ),
        FormulaId.RV_SKEW_LIMIT: lambda: _rv_skew_limit_err(fprime, fsecond, v0, hurst),
    }
    value, bound = quadrature[fid]()
    return AsymptoteResult(fid, value, echo, bound)
