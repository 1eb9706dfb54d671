"""Closed-form and semi-closed-form implied-vol asymptotics.

Short-maturity ATM implied-vol levels and skews for VIX and realized-variance
options under the mixed rough lognormal model, their finite-maturity
approximations, the kernel-overlap constant entering the realized-variance
skew, and the Heston/SABR skew-sign examples.

The paper states these results for a general smooth variance map v = f(Y)
through f'(0) and f''(0). Every implied vol here is scale-free in the
variance level, so f is the mixture's unit-mean map, and the model enters
only through f'(0) = (gamma nu + (1-gamma) eta) sqrt(2H) and
f''(0) = (gamma nu^2 + (1-gamma) eta^2) (2H).
Each of the four quadrature-backed formulas has a public
``<name>_err(params, ...)`` function returning (value, error bound): its
plain public function returns the value alone, and ``vixsmile asymptote``
writes each row's bound from it. Every ``_err`` function returns through
:func:`_checked`, so every caller gets a
:class:`~vixsmile.specfun.QuadratureError` when the bound exceeds
``QUAD_BOUND_TOL`` times max(1, |value|). At a maturity so short that
one of their sums or products leaves the normal float range, the
quadrature-backed forms raise :class:`UnderflowError` instead of answering
from intermediates that keep only a few bits.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .model import ModelParams, kernel_variance
from .specfun import (
    QuadratureError,
    _doubling_edges,
    gauss_jacobi,
    gauss_kronrod_15,
    geometric_rule,
    kronrod_bound,
    lower_incomplete_gamma,
)

# integrate_err, the adaptive reference of the skew's outer rule, is imported
# but not called: perfbench/tracer.py binds it as asymptotics.integrate_err.
from .specfun import integrate_err  # noqa: F401

__all__ = [
    "DegenerateModelError",
    "UnderflowError",
    "vix_atmi_limit",
    "vix_atmi_approx",
    "vix_atmi_approx_err",
    "vix_skew_limit",
    "sabr_mixed_vix_skew",
    "vix_skew_approx",
    "vix_skew_approx_err",
    "rv_atmi_limit",
    "rv_atmi_approx",
    "rv_atmi_approx_err",
    "rv_skew_limit",
    "rv_skew_limit_err",
    "rv_skew_constant",
    "heston_vix_skew_sign",
]

# Relative quadrature-error ceiling for any result produced here.
QUAD_BOUND_TOL = 1e-7

# Geometric Gauss-Kronrod panels of the fixed rule over [0, T] behind the
# level integrals and the skew's inner kernel mass, from T 2^-panels up to T.
_PANELS = 44

# Decay-scale edges of the VIX skew's outer rule, as multiples of
# w_beta = (beta delta)^(-1/3): there e^(-2 beta delta w^3) reaches e^-2,
# e^-5.7, e^-16 and e^-45. One doubling panel from w_beta to 2 w_beta sees
# e^-14 of it, and its Kronrod-Gauss gap can exceed the tolerance.
_DECAY_EDGES = 2.0 ** (np.arange(4) / 2.0)


class DegenerateModelError(ValueError):
    """Mixture with zero first vol-of-vol moment: skew ratios are undefined."""


class UnderflowError(ArithmeticError):
    """A maturity so short that an intermediate of a closed form falls
    below its floor in the normal float range."""


def _require_normal(n_terms: int, **values: float) -> None:
    """UnderflowError unless every value, a sum of ``n_terms`` terms (1 for a
    product), is at least 2 n_terms times the smallest normal float. A term
    that underflows is off by at most 2^-1075, so n_terms of them then move
    the value by at most half an ulp."""
    floor = 2 * n_terms * sys.float_info.min
    for name, value in values.items():
        if not abs(value) >= floor:
            raise UnderflowError(f"{name}={value!r} is below {floor:.4g}: maturity too short")


def _checked(value: float, bound: float) -> tuple[float, float]:
    """(value, bound), or a QuadratureError carrying both when the bound
    exceeds QUAD_BOUND_TOL times max(1, |value|)."""
    if bound > QUAD_BOUND_TOL * max(1.0, abs(value)):
        raise QuadratureError("quadrature bound exceeds the module tolerance", value, bound)
    return value, bound


def _kernel_integral(params: ModelParams, bot, top):
    """int_bot^top u^(H-1/2) e^(-beta u) du, elementwise for 0 <= bot <= top."""
    a = params.H + 0.5
    if params.beta == 0.0:
        return (top ** a - bot ** a) / a
    if np.ndim(bot) == 0 and bot == 0.0:  # gamma(a, 0) = 0: skip its evaluations
        return params.beta ** -a * lower_incomplete_gamma(a, params.beta * top)
    gam = lower_incomplete_gamma(a, params.beta * np.stack([top, bot]))
    return params.beta ** -a * (gam[0] - gam[1])


def _unit_panel_rule():
    """:func:`_panel_rule` at T = 1, built once and read-only."""
    eps = 2.0 ** -_PANELS
    gk_x, gk_kronrod, gk_gauss = gauss_kronrod_15()
    nodes, weights = geometric_rule(gk_x, [gk_kronrod, gk_kronrod - gk_gauss], eps, 1.0)
    nodes, weights = np.concatenate([[0.0, eps], nodes.ravel()]), weights.reshape(2, -1)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


_UNIT_NODES, _UNIT_WEIGHTS = _unit_panel_rule()


def _panel_rule(maturity: float):
    """Nodes and weights of the fixed rule on [0, T]: the head ends 0 and
    eps = T 2^-44, then the 15-point Gauss-Kronrod rule on the 44
    :func:`~vixsmile.specfun.geometric_rule` panels from eps to T, weighted
    by Kronrod and by Kronrod minus its embedded Gauss rule. The panels
    double in width from eps, so the rule is the one on [0, 1] scaled by T:
    new arrays, T times the read-only unit rule's nodes and weights."""
    return maturity * _UNIT_NODES, maturity * _UNIT_WEIGHTS


def _integral_of_square(nodes, values, weights) -> tuple[float, float]:
    """int_0^T G^2 and its bound from G at the nodes of :func:`_panel_rule`. G^2
    must be monotone on the head, which takes the mean of its end values and
    half their gap as its bound; each panel adds its
    :func:`~vixsmile.specfun.kronrod_bound`. An integral too close to the
    subnormal range raises UnderflowError."""
    square = values * values
    half_eps = 0.5 * nodes[1]
    panels, gaps = (square[2:] * weights).reshape(2, _PANELS, -1).sum(axis=2)
    integral = float(half_eps * (square[0] + square[1]) + panels.sum())
    _require_normal(square.size, integral_of_square=integral)
    return integral, float(half_eps * abs(square[1] - square[0])
                           + kronrod_bound(panels, gaps).sum())


def _volvol_derivatives(params: ModelParams) -> tuple[float, float]:
    """(f'(0), f''(0)) of the unit-mean mixture map, as in the module docstring."""
    return (params.volvol_mean * math.sqrt(2.0 * params.H),
            params.volvol_sq_mean * 2.0 * params.H)


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
    f'(0)/(2 delta) * int_0^delta u^(H-1/2) e^(-beta u) du."""
    fprime, _ = _volvol_derivatives(params)
    _check_positive("delta", delta)
    return fprime * _kernel_integral(params, 0.0, delta) / (2.0 * delta)


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


def vix_atmi_approx_err(params: ModelParams, delta: float,
                         maturity: float) -> tuple[float, float]:
    """:func:`vix_atmi_approx` and its first-order quadrature bound."""
    _check_positive("delta", delta)
    _check_positive("maturity", maturity)
    fprime, _ = _volvol_derivatives(params)
    w_int, w_err = _window_kernel_sq_integral(params, delta, maturity)
    value = fprime * math.sqrt(w_int) / (2.0 * delta * math.sqrt(maturity))
    return _checked(value, abs(value) * w_err / (2.0 * w_int))


def vix_atmi_approx(params: ModelParams, delta: float, maturity: float) -> float:
    """Finite-maturity VIX ATM implied-vol approximation,
    f'(0)/(2 delta sqrt(T)) * sqrt(int_0^T K-bar(s)^2 ds); tends to
    :func:`vix_atmi_limit` as maturity goes to zero.

    First order in the vol-of-vol: sharpest for single-factor configurations
    (gamma in {0, 1}); genuine mixtures pick up curvature terms it omits.
    """
    return vix_atmi_approx_err(params, delta, maturity)[0]


# ---------------------------------------------------------------------------
# VIX ATM skew
# ---------------------------------------------------------------------------

def vix_skew_limit(params: ModelParams, delta: float) -> float:
    """Short-maturity VIX skew (1/2) (G/J f''/f' - J/delta f'), with the
    window moments G = int_0^delta k^2 (:func:`~vixsmile.model.kernel_variance`)
    and J = int_0^delta k; positive for genuine mixtures (gamma in (0,1),
    nu != eta), zero in the plain lognormal case."""
    fprime, fsecond = _skew_derivatives(params)
    _check_positive("delta", delta)
    int_k = _kernel_integral(params, 0.0, delta)
    ratio_term = kernel_variance(params, delta) / int_k * fsecond / fprime
    level_term = int_k / delta * fprime
    return 0.5 * (ratio_term - level_term)


def sabr_mixed_vix_skew(gamma: float, nu: float, eta: float) -> float:
    """Mixed SABR (H = 1/2, beta = 0) VIX skew:
    (1/2) ((g nu^2 + (1-g) eta^2)/(g nu + (1-g) eta) - (g nu + (1-g) eta))."""
    params = ModelParams(H=0.5, gamma=gamma, nu=nu, eta=eta)
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
    gap to the embedded Gauss rule. The kernel k(g + tau) splits into
    (g + tau)^(H-1/2) e^(-beta tau) e^(-beta g): K-bar(T - tau) e^(-beta tau)
    is folded into the weights once, and e^(-beta g) scales each gap's row.
    """
    a, beta = params.H + 0.5, params.beta
    nodes, weights = _panel_rule(maturity)
    kbar = _kernel_integral(params, nodes, nodes + delta)
    eps, tau = nodes[1], nodes[2:]
    # K-bar(T - tau) e^(-beta tau) at tau = 0 and tau = eps, then on the panels.
    hi, lo = kbar[:2] * np.exp(-beta * nodes[:2])
    kronrod, diff = kbar[2:] * np.exp(-beta * tau) * weights
    diff = diff.reshape(_PANELS, -1)

    def kernel_mass(gaps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if np.any(gaps < 0.0):
            raise ValueError("kernel-mass gaps must be nonnegative")
        decay = np.exp(-beta * gaps)
        # int_0^eps (g + tau)^(H-1/2) e^(-beta g) dtau, with
        # (g + eps)^a - g^a through log1p where g > eps would cancel it away.
        top = gaps + eps
        ratio = np.minimum(eps / top, 0.5)
        power = np.where(
            gaps > eps,
            -top ** a * np.expm1(a * np.log1p(-ratio)),
            top ** a - gaps ** a,
        ) * decay / a

        powers = np.add.outer(gaps, tau)
        np.power(powers, params.H - 0.5, out=powers)
        mass = 0.5 * (hi + lo) * power + decay * (powers @ kronrod)
        panel_gaps = np.einsum("gpk,pk->gp", powers.reshape(gaps.size, _PANELS, -1), diff)
        err = 0.5 * (hi - lo) * power + decay * np.abs(panel_gaps).sum(axis=1)
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
    runs in w over [0, 1] with r - T = delta w^3. The kernel mass behaves
    like m(0) + c g^(H+1/2) + ... in g = r - T, whose derivative is
    unbounded at g = 0; in w the integrand m(delta w^3)^2 3 delta w^2 has
    w^(3.5+3H) as its lowest non-smooth power. The integrand bends where g
    reaches the scale s = T, or s = min(T, 1/beta) for beta > 0, that is at
    w_s = min(1, (s/delta)^(1/3)), and it falls like e^(-2 beta delta w^3)
    past w_beta = (beta delta)^(-1/3). So the outer rule is fixed: the
    15-point Gauss-Kronrod rule on a head panel [0, w_s/8] and on panels
    that double in w from w_s/8 up to 1, split further at the edges
    w_beta 2^(k/2), k = 0..3, that lie below 1 (beta delta > 1). One
    :func:`_kernel_mass_rule` call takes every outer node, and W comes from
    the same rule. The bound adds each panel's
    :func:`~vixsmile.specfun.kronrod_bound` and the inner error carried
    through m^2, |m^2 - (m + e)^2| <= (2m + |e|) |e|, under the Kronrod
    weights.
    """
    kernel_mass, w_int, w_err = _kernel_mass_rule(params, delta, maturity)
    beta = params.beta
    scale = min(maturity, 1.0 / beta) if beta > 0.0 else maturity
    w_scale = min(1.0, (scale / delta) ** (1.0 / 3.0))
    edges = _doubling_edges(w_scale / 8.0, 1.0)
    if beta > 0.0:
        decay = (beta * delta) ** (-1.0 / 3.0) * _DECAY_EDGES
        edges = np.sort(np.concatenate([edges, decay[decay < 1.0]]))
    edges = np.concatenate([[0.0], edges])

    gk_x, gk_kronrod, gk_gauss = gauss_kronrod_15()
    half = 0.5 * np.diff(edges)[:, None]
    w = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * gk_x
    mass, err = kernel_mass(delta * w.ravel() ** 3)
    jacobian = (3.0 * delta) * (w * w)
    m_squared = (mass * mass).reshape(w.shape) * jacobian
    inner_err = (err * (2.0 * mass + err)).reshape(w.shape) * jacobian
    kronrod = half * gk_kronrod
    panels = (m_squared * kronrod).sum(axis=1)
    gaps = (m_squared * (half * (gk_kronrod - gk_gauss))).sum(axis=1)
    cross = 0.5 * float(panels.sum())
    _require_normal(m_squared.size, cross=cross)
    cross_err = 0.5 * float(kronrod_bound(panels, gaps).sum() + (inner_err * kronrod).sum())
    return cross, cross_err, w_int, w_err


def vix_skew_approx_err(params: ModelParams, delta: float,
                         maturity: float) -> tuple[float, float]:
    """:func:`vix_skew_approx` and its first-order quadrature bound."""
    fprime, fsecond = _skew_derivatives(params)
    _check_positive("delta", delta)
    _check_positive("maturity", maturity)
    cross, cross_err, w_int, w_err = _skew_numerators(params, delta, maturity)
    curvature = fsecond / fprime
    level = fprime * w_int ** 2 / (2.0 * delta)
    denominator = w_int ** 1.5 * math.sqrt(maturity)
    _require_normal(1, level=level, denominator=denominator,
                    w_int_times_denominator=w_int * denominator)
    value = (curvature * cross - level) / denominator
    # Partial derivatives of the value in Q_A and in W.
    d_cross = curvature / denominator
    d_w = -2.0 * level / (w_int * denominator) - 1.5 * value / w_int
    return _checked(value, abs(d_cross) * cross_err + abs(d_w) * w_err)


def vix_skew_approx(params: ModelParams, delta: float, maturity: float) -> float:
    """Finite-maturity VIX skew approximation, normalised so the zero-maturity
    limit reproduces :func:`vix_skew_limit` exactly:

        [f''/f' Q_A - f' Q_B/delta] / (W^(3/2) sqrt(T))

    with W = int K-bar^2, Q_B = W^2/2, and Q_A the cross-kernel double
    integral of :func:`_skew_numerators`. Flat in maturity for the mixed
    SABR configuration.
    """
    return vix_skew_approx_err(params, delta, maturity)[0]


# ---------------------------------------------------------------------------
# Realized-variance ATM implied-vol level
# ---------------------------------------------------------------------------

def rv_atmi_limit(params: ModelParams) -> float:
    """Power-law coefficient of the short-maturity RV ATM implied vol, the
    limit of T^(1/2-H) times it: f'(0)/((H + 1/2) sqrt(2H + 2));
    independent of beta."""
    fprime, _ = _volvol_derivatives(params)
    hurst = params.H
    return fprime / ((hurst + 0.5) * math.sqrt(2.0 * hurst + 2.0))


def rv_atmi_approx_err(params: ModelParams, maturity: float) -> tuple[float, float]:
    """:func:`rv_atmi_approx` and its first-order quadrature bound."""
    _check_positive("maturity", maturity)
    if params.beta == 0.0:
        return rv_atmi_limit(params) * maturity ** (params.H - 0.5), 0.0
    fprime, _ = _volvol_derivatives(params)
    integral, err = _rv_level_integral(params, maturity)
    value = fprime * math.sqrt(integral) / maturity ** 1.5
    return _checked(value, abs(value) * err / (2.0 * integral))


def rv_atmi_approx(params: ModelParams, maturity: float) -> float:
    """Finite-maturity RV ATM implied vol:
    f'(0)/T^(3/2) sqrt(int_0^T (int_s^T k(u-s) du)^2 ds).

    For beta = 0 the double integral collapses analytically and the value is
    exactly the limit coefficient times T^(H-1/2).
    """
    return rv_atmi_approx_err(params, maturity)[0]


# ---------------------------------------------------------------------------
# Realized-variance ATM skew
# ---------------------------------------------------------------------------

# Fixed rules of the kernel-overlap constant: geometric Gauss-Kronrod panels
# per half of the outer integral, and the inner Gauss-Jacobi head and
# Gauss-Legendre panel sizes. The Gauss-Legendre rule is built once per
# process, for every Hurst exponent.
_OVERLAP_PANELS = 40
_OVERLAP_HEAD_NODES = 16
_OVERLAP_PANEL_NODES = 12
_OVERLAP_GL_X, _OVERLAP_GL_W = np.polynomial.legendre.leggauss(_OVERLAP_PANEL_NODES)


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
        y = (0.5 * (lo + hi))[..., None] + half_width[..., None] * _OVERLAP_GL_X
        return half_width * ((y ** (hurst - 0.5) * (1.0 + y) ** a) @ _OVERLAP_GL_W)

    lo = 2.0 ** np.arange(m.max(), dtype=float)
    cumulative = np.concatenate([[0.0], np.cumsum(panels(lo, 2.0 * lo))])
    cumulative += (1.0 + head_y) ** a @ head_w
    last = 2.0 ** m.astype(float)
    j_right = t ** (2.0 * a) * (cumulative[m] + panels(last, ratio))

    kronrod, gap = ((j_left ** 2 + j_right ** 2) * weights).sum(axis=2)
    return 0.5 * float(kronrod.sum()), 0.5 * float(kronrod_bound(kronrod, gap).sum())


def rv_skew_limit_err(params: ModelParams) -> tuple[float, float]:
    """:func:`rv_skew_limit` and its first-order quadrature bound."""
    fprime, fsecond = _skew_derivatives(params)
    hurst = params.H
    # Through the public lru-cached name, so its cache statistics see every lookup.
    overlap = rv_skew_constant(hurst)
    curvature_term = (
        fsecond / fprime * overlap * (2.0 * hurst + 2.0) ** 1.5 * (hurst + 0.5)
    )
    level_term = fprime / ((2.0 * hurst + 1.0) * math.sqrt(2.0 * hurst + 2.0))
    _, overlap_err = _rv_skew_constant_err(hurst)
    return _checked(curvature_term - level_term, abs(curvature_term) * overlap_err / overlap)


def rv_skew_limit(params: ModelParams) -> float:
    """Power-law coefficient of the short-maturity RV ATM skew, the limit of
    T^(1/2-H) times it:
    f''/f' I(H) (2H+2)^(3/2) (H+1/2) - f'/((2H+1) sqrt(2H+2)).
    Scales linearly under joint scaling of (nu, eta)."""
    return rv_skew_limit_err(params)[0]


# ---------------------------------------------------------------------------
# Heston skew sign
# ---------------------------------------------------------------------------

def heston_vix_skew_sign(k: float, nu: float, delta: float) -> float:
    """Closed-form short-maturity VIX skew driver for Heston, with reversion
    speed k, vol-of-vol nu and window delta:

        (nu^2 (1-e^(-k delta))/(4 k delta)) (1 - 2(1-e^(-k delta))/(k delta))

    No variance level enters it: the paper's example takes the long-run
    variance equal to v0, and the driver is then free of both. Its sign is
    the VIX skew's: negative under typical reversion speeds, positive for
    very large k*delta. Each argument must be positive and finite.
    """
    for name, value in (("k", k), ("nu", nu), ("delta", delta)):
        _check_positive(name, value)
    k_delta = k * delta
    decay = -math.expm1(-k_delta)  # 1 - e^(-k delta)
    return (nu ** 2 * decay / (4.0 * k_delta)) * (1.0 - 2.0 * decay / k_delta)
