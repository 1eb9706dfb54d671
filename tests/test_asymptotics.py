"""Closed-form and semi-closed-form asymptotics tests.

Oracles: hand-evaluated closed forms, quadrature of defining integrals,
brute-force tensor quadrature with scipy's independent 2F1, exact algebraic
collapses (SABR flatness, beta = 0 reductions), the adaptive quadratures
that the fixed rules of the level integrals and of the finite-maturity
skew's inner kernel mass replaced, and mpmath for the level integrals, the
kernel mass and the kernel-overlap constant.
"""

import math
import warnings
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
import scipy.special

from vixsmile import asymptotics as asy
from vixsmile import specfun
from vixsmile.asymptotics import (
    DegenerateModelError,
    heston_vix_skew_sign,
    rv_atmi_approx,
    rv_atmi_limit,
    rv_skew_constant,
    rv_skew_limit,
    sabr_mixed_vix_skew,
    vix_atmi_approx,
    vix_atmi_limit,
    vix_skew_approx,
    vix_skew_limit,
)
from vixsmile.cli import main
from vixsmile.model import ModelParams, kernel, kernel_variance
from vixsmile.specfun import (
    QuadratureError,
    QuadSpec,
    gauss_kronrod_15,
    geometric_rule,
    integrate,
    integrate_err,
    lower_incomplete_gamma,
)

DELTA = 30.0 / 365.0


def mk(v0=0.04, H=0.3, beta=0.0, gamma=1.0, nu=2.0, eta=0.0):
    return ModelParams(v0=v0, H=H, beta=beta, gamma=gamma, nu=nu, eta=eta)


# ---------------------------------------------------------------------------
# the fixed panel rule
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("maturity", [1e-8, 1e-4, 0.3, 2.0, 50.0])
def test_panel_rule_is_the_rule_built_at_its_maturity(maturity):
    # The rule geometric_rule builds directly from eps = T 2^-44 to T.
    eps = maturity * 2.0 ** -asy._PANELS
    gk_x, gk_kronrod, gk_gauss = gauss_kronrod_15()
    nodes, weights = geometric_rule(gk_x, [gk_kronrod, gk_kronrod - gk_gauss], eps, maturity)
    direct_nodes = np.concatenate([[0.0, eps], nodes.ravel()])
    scaled_nodes, scaled_weights = asy._panel_rule(maturity)
    assert scaled_nodes.shape == direct_nodes.shape
    assert scaled_weights.shape == (2, direct_nodes.size - 2)
    np.testing.assert_array_max_ulp(scaled_nodes, direct_nodes, maxulp=4)
    np.testing.assert_array_max_ulp(scaled_weights, weights.reshape(2, -1), maxulp=4)
    assert scaled_nodes.flags.writeable and scaled_weights.flags.writeable


def test_panel_rule_unit_arrays_are_read_only():
    for unit in (asy._UNIT_NODES, asy._UNIT_WEIGHTS):
        assert not unit.flags.writeable
        with pytest.raises(ValueError):
            unit[0] = 1.0


# ---------------------------------------------------------------------------
# adaptive oracles of the level integrals
# ---------------------------------------------------------------------------

def _window_kernel(params, delta, t_mat, s):
    """K-bar(s): the kernel mass seen from time s over the window [T, T+delta],
    int_(T-s)^(T+delta-s) u^(H-1/2) e^(-beta u) du, vectorised over s."""
    s_arr = np.asarray(s, dtype=float)
    top = np.maximum(t_mat + delta - s_arr, 0.0)
    bot = np.maximum(t_mat - s_arr, 0.0)
    out = asy._kernel_integral(params, bot, top)
    return float(out) if np.ndim(s) == 0 else out


def _window_kernel_sq_integral_oracle(params, delta, maturity):
    """W = int_0^T K-bar(s)^2 ds by adaptive quadrature, with its bound."""
    spec = QuadSpec(abs_tol=1e-280, rel_tol=1e-10)
    return integrate_err(
        lambda s: _window_kernel(params, delta, maturity, s) ** 2, 0.0, maturity, spec
    )


def _rv_level_integral_oracle(hurst, beta, maturity):
    """int_0^T (int_0^sigma k)^2 dsigma by adaptive quadrature, with its bound."""
    spec = QuadSpec(abs_tol=1e-280, rel_tol=1e-10)
    a = hurst + 0.5

    def f(sigma):
        if beta == 0.0:
            return (sigma ** a / a) ** 2
        return (beta ** -a * lower_incomplete_gamma(a, beta * sigma)) ** 2

    return integrate_err(f, 0.0, maturity, spec)


def _rv_level_integral(hurst, beta, maturity):
    """The same integral and its bound as rv_atmi_approx evaluates it."""
    return asy._rv_level_integral(mk(H=hurst, beta=beta), maturity)


def _level_integral_mpmath(hurst, beta, maturity, window):
    """W (window) or the RV integral (not window) at 30 digits, with the
    kernel masses from mpmath's incomplete gamma between two limits."""
    import mpmath

    with mpmath.workdps(30):
        a = mpmath.mpf(hurst) + 0.5
        b, d, t = mpmath.mpf(beta), mpmath.mpf(DELTA), mpmath.mpf(maturity)

        def mass(lo, hi):
            if beta == 0.0:
                return (hi ** a - lo ** a) / a
            return mpmath.gammainc(a, b * lo, b * hi) / b ** a

        def f(tau):
            return (mass(tau, tau + d) if window else mass(0, tau)) ** 2

        points = [t * mpmath.mpf(2) ** -k for k in range(40, -1, -8)]
        return float(mpmath.quad(f, [0] + points))


LEVEL_GRID = [
    (hurst, beta, maturity)
    for hurst in (0.02, 0.05, 0.1, 0.3, 0.5)
    for beta in (0.0, 1.0, 5.0)
    for maturity in (1e-6, 1e-3, 0.1, 1.0, 2.0)
]


@pytest.mark.parametrize("hurst, beta, maturity", LEVEL_GRID)
def test_level_integrals_match_adaptive_oracles(hurst, beta, maturity):
    params = mk(H=hurst, beta=beta)
    w_int, _ = asy._window_kernel_sq_integral(params, DELTA, maturity)
    w_oracle, _ = _window_kernel_sq_integral_oracle(params, DELTA, maturity)
    assert w_int == pytest.approx(w_oracle, rel=1e-12, abs=0.0)
    rv_int, _ = _rv_level_integral(hurst, beta, maturity)
    rv_oracle, _ = _rv_level_integral_oracle(hurst, beta, maturity)
    assert rv_int == pytest.approx(rv_oracle, rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "hurst, beta, maturity, window",
    [
        (0.5, 0.0, 0.25, True),
        (0.05, 0.0, 2.0, True),
        (0.1, 1.0, 1.0, True),
        (0.3, 5.0, 2.0, True),
        (0.02, 1.0, 1e-3, True),
        (0.1, 1.0, 1.0, False),
        (0.3, 5.0, 2.0, False),
        (0.05, 1.0, 1e-6, False),
        (0.5, 5.0, 2.0, False),
    ],
)
def test_level_integrals_within_their_bounds_of_mpmath(hurst, beta, maturity, window):
    if window:
        params = mk(H=hurst, beta=beta)
        value, bound = asy._window_kernel_sq_integral(params, DELTA, maturity)
    else:
        value, bound = _rv_level_integral(hurst, beta, maturity)
    reference = _level_integral_mpmath(hurst, beta, maturity, window)
    assert abs(value - reference) <= bound < 1e-10 * reference


# ---------------------------------------------------------------------------
# window moments
# ---------------------------------------------------------------------------

def test_window_integrals_unit_case():
    p = mk(H=0.5, beta=0.0)
    assert asy._kernel_integral(p, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert kernel_variance(p, 1.0) == pytest.approx(1.0, abs=1e-14)


def test_window_integrals_power_law():
    p = mk(H=0.3, beta=0.0)
    assert asy._kernel_integral(p, 0.0, DELTA) == pytest.approx(DELTA ** 0.8 / 0.8, rel=1e-14)
    assert kernel_variance(p, DELTA) == pytest.approx(DELTA ** 0.6 / 0.6, rel=1e-14)


def test_window_integrals_damped_vs_quadrature():
    spec = QuadSpec(abs_tol=1e-13, rel_tol=1e-12, singular_exponent=-0.2)
    oracle = integrate(lambda u: u ** -0.2 * np.exp(-2.0 * u), 0.0, DELTA, spec)
    assert asy._kernel_integral(mk(H=0.3, beta=2.0), 0.0, DELTA) == pytest.approx(
        oracle, abs=1e-10
    )


# ---------------------------------------------------------------------------
# VIX ATM level
# ---------------------------------------------------------------------------

def test_vix_atmi_limit_sabr_is_half_volvol():
    assert vix_atmi_limit(mk(H=0.5, nu=2.0), DELTA) == pytest.approx(1.0, abs=1e-13)
    # The SABR limit does not depend on the window size.
    assert vix_atmi_limit(mk(H=0.5, nu=2.0), 0.25) == pytest.approx(1.0, abs=1e-13)


def test_vix_atmi_limit_zero_volvol():
    assert vix_atmi_limit(mk(nu=0.0, eta=0.0), DELTA) == 0.0


def test_vix_atmi_limit_mixed_plugin():
    value = vix_atmi_limit(mk(gamma=0.5, nu=2.0, eta=1.0, H=0.3), DELTA)
    expected = (1.5 * math.sqrt(0.6) / (2.0 * DELTA)) * DELTA ** 0.8 / 0.8
    assert value == pytest.approx(expected, rel=1e-13)


def test_vix_atmi_limit_homogeneous_in_volvol():
    base = vix_atmi_limit(mk(gamma=0.4, nu=2.0, eta=0.5), DELTA)
    scaled = vix_atmi_limit(mk(gamma=0.4, nu=6.0, eta=1.5), DELTA)
    assert scaled == pytest.approx(3.0 * base, rel=1e-13)


def test_vix_atmi_limit_nonincreasing_in_beta():
    values = [vix_atmi_limit(mk(beta=b), DELTA) for b in (0.0, 0.5, 1.0, 2.0, 5.0)]
    assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))


def test_vix_atmi_approx_consistent_with_limit():
    for params in (mk(H=0.3), mk(H=0.3, beta=1.5), mk(H=0.45, gamma=0.5, nu=3.0, eta=1.0)):
        limit = vix_atmi_limit(params, DELTA)
        approx = vix_atmi_approx(params, DELTA, 1e-6)
        assert approx == pytest.approx(limit, rel=1e-3), params


def test_vix_atmi_approx_zero_volvol():
    assert vix_atmi_approx(mk(nu=0.0, eta=0.0), DELTA, 0.25) == 0.0


def test_vix_atmi_approx_rejects_bad_maturity():
    with pytest.raises(ValueError):
        vix_atmi_approx(mk(), DELTA, 0.0)


@pytest.mark.parametrize("func", [vix_atmi_approx, vix_skew_approx])
@pytest.mark.parametrize("delta", [math.nan, math.inf, 0.0, -0.1])
def test_vix_approximations_reject_bad_window(func, delta):
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        func(mk(), delta, 0.25)


# ---------------------------------------------------------------------------
# VIX skew
# ---------------------------------------------------------------------------

def test_vix_skew_limit_sabr_flat():
    assert vix_skew_limit(mk(H=0.5, nu=2.0), DELTA) == 0.0


def test_vix_skew_limit_mixed_sabr_quarter():
    value = vix_skew_limit(mk(H=0.5, gamma=0.5, nu=3.0, eta=1.0), DELTA)
    assert value == pytest.approx(0.25, abs=1e-12)


def test_vix_skew_limit_equal_volvols_collapse():
    assert vix_skew_limit(mk(H=0.5, gamma=0.3, nu=1.7, eta=1.7), DELTA) == pytest.approx(
        0.0, abs=1e-13
    )


def test_vix_skew_limit_degenerate_model():
    with pytest.raises(DegenerateModelError):
        vix_skew_limit(mk(nu=0.0, eta=0.0), DELTA)


def test_sabr_mixed_vix_skew_values():
    assert sabr_mixed_vix_skew(0.5, 3.0, 1.0) == pytest.approx(0.25, abs=1e-12)
    assert sabr_mixed_vix_skew(0.0, 3.0, 1.0) == 0.0
    assert sabr_mixed_vix_skew(1.0, 3.0, 1.0) == 0.0
    assert sabr_mixed_vix_skew(0.37, 2.2, 2.2) == pytest.approx(0.0, abs=1e-13)


def test_sabr_mixed_vix_skew_matches_limit_at_sabr_config():
    for gamma, nu, eta in [(0.5, 3.0, 1.0), (0.25, 2.0, 0.5)]:
        direct = sabr_mixed_vix_skew(gamma, nu, eta)
        via_limit = vix_skew_limit(mk(H=0.5, gamma=gamma, nu=nu, eta=eta), DELTA)
        assert direct == pytest.approx(via_limit, abs=1e-12)


def test_sabr_mixed_vix_skew_positive_for_true_mixtures():
    for gamma in np.linspace(0.1, 0.9, 9):
        for nu, eta in [(3.0, 1.0), (2.0, 0.5)]:
            assert sabr_mixed_vix_skew(float(gamma), nu, eta) > 0.0


def test_vix_skew_approx_mixed_sabr_flat_in_maturity():
    params = mk(H=0.5, gamma=0.5, nu=3.0, eta=1.0)
    for maturity in (1.0 / 12.0, 0.25, 0.5):
        assert vix_skew_approx(params, DELTA, maturity) == pytest.approx(
            0.25, abs=1e-9
        )


def test_vix_skew_approx_consistent_with_limit():
    params = mk(H=0.3, gamma=0.5, nu=3.0, eta=1.0)
    limit = vix_skew_limit(params, DELTA)
    assert vix_skew_approx(params, DELTA, 1e-5) == pytest.approx(limit, rel=1e-2)


def test_vix_skew_approx_sabr_collapse_zero():
    params = mk(H=0.5, gamma=0.4, nu=1.3, eta=1.3)
    assert vix_skew_approx(params, DELTA, 0.3) == pytest.approx(0.0, abs=1e-9)


def test_vix_skew_approx_brute_force_oracle_rough_case():
    # Direct tensor quadrature of the nested display
    #   int_0^T Kbar(s) int_s^T Kbar(u) I(s,u) du ds, with
    #   I(s,u) = int_T^(T+delta) k(r-s) k(r-u) dr,
    # against the factorised evaluation inside vix_skew_approx.
    from vixsmile.asymptotics import _skew_numerators

    params = mk(H=0.35, beta=0.7)
    maturity = 0.05
    n = 90
    cross, _, w_int, _ = _skew_numerators(params, DELTA, maturity)
    s_nodes = (np.arange(n) + 0.5) * maturity / n
    total = 0.0
    for s in s_nodes:
        u_nodes = s + (np.arange(n) + 0.5) * (maturity - s) / n
        kb_s = _window_kernel(params, DELTA, maturity, float(s))
        kb_u = _window_kernel(params, DELTA, maturity, u_nodes)
        inner = np.array([
            integrate(
                lambda r: kernel(params, r - float(s)) * kernel(params, r - float(u)),
                maturity, maturity + DELTA,
                QuadSpec(abs_tol=1e-15, rel_tol=1e-9),
            )
            for u in u_nodes
        ])
        total += kb_s * float(kb_u @ inner) * (maturity - s) / n * maturity / n
    assert cross == pytest.approx(total, rel=2e-3)


def _skew_numerators_oracle(params, delta, maturity, rel_tol=1e-12):
    """Nested adaptive evaluation of the skew numerators: one adaptive
    quadrature of the kernel mass m(r) = int_0^T K-bar(T - tau) k(r - T + tau)
    dtau per outer node, with the return tuple of ``_skew_numerators``."""
    inner_spec = QuadSpec(abs_tol=1e-280, rel_tol=rel_tol, singular_exponent=params.H - 0.5)
    outer_spec = QuadSpec(abs_tol=1e-280, rel_tol=rel_tol)
    worst_inner = 0.0

    def kernel_mass(r_scalar):
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
        return np.array([kernel_mass(float(v)) ** 2 for v in np.atleast_1d(r)])

    cross, cross_err = integrate_err(m_squared, maturity, maturity + delta, outer_spec)
    cross *= 0.5
    cross_err = 0.5 * cross_err + 2.0 * worst_inner * cross
    w_int, w_err = _window_kernel_sq_integral_oracle(params, delta, maturity)
    return cross, cross_err, w_int, w_err


@lru_cache(maxsize=None)
def _skew_oracle(hurst, beta, maturity):
    """(Q_A, vix_skew_approx) of the mixed model through the nested oracle."""
    numerators = []

    def recording(*args):
        numerators.append(_skew_numerators_oracle(*args))
        return numerators[-1]

    params = mk(H=hurst, beta=beta, gamma=0.5, nu=3.0, eta=1.0)
    with mock.patch.object(asy, "_skew_numerators", recording):
        value = vix_skew_approx(params, DELTA, maturity)
    return numerators[0][0], value


# Together they span H in {0.05, 0.3, 0.5}, beta in {0, 1, 5} and
# T in {1e-6, 1e-3, 0.1, 2}; the oracle takes seconds at the rough points.
SKEW_ORACLE_POINTS = [
    (0.05, 0.0, 2.0),
    (0.05, 1.0, 1e-6),
    (0.3, 0.0, 1e-3),
    (0.3, 5.0, 0.1),
    (0.5, 5.0, 2.0),
    (0.5, 1.0, 1e-6),
    (0.5, 0.0, 0.1),
]


@pytest.mark.parametrize("hurst, beta, maturity", SKEW_ORACLE_POINTS)
def test_vix_skew_approx_matches_nested_adaptive_oracle(hurst, beta, maturity):
    params = mk(H=hurst, beta=beta, gamma=0.5, nu=3.0, eta=1.0)
    oracle_cross, oracle_value = _skew_oracle(hurst, beta, maturity)
    cross = asy._skew_numerators(params, DELTA, maturity)[0]
    assert cross == pytest.approx(oracle_cross, rel=1e-10, abs=0.0)
    assert vix_skew_approx(params, DELTA, maturity) == pytest.approx(
        oracle_value, rel=1e-10, abs=0.0
    )


@pytest.mark.parametrize("hurst, beta, maturity", SKEW_ORACLE_POINTS)
def test_vix_skew_approx_bound_covers_oracle_gap(hurst, beta, maturity):
    params = mk(H=hurst, beta=beta, gamma=0.5, nu=3.0, eta=1.0)
    value, bound = asy.vix_skew_approx_err(params, DELTA, maturity)
    _, oracle_value = _skew_oracle(hurst, beta, maturity)
    assert abs(value - oracle_value) <= bound


def _kernel_mass_mpmath(hurst, maturity, gap):
    # beta = 0: m(g) = int_0^T K-bar(T - tau) (g + tau)^(H-1/2) dtau at 30
    # digits, split on a geometric grid towards tau = 0 and around tau = g.
    import mpmath

    with mpmath.workdps(30):
        a, g, d = mpmath.mpf(hurst) + 0.5, mpmath.mpf(gap), mpmath.mpf(DELTA)

        def f(tau):
            return ((tau + d) ** a - tau ** a) / a * (g + tau) ** (a - 1)

        points = {mpmath.mpf(maturity) * mpmath.mpf(2) ** -k for k in range(0, 81, 2)}
        points |= {g * 10 ** k for k in range(-3, 4) if 0 < g * 10 ** k < maturity}
        return float(mpmath.quad(f, [0] + sorted(points)))


@pytest.mark.parametrize("gap_over_eps", [0.0, 1e-3, 1.0, 2.0 ** 40])
def test_kernel_mass_rule_error_estimate_covers_its_error(gap_over_eps):
    # Gaps at and just off the kernel singularity, on the scale of the head
    # [0, eps = T 2^-44]: there a 16-node Gauss-Jacobi head in tau^(H-1/2)
    # is off by up to 1.3e-9, more than its 8-node partner estimates.
    hurst, maturity = 0.05, 2.0
    gap = maturity * 2.0 ** -44 * gap_over_eps
    rule = asy._kernel_mass_rule(mk(H=hurst), DELTA, maturity)[0]
    mass, err = rule(np.array([gap]))
    reference = _kernel_mass_mpmath(hurst, maturity, gap)
    assert abs(mass[0] - reference) <= err[0] < 1e-10 * reference


def test_kernel_mass_rule_rejects_a_negative_gap():
    rule = asy._kernel_mass_rule(mk(H=0.1, beta=1.0), DELTA, 0.25)[0]
    with pytest.raises(ValueError, match="nonnegative"):
        rule(np.array([0.01, -1e-9]))


@pytest.mark.parametrize("beta", [1e4, 1e5, 1e6])
def test_vix_skew_approx_where_the_kernel_mass_underflows(beta):
    # Above beta ~ 9000 at delta = 30 days the kernel mass and its error
    # estimate both underflow to 0 towards g = delta: the inner rule's
    # relative error must skip those nodes, with no 0/0 and a finite bound.
    params = mk(H=0.1, beta=beta, gamma=0.5, nu=3.0, eta=1.0)
    for maturity in (0.1, 0.5):
        rule = asy._kernel_mass_rule(params, DELTA, maturity)[0]
        mass, err = rule(np.array([0.0, DELTA]))
        assert mass[0] > 0.0 and mass[1] == err[1] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, bound = asy.vix_skew_approx_err(params, DELTA, maturity)
        assert 0.0 < value < 1.0 and 0.0 < bound < 1e-9


def test_closed_forms_run_no_adaptive_quadrature(monkeypatch):
    # Every public closed form returns with the adaptive integrator made to
    # raise: the VIX skew's outer integral, the last one it served, now takes
    # a fixed rule too. The kernel-overlap constant's caches are cleared so
    # that its fixed rules run here.
    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature reached")

    monkeypatch.setattr(specfun, "_adaptive", refuse)
    asy.rv_skew_constant.cache_clear()
    asy._rv_skew_constant_err.cache_clear()
    params = mk(H=0.1, beta=1.0, gamma=0.5, nu=3.0, eta=1.0)
    for name in ("vix_atmi_limit", "vix_skew_limit"):
        assert math.isfinite(getattr(asy, name)(params, DELTA))
    for name in ("vix_atmi_approx", "vix_atmi_approx_err", "vix_skew_approx",
                 "vix_skew_approx_err"):
        assert np.all(np.isfinite(getattr(asy, name)(params, DELTA, 0.25)))
    for name in ("rv_atmi_approx", "rv_atmi_approx_err"):
        assert np.all(np.isfinite(getattr(asy, name)(params, 0.25)))
    for name in ("rv_atmi_limit", "rv_skew_limit", "rv_skew_limit_err"):
        assert np.all(np.isfinite(getattr(asy, name)(params)))
    assert rv_skew_constant(0.1) > 0.0
    assert sabr_mixed_vix_skew(0.5, 3.0, 1.0) == 0.25
    assert heston_vix_skew_sign(1.0, 0.25, DELTA) < 0.0
    assert not any(isinstance(value, np.vectorize) for value in vars(asy).values())


def _outer_node_counts(monkeypatch):
    """A list that gets the number of outer nodes of each skew evaluation:
    one kernel-mass call takes them all."""
    counts, real = [], asy._kernel_mass_rule

    def counting(params, delta, maturity):
        kernel_mass, *rest = real(params, delta, maturity)

        def counted(gaps):
            counts.append(gaps.size)
            return kernel_mass(gaps)

        return counted, *rest

    monkeypatch.setattr(asy, "_kernel_mass_rule", counting)
    return counts


def test_vix_skew_approx_outer_integral_takes_few_points(monkeypatch):
    # In r the g^(H+1/2) term of the kernel mass at g = r - T = 0 drove
    # adaptive GK15 to 315-765 integrand points over this grid; in
    # w = (g/delta)^(1/3) the fixed rule takes at most 8 panels here, 120
    # nodes. The cap is 135.
    counts = _outer_node_counts(monkeypatch)
    for hurst in (0.05, 0.1, 0.3, 0.45):
        for beta in (0.0, 1.0, 5.0):
            params = mk(H=hurst, beta=beta, gamma=0.5, nu=3.0, eta=1.0)
            for maturity in (1e-4, 0.02, 0.5, 2.0):
                vix_skew_approx(params, DELTA, maturity)
    assert len(counts) == 48
    assert max(counts) <= 135


@pytest.mark.parametrize("maturity", [1e-4, 1e-2])
def test_vix_skew_outer_rule_needs_its_decay_edges(maturity, monkeypatch):
    # At beta delta = 20 the squared kernel mass falls by e^-14 between
    # w_beta and 2 w_beta. Without the decay-scale edges one doubling panel
    # spans that fall, and its Kronrod-Gauss gap exceeds the tolerance.
    params = mk(H=0.5, beta=20.0, gamma=0.3, nu=1.0, eta=4.0)
    value, bound = asy.vix_skew_approx_err(params, 1.0, maturity)
    assert bound < 1e-3 * asy.QUAD_BOUND_TOL * max(1.0, abs(value))
    monkeypatch.setattr(asy, "_DECAY_EDGES", np.array([]))
    with pytest.raises(QuadratureError):
        asy.vix_skew_approx_err(params, 1.0, maturity)


def test_vix_skew_bound_carries_the_inner_error(monkeypatch):
    # The kernel mass off by 1e-6 relative puts Q_A = 1/2 int m^2 off by
    # about 2e-6 relative: its bound must take that from the inner rule's
    # error estimate, as the outer rule alone cannot see it.
    params = mk(H=0.1, beta=1.0, gamma=0.5, nu=3.0, eta=1.0)
    cross, cross_err, _, _ = asy._skew_numerators(params, DELTA, 0.25)
    assert cross_err < 1e-8 * cross
    real = asy._kernel_mass_rule

    def inflated(params, delta, maturity):
        kernel_mass, *rest = real(params, delta, maturity)

        def off(gaps):
            mass, err = kernel_mass(gaps)
            return mass, err + 1e-6 * mass

        return off, *rest

    monkeypatch.setattr(asy, "_kernel_mass_rule", inflated)
    cross, cross_err, _, _ = asy._skew_numerators(params, DELTA, 0.25)
    assert cross_err >= 2e-6 * cross


def test_vix_skew_outer_rule_holds_its_tolerance_over_a_wide_grid(monkeypatch):
    # 2,835 configurations from H = 0.02 to 1/2, beta = 0 to 1e6 and T from
    # 1e-10 to 10, at three windows and three mixtures: no QuadratureError
    # and no numpy warning; 60 to 300 outer nodes each.
    counts = _outer_node_counts(monkeypatch)
    mixtures = [(1.0, 2.0, 0.0), (0.5, 3.0, 1.0), (0.3, 1.0, 4.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for hurst in (0.02, 0.05, 0.1, 0.2, 0.3, 0.45, 0.5):
            for beta in (0.0, 1.0, 5.0, 20.0, 1e6):
                for gamma, nu, eta in mixtures:
                    params = mk(H=hurst, beta=beta, gamma=gamma, nu=nu, eta=eta)
                    for delta in (1.0 / 365.0, DELTA, 1.0):
                        for maturity in (1e-10, 1e-8, 1e-6, 1e-4, 1e-2, 0.1, 0.5, 2.0, 10.0):
                            value, bound = asy.vix_skew_approx_err(params, delta, maturity)
                            assert bound <= asy.QUAD_BOUND_TOL * max(1.0, abs(value))
    assert len(counts) == 2835
    assert 60 <= min(counts) and max(counts) <= 300


# ---------------------------------------------------------------------------
# RV ATM level
# ---------------------------------------------------------------------------

def test_rv_atmi_limit_values():
    assert rv_atmi_limit(mk(H=0.5, nu=2.0)) == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-13)
    assert rv_atmi_limit(mk(nu=0.0, eta=0.0)) == 0.0
    expected = 2.0 * math.sqrt(0.2) / (0.6 * math.sqrt(2.2))
    assert rv_atmi_limit(mk(H=0.1, nu=2.0)) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(1.005038, abs=1e-6)


def test_rv_atmi_limit_independent_of_beta():
    assert rv_atmi_limit(mk(H=0.25, beta=3.0)) == rv_atmi_limit(mk(H=0.25))


def test_rv_atmi_approx_beta_zero_reduction_exact():
    params = mk(H=0.3)
    for maturity in (0.05, 0.25, 1.0):
        expected = rv_atmi_limit(params) * maturity ** (params.H - 0.5)
        assert rv_atmi_approx(params, maturity) == pytest.approx(expected, rel=1e-12)


def test_rv_atmi_approx_beta_positive_consistency():
    params = mk(H=0.3, beta=1.0)
    maturity = 1e-6
    rescaled = maturity ** (0.5 - params.H) * rv_atmi_approx(params, maturity)
    assert rescaled == pytest.approx(rv_atmi_limit(params), rel=1e-3)


def test_rv_atmi_approx_quadrature_oracle_beta_positive():
    # Brute midpoint evaluation of the double integral for beta > 0.
    params = mk(H=0.3, beta=1.0)
    maturity = 0.25
    n = 4000
    s = (np.arange(n) + 0.5) * maturity / n
    inner = np.array([
        integrate(
            lambda u: (u - float(si)) ** (params.H - 0.5) * np.exp(-params.beta * (u - float(si))),
            float(si), maturity,
            QuadSpec(abs_tol=1e-14, rel_tol=1e-11, singular_exponent=params.H - 0.5),
        )
        for si in s[:: n // 40]
    ])
    # coarse check on a thinned grid: compare the integrand profile
    closed = params.beta ** -(params.H + 0.5) * np.array([
        scipy.special.gammainc(params.H + 0.5, params.beta * (maturity - float(si)))
        * scipy.special.gamma(params.H + 0.5)
        for si in s[:: n // 40]
    ])
    np.testing.assert_allclose(inner, closed, rtol=1e-9)
    value = rv_atmi_approx(params, maturity)
    pref = params.volvol_mean * math.sqrt(2.0 * params.H)
    full_inner = params.beta ** -(params.H + 0.5) * scipy.special.gammainc(
        params.H + 0.5, params.beta * (maturity - s)
    ) * scipy.special.gamma(params.H + 0.5)
    brute = pref / maturity ** 1.5 * math.sqrt(float(np.sum(full_inner ** 2)) * maturity / n)
    assert value == pytest.approx(brute, rel=1e-5)


# ---------------------------------------------------------------------------
# RV skew constant and limit
# ---------------------------------------------------------------------------

def test_rv_skew_constant_classical_case_closed_form():
    # H = 1/2: the hypergeometric factor is 1 and the nested integral
    # evaluates to T^5/15, so the constant is exactly 1/15.
    assert rv_skew_constant(0.5) == pytest.approx(1.0 / 15.0, rel=1e-9)


def test_rv_skew_constant_positive():
    for hurst in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        assert rv_skew_constant(hurst) > 0.0


def test_rv_skew_constant_brute_force_tensor_oracle():
    # Independent route: raw (s, u) tensor quadrature using scipy's 2F1,
    # with the inner substitution w = (u-s)^(H+1/2).
    hurst, maturity = 0.3, 1e-4
    q = 1.0 / (hurst + 0.5)
    n = 260
    s = (np.arange(n) + 0.5) * maturity / n
    xi = ((np.arange(n) + 0.5) / n)[None, :]
    w_max = (maturity - s)[:, None] ** (hurst + 0.5)
    u = s[:, None] + (w_max * xi) ** q
    z = (maturity - u) / (s[:, None] - u)
    hyp = scipy.special.hyp2f1(0.5 - hurst, hurst + 0.5, hurst + 1.5, z)
    inner = np.sum((maturity - u) ** (2.0 * hurst + 1.0) * hyp, axis=1) * (
        w_max[:, 0] / n
    ) / (hurst + 0.5) ** 2
    outer = float(np.sum((maturity - s) ** (hurst + 0.5) * inner)) * maturity / n
    oracle = outer / maturity ** (4.0 * hurst + 3.0)
    assert rv_skew_constant(hurst) == pytest.approx(oracle, rel=5e-3)


def _overlap_mpmath(hurst):
    """I(H) = 1/2 int_0^1 J^2 with the closed form
    J(rho) = rho^(H+1/2) 2F1(-H-1/2, 1; H+3/2; rho)/(H+1/2), 30 digits."""
    import mpmath

    with mpmath.workdps(30):
        h = mpmath.mpf(hurst)
        a = h + mpmath.mpf(1) / 2

        def j(rho):
            return rho ** a * mpmath.hyp2f1(-a, 1, h + mpmath.mpf(3) / 2, rho) / a

        return float(mpmath.quad(lambda rho: j(rho) ** 2, [0, 0.5, 1]) / 2)


@pytest.mark.parametrize("hurst", [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.49, 0.5])
def test_rv_skew_constant_matches_mpmath_within_its_bound(hurst):
    value, bound = asy._rv_skew_constant_err(hurst)
    reference = _overlap_mpmath(hurst)
    assert value == rv_skew_constant(hurst)
    assert abs(value - reference) <= 1e-14 * reference
    assert abs(value - reference) <= bound


def test_rv_skew_constant_classical_case_to_two_ulps():
    assert abs(rv_skew_constant(0.5) - 1.0 / 15.0) <= 2.0 * math.ulp(1.0 / 15.0)


def test_rv_skew_constant_keeps_its_cache():
    # perfbench's tracer reads the hit count of this cache.
    rv_skew_constant(0.3)
    assert rv_skew_constant.cache_info().currsize >= 1


def test_rv_skew_constant_builds_no_legendre_rule_per_hurst(monkeypatch):
    # Two cold Hurst exponents share the one Gauss-Legendre panel rule.
    builds = []
    leggauss = np.polynomial.legendre.leggauss
    monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                        lambda n: builds.append(n) or leggauss(n))
    for hurst in (0.137, 0.263):
        asy._rv_skew_constant_err.cache_clear()
        asy._rv_skew_constant_err(hurst)
    assert len(builds) <= 1


def test_rv_skew_limit_equal_volvol_collapse():
    hurst, c = 0.3, 1.4
    params = mk(H=hurst, gamma=0.6, nu=c, eta=c)
    overlap = rv_skew_constant(hurst)
    expected = math.sqrt(2.0 * hurst) * c * (
        overlap * (2.0 * hurst + 2.0) ** 1.5 * (hurst + 0.5)
        - 1.0 / ((2.0 * hurst + 1.0) * math.sqrt(2.0 * hurst + 2.0))
    )
    assert rv_skew_limit(params) == pytest.approx(expected, rel=1e-12)


def test_rv_skew_limit_homogeneous_in_volvol():
    base = rv_skew_limit(mk(H=0.2, gamma=0.5, nu=2.0, eta=0.5))
    scaled = rv_skew_limit(mk(H=0.2, gamma=0.5, nu=4.0, eta=1.0))
    assert scaled == pytest.approx(2.0 * base, rel=1e-12)


def test_rv_skew_constant_rejects_bad_inputs():
    with pytest.raises(ValueError):
        rv_skew_constant(0.0)
    with pytest.raises(ValueError):
        rv_skew_constant(0.6)


# ---------------------------------------------------------------------------
# Heston skew sign
# ---------------------------------------------------------------------------

def test_heston_small_reversion_limit():
    value = heston_vix_skew_sign(1e-6, 0.5, DELTA)
    assert value == pytest.approx(-(0.5 ** 2) / 4.0, rel=1e-4)
    assert value < 0.0


def test_heston_market_conditions_negative():
    value = heston_vix_skew_sign(1.0, 0.3, DELTA)
    k_delta = 1.0 * DELTA
    decay = 1.0 - math.exp(-k_delta)
    expected = (0.3 ** 2 * decay / (4.0 * k_delta)) * (1.0 - 2.0 * decay / k_delta)
    assert value == pytest.approx(expected, rel=1e-12)
    assert value < 0.0


def test_heston_sign_flip_at_large_reversion():
    assert heston_vix_skew_sign(100.0, 0.3, 1.0) > 0.0


def test_heston_skew_sign_keeps_its_bits():
    # C3's k = 1 value and the README command's row: no variance level
    # enters the driver.
    assert heston_vix_skew_sign(1.0, 0.25, DELTA) == -0.013800322355636829


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["k", "nu", "delta"])
def test_heston_skew_sign_rejects_nonpositive_or_nonfinite_inputs(name, bad):
    args = {"k": 1.0, "nu": 0.25, "delta": DELTA, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        heston_vix_skew_sign(**args)


# ---------------------------------------------------------------------------
# quadrature bounds and scale
# ---------------------------------------------------------------------------

def test_evaluate_closed_forms():
    # The mixed SABR skew reads neither the Hurst exponent nor a window.
    params = mk(H=0.5, gamma=0.5, nu=3.0, eta=1.0)
    value = sabr_mixed_vix_skew(params.gamma, params.nu, params.eta)
    assert value == pytest.approx(0.25, abs=1e-12)
    assert vix_skew_limit(params, DELTA) == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("hurst,beta", [(0.1, 0.0), (0.25, 0.0), (0.3, 0.0), (0.3, 1.0),
                                        (0.5, 0.0)])
@pytest.mark.parametrize("mixed", [False, True])
def test_mixed_model_formulas_are_scale_free_in_v0(hurst, beta, mixed):
    # v multiplies by v0, so the VIX scales by sqrt(v0) and RV by v0: no ATM
    # implied vol or skew reads it, and no formula's bits move.
    def values(v0):
        params = (mk(v0=v0, H=hurst, beta=beta, gamma=0.5, nu=3.0, eta=1.0) if mixed
                  else mk(v0=v0, H=hurst, beta=beta))
        limits = [vix_atmi_limit(params, DELTA), vix_skew_limit(params, DELTA),
                  sabr_mixed_vix_skew(params.gamma, params.nu, params.eta),
                  rv_atmi_limit(params), rv_skew_limit(params)]
        return limits + [value for maturity in (1e-3, 0.1, 1.0)
                         for value in (vix_atmi_approx(params, DELTA, maturity),
                                       vix_skew_approx(params, DELTA, maturity),
                                       rv_atmi_approx(params, maturity))]

    base = values(0.04)
    for v0 in (0.01, 0.09, 0.25, 1.0):
        assert values(v0) == base, v0


def _vix_atmi_approx_mpmath(hurst, maturity):
    # beta = 0, gamma = 1, nu = 2: K-bar(s) in closed form, the square
    # integrated at 30 digits.
    import mpmath

    with mpmath.workdps(30):
        a = mpmath.mpf(hurst) + 0.5
        t, d = mpmath.mpf(maturity), mpmath.mpf(DELTA)
        w_int = mpmath.quad(lambda s: (((t + d - s) ** a - (t - s) ** a) / a) ** 2, [0, t])
        fprime = 0.04 * 2.0 * mpmath.sqrt(2 * mpmath.mpf(hurst))
        return float(fprime * mpmath.sqrt(w_int) / (0.04 * 2 * d * mpmath.sqrt(t)))


@pytest.mark.parametrize("maturity", [1e-3, 0.1, 0.5])
def test_evaluate_bound_covers_the_quadrature_error(maturity):
    value, bound = asy.vix_atmi_approx_err(mk(H=0.3), DELTA, maturity)
    reference = _vix_atmi_approx_mpmath(0.3, maturity)
    assert 0.0 < bound < 1e-9 * abs(value)
    assert abs(value - reference) <= bound


@pytest.mark.parametrize(
    "form, params, args",
    [
        ("vix_atmi_approx_err", mk(H=0.1, beta=1.0), (DELTA, 0.2)),
        ("vix_skew_approx_err", mk(H=0.3, gamma=0.5, nu=3.0, eta=1.0), (DELTA, 0.05)),
        ("rv_atmi_approx_err", mk(H=0.1, beta=1.0), (0.2,)),
        ("rv_skew_limit_err", mk(H=0.2, gamma=0.5, nu=3.0, eta=1.0), ()),
    ],
)
def test_evaluate_reports_achieved_bounds(form, params, args):
    # Achieved bounds, not a fixed 1e-8: positive and far below it here.
    value, bound = getattr(asy, form)(params, *args)
    assert 0.0 < bound < 5e-9 * max(1.0, abs(value))


def test_evaluate_rv_atmi_approx_closed_form_has_zero_bound():
    params = mk(H=0.3, beta=0.0)
    assert asy.rv_atmi_approx_err(params, 0.2) == (rv_atmi_approx(params, 0.2), 0.0)


def test_evaluate_skew_rejects_degenerate_mixture():
    with pytest.raises(DegenerateModelError):
        asy.rv_skew_limit_err(mk(nu=0.0))


def _rv_power_law(params, maturity):
    """rv_atmi_approx where beta T is negligible, f'(0) T^(a-1) / (a sqrt(2a+1)),
    at 30 digits. a is the exponent the form computes with: H + 1/2 as a
    float for beta > 0, where G = int_0^sigma k, and H + 1/2 exactly for
    the closed form at beta = 0. At T = 1e-300 an ulp of a moves T^(a-1) by
    8e-14."""
    import mpmath

    with mpmath.workdps(30):
        a = mpmath.mpf(params.H + 0.5) if params.beta > 0.0 else mpmath.mpf(params.H) + 0.5
        fprime = mpmath.mpf(params.volvol_mean) * mpmath.sqrt(2 * mpmath.mpf(params.H))
        return float(fprime * mpmath.mpf(maturity) ** (a - 1) / (a * mpmath.sqrt(2 * a + 1)))


@pytest.mark.parametrize("beta", [0.0, 5.0])
@pytest.mark.parametrize("maturity", [1e-104, 1e-110, 1e-200, 1e-300, 5e-324])
def test_approximations_at_tiny_maturities_hold_their_bounds_or_raise(maturity, beta):
    # Far below every scale of the model each approximation is its limit.
    # A form answers within its bound of it, or raises UnderflowError where
    # one of its sums or products would come too close to the subnormal
    # range; no numpy warning is raised on the way. The VIX skew stops first
    # (W^(5/2) sqrt(T) underflows below T ~ 1e-101), the RV level integral
    # at beta > 0 next (about T^2.6), and W itself last.
    params = mk(H=0.3, beta=beta, gamma=0.5, nu=3.0, eta=1.0)
    forms = {
        "vix_atmi": (lambda: asy.vix_atmi_approx_err(params, DELTA, maturity),
                     vix_atmi_limit(params, DELTA)),
        "vix_skew": (lambda: asy.vix_skew_approx_err(params, DELTA, maturity),
                     vix_skew_limit(params, DELTA)),
        "rv_atmi": (lambda: asy.rv_atmi_approx_err(params, maturity),
                    _rv_power_law(params, maturity)),
    }
    answered = set()
    for name, (form, reference) in forms.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                value, bound = form()
            except asy.UnderflowError:
                continue
        assert abs(value - reference) <= bound + 4.0 * math.ulp(reference), name
        answered.add(name)
    expected = {"vix_atmi"} if maturity >= 1e-300 else set()
    if beta == 0.0 or maturity >= 1e-110:
        expected.add("rv_atmi")
    assert answered == expected


def test_asymptote_run_names_the_underflow(capsys):
    # The VIX level still answers at T = 1e-300; the skew's row after it is
    # an error row, and its comment names the underflow.
    assert main(["asymptote", "--hurst", "0.3", "--beta", "5", "--gamma", "0.5",
                 "--nu", "3", "--eta", "1", "--T", "1e-300"]) == 1
    rows = capsys.readouterr().out.splitlines()[-3:]
    assert rows[0].startswith("VIX_ATMI_APPROX,1e-300,") and rows[0].endswith(",ok")
    assert rows[1] == "VIX_SKEW_APPROX,1e-300,,,error"
    assert rows[2].startswith("# error at VIX_SKEW_APPROX T=1e-300: UnderflowError(")


def test_inflated_quadrature_bound_raises_in_every_form(monkeypatch, capsys):
    # The bound check sits in the forms' _err functions: once every
    # fixed-rule panel reports a unit error, each public form and its _err
    # function raise, the error carries the estimate and its bound, and an
    # asymptote run of the same parameters exits 1.
    params = mk(H=0.217, beta=1.0, gamma=0.5, nu=3.0, eta=1.0)
    forms = [
        (lambda: asy.vix_atmi_approx_err(params, DELTA, 0.5),
         lambda: vix_atmi_approx(params, DELTA, 0.5)),
        (lambda: asy.vix_skew_approx_err(params, DELTA, 0.5),
         lambda: vix_skew_approx(params, DELTA, 0.5)),
        (lambda: asy.rv_atmi_approx_err(params, 0.5), lambda: rv_atmi_approx(params, 0.5)),
        (lambda: asy.rv_skew_limit_err(params), lambda: rv_skew_limit(params)),
    ]
    expected = [err()[0] for err, _ in forms]
    monkeypatch.setattr(asy, "kronrod_bound", lambda kronrod, gap: np.ones_like(kronrod))
    rv_skew_constant.cache_clear()
    asy._rv_skew_constant_err.cache_clear()
    try:
        for (err, form), estimate in zip(forms, expected):
            with pytest.raises(QuadratureError, match="module tolerance") as excinfo:
                form()
            assert excinfo.value.estimate == pytest.approx(estimate, rel=1e-12)
            assert excinfo.value.error_bound > asy.QUAD_BOUND_TOL * max(
                1.0, abs(excinfo.value.estimate))
            with pytest.raises(QuadratureError):
                err()
        assert main(["asymptote", "--hurst", "0.217", "--beta", "1", "--gamma", "0.5",
                     "--nu", "3", "--eta", "1", "--T", "0.5"]) == 1
        assert "module tolerance" in capsys.readouterr().err
    finally:
        rv_skew_constant.cache_clear()
        asy._rv_skew_constant_err.cache_clear()
