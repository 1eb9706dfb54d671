"""Tests for the special-function and quadrature primitives.

Oracles: closed forms where they exist, adaptive quadrature of defining
integrals for the incomplete gamma, its scalar path and scipy for the array
path, an independent adaptive Euler-integral quadrature and the composite
Euler rule for 2F1, and mpmath as a high-precision reference.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from vixsmile import specfun
from vixsmile.specfun import (
    QuadratureError,
    QuadSpec,
    gauss_2f1,
    gauss_jacobi,
    gauss_kronrod_15,
    geometric_rule,
    integrate,
    integrate_err,
    kronrod_bound,
    lower_incomplete_gamma,
    normal_cdf,
    normal_pdf,
    window_rule,
)


# ---------------------------------------------------------------------------
# lower incomplete gamma
# ---------------------------------------------------------------------------

def _gamma_quadrature_oracle(a, x, tol=1e-12):
    """Defining integral of gamma(a, x), evaluated independently."""
    spec = QuadSpec(abs_tol=tol, rel_tol=1e-12, singular_exponent=min(0.0, a - 1.0))
    return integrate(lambda t: t ** (a - 1.0) * np.exp(-t), 0.0, x, spec)


def test_gamma_exponential_case():
    # gamma(1, x) = 1 - e^-x
    assert lower_incomplete_gamma(1.0, 2.0) == pytest.approx(
        1.0 - math.exp(-2.0), abs=1e-14
    )


def test_gamma_zero_argument():
    assert lower_incomplete_gamma(0.8, 0.0) == 0.0


def test_gamma_matches_quadrature_oracle():
    oracle = _gamma_quadrature_oracle(0.8, 1.5)
    assert lower_incomplete_gamma(0.8, 1.5) == pytest.approx(oracle, abs=1e-10)


def test_gamma_quadrature_grid():
    # 100-point (a, x) grid against the defining-integral oracle.
    for a in np.linspace(0.1, 3.0, 10):
        for x in np.linspace(0.05, 8.0, 10):
            oracle = _gamma_quadrature_oracle(float(a), float(x))
            assert lower_incomplete_gamma(float(a), float(x)) == pytest.approx(
                oracle, abs=1e-10
            ), (a, x)


def test_gamma_saturates_at_gamma_function():
    for a in (0.3, 0.75, 1.0, 2.5):
        assert lower_incomplete_gamma(a, 700.0) == pytest.approx(
            math.gamma(a), rel=1e-13
        )


@given(
    a=st.floats(0.05, 5.0),
    x1=st.floats(0.0, 20.0),
    x2=st.floats(0.0, 20.0),
)
@settings(max_examples=200, deadline=None)
def test_gamma_monotone_in_x(a, x1, x2):
    lo, hi = sorted((x1, x2))
    assert lower_incomplete_gamma(a, lo) <= lower_incomplete_gamma(a, hi) + 1e-15


@pytest.mark.parametrize(
    "a,x",
    [(-1.0, 1.0), (0.0, 1.0), (1.0, -0.5), (math.nan, 1.0), (1.0, math.inf)],
)
def test_gamma_domain_errors(a, x):
    with pytest.raises(ValueError):
        lower_incomplete_gamma(a, x)


def _gamma_array_grid(a):
    # Zero, a log-spread from 1e-300 to 700, and both sides of the branch
    # point x = a + _SERIES_REACH between the series and the continued fraction.
    cut = a + specfun._SERIES_REACH
    return np.concatenate([
        [0.0, np.nextafter(a + 1.0, 0.0), a + 1.0, np.nextafter(cut, 0.0), cut, 700.0],
        np.geomspace(1e-300, 700.0, 400),
        np.linspace(0.0, 3.0 * (a + 1.0), 200),
        np.linspace(0.0, 2.0 * cut, 200),
    ])


@pytest.mark.parametrize("a", np.linspace(0.05, 3.0, 12))
def test_gamma_array_matches_scalar_path(a):
    x = _gamma_array_grid(a)
    cut = a + specfun._SERIES_REACH
    assert np.any(x < cut) and np.any(x >= cut)
    scalar = np.array([lower_incomplete_gamma(a, float(v)) for v in x])
    array = lower_incomplete_gamma(a, x)
    np.testing.assert_allclose(array, scalar, rtol=1e-14, atol=0.0)
    # Each element at or past the cut takes the scalar continued fraction.
    assert np.array_equal(array[x >= cut], scalar[x >= cut])


@pytest.mark.parametrize("a", [0.05, 0.3, 0.6, 0.8, 1.0, 1.7, 3.0])
def test_gamma_array_matches_scipy(a):
    x = _gamma_array_grid(a)
    reference = scipy.special.gammainc(a, x) * math.gamma(a)
    # Away from scipy's underflow of the regularised value to zero.
    normal = reference > 1e-290
    # scipy forms the prefactor as exp(a log x - x), which rounds to about
    # eps (a |log x| + x) relative (1e-13 at a = 1.7, x = 1e-163). Where that
    # exceeds a tenth of the tolerance, mpmath is the reference instead.
    coarse = normal & (2.0 ** -52 * (a * np.abs(np.log(x, where=x > 0.0, out=np.zeros_like(x))) + x) > 1e-14)
    with mpmath.workdps(30):
        reference[coarse] = [float(mpmath.gammainc(a, 0, mpmath.mpf(v))) for v in x[coarse].tolist()]
    np.testing.assert_allclose(
        lower_incomplete_gamma(a, x)[normal], reference[normal], rtol=1e-13
    )


def test_gamma_array_keeps_shape_and_scalar_gives_float():
    x = np.linspace(0.0, 9.0, 12).reshape(3, 4)
    out = lower_incomplete_gamma(0.6, x)
    assert isinstance(out, np.ndarray) and out.shape == (3, 4)
    assert out[1, 2] == lower_incomplete_gamma(0.6, float(x[1, 2]))
    for scalar in (1.5, np.float64(1.5), np.array(1.5)):
        assert type(lower_incomplete_gamma(0.6, scalar)) is float


@pytest.mark.parametrize(
    "a,x",
    [
        (0.6, np.array([1.0, -1e-300, 2.0])),
        (0.6, np.array([[1.0, math.nan]])),
        (0.6, np.array([1.0, math.inf])),
        (0.0, np.array([1.0, 2.0])),
        (-0.5, np.array([1.0])),
    ],
)
def test_gamma_array_domain_errors(a, x):
    with pytest.raises(ValueError):
        lower_incomplete_gamma(a, x)


@pytest.mark.parametrize("a", [0.02, 0.1, 0.3, 0.6, 0.8, 1.0, 1.5, 3.0])
def test_gamma_both_sides_of_the_branch_point_match_mpmath(a):
    # The series reaches past x = a + 1, where the continued fraction takes
    # up to about 60 steps: both paths hold 2e-15 on both sides of the cut.
    cut = a + specfun._SERIES_REACH
    x = np.concatenate([
        a + np.linspace(0.5, specfun._SERIES_REACH, 12)[:-1],
        [np.nextafter(cut, 0.0), cut],
        cut + np.linspace(0.0, 6.0, 7)[1:],
    ])
    with mpmath.workdps(30):
        reference = np.array([float(mpmath.gammainc(a, 0, mpmath.mpf(v))) for v in x])
    scalar = np.array([lower_incomplete_gamma(a, float(v)) for v in x])
    for values in (scalar, lower_incomplete_gamma(a, x)):
        np.testing.assert_allclose(values, reference, rtol=2e-15, atol=0.0)


def test_gamma_array_zero_in_series_range_is_exactly_zero():
    # x = 0 takes the series with the others; pytest makes a log(0)
    # RuntimeWarning an error.
    x = np.array([0.0, 1e-3, 0.0, 2.5, 0.0])
    out = lower_incomplete_gamma(0.6, x)
    assert np.all(out[x == 0.0] == 0.0)
    assert np.all(out[x > 0.0] > 0.0)
    assert np.array_equal(lower_incomplete_gamma(0.6, np.zeros(3)), np.zeros(3))


def test_gamma_shape_up_to_100_and_no_further():
    # At a = 100, x^a stays finite over the series range (104^100 < 1e202),
    # so both paths keep the prefactor x^a e^-x; past 100 the shape is
    # rejected rather than sent to an overflowing power.
    a = 100.0
    x = np.array([0.0, 1.0, 0.5 * a, a - 30.0, a, a + 3.9, a + 10.0])
    with mpmath.workdps(30):
        reference = np.array([float(mpmath.gammainc(a, 0, mpmath.mpf(v))) for v in x])
    scalar = np.array([lower_incomplete_gamma(a, float(v)) for v in x])
    for values in (scalar, lower_incomplete_gamma(a, x)):
        np.testing.assert_allclose(values, reference, rtol=2e-14, atol=0.0)
    for shape in (np.nextafter(a, math.inf), math.inf, math.nan):
        with pytest.raises(ValueError, match="shape"):
            lower_incomplete_gamma(shape, 1.0)
        with pytest.raises(ValueError, match="shape"):
            lower_incomplete_gamma(shape, x)


@pytest.mark.parametrize("a", [150.0, 165.0])
def test_gamma_series_prefactor_past_the_power_overflow(a):
    # x^a overflows near the top of the series range at these shapes. The
    # series prefactor is x^a e^-x with no fallback, so both paths reject
    # the shape instead of returning inf or raising OverflowError.
    x = np.array([0.0, 1.0, 0.5 * a, a - 30.0, a, a + 3.9])
    assert a * math.log(x[-1]) > math.log(np.finfo(float).max)
    for v in x:
        with pytest.raises(ValueError, match="shape"):
            lower_incomplete_gamma(a, float(v))
    with pytest.raises(ValueError, match="shape"):
        lower_incomplete_gamma(a, x)


@pytest.mark.parametrize("shape", [(0,), (2, 0)])
def test_gamma_array_empty_gives_empty(shape):
    out = lower_incomplete_gamma(0.6, np.zeros(shape))
    assert out.shape == shape and out.dtype == np.float64


@pytest.mark.parametrize("a", [0.05, 0.6, 1.7, 3.0])
@pytest.mark.parametrize("size", [1, 10, 1324])
def test_gamma_array_series_sum_matches_mpmath(a, size):
    # gamma itself over the series range, log-spread from 1e-12 (x/cut) up.
    # The prefactor x^a e^-x rounds to a few ulps whatever x is; the
    # exp(a log x - x) it replaced was off by up to 1.2e-14 relative here
    # (a = 3, x = 4.5e-10), its rounding growing with a |log x| + x.
    x = (a + specfun._SERIES_REACH) * np.geomspace(1e-12, 1.0, size + 2)[1:-1]
    with mpmath.workdps(30):
        reference = np.array([float(mpmath.gammainc(a, 0, v))
                              for v in map(mpmath.mpf, x.tolist())])
    np.testing.assert_allclose(lower_incomplete_gamma(a, x), reference, rtol=2e-15, atol=0.0)


def _horner_series_sum(a, x):
    """1 + sum_{n>=1} c_n x^n by Horner's rule in x, two in-place numpy calls
    per term: the series sum the block kernel replaced, kept as its oracle."""
    n_terms = specfun._series_sum(a, float(x.max()))[1]
    coefficients = [1.0] + np.cumprod(1.0 / (a + np.arange(1.0, n_terms))).tolist()
    total = np.full(x.shape, coefficients[-1])
    for c in reversed(coefficients[:-1]):
        np.multiply(total, x, out=total)
        np.add(total, c, out=total)
    return total


@pytest.mark.parametrize("a", [0.05, 0.6, 1.7, 3.0])
@pytest.mark.parametrize("size", [1, 10, 662, 1324])
def test_block_series_sum_matches_horner(a, size):
    # Largest elements from 1e-3 of the series range up to its top, so the
    # term counts run from 7 to 31-37, with zeros among the elements.
    padded = []
    for top in (a + specfun._SERIES_REACH) * np.geomspace(1e-3, 0.999, 8):
        x = top * np.geomspace(1.0, 1e-12, size)
        x[1::7] = 0.0
        n_terms = specfun._series_sum(a, float(x.max()))[1]
        table = specfun._series_table(a, n_terms)
        padded.append(table.size > n_terms)
        block = specfun._block_sum(table, x)
        np.testing.assert_allclose(block, _horner_series_sum(a, x), rtol=1e-15, atol=0.0)
        assert np.all(block[x == 0.0] == 1.0)
        gamma = lower_incomplete_gamma(a, x)
        assert np.all(gamma[x == 0.0] == 0.0) and np.all(gamma[x > 0.0] > 0.0)
    # Term counts that fill the last block and ones that do not.
    assert any(padded) and not all(padded)


def test_series_table_is_cached_and_read_only():
    table = specfun._series_table(0.6, 19)
    assert specfun._series_table(0.6, 19) is table
    assert table.shape == (4, 5) and table[0, 0] == 1.0 and table[-1, -1] == 0.0
    assert table[3, 3] == np.prod(1.0 / (0.6 + np.arange(1.0, 19.0)))
    with pytest.raises(ValueError):
        table[0, 1] = 0.5


@pytest.mark.parametrize("x", [0.5, 5.0])
def test_gamma_array_fails_loudly_without_convergence(monkeypatch, x):
    # Too few iterations for the series (x = 0.5) or the continued fraction.
    monkeypatch.setattr(specfun, "_GAMMA_MAX_ITER", 3)
    with pytest.raises(QuadratureError):
        lower_incomplete_gamma(0.6, np.array([1e-3, x]))


# ---------------------------------------------------------------------------
# Gaussian hypergeometric function
# ---------------------------------------------------------------------------

def _hyp2f1_euler_oracle(a, b, c, z):
    """Euler-integral quadrature with an independent (adaptive) scheme. The
    right half runs s = 1 - t from 0, so each half's endpoint power law sits
    at its lower limit."""
    pref = math.exp(math.lgamma(c) - math.lgamma(b) - math.lgamma(c - b))

    def f(t):
        return t ** (b - 1.0) * (1.0 - t) ** (c - b - 1.0) * (1.0 - z * t) ** (-a)

    def f_reflected(s):
        return s ** (c - b - 1.0) * (1.0 - s) ** (b - 1.0) * (1.0 - z * (1.0 - s)) ** (-a)

    left = integrate(
        f, 0.0, 0.5,
        QuadSpec(abs_tol=1e-13, rel_tol=1e-12, singular_exponent=min(0.0, b - 1.0)),
    )
    right = integrate(
        f_reflected, 0.0, 0.5,
        QuadSpec(abs_tol=1e-13, rel_tol=1e-12, singular_exponent=min(0.0, c - b - 1.0)),
    )
    return pref * (left + right)


def test_2f1_at_zero_is_one():
    assert gauss_2f1(0.2, 0.8, 1.8, 0.0) == pytest.approx(1.0, abs=1e-14)
    assert gauss_2f1(-0.3, 1.2, 2.0, 0.0) == pytest.approx(1.0, abs=1e-14)


def test_2f1_log_identity():
    # 2F1(1, 1; 2; z) = -ln(1 - z)/z
    for z in (-1.0, -0.25, -7.5):
        assert gauss_2f1(1.0, 1.0, 2.0, z) == pytest.approx(
            -math.log1p(-z) / z, abs=1e-12
        )


def test_2f1_against_euler_quadrature_oracle():
    value = gauss_2f1(0.2, 0.8, 1.8, -3.0)
    assert value == pytest.approx(_hyp2f1_euler_oracle(0.2, 0.8, 1.8, -3.0), abs=1e-9)


def test_2f1_against_mpmath_on_model_range():
    # Parameters as they appear downstream: (1/2-H, H+1/2, H+3/2, z<=0).
    for hurst in (0.05, 0.1, 0.3, 0.5):
        a, b, c = 0.5 - hurst, hurst + 0.5, hurst + 1.5
        for z in (0.0, -1e-6, -0.5, -1.0, -10.0, -1e4, -1e8):
            ref = float(mpmath.hyp2f1(a, b, c, z))
            assert gauss_2f1(a, b, c, z) == pytest.approx(ref, abs=1e-10, rel=1e-9), (
                hurst, z,
            )


def test_2f1_array_argument_matches_scalar():
    z = np.array([0.0, -0.5, -2.0, -100.0])
    arr = gauss_2f1(0.25, 0.75, 1.75, z)
    scalars = [gauss_2f1(0.25, 0.75, 1.75, float(v)) for v in z]
    np.testing.assert_allclose(arr, scalars, rtol=0, atol=1e-14)


# z over 24 decades plus the branch points: z = -1 is w = 1/2, the edge of
# the series; z = -1e12 puts 1 - w = 1/(1 - z) at 1e-12, where forming
# 1 - w by subtraction would cancel.
_Z_GRID = np.concatenate([-np.logspace(-12.0, 12.0, 49), [0.0, -1.0]])


@pytest.mark.parametrize(
    "a,b,c",
    [(0.5 - h, h + 0.5, h + 1.5) for h in (0.05, 0.1, 0.3, 0.49, 0.5)]
    + [(1.0, 1.0, 2.0), (0.2, 0.8, 1.8)],
)
def test_2f1_matches_composite_euler_oracle(a, b, c):
    # The composite Euler rule is the oracle for the series and connection
    # branches (it is also the branch taken at an integer b - a).
    value = gauss_2f1(a, b, c, _Z_GRID)
    oracle = specfun._euler_2f1(a, b, c, _Z_GRID)
    np.testing.assert_allclose(value, oracle, rtol=1e-13, atol=0.0)
    scalars = np.array([gauss_2f1(a, b, c, float(z)) for z in _Z_GRID])
    assert np.array_equal(value, scalars)


@pytest.mark.parametrize("gap", [1e-6, -1e-6, 0.06, -0.06])
def test_2f1_near_integer_b_minus_a(gap):
    # b - a = 1 + gap: within the degenerate band (Euler integral) and just
    # outside it (connection formula, whose two terms grow like 1/gap).
    a, b, c = 0.3, 1.3 + gap, 2.1
    value = gauss_2f1(a, b, c, _Z_GRID)
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.hyp2f1(a, b, c, z)) for z in _Z_GRID])
    np.testing.assert_allclose(value, ref, rtol=1e-13, atol=0.0)


def test_2f1_arctan_identity_on_the_connection_branch():
    # 2F1(1/2, 1; 3/2; -x^2) = arctan(x)/x; w = x^2/(1 + x^2) > 1/2 here.
    for x in (2.0, 1e3, 1e6):
        assert gauss_2f1(0.5, 1.0, 1.5, -x * x) == pytest.approx(
            math.atan(x) / x, rel=1e-14, abs=0.0
        )


@pytest.mark.parametrize(
    "a,b,c,z",
    [
        (0.2, 0.0, 1.0, -1.0),   # b <= 0
        (0.2, 1.5, 1.5, -1.0),   # c <= b
        (0.2, 0.8, 1.8, 0.5),    # z > 0
        (math.nan, 0.8, 1.8, -1.0),
        (0.2, 0.8, 1.8, math.nan),
    ],
)
def test_2f1_domain_errors(a, b, c, z):
    with pytest.raises(ValueError):
        gauss_2f1(a, b, c, z)


# ---------------------------------------------------------------------------
# standard normal law
# ---------------------------------------------------------------------------

def test_normal_cdf_center_and_tail():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(10.0) == pytest.approx(1.0, abs=1e-15)
    assert normal_cdf(1.0) == pytest.approx(float(mpmath.ncdf(1)), abs=1e-15)


@given(x=st.floats(-8.0, 8.0))
@settings(max_examples=200, deadline=None)
def test_normal_cdf_symmetry(x):
    assert normal_cdf(x) + normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)


def test_normal_cdf_rejects_nan():
    with pytest.raises(ValueError):
        normal_cdf(math.nan)


def test_normal_pdf_matches_reference():
    assert normal_pdf(0.7) == pytest.approx(float(mpmath.npdf(0.7)), abs=1e-16)


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------

def test_integrate_constant():
    assert integrate(lambda t: np.ones_like(t), 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_integrate_empty_interval():
    assert integrate(lambda t: t, 2.0, 2.0) == 0.0


def test_integrate_inverse_sqrt_singularity():
    # The exponent alone declares the lower-limit power law.
    spec = QuadSpec(singular_exponent=-0.5)
    assert integrate(lambda t: t ** -0.5, 0.0, 1.0, spec) == pytest.approx(2.0, rel=1e-12)


def test_integrate_cross_checks_incomplete_gamma():
    # int_0^D t^(H-1/2) e^(-beta t) dt = beta^(-H-1/2) gamma(H+1/2, beta D)
    hurst, beta, delta = 0.3, 2.0, 30.0 / 365.0
    spec = QuadSpec(singular_exponent=hurst - 0.5)
    value = integrate(lambda t: t ** (hurst - 0.5) * np.exp(-beta * t), 0.0, delta, spec)
    closed = beta ** (-hurst - 0.5) * lower_incomplete_gamma(hurst + 0.5, beta * delta)
    assert value == pytest.approx(closed, abs=1e-10)


def test_integrate_linearity():
    spec = QuadSpec()

    def f(t):
        return np.sin(3.0 * t)

    def g(t):
        return np.exp(-t) * t ** 2

    combined = integrate(lambda t: f(t) + g(t), 0.0, 2.0, spec)
    separate = integrate(f, 0.0, 2.0, spec) + integrate(g, 0.0, 2.0, spec)
    assert abs(combined - separate) <= 4.0 * spec.abs_tol


# The ids name the singular endpoint, the lower limit (the only one a
# QuadSpec can declare).
@pytest.mark.parametrize("alpha", [-0.85, -0.5, -0.25, -0.05], ids="left-{}".format)
def test_integrate_power_law_times_smooth(alpha):
    # f(t) = t^alpha (1 + t + t^2) against the termwise closed form.
    closed = sum(1.0 / (alpha + k + 1.0) for k in range(3))
    spec = QuadSpec(singular_exponent=alpha)
    value = integrate(lambda t: t ** alpha * (1.0 + t + t ** 2), 0.0, 1.0, spec)
    assert value == pytest.approx(closed, rel=1e-8)


def test_integrate_error_reports_estimate():
    # A jump at 1/3 cannot meet a 1e-300 tolerance: refinement stops at the
    # panel of floating-point width around it and reports what it has.
    spec = QuadSpec(abs_tol=1e-300, rel_tol=1e-300)
    with pytest.raises(QuadratureError) as excinfo:
        integrate(lambda t: np.where(t > 1.0 / 3.0, 1.0, 0.0), 0.0, 1.0, spec)
    assert excinfo.value.estimate == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert 0.0 < excinfo.value.error_bound < 1e-12


def test_integrate_raises_at_the_subdivision_cap(monkeypatch):
    # Undeclared sqrt(t) converges, but not within two panel splits.
    assert integrate(np.sqrt, 0.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-10)
    monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 2)
    with pytest.raises(QuadratureError) as excinfo:
        integrate(np.sqrt, 0.0, 1.0)
    assert excinfo.value.estimate == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_integrate_detects_nonintegrable_blowup():
    with pytest.raises(ValueError, match="divergent"):
        integrate(lambda t: t ** -1.5, 0.0, 1.0)


def test_integrate_rejects_nonfinite_values():
    def f(t):
        return np.where(t > 0.5, np.inf, 1.0)

    with pytest.raises(ValueError, match="finite"):
        integrate(f, 0.0, 1.0)


def test_integrate_rejects_reversed_interval():
    with pytest.raises(ValueError):
        integrate(lambda t: t, 1.0, 0.0)


def test_integrate_err_returns_bound():
    value, bound = integrate_err(lambda t: np.exp(-t), 0.0, 1.0)
    assert value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)
    assert 0.0 <= bound <= 1e-10


@pytest.mark.parametrize(
    "kwargs",
    [
        {"abs_tol": 0.0},
        {"rel_tol": -1.0},
        {"singular_exponent": math.nan},
        {"singular_exponent": -1.0},
        {"singular_exponent": 0.5},
    ],
)
def test_quadspec_validation(kwargs):
    with pytest.raises(ValueError):
        QuadSpec(**kwargs)


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [-0.45, -0.2, 0.0])
@pytest.mark.parametrize("n_nodes", [1, 4, 16])
def test_gauss_jacobi_exact_on_monomials(alpha, n_nodes):
    # int_0^1 x^k x^alpha dx = 1/(k + alpha + 1) for every k <= 2n - 1.
    nodes, weights = gauss_jacobi(alpha, n_nodes)
    assert np.all((nodes > 0.0) & (nodes < 1.0)) and np.all(weights > 0.0)
    for k in range(2 * n_nodes):
        exact = 1.0 / (k + alpha + 1.0)
        assert float(weights @ nodes ** k) == pytest.approx(exact, rel=1e-14, abs=0.0), k


@pytest.mark.parametrize("hurst", [0.02, 0.3, 0.5])
@pytest.mark.parametrize("n_nodes", [12, 16, 20])
def test_gauss_jacobi_low_moments_to_a_few_ulps(hurst, n_nodes):
    # The rule the kernel covariances and the overlap constant use, weight
    # x^(H - 1/2). The moment sums are formed exactly from the returned
    # doubles, so only the rule's own error is measured.
    alpha = hurst - 0.5
    nodes, weights = gauss_jacobi(alpha, n_nodes)
    for k in range(6):
        moment = sum(Fraction(w) * Fraction(x) ** k for x, w in zip(nodes, weights))
        error = float(moment * (Fraction(alpha) + k + 1) - 1)
        assert abs(error) <= 2.0 * np.finfo(float).eps, (k, error)


@pytest.mark.parametrize("hurst, n_nodes", [(0.02, 20), (0.3, 16), (0.7, 5)])
def test_gauss_jacobi_is_correctly_rounded(hurst, n_nodes):
    # Each node and weight is the double nearest the exact one: the zeros of
    # P_n^(0, alpha)(2x - 1) found at 40 digits by mpmath, and the weights
    # 1 / ((1 - y^2) P_n'(y)^2) with P_n' = (n + alpha + 1)/2 P_(n-1)^(1, alpha+1).
    alpha = hurst - 0.5
    nodes, weights = gauss_jacobi(alpha, n_nodes)
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        for x, w in zip(nodes, weights):
            y = mpmath.findroot(lambda t: mpmath.jacobi(n_nodes, 0, a, t), 2 * mpmath.mpf(x) - 1)
            slope = (n_nodes + a + 1) / 2 * mpmath.jacobi(n_nodes - 1, 1, a + 1, y)
            assert float((1 + y) / 2) == x
            assert float(1 / ((1 - y * y) * slope ** 2)) == w


def test_gauss_jacobi_without_weight_is_gauss_legendre():
    nodes, weights = gauss_jacobi(0.0, 16)
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(16)
    np.testing.assert_allclose(nodes, 0.5 * (gl_nodes + 1.0), rtol=1e-14, atol=1e-16)
    np.testing.assert_allclose(weights, 0.5 * gl_weights, rtol=1e-13)


def test_gauss_jacobi_is_cached_and_read_only():
    nodes, weights = gauss_jacobi(-0.2, 16)
    assert gauss_jacobi(-0.2, 16)[0] is nodes
    with pytest.raises(ValueError):
        nodes[0] = 0.5


def _polish_through_calls(alpha, n_nodes):
    """gauss_jacobi's fixed-point Newton polish with one Python call per
    product, as it was before the products were written inline: the oracle
    of the inline arithmetic, from the same starting eigenvalues."""
    bits = specfun._POLISH_BITS
    one = 1 << bits

    def mul(a, b):
        return a * b >> bits

    def div(a, b):
        return (a << bits) // b

    a = specfun._fixed(alpha)
    steps = []
    for m in range(2, n_nodes + 1):
        s = (2 * m << bits) + a
        c1 = mul(2 * m * ((m << bits) + a), s - 2 * one)
        c2 = mul(mul(s - one, s), s - 2 * one)
        c3 = mul(s - one, mul(a, a))
        c4 = mul(2 * (m - 1) * ((m - 1 << bits) + a), s)
        steps.append((div(c2, c1), div(c3, c1), div(c4, c1)))
    k = np.arange(n_nodes, dtype=float)
    s = 2.0 * k + alpha
    diag = np.empty(n_nodes)
    diag[0] = alpha / (alpha + 2.0)
    diag[1:] = alpha ** 2 / (s[1:] * (s[1:] + 2.0))
    k1, s1 = k[1:], s[1:]
    off = np.sqrt(4.0 * k1 ** 2 * (k1 + alpha) ** 2 / (s1 ** 2 * (s1 + 1.0) * (s1 - 1.0)))
    jacobi = np.diag(0.5 * (1.0 + diag)) + np.diag(0.5 * off, 1) + np.diag(0.5 * off, -1)
    nodes, weights = [], []
    for x in np.linalg.eigvalsh(jacobi):
        y = 2 * specfun._fixed(float(x)) - one
        p0, p1 = one, (mul(a + 2 * one, y) - a) // 2
        d0, d1 = 0, (a + 2 * one) // 2
        for a_m, b_m, c_m in steps:
            lin = mul(a_m, y) - b_m
            p0, p1 = p1, mul(lin, p1) - mul(c_m, p0)
            d0, d1 = d1, mul(lin, d1) + mul(a_m, p0) - mul(c_m, d0)
        step = -div(p1, d1)
        jacobi_eq = mul(a - mul(a + 2 * one, y), d1) + mul(n_nodes * ((n_nodes + 1 << bits) + a), p1)
        curvature = -div(jacobi_eq, one - mul(y, y))
        y, slope = y + step, d1 + mul(curvature, step)
        nodes.append((one + y) / (2 * one))
        weights.append(one / mul(one - mul(y, y), mul(slope, slope)))
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("alpha", [-0.49, -0.4, -0.2, 0.0, 0.3, 1.5])
@pytest.mark.parametrize("n_nodes", [1, 2, 5, 12, 16, 20])
def test_gauss_jacobi_polish_is_bit_identical_to_one_call_per_product(alpha, n_nodes):
    nodes, weights = gauss_jacobi(alpha, n_nodes)
    ref_nodes, ref_weights = _polish_through_calls(alpha, n_nodes)
    assert nodes.tobytes() == ref_nodes.tobytes()
    assert weights.tobytes() == ref_weights.tobytes()


@pytest.mark.parametrize("alpha, n_nodes", [(-1.0, 4), (math.nan, 4), (0.0, 0)])
def test_gauss_jacobi_rejects_bad_inputs(alpha, n_nodes):
    with pytest.raises(ValueError):
        gauss_jacobi(alpha, n_nodes)


# ---------------------------------------------------------------------------
# Geometric panels
# ---------------------------------------------------------------------------

_EPS = 2.0 ** -52


@pytest.mark.parametrize(
    "inner, outer",
    [
        (1.0, 1.0),
        (1.0, 2.0),
        (0.7, 0.9),
        (0.3, 0.3 * 2.0 ** 7),
        (2.0 ** -44, 1.0),
        (1e-20, 0.5),
        (1e-300, 1e300),  # outer/inner overflows
        (5e-324, 1.0),
        # A few ulps past a power of two, where log2 rounds to the integer,
        # and an ulp below one.
        (1.0, 2.0 ** 10 * (1.0 + 3 * _EPS)),
        (0.3, 0.3 * 2.0 ** 40 * (1.0 + _EPS)),
        (1.0, 2.0 ** 10 * (1.0 - _EPS / 2)),
    ],
)
def test_doubling_edges(inner, outer):
    edges = specfun._doubling_edges(inner, outer)
    assert edges[0] == inner and edges[-1] == outer
    ratios = edges[1:] / edges[:-1]
    assert np.all(ratios[:-1] == 2.0)
    assert np.all((ratios > 1.0) & (ratios <= 2.0))
    # count = ceil(log2(outer/inner)), tested with exact products.
    count = edges.size - 1
    assert math.ldexp(inner, count) >= outer
    assert count == 0 or math.ldexp(inner, count - 1) < outer


@pytest.mark.parametrize("inner, outer", [(0.0, 1.0), (1.0, 0.5), (1.0, math.inf), (math.nan, 1.0)])
def test_geometric_rule_rejects_bad_inputs(inner, outer):
    with pytest.raises(ValueError):
        geometric_rule(np.zeros(1), np.ones(1), inner, outer)


@pytest.mark.parametrize("inner, outer", [(0.3, 5.0), (1e-6, 0.25), (2.0 ** -10, 2.0 ** -3)])
def test_geometric_rule_is_exact_for_polynomials_of_its_degree(inner, outer):
    # 15-point Kronrod: degree 22; its embedded 7-point Gauss: degree 13.
    gk_x, gk_kronrod, gk_gauss = gauss_kronrod_15()
    nodes, weights = geometric_rule(gk_x, [gk_kronrod, gk_gauss], inner, outer)
    edges = specfun._doubling_edges(inner, outer)
    assert nodes.shape == (edges.size - 1, 15) and weights.shape == (2,) + nodes.shape
    for row, degree in zip(weights, (22, 13)):
        for k in range(degree + 1):
            exact = (edges[1:] ** (k + 1) - edges[:-1] ** (k + 1)) / (k + 1)
            np.testing.assert_allclose((row * nodes ** k).sum(axis=1), exact, rtol=1e-13)


_DELTA = 30.0 / 365.0


@pytest.mark.parametrize("T, delta", [(0.0, _DELTA), (-1.0, _DELTA), (math.inf, _DELTA),
                                      (math.nan, _DELTA), (0.1, 0.0), (0.1, math.inf)])
def test_window_rule_rejects_bad_inputs(T, delta):
    with pytest.raises(ValueError):
        window_rule(T, delta, np.zeros(1), np.ones(1))


@pytest.mark.parametrize("T", [1e-8, 1e-4, 0.1, 2.0])
def test_window_rule_maps_onto_the_window(T):
    ends, _ = window_rule(T, _DELTA, np.array([-1.0, 1.0]), np.ones(2))
    assert ends[0] == 0.0 and ends[1] == pytest.approx(_DELTA, rel=4 * _EPS)
    offsets, weights = window_rule(T, _DELTA, *np.polynomial.legendre.leggauss(8))
    assert np.all(np.diff(offsets) > 0.0) and 0.0 < offsets[0] and offsets[-1] < _DELTA
    assert np.all(weights > 0.0)


@pytest.mark.parametrize("T", [1e-8, 1e-4, 0.1, 2.0])
@pytest.mark.parametrize("n", [2, 8, 12])
def test_window_rule_is_exact_for_log_powers_of_its_degree(T, n):
    # log(s/T) = u^2 log1p(delta/T) and ds/s = 2 u log1p(delta/T) du, so
    # log(s/T)^k / s is a polynomial of degree 2k + 1 in u: the n-node
    # Gauss-Legendre rule is exact for k < n.
    offsets, weights = window_rule(T, _DELTA, *np.polynomial.legendre.leggauss(n))
    span = math.log1p(_DELTA / T)
    for k in range(n):
        got = float(np.sum(weights * np.log1p(offsets / T) ** k / (T + offsets)))
        assert got == pytest.approx(span ** (k + 1) / (k + 1), rel=1e-13), k


@pytest.mark.parametrize("T", [1e-4, 0.1, 2.0])
@pytest.mark.parametrize("hurst", [0.05, 0.1, 0.3])
def test_window_rule_integrates_the_rough_endpoint(T, hurst):
    # The u^2 map smooths the (s - T)^H roughness at s = T.
    offsets, weights = window_rule(T, _DELTA, *np.polynomial.legendre.leggauss(48))
    exact = _DELTA ** (hurst + 1.0) / (hurst + 1.0)
    assert float(np.sum(weights * offsets ** hurst)) == pytest.approx(exact, rel=1e-8)


def test_window_rule_tends_to_the_square_map_at_long_maturity():
    # For T >> delta, s - T tends to delta u^2, with weights (dx/2) 2 delta u.
    x, w = np.polynomial.legendre.leggauss(8)
    offsets, weights = window_rule(1e8 * _DELTA, _DELTA, x, w)
    u = 0.5 * (1.0 + x)
    np.testing.assert_allclose(offsets, _DELTA * u ** 2, rtol=1e-7)
    np.testing.assert_allclose(weights, w * _DELTA * u, rtol=1e-7)


def test_kronrod_bound_floors_at_fifty_ulps():
    bound = kronrod_bound(np.array([2.0, -2.0, 2.0]), np.array([0.0, 0.0, -1e-3]))
    np.testing.assert_array_equal(bound, [100.0 * _EPS, 100.0 * _EPS, 1e-3])
