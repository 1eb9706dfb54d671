"""Model kernel and covariance tests."""

import math

import numpy as np
import pytest

from vixsmile.model import (
    ModelParams,
    grid_covariance_matrix,
    kernel,
    kernel_covariance,
    kernel_covariance_matrix,
    kernel_variance,
)
from vixsmile.specfun import QuadSpec, integrate


def mk(v0=0.04, H=0.3, beta=0.0, gamma=1.0, nu=2.0, eta=0.0):
    return ModelParams(v0=v0, H=H, beta=beta, gamma=gamma, nu=nu, eta=eta)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"v0": 0.0},
        {"v0": -1.0},
        {"H": 0.0},
        {"H": 0.6},
        {"beta": -0.1},
        {"gamma": 1.5},
        {"nu": -1.0},
        {"eta": -0.2},
        {"v0": math.nan},
    ],
)
def test_model_params_validation(kwargs):
    base = dict(v0=0.04, H=0.3, beta=0.0, gamma=1.0, nu=2.0, eta=0.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        ModelParams(**base)


def test_mixture_moments():
    p = mk(gamma=0.5, nu=3.0, eta=1.0)
    assert p.volvol_mean == pytest.approx(2.0)
    assert p.volvol_sq_mean == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# kernel and its moments
# ---------------------------------------------------------------------------

def test_kernel_flat_case():
    assert kernel(mk(H=0.5, beta=0.0), 0.7) == pytest.approx(1.0, abs=1e-15)


def test_kernel_pure_power_law():
    assert kernel(mk(H=0.3, beta=0.0), 4.0) == pytest.approx(4.0 ** -0.2, abs=1e-12)


def test_kernel_damped():
    expected = 0.5 ** -0.4 * math.exp(-1.0)
    assert kernel(mk(H=0.1, beta=2.0), 0.5) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.4854198, abs=5e-7)


def test_kernel_rejects_nonpositive_lag():
    with pytest.raises(ValueError):
        kernel(mk(), 0.0)
    with pytest.raises(ValueError):
        kernel(mk(), np.array([0.5, -1.0]))


def test_kernel_variance_flat():
    # H = 1/2, beta = 0: Var(B_t) = t
    assert kernel_variance(mk(H=0.5, beta=0.0), 2.0) == pytest.approx(2.0, abs=1e-12)


def test_kernel_variance_zero_time():
    assert kernel_variance(mk(H=0.21), 0.0) == 0.0


def test_kernel_variance_quadrature_oracle():
    p = mk(H=0.3, beta=1.5)
    spec = QuadSpec(abs_tol=1e-13, rel_tol=1e-12, singular_exponent=-0.4)
    oracle = integrate(lambda u: u ** -0.4 * np.exp(-3.0 * u), 0.0, 1.0, spec)
    assert kernel_variance(p, 1.0) == pytest.approx(oracle, abs=1e-10)


def test_kernel_variance_beta_continuity():
    p0 = mk(H=0.3, beta=0.0)
    p_eps = mk(H=0.3, beta=1e-8)
    v0 = kernel_variance(p0, 0.7)
    v_eps = kernel_variance(p_eps, 0.7)
    assert abs(v_eps - v0) / v0 <= 1e-6


# ---------------------------------------------------------------------------
# covariance integrals
# ---------------------------------------------------------------------------

def test_covariance_diagonal_matches_variance():
    p = mk(H=0.3, beta=0.8)
    t = 0.9
    assert kernel_covariance(p, t, t, t) == pytest.approx(
        kernel_variance(p, t), abs=1e-9
    )


def test_covariance_zero_window():
    assert kernel_covariance(mk(), 1.0, 2.0, 0.0) == 0.0


def test_covariance_symmetry():
    p = mk(H=0.25, beta=0.5)
    a = kernel_covariance(p, 1.0, 1.3, 0.8)
    b = kernel_covariance(p, 1.3, 1.0, 0.8)
    assert a == b


def test_covariance_brute_force_oracle():
    # 1e5-panel midpoint rule in the substituted variable w = tau^(H+1/2).
    p = mk(H=0.3, beta=0.0)
    t1, t2, upto = 1.0, 1.1, 1.0
    h_exp = p.H - 0.5
    w_max = upto ** (p.H + 0.5)
    w = (np.arange(100_000) + 0.5) * (w_max / 100_000)
    tau = w ** (1.0 / (p.H + 0.5))
    jac = (1.0 / (p.H + 0.5)) * w ** (1.0 / (p.H + 0.5) - 1.0)
    vals = tau ** h_exp * (t2 - t1 + tau) ** h_exp * jac
    oracle = float(np.sum(vals)) * (w_max / 100_000)
    assert kernel_covariance(p, t1, t2, upto) == pytest.approx(oracle, abs=1e-7)


def test_covariance_brownian_case():
    # H = 1/2, beta = 0: Cov(W_t1, W_t2) over [0, upto] equals upto.
    p = mk(H=0.5, beta=0.0)
    assert kernel_covariance(p, 1.5, 2.0, 1.5) == pytest.approx(1.5, rel=1e-10)


def _powerlaw_overlap_closed_form(hurst, upper, gap):
    # int_0^upper tau^(H-1/2) (gap+tau)^(H-1/2) dtau via the Euler identity
    # 2F1(a, b; b+1; z) = b int_0^1 t^(b-1) (1-z t)^(-a) dt.
    from vixsmile.specfun import gauss_2f1

    return (
        upper ** (hurst + 0.5)
        * gap ** (hurst - 0.5)
        * gauss_2f1(0.5 - hurst, hurst + 0.5, hurst + 1.5, -upper / gap)
        / (hurst + 0.5)
    )


def test_covariance_hypergeometric_closed_form_vix_window():
    # beta = 0, distinct times beyond the noise window: the covariance is a
    # difference of two hypergeometric terms.
    hurst, t_obs = 0.3, 0.1
    p = mk(H=hurst, beta=0.0)
    t1, t2 = 0.12, 0.2
    gap = t2 - t1
    closed = _powerlaw_overlap_closed_form(hurst, t1, gap) - \
        _powerlaw_overlap_closed_form(hurst, t1 - t_obs, gap)
    assert kernel_covariance(p, t1, t2, t_obs) == pytest.approx(closed, rel=1e-9)


def test_covariance_hypergeometric_closed_form_full_window():
    # beta = 0, window up to the earlier time: single hypergeometric term.
    hurst = 0.2
    p = mk(H=hurst, beta=0.0)
    t1, t2 = 0.4, 0.55
    closed = _powerlaw_overlap_closed_form(hurst, t1, t2 - t1)
    assert kernel_covariance(p, t1, t2, t1) == pytest.approx(closed, rel=1e-9)


def test_covariance_cauchy_schwarz_grid():
    p = mk(H=0.2, beta=1.0)
    times = [0.3, 0.5, 0.9, 1.4]
    for t1 in times:
        for t2 in times:
            upto = min(t1, t2)
            cov = kernel_covariance(p, t1, t2, upto)
            var1 = kernel_covariance(p, t1, t1, upto)
            var2 = kernel_covariance(p, t2, t2, upto)
            assert cov ** 2 <= var1 * var2 * (1.0 + 1e-9)


def test_covariance_rejects_bad_window():
    with pytest.raises(ValueError):
        kernel_covariance(mk(), 1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        kernel_covariance(mk(), -1.0, 2.0, 0.5)


def test_window_one_ulp_above_its_time_raises():
    above = math.nextafter(0.4, 1.0)
    with pytest.raises(ValueError):
        kernel_covariance(mk(), 0.4, 0.9, above)
    with pytest.raises(ValueError):
        kernel_covariance_matrix(mk(), np.array([0.4, 0.9]), above)


# ---------------------------------------------------------------------------
# covariance matrices: the fixed-rule builders against the scalar oracle
# ---------------------------------------------------------------------------

DELTA = 30.0 / 365.0


def _sampler_covariance(params, kind, maturity, n_inner):
    """(matrix, times, windows) of the VIX sampler, whose nodes share the
    window [0, T], and of the RV variance state, each node over its own past."""
    if kind == "vix":
        times = np.linspace(maturity, maturity + DELTA, n_inner)
        return (kernel_covariance_matrix(params, times, maturity), times,
                np.full(n_inner, maturity))
    times = maturity * (np.arange(1, n_inner + 1) / n_inner)
    return grid_covariance_matrix(params, maturity, n_inner), times, times


def _oracle_pairs(n):
    """Every pair of small grids; on larger ones the diagonal, the first
    super-diagonal, the first row and last column, and 32 random pairs."""
    rows, cols = np.triu_indices(n)
    if n <= 16:
        return rows, cols
    keep = (cols - rows <= 1) | (rows == 0) | (cols == n - 1)
    keep[np.random.default_rng(n).choice(rows.size, 32, replace=False)] = True
    return rows[keep], cols[keep]


def _assert_matches_oracle(params, fast, times, windows):
    np.testing.assert_array_equal(fast, fast.T)
    rows, cols = _oracle_pairs(times.size)
    oracle = [
        kernel_covariance(params, float(times[i]), float(times[j]),
                          float(min(windows[i], windows[j])))
        for i, j in zip(rows, cols)
    ]
    np.testing.assert_allclose(fast[rows, cols], oracle, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("kind", ["vix", "rv"])
@pytest.mark.parametrize("n_inner", [2, 16, 33])
@pytest.mark.parametrize("maturity", [1e-8, 1e-4, 0.1, 0.5, 2.0])
def test_covariance_matrix_matches_scalar_oracle(kind, n_inner, maturity):
    for hurst in (0.05, 0.1, 0.3, 0.5):
        for beta in (0.0, 1.0, 5.0):
            params = mk(H=hurst, beta=beta)
            _assert_matches_oracle(params, *_sampler_covariance(params, kind, maturity, n_inner))


@pytest.mark.parametrize("kind", ["vix", "rv"])
@pytest.mark.parametrize("n_inner", [96, 128])
@pytest.mark.parametrize("hurst, beta", [(0.3, 0.0), (0.1, 1.0)])
def test_covariance_matrix_matches_scalar_oracle_fine_grid(kind, n_inner, hurst, beta):
    params = mk(H=hurst, beta=beta)
    _assert_matches_oracle(params, *_sampler_covariance(params, kind, 0.25, n_inner))


def test_covariance_matrix_brownian_case_is_constant():
    # H = 1/2, beta = 0: every covariance over [0, T] equals T.
    cov = kernel_covariance_matrix(mk(H=0.5, beta=0.0), np.linspace(0.3, 0.3 + DELTA, 16), 0.3)
    np.testing.assert_allclose(cov, 0.3, rtol=1e-14)


def _general_layout(rng, n):
    """Non-uniform times over one window: on it, up to 5e-13 relative above
    it, or anywhere above it up to 2."""
    upto = rng.uniform(0.05, 1.0)
    kind = rng.integers(3, size=n)
    times = rng.uniform(upto, 2.0, n)
    times[kind == 0] = upto
    snapped = kind == 1
    times[snapped] = upto * (1.0 + rng.uniform(0.0, 5e-13, snapped.sum()))
    return times, upto


@pytest.mark.parametrize("seed", range(50))
def test_covariance_matrix_matches_scalar_oracle_general_layouts(seed):
    rng = np.random.default_rng(seed)
    times, upto = _general_layout(rng, int(rng.integers(2, 13)))
    params = mk(H=float(rng.choice([0.05, 0.1, 0.3, 0.5])),
                beta=float(rng.choice([0.0, 1.0, 5.0])))
    _assert_matches_oracle(params, kernel_covariance_matrix(params, times, upto), times,
                           np.full(times.size, upto))


def _covariance_mpmath(hurst, beta, gap1, gap2, upto):
    """int_0^upto (g1 + tau)^(H-1/2) (g2 + tau)^(H-1/2) e^(-beta (g1 + g2 + 2 tau))
    at 30 digits, on panels refined geometrically towards the smallest gap."""
    import mpmath

    with mpmath.workdps(30):
        h = mpmath.mpf(hurst) - mpmath.mpf(1) / 2
        g1, g2, u = mpmath.mpf(gap1), mpmath.mpf(gap2), mpmath.mpf(upto)

        def f(tau):
            return (g1 + tau) ** h * (g2 + tau) ** h * mpmath.exp(-beta * (g1 + g2 + 2 * tau))

        small = min(g for g in (g1, g2, u) if g > 0)
        points = [small * mpmath.mpf(2) ** k for k in range(0, 200, 2) if small * 2 ** k < u]
        return float(mpmath.quad(f, [0] + points + [u]))


@pytest.mark.parametrize("hurst, beta", [(0.05, 0.0), (0.1, 1.0), (0.3, 5.0)])
def test_covariance_matrix_tiny_offsets_against_mpmath(hurst, beta):
    # Offsets down to 1e-9 of the window, or 8e-13 above it, where the scalar
    # oracle's declared endpoint power law only approaches the true one: pin
    # against mpmath. No time snaps onto the window.
    for b, tiny in [(0.5, 0.5e-9), (1.0, 8e-13)]:
        times = b + np.array([0.0, tiny, 1e-3 * b, 0.3])
        gaps = times - b  # exact: the times are within a factor 2 of b
        cov = kernel_covariance_matrix(mk(H=hurst, beta=beta), times, b)
        for i, j in [(0, 1), (1, 1), (1, 2), (0, 3), (2, 3)]:
            exact = _covariance_mpmath(hurst, beta, gaps[i], gaps[j], b)
            assert cov[i, j] == pytest.approx(exact, rel=1e-13, abs=0.0), (b, i, j)


@pytest.mark.parametrize("hurst, beta", [(0.05, 0.0), (0.1, 1.0), (0.3, 5.0)])
def test_grid_covariance_long_prefix_sums_are_exact(hurst, beta):
    # At 512 nodes the last entries sum 512 window terms along a diagonal:
    # the diagonal against the closed-form variance, and entries far from
    # it against mpmath.
    params, maturity, n = mk(H=hurst, beta=beta), 0.25, 512
    cov = grid_covariance_matrix(params, maturity, n)
    times = maturity * (np.arange(1, n + 1) / n)
    variance = [kernel_variance(params, float(t)) for t in times]
    np.testing.assert_allclose(np.diag(cov), variance, rtol=1e-13, atol=0.0)
    for i, j in [(0, 511), (300, 511), (400, 450)]:
        exact = _covariance_mpmath(hurst, beta, 0.0, maturity * (j - i) / n,
                                   maturity * (i + 1) / n)
        assert cov[i, j] == pytest.approx(exact, rel=1e-13, abs=0.0), (i, j)


@pytest.mark.parametrize("n_inner", [16, 96, 512])
def test_covariance_matrix_kernel_values_grow_linearly_with_grid(n_inner, monkeypatch):
    from vixsmile import model

    sizes = []
    kernel_fn = model.kernel

    def counted(params, lag):
        sizes.append(np.size(lag))
        return kernel_fn(params, lag)

    monkeypatch.setattr(model, "kernel", counted)
    params = mk(H=0.1, beta=1.0)
    # RV: one window of width T/n and its diagonal sums, so about 32 n
    # kernel values (16 n for each of the Gauss-Legendre and Gauss-Jacobi
    # heads), against 16 n^2 for a window per node.
    grid_covariance_matrix(params, 0.25, n_inner)
    assert sum(sizes) <= 40 * n_inner
    # VIX: one Gram product and one Gauss-Jacobi block.
    sizes.clear()
    kernel_covariance_matrix(params, np.linspace(0.25, 0.25 + DELTA, n_inner), 0.25)
    assert len(sizes) == 2


@pytest.mark.parametrize("n_inner, limit_mib", [(96, 6.0), (512, 16.0)])
def test_covariance_matrix_temporaries_stay_bounded(n_inner, limit_mib):
    import tracemalloc

    tracemalloc.start()
    try:
        grid_covariance_matrix(mk(H=0.1, beta=1.0), 0.25, n_inner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2 ** 20


@pytest.mark.parametrize(
    "times, upto",
    [
        ([0.5, np.nan], 0.5),
        ([0.5, 1.0], np.inf),
        ([0.5, 1.0], 0.0),
        ([0.5, 1.0], 0.6),
        ([0.5, 1.0], -0.1),
        ([[0.5, 1.0]], 0.5),
        ([0.5, 1.0], np.nan),
        ([], 0.5),
    ],
)
def test_covariance_matrix_rejects_bad_inputs(times, upto):
    with pytest.raises(ValueError):
        kernel_covariance_matrix(mk(), np.array(times), upto)


@pytest.mark.parametrize("maturity, n", [(0.0, 4), (-1.0, 4), (np.inf, 4), (np.nan, 4),
                                         (0.25, 0)])
def test_grid_covariance_rejects_bad_inputs(maturity, n):
    with pytest.raises(ValueError):
        grid_covariance_matrix(mk(), maturity, n)


def test_covariance_matrix_raises_on_non_finite_values():
    # Past half the float range t1 + t2 overflows, but at beta = 0 the
    # integral stays finite: the scalar path and the builder agree on it.
    times = np.array([1e308, 1.7e308])
    oracle = kernel_covariance(mk(), float(times[0]), float(times[1]), 1e308)
    cov = kernel_covariance_matrix(mk(), times, 1e308)
    assert math.isfinite(oracle) and np.all(np.isfinite(cov))
    assert cov[0, 1] == pytest.approx(oracle, rel=1e-10)


def test_samplers_never_call_the_scalar_quadrature(monkeypatch):
    from vixsmile import mc, model
    from vixsmile.mc import SimGrid, build_vix_sampler, sample_rv

    def forbidden(*args, **kwargs):
        raise AssertionError("scalar kernel_covariance called")

    monkeypatch.setattr(model, "kernel_covariance", forbidden)
    monkeypatch.setattr(mc, "kernel_covariance", forbidden)
    grid = SimGrid(T=0.25, n_inner=24, n_paths=10)
    for params in (mk(H=0.3, beta=0.0), mk(H=0.1, beta=1.0)):
        sampler = build_vix_sampler(params, grid)
        assert np.all(np.isfinite(sampler.factor))
        samples = sample_rv(params, grid).samples
        assert np.all(np.isfinite(samples)) and np.all(samples > 0.0)

