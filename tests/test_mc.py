"""Monte Carlo engine tests: covariance construction, exact Gaussian
sampling, determinism under parallelism, and the simulation invariants."""

import math

import numpy as np
import pytest

from vixsmile.mc import (
    CovarianceNotPSDError,
    FactorSampler,
    PathBatch,
    SimGrid,
    _chunk_rng,
    _factor,
    _trapezoid_weights,
    build_vix_sampler,
    estimate_mean,
    sample_rv,
    sample_vix,
)
from vixsmile.model import ModelParams, kernel, kernel_covariance_matrix
from vixsmile.specfun import QuadSpec, integrate


def mk(v0=0.04, H=0.3, beta=0.0, gamma=1.0, nu=2.0, eta=0.0):
    return ModelParams(v0=v0, H=H, beta=beta, gamma=gamma, nu=nu, eta=eta)


# ---------------------------------------------------------------------------
# grid and batch validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"T": 0.0},
        {"T": -1.0},
        {"delta": 0.0},
        {"n_inner": 1},
        {"n_paths": 0},
        {"chunk_size": 0},
        {"seed": -1},
    ],
)
def test_simgrid_validation(kwargs):
    base = dict(T=0.1, delta=30 / 365, n_inner=8, n_paths=100, seed=1, chunk_size=64)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SimGrid(**base)


def test_pathbatch_rejects_nonpositive_samples():
    grid = SimGrid(T=0.1, n_paths=3)
    with pytest.raises(ValueError):
        PathBatch("vix", np.array([1.0, 0.0, 2.0]), grid, mk())
    with pytest.raises(ValueError):
        PathBatch("spot", np.array([1.0, 1.0, 1.0]), grid, mk())


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_pathbatch_rejects_nonfinite_samples(bad):
    grid = SimGrid(T=0.1, n_paths=3)
    with pytest.raises(ValueError):
        PathBatch("rv", np.array([1.0, bad, 2.0]), grid, mk())


# ---------------------------------------------------------------------------
# VIX sampler construction
# ---------------------------------------------------------------------------

def test_vix_sampler_brownian_closed_form():
    # H = 1/2, beta = 0: all covariance entries equal T.
    grid = SimGrid(T=0.3, n_inner=2, n_paths=10)
    sampler = build_vix_sampler(mk(H=0.5), grid)
    np.testing.assert_allclose(sampler.cov, 0.3, rtol=1e-10)


def test_vix_sampler_covariance_matches_brute_force():
    params = mk(H=0.3, beta=0.0)
    grid = SimGrid(T=0.1, delta=30 / 365, n_inner=8, n_paths=10)
    sampler = build_vix_sampler(params, grid)
    nodes = sampler.nodes
    for i in range(8):
        for j in range(i, 8):
            t1, t2 = float(nodes[i]), float(nodes[j])
            # brute-force midpoint rule after removing the true endpoint
            # power law at u = T (both factors singular only at node 0)
            alpha = (params.H - 0.5) * ((t1 == grid.T) + (t2 == grid.T))
            q = 1.0 / (1.0 + alpha)
            n = 200_000
            w_max = grid.T ** (1.0 + alpha)
            w = (np.arange(n) + 0.5) * (w_max / n)
            tau = w ** q
            u = grid.T - tau
            jac = q * w ** (q - 1.0)
            vals = (t1 - u) ** (params.H - 0.5) * (t2 - u) ** (params.H - 0.5) * jac
            oracle = float(np.sum(vals)) * (w_max / n)
            assert sampler.cov[i, j] == pytest.approx(oracle, abs=1e-7), (i, j)


def test_vix_sampler_degenerates_at_tiny_maturity():
    grid = SimGrid(T=1e-8, n_inner=8, n_paths=4000, seed=3)
    sampler = build_vix_sampler(mk(H=0.3, nu=2.0), grid)
    assert np.max(np.abs(sampler.cov)) < 1e-3
    batch = sample_vix(sampler)
    assert float(np.std(batch.samples)) < 1e-3
    assert float(np.mean(batch.samples)) == pytest.approx(0.2, abs=1e-3)


def test_factor_rejects_indefinite_matrix():
    with pytest.raises(CovarianceNotPSDError):
        _factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def _layout(kind, T, n, delta=30 / 365):
    """Nodes and windows of the VIX and RV samplers."""
    if kind == "vix":
        return np.linspace(T, T + delta, n), np.full(n, T)
    nodes = T * (np.arange(1, n + 1) / n)
    return nodes, nodes


@pytest.mark.parametrize("H", [0.05, 0.1, 0.3, 0.5])
@pytest.mark.parametrize("beta", [0.0, 1.0, 5.0])
def test_factor_reproduces_covariance(H, beta):
    # Includes n = 2, H = 1/2, beta = 1, T = 1e-8, whose most negative
    # eigenvalue, -4.5e-16 of the largest, is below -n * eps yet is noise.
    params = mk(H=H, beta=beta)
    for T in (1e-8, 1e-4, 0.1, 0.5, 2.0):
        for n in (2, 16, 33, 96):
            for kind in ("vix", "rv"):
                cov = kernel_covariance_matrix(params, *_layout(kind, T, n))
                factor = _factor(cov)
                err = np.max(np.abs(factor @ factor.T - cov))
                assert err <= 1e-12 * np.max(np.abs(cov)), (kind, T, n)
                if kind == "rv":
                    assert factor.shape == (n, n), (T, n)


def test_factor_rank_one_for_brownian_vix():
    # H = 1/2, beta = 0: every VIX covariance entry equals T.
    for n in (2, 16, 64):
        sampler = build_vix_sampler(mk(H=0.5), SimGrid(T=0.3, n_inner=n, n_paths=10))
        assert sampler.factor.shape == (n, 1)
    rough = build_vix_sampler(mk(H=0.1), SimGrid(T=0.3, n_inner=64, n_paths=10))
    assert 1 < rough.factor.shape[1] < 64


def test_samplers_never_call_cholesky(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky called")

    monkeypatch.setattr(np.linalg, "cholesky", forbidden)
    grid = SimGrid(T=0.25, n_inner=16, n_paths=100, seed=3)
    for params in (mk(H=0.3), mk(H=0.1, beta=1.0, gamma=0.5, eta=1.0)):
        assert np.all(sample_vix(build_vix_sampler(params, grid)).samples > 0.0)
        assert np.all(sample_rv(params, grid).samples > 0.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_vix_samples_constant_without_volvol():
    grid = SimGrid(T=0.2, n_inner=16, n_paths=500, seed=5)
    sampler = build_vix_sampler(mk(nu=0.0, eta=0.0), grid)
    batch = sample_vix(sampler)
    np.testing.assert_allclose(batch.samples, 0.2, rtol=1e-13)


def test_rv_samples_constant_without_volvol():
    grid = SimGrid(T=0.2, n_inner=16, n_paths=500, seed=5)
    batch = sample_rv(mk(nu=0.0, eta=0.0), grid)
    np.testing.assert_allclose(batch.samples, 0.04, rtol=1e-13)
    mean, stderr = estimate_mean(batch)
    assert mean == pytest.approx(0.04, rel=1e-13)
    assert stderr == pytest.approx(0.0, abs=1e-16)


def test_rv_martingale_mean():
    grid = SimGrid(T=0.25, n_inner=32, n_paths=40_000, seed=11)
    batch = sample_rv(mk(H=0.3, nu=2.0), grid)
    mean, stderr = estimate_mean(batch)
    assert abs(mean - 0.04) <= 4.0 * stderr


def test_instantaneous_variance_martingale_at_nodes():
    # E[v_t] = v0 at every interior node of the realized-variance grid. The
    # identity as reduction weights makes the core return v at each node.
    params = mk(H=0.3, beta=0.5, gamma=0.5, nu=2.0, eta=0.5)
    grid = SimGrid(T=0.5, n_inner=8, n_paths=60_000, seed=17)
    nodes, windows = _layout("rv", grid.T, grid.n_inner)
    sampler = FactorSampler("rv", params, grid, nodes, windows, np.eye(grid.n_inner),
                            0.0, 1.0)
    v = sampler.draw_chunk(0, grid.n_paths, 17)
    means = v.mean(axis=1)
    stderrs = v.std(axis=1, ddof=1) / math.sqrt(grid.n_paths)
    assert np.all(np.abs(means - params.v0) <= 4.0 * stderrs)


def test_positivity_of_samples():
    grid = SimGrid(T=0.25, n_inner=16, n_paths=20_000, seed=23)
    vix_batch = sample_vix(build_vix_sampler(mk(H=0.1, nu=3.0), grid))
    rv_batch = sample_rv(mk(H=0.1, nu=3.0), grid)
    assert float(np.min(vix_batch.samples)) > 0.0
    assert float(np.min(rv_batch.samples)) > 0.0


def test_determinism_across_worker_counts_and_runs():
    grid = SimGrid(T=0.1, n_inner=8, n_paths=10_000, seed=99, chunk_size=4096)
    sampler = build_vix_sampler(mk(H=0.3, nu=2.0), grid)
    reference = sample_vix(sampler, workers=1).samples
    for workers in (2, 4):
        assert np.array_equal(sample_vix(sampler, workers=workers).samples, reference)
    assert np.array_equal(sample_vix(sampler, workers=1).samples, reference)
    rv_ref = sample_rv(mk(H=0.3, nu=2.0), grid, workers=1).samples
    assert np.array_equal(sample_rv(mk(H=0.3, nu=2.0), grid, workers=3).samples, rv_ref)


def _term_by_term_draw_chunk(sampler, weights, offset, divisor, chunk_index, size, seed):
    """The Wick reduction written term by term: exp(a X - a^2 Var X / 2)."""
    factors = sampler.factor @ _chunk_rng(seed, chunk_index).standard_normal(
        (sampler.factor.shape[1], size))
    wick = np.sum(sampler.factor ** 2, axis=1)[:, None]
    p = sampler.params
    sqrt_2h = math.sqrt(2.0 * p.H)
    mixed = sum(
        g * (weights @ np.exp(a * factors - 0.5 * a ** 2 * wick))
        for g, a in ((p.gamma, p.nu * sqrt_2h), (1.0 - p.gamma, p.eta * sqrt_2h))
        if g != 0.0
    )
    samples = (offset + p.v0 * mixed) / divisor
    return np.sqrt(samples) if sampler.kind == "vix" else samples


@pytest.mark.parametrize("kind", ["vix", "rv"])
@pytest.mark.parametrize(
    "params",
    [mk(H=0.1, gamma=1.0, nu=2.0), mk(H=0.3, beta=1.0, gamma=0.0, nu=0.0, eta=1.5),
     mk(H=0.1, beta=2.0, gamma=0.5, nu=3.0, eta=1.0)],
    ids=["gamma1", "gamma0-beta1", "mixed-beta2"],
)
@pytest.mark.parametrize("T", [1e-4, 0.5])
def test_draw_chunk_matches_term_by_term_wick_formula(kind, params, T):
    grid = SimGrid(T=T, n_inner=16, n_paths=1000, seed=3)
    nodes, windows = _layout(kind, T, grid.n_inner)
    span = grid.delta if kind == "vix" else T
    weights = _trapezoid_weights(grid.n_inner, span / (grid.n_inner - 1))
    offset, divisor = (0.0, grid.delta) if kind == "vix" else (0.001, T)
    sampler = FactorSampler(kind, params, grid, nodes, windows, weights, offset, divisor)
    for chunk_index in (0, 3):
        drawn = sampler.draw_chunk(chunk_index, 1000, 77)
        reference = _term_by_term_draw_chunk(sampler, weights, offset, divisor,
                                       chunk_index, 1000, 77)
        np.testing.assert_allclose(drawn, reference, rtol=1e-13, atol=0.0)


def test_consecutive_seeds_share_no_chunk():
    # Multi-chunk batches at seeds s and s + 1 come from disjoint streams.
    grid = SimGrid(T=0.1, n_inner=8, n_paths=16_000, seed=1, chunk_size=4096)
    params = mk(H=0.3, nu=2.0)
    sampler = build_vix_sampler(params, grid)
    for seed in (200, 202, 1000):
        a = sample_vix(sampler, seed=seed).samples
        b = sample_vix(sampler, seed=seed + 1).samples
        assert np.intersect1d(a, b).size == 0, seed
    rv = [sample_rv(params, grid, n_paths=8192, seed=s).samples for s in (1000, 1001)]
    assert np.intersect1d(*rv).size == 0


def test_seed_changes_samples():
    grid = SimGrid(T=0.1, n_inner=8, n_paths=1000, seed=1)
    sampler = build_vix_sampler(mk(H=0.3, nu=2.0), grid)
    a = sample_vix(sampler, seed=1).samples
    b = sample_vix(sampler, seed=2).samples
    assert not np.array_equal(a, b)


def test_stderr_halves_with_four_times_the_paths():
    grid = SimGrid(T=0.25, n_inner=8, n_paths=2000, seed=0)
    sampler = build_vix_sampler(mk(H=0.3, nu=2.0), grid)
    for rep in range(10):
        small = sample_vix(sampler, n_paths=2000, seed=1000 + rep)
        large = sample_vix(sampler, n_paths=8000, seed=2000 + rep)
        _, se_small = estimate_mean(small)
        _, se_large = estimate_mean(large)
        assert 0.4 <= se_large / se_small <= 0.6, rep


def test_grid_refinement_below_noise():
    # Doubling n_inner moves the ATM call price by less than 2 MC stderr.
    from vixsmile.pricing import price_call

    params = mk(H=0.3, nu=2.0)
    prices = {}
    for n_inner in (32, 64):
        grid = SimGrid(T=0.25, n_inner=n_inner, n_paths=50_000, seed=31)
        batch = sample_vix(build_vix_sampler(params, grid))
        forward, _ = estimate_mean(batch)
        prices[n_inner] = price_call(batch, forward)
    diff = abs(prices[64].value - prices[32].value)
    noise = math.hypot(prices[64].stderr, prices[32].stderr)
    assert diff <= 2.0 * noise


def test_variance_derivative_pathwise_bump():
    # A finite-difference bump of one driving Gaussian increment reproduces
    # the model's closed-form variance derivative on a coarse Euler grid.
    params = mk(H=0.3, beta=0.5, gamma=0.6, nu=1.5, eta=0.5)
    n_steps, t_end = 16, 0.5
    dt = t_end / n_steps
    t_left = np.arange(n_steps) * dt
    rng = np.random.default_rng(7)
    dw = rng.standard_normal(n_steps) * math.sqrt(dt)

    a1 = params.nu * math.sqrt(2.0 * params.H)
    a2 = params.eta * math.sqrt(2.0 * params.H)

    def variance_at_end(increments):
        lags = t_end - t_left
        weights = kernel(params, lags)
        factor = float(weights @ increments)
        var = float(weights @ weights) * dt  # discretised Var(B_t)
        mix = params.gamma * math.exp(a1 * factor - 0.5 * a1 ** 2 * var)
        mix += (1.0 - params.gamma) * math.exp(a2 * factor - 0.5 * a2 ** 2 * var)
        return params.v0 * mix, factor, var

    v_base, factor, var = variance_at_end(dw)
    bump_index, eps = 4, 1e-7
    bumped = dw.copy()
    bumped[bump_index] += eps
    v_bumped, _, _ = variance_at_end(bumped)
    fd = (v_bumped - v_base) / eps

    s = float(t_left[bump_index])
    wick1 = math.exp(a1 * factor - 0.5 * a1 ** 2 * var)
    wick2 = math.exp(a2 * factor - 0.5 * a2 ** 2 * var)
    analytic = (
        params.v0
        * (params.gamma * params.nu * wick1 + (1.0 - params.gamma) * params.eta * wick2)
        * math.sqrt(2.0 * params.H)
        * (t_end - s) ** (params.H - 0.5)
        * math.exp(-params.beta * (t_end - s))
    )
    assert fd == pytest.approx(analytic, rel=1e-2)


# ---------------------------------------------------------------------------
# estimate_mean
# ---------------------------------------------------------------------------

def test_estimate_mean_constant_batch():
    grid = SimGrid(T=0.1, n_paths=5)
    batch = PathBatch("vix", np.full(5, 1.7), grid, mk())
    mean, stderr = estimate_mean(batch)
    assert mean == 1.7
    assert stderr == 0.0


def test_estimate_mean_rejects_single_path():
    grid = SimGrid(T=0.1, n_paths=1)
    batch = PathBatch("vix", np.array([1.0]), grid, mk())
    with pytest.raises(ValueError):
        estimate_mean(batch)


def test_estimate_mean_reproducible():
    grid = SimGrid(T=0.1, n_inner=8, n_paths=9000, seed=64, chunk_size=2048)
    sampler = build_vix_sampler(mk(H=0.4, nu=1.0), grid)
    values = {
        estimate_mean(sample_vix(sampler, workers=w))[0] for w in (1, 2, 4)
    }
    assert len(values) == 1
