"""Monte Carlo engine tests: covariance construction, exact Gaussian
sampling, determinism under parallelism, and the simulation invariants."""

import dataclasses
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import vixsmile.mc as mc
from vixsmile.mc import (
    CovarianceNotPSDError,
    FactorSampler,
    PathBatch,
    SimGrid,
    _CHUNK_SIZE,
    _VIX_NODES,
    _chunk_rng,
    _factor,
    _trapezoid_weights,
    _vix_rule,
    build_rv_sampler,
    build_vix_sampler,
    estimate_mean,
    sample_common,
    sample_rv,
    sample_vix,
)
from vixsmile.model import (
    ModelParams,
    grid_covariance_matrix,
    kernel,
    kernel_covariance,
    kernel_covariance_matrix,
)
from vixsmile.pricing import atmi, atmi_skew
from vixsmile.specfun import QuadSpec, integrate, window_rule


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
        {"T": math.inf},
        {"seed": -1},
    ],
)
def test_simgrid_validation(kwargs):
    base = dict(T=0.1, delta=30 / 365, n_inner=8, n_paths=100, seed=1)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SimGrid(**base)


def test_pathbatch_rejects_nonpositive_samples():
    with pytest.raises(ValueError):
        PathBatch(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        PathBatch(np.array([1.0, -1.0, 2.0]))


def test_pathbatch_rejects_empty_or_nonvector_samples():
    with pytest.raises(ValueError):
        PathBatch(np.array([]))
    with pytest.raises(ValueError):
        PathBatch(np.ones((2, 3)))
    assert [field.name for field in dataclasses.fields(PathBatch)] == ["samples"]


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_pathbatch_rejects_nonfinite_samples(bad):
    with pytest.raises(ValueError):
        PathBatch(np.array([1.0, bad, 2.0]))


# ---------------------------------------------------------------------------
# VIX sampler construction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("params", [mk(H=0.3), mk(H=0.1, beta=1.0, gamma=0.5, eta=1.0)],
                         ids=["single", "mixed"])
def test_samplers_factor_their_builders_matrices(params):
    # The samplers keep only the factor of their covariance matrix: the VIX
    # one of kernel_covariance_matrix at the window rule's nodes, the RV one
    # of grid_covariance_matrix. The matrix tests below read the builders.
    grid = SimGrid(T=0.25, n_inner=16, n_paths=10)
    vix = build_vix_sampler(params, grid)
    cov = kernel_covariance_matrix(params, _vix_rule(grid.T, grid.delta)[0], grid.T)
    assert vix.factor.tobytes() == _factor(cov).tobytes()
    rv = build_rv_sampler(params, grid)
    cov = grid_covariance_matrix(params, grid.T, grid.n_inner)
    assert rv.factor.tobytes() == _factor(cov).tobytes()
    for sampler in (vix, rv):
        assert not hasattr(sampler, "cov") and not hasattr(sampler, "params")


def test_vix_sampler_brownian_closed_form():
    # H = 1/2, beta = 0: all covariance entries equal T.
    sampler = build_vix_sampler(mk(H=0.5), SimGrid(T=0.3, n_inner=2, n_paths=10))
    np.testing.assert_allclose(sampler.factor @ sampler.factor.T, 0.3, rtol=1e-10)


def test_vix_sampler_covariance_matches_brute_force():
    params = mk(H=0.3, beta=0.0)
    grid = SimGrid(T=0.1, delta=30 / 365, n_paths=10)
    nodes, _ = _vix_rule(grid.T, grid.delta)
    cov = kernel_covariance_matrix(params, nodes, grid.T)
    assert nodes.size == _VIX_NODES and np.all(nodes > grid.T)
    for i in range(_VIX_NODES):
        for j in range(i, _VIX_NODES):
            t1, t2 = float(nodes[i]), float(nodes[j])
            # brute-force midpoint rule in tau = T - u: no node sits on T, so
            # the kernels are smooth on the scale of the smallest offset
            n = 200_000
            tau = (np.arange(n) + 0.5) * (grid.T / n)
            h = params.H - 0.5
            vals = (t1 - grid.T + tau) ** h * (t2 - grid.T + tau) ** h
            oracle = float(np.sum(vals)) * (grid.T / n)
            assert cov[i, j] == pytest.approx(oracle, abs=1e-7), (i, j)


@pytest.mark.parametrize("T", [1e-4, 1e-3, 0.1, 2.0])
@pytest.mark.parametrize("H, beta", [(0.05, 0.0), (0.1, 5.0), (0.3, 1.0), (0.5, 5.0)])
def test_vix_sampler_covariance_matches_scalar_oracle(T, H, beta):
    # kernel_covariance_matrix at the VIX sampler's graded nodes: every
    # entry, down to the smallest offset (2.6e-7 at T = 1e-4), matches the
    # adaptive scalar integral.
    params = mk(H=H, beta=beta)
    times, _ = _vix_rule(T, 30 / 365)
    if T == 1e-4:
        assert 2e-7 < times[0] - T < 3e-7
    oracle = np.array([[kernel_covariance(params, float(t1), float(t2), T) for t2 in times]
                       for t1 in times])
    np.testing.assert_allclose(kernel_covariance_matrix(params, times, T), oracle,
                               rtol=1e-12, atol=0.0)


def test_vix_sampler_degenerates_at_tiny_maturity():
    grid = SimGrid(T=1e-8, n_inner=8, n_paths=4000, seed=3)
    sampler = build_vix_sampler(mk(H=0.3, nu=2.0), grid)
    assert np.max(np.abs(sampler.factor @ sampler.factor.T)) < 1e-3
    batch = sample_vix(sampler)
    assert float(np.std(batch.samples)) < 1e-3
    assert float(np.mean(batch.samples)) == pytest.approx(0.2, abs=1e-3)


def test_factor_rejects_indefinite_matrix():
    with pytest.raises(CovarianceNotPSDError):
        _factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def _graded_rule(T, n, delta=30 / 365):
    """Times and weights of the n-node Gauss-Legendre rule graded onto the
    VIX window, the layout of the VIX sampler at n = _VIX_NODES."""
    offsets, weights = window_rule(T, delta, *np.polynomial.legendre.leggauss(n))
    return T + offsets, weights


def _covariance(params, kind, T, n, delta=30 / 365):
    """Covariance matrix of the VIX layout at n graded nodes, and of the RV
    sampler at n steps."""
    if kind == "vix":
        return kernel_covariance_matrix(params, _graded_rule(T, n, delta)[0], T)
    return grid_covariance_matrix(params, T, n)


@pytest.mark.parametrize("H", [0.05, 0.1, 0.3, 0.5])
@pytest.mark.parametrize("beta", [0.0, 1.0, 5.0])
def test_factor_reproduces_covariance(H, beta):
    # Includes n = 2, H = 1/2, beta = 1, T = 1e-8, whose most negative
    # eigenvalue, -4.5e-16 of the largest, is below -n * eps yet is noise.
    params = mk(H=H, beta=beta)
    for T in (1e-8, 1e-4, 0.1, 0.5, 2.0):
        for n in (2, 16, 33, 96):
            for kind in ("vix", "rv"):
                cov = _covariance(params, kind, T, n)
                factor = _factor(cov)
                err = np.max(np.abs(factor @ factor.T - cov))
                assert err <= 1e-12 * np.max(np.abs(cov)), (kind, T, n)
                if kind == "rv":
                    assert factor.shape == (n, n), (T, n)


def test_factor_rank_one_for_brownian_vix():
    # H = 1/2, beta = 0: every VIX covariance entry equals T. The VIX window
    # rule does not read n_inner.
    for n in (2, 16, 64):
        sampler = build_vix_sampler(mk(H=0.5), SimGrid(T=0.3, n_inner=n, n_paths=10))
        assert sampler.factor.shape == (_VIX_NODES, 1)
    rough = build_vix_sampler(mk(H=0.1), SimGrid(T=0.3, n_paths=10))
    assert 1 < rough.factor.shape[1] <= _VIX_NODES


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
    # The graded weights sum to delta only within 3e-3 at T = 1e-8, and the
    # sampler averages by their sum: every sample is sqrt(v0) to rounding.
    for T in (1e-8, 1e-4, 0.1, 0.2):
        for v0 in (0.04, 1.0):
            grid = SimGrid(T=T, n_paths=500, seed=5)
            batch = sample_vix(build_vix_sampler(mk(v0=v0, nu=0.0, eta=0.0), grid))
            np.testing.assert_array_max_ulp(batch.samples, np.full(500, math.sqrt(v0)),
                                            maxulp=4)


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
    sampler = FactorSampler("rv", params, grid, _covariance(params, "rv", grid.T, grid.n_inner),
                            np.eye(grid.n_inner), 0.0)
    v = np.empty((grid.n_inner, grid.n_paths))
    mc._draw_chunk([sampler], 0, [v], 17, mc._workspace([sampler], grid.n_paths))
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
    grid = SimGrid(T=0.1, n_inner=8, n_paths=10_000, seed=99)
    sampler = build_vix_sampler(mk(H=0.3, nu=2.0), grid)
    reference = sample_vix(sampler, workers=1).samples
    for workers in (2, 4):
        assert np.array_equal(sample_vix(sampler, workers=workers).samples, reference)
    assert np.array_equal(sample_vix(sampler, workers=1).samples, reference)
    rv_ref = sample_rv(mk(H=0.3, nu=2.0), grid, workers=1).samples
    assert np.array_equal(sample_rv(mk(H=0.3, nu=2.0), grid, workers=3).samples, rv_ref)


def _term_by_term_draw_chunk(sampler, p, weights, offset, chunk_index, size, seed):
    """The Wick reduction of the sampler built from params ``p`` written term
    by term: exp(a X - a^2 Var X / 2)."""
    factors = sampler.factor @ _chunk_rng(seed, chunk_index).standard_normal(
        (sampler.factor.shape[1], size))
    wick = np.sum(sampler.factor ** 2, axis=1)[:, None]
    sqrt_2h = math.sqrt(2.0 * p.H)
    mixed = sum(
        g * (weights @ np.exp(a * factors - 0.5 * a ** 2 * wick))
        for g, a in ((p.gamma, p.nu * sqrt_2h), (1.0 - p.gamma, p.eta * sqrt_2h))
        if g != 0.0
    )
    samples = p.v0 * (offset + mixed)
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
    # Averaging weights: the rule's weights over the window length.
    if kind == "vix":
        weights = _graded_rule(T, grid.n_inner, grid.delta)[1] / grid.delta
    else:
        weights = _trapezoid_weights(grid.n_inner, T / (grid.n_inner - 1)) / T
    offset = 0.0 if kind == "vix" else 0.001 / T
    sampler = FactorSampler(kind, params, grid, _covariance(params, kind, T, grid.n_inner),
                            weights, offset)
    work = mc._workspace([sampler], 1000)
    for chunk_index in (0, 3):
        drawn = np.empty(1000)
        mc._draw_chunk([sampler], chunk_index, [drawn], 77, work)
        reference = _term_by_term_draw_chunk(sampler, params, weights, offset, chunk_index,
                                             1000, 77)
        np.testing.assert_allclose(drawn, reference, rtol=1e-13, atol=0.0)


def _per_chunk_reference(sampler, n_paths, seed):
    """Each chunk drawn into fresh arrays and the chunks concatenated."""
    chunks = []
    for idx, start in enumerate(range(0, n_paths, _CHUNK_SIZE)):
        size = min(_CHUNK_SIZE, n_paths - start)
        y = sampler._scaled @ _chunk_rng(seed, idx).standard_normal((sampler.factor.shape[1], size))
        np.exp(y, out=y)
        samples = sampler._offset + sampler._reduce @ y
        chunks.append(np.sqrt(samples) if sampler.kind == "vix" else samples)
    return np.concatenate(chunks)


@pytest.mark.parametrize("kind", ["vix", "rv"])
@pytest.mark.parametrize(
    "params", [mk(H=0.1, nu=2.0), mk(H=0.3, beta=1.0, gamma=0.5, nu=3.0, eta=1.0)],
    ids=["single", "mixed"],
)
@pytest.mark.parametrize("n_inner", [16, 96])
def test_draw_matches_per_chunk_reference(kind, params, n_inner):
    # Drawing through a reused workspace into slices of one vector moves no
    # sample bit, at any chunk split and worker count.
    for n_paths in (1, _CHUNK_SIZE - 1, _CHUNK_SIZE + 1, 3 * _CHUNK_SIZE + 5):
        grid = SimGrid(T=0.25, n_inner=n_inner, n_paths=n_paths, seed=31)
        if kind == "vix":
            sampler = build_vix_sampler(params, grid)
        else:
            weights = _trapezoid_weights(n_inner + 1, 1.0 / n_inner)
            sampler = FactorSampler("rv", params, grid, _covariance(params, "rv", grid.T, n_inner),
                                    weights[1:], weights[0])
        reference = _per_chunk_reference(sampler, n_paths, grid.seed)
        for workers in (1, 2, 3):
            if kind == "vix":
                drawn = sample_vix(sampler, workers=workers).samples
            else:
                drawn = sample_rv(params, grid, workers=workers).samples
            assert np.array_equal(drawn, reference), (n_paths, workers)


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("T", [1e-4, 0.1, 0.5])
@pytest.mark.parametrize("mix", [{}, {"gamma": 0.5, "nu": 3.0, "eta": 1.0}],
                         ids=["single", "mixed"])
def test_rank_one_draw_matches_the_matmul_form(beta, T, mix):
    # At H = 1/2 the VIX factor has rank one for every beta, and a chunk
    # multiplies the normals in by broadcasting: the reference's explicit
    # matmul gives the same bytes.
    grid = SimGrid(T=T, n_paths=2 * _CHUNK_SIZE + 3, seed=13)
    sampler = build_vix_sampler(mk(H=0.5, beta=beta, **mix), grid)
    assert sampler.factor.shape[1] == 1
    reference = _per_chunk_reference(sampler, grid.n_paths, grid.seed)
    assert sample_vix(sampler).samples.tobytes() == reference.tobytes()


# An n_paths that is not a whole number of chunks: the last chunk is short.
_COMMON_PATHS = 3 * _CHUNK_SIZE + 5


def _common_samplers(case):
    """Samplers of mixed ranks on one grid, each with its params and its
    expected rank."""
    grid = SimGrid(T=0.25, n_inner=16, n_paths=_COMMON_PATHS, seed=29)
    if case == "vix-ranks":
        brownian, rough = mk(H=0.5, nu=2.0), mk(H=0.3, nu=2.0)
        return [(build_vix_sampler(brownian, grid), brownian, 1),
                (build_vix_sampler(rough, grid), rough, _VIX_NODES)]
    params = mk(H=0.1, beta=1.0, gamma=0.5, nu=3.0, eta=1.0)
    return [(build_vix_sampler(params, grid), params, _VIX_NODES),
            (build_rv_sampler(params, grid), params, grid.n_inner)]


@pytest.mark.parametrize("case", ["vix-ranks", "vix-and-rv"])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_common_draw_matches_lone_draws(case, workers):
    # One normal block per chunk serves samplers of ranks 1 and 8, or a VIX
    # and an RV sampler: each reads the stream prefix its lone draw reads,
    # so every batch keeps its lone draw's bytes, at every worker count.
    samplers, params, ranks = zip(*_common_samplers(case))
    assert [s.factor.shape[1] for s in samplers] == list(ranks)
    batches = sample_common(samplers, workers=workers)
    for sampler, p, batch in zip(samplers, params, batches):
        lone = _per_chunk_reference(sampler, _COMMON_PATHS, sampler.grid.seed)
        assert batch.samples.tobytes() == lone.tobytes(), sampler.kind
        if sampler.kind == "vix":
            lone = sample_vix(sampler, workers=workers).samples
        else:
            lone = sample_rv(p, sampler.grid, workers=workers).samples
        assert batch.samples.tobytes() == lone.tobytes(), sampler.kind


def test_common_draw_with_more_workers_than_cores_under_fast_switching():
    # Workers write disjoint slices of shared sample vectors; frequent
    # thread switches must not move a byte.
    samplers = [s for s, _, _ in _common_samplers("vix-and-rv")]
    reference = [b.samples for b in sample_common(samplers, workers=1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        batches = sample_common(samplers, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(b.samples, r) for b, r in zip(batches, reference))


@pytest.mark.parametrize("field, value", [("n_paths", _COMMON_PATHS + 1), ("seed", 30)])
def test_common_draw_rejects_samplers_on_different_grids(field, value):
    (vix, params, _), (rv, _, _) = _common_samplers("vix-and-rv")
    other = build_vix_sampler(params, dataclasses.replace(vix.grid, **{field: value}))
    with pytest.raises(ValueError, match=field):
        sample_common([vix, rv, other])
    with pytest.raises(ValueError):
        sample_common([])


@pytest.mark.parametrize("workers, failing_chunk", [(2, 1), (3, 2), (3, 1)])
def test_worker_error_reaches_the_caller_and_no_thread_outlives_the_draw(
        monkeypatch, workers, failing_chunk):
    # Worker w draws chunks w, w + workers, ...; the calling thread is
    # worker 0, so these chunks fail on a thread of their own.
    real_rng = mc._chunk_rng

    def chunk_rng(seed, chunk_index):
        if chunk_index == failing_chunk:
            raise RuntimeError(f"chunk {chunk_index} failed")
        return real_rng(seed, chunk_index)

    monkeypatch.setattr(mc, "_chunk_rng", chunk_rng)
    sampler = build_vix_sampler(mk(H=0.3, nu=2.0), SimGrid(T=0.1, n_paths=_COMMON_PATHS))
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match=f"chunk {failing_chunk} failed"):
        sample_vix(sampler, workers=workers)
    assert set(threading.enumerate()) == before


def test_draw_makes_no_concatenate_copy():
    # The samples are written in place: the traced peak stays well below the
    # two sample vectors that chunk results plus their concatenation held.
    grid = SimGrid(T=0.25, n_inner=2, n_paths=100_000, seed=5)
    params = mk(H=0.3, nu=2.0)
    # A first draw allocates one-time state that would count towards the peak.
    sample_rv(params, dataclasses.replace(grid, n_paths=10))
    tracemalloc.start()
    try:
        samples = sample_rv(params, grid, workers=1).samples
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * samples.nbytes


def test_consecutive_seeds_share_no_chunk():
    # Multi-chunk batches at seeds s and s + 1 come from disjoint streams.
    grid = SimGrid(T=0.1, n_inner=8, n_paths=16_000, seed=1)
    params = mk(H=0.3, nu=2.0)
    for seed in (200, 202, 1000):
        a, b = (sample_vix(build_vix_sampler(params, dataclasses.replace(grid, seed=s))).samples
                for s in (seed, seed + 1))
        assert np.intersect1d(a, b).size == 0, seed
    rv = [sample_rv(params, dataclasses.replace(grid, n_paths=8192, seed=s)).samples
          for s in (1000, 1001)]
    assert np.intersect1d(*rv).size == 0


# ---------------------------------------------------------------------------
# the VIX window rule
# ---------------------------------------------------------------------------

def _rule_and_reference(params, T, n_paths=50_000, seed=7, delta=30 / 365):
    """(ATM vol, stderr, ATM skew, stderr) of the VIX sampler's window rule
    and of a 48-node graded reference, both from one draw on the union of
    their nodes, so their difference carries no independent noise."""
    times, weights = _vix_rule(T, delta)
    ref_times, ref_weights = _graded_rule(T, 48, delta)
    n = times.size
    union = np.concatenate([times, ref_times])
    rows = np.zeros((2, union.size))
    rows[0, :n], rows[1, n:] = weights / weights.sum(), ref_weights / ref_weights.sum()
    grid = SimGrid(T=T, delta=delta, n_paths=n_paths, seed=seed)
    sampler = FactorSampler("vix", params, grid, kernel_covariance_matrix(params, union, T),
                            rows, 0.0)
    work, samples = mc._workspace([sampler], _CHUNK_SIZE), np.empty((2, n_paths))
    for idx, start in enumerate(range(0, n_paths, _CHUNK_SIZE)):
        chunk = np.empty((2, min(_CHUNK_SIZE, n_paths - start)))
        mc._draw_chunk([sampler], idx, [chunk], seed, work)
        samples[:, start:start + chunk.shape[1]] = chunk
    results = []
    for row in samples:
        batch = PathBatch(row)
        results.append((*atmi(batch, T), *atmi_skew(batch, T)))
    return results


@pytest.mark.parametrize("mix", [{}, {"gamma": 0.5, "nu": 3.0, "eta": 1.0}],
                         ids=["single", "mixed"])
@pytest.mark.parametrize("H", [0.05, 0.1, 0.3, 0.5])
@pytest.mark.parametrize("T", [1e-4, 1e-3, 1e-2, 0.1, 1.0, 2.0])
def test_vix_window_rule_agrees_with_graded_reference(T, H, mix):
    # The window rule's bias: at most 1e-4 in relative ATM implied vol and
    # 0.05 stderr in the ATM skew against 48 graded nodes. A 64-node
    # trapezoid on [T, T+delta] is off by up to 13 % in vol and 27 stderr in
    # skew over this grid.
    for beta in (0.0, 5.0):
        params = mk(H=H, beta=beta, **mix)
        (vol, _, skew, _), (ref_vol, _, ref_skew, ref_skew_se) = _rule_and_reference(params, T)
        assert abs(vol / ref_vol - 1.0) <= 1e-4, beta
        assert abs(skew - ref_skew) <= 0.05 * ref_skew_se, beta


_VIX_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from vixsmile.mc import SimGrid, build_vix_sampler, sample_vix
from vixsmile.model import ModelParams

params = ModelParams(v0=0.04, H=0.1, beta=1.0, gamma=0.5, nu=3.0, eta=1.0)
digests = set()
for n_inner in (2, 16, 64):
    grid = SimGrid(T=1e-4, n_inner=n_inner, n_paths=10_000, seed=5)
    sampler = build_vix_sampler(params, grid)
    for workers in (1, 3):
        digests.add(hashlib.sha256(sample_vix(sampler, workers=workers).samples.tobytes())
                    .hexdigest())
print(*digests)
"""


def test_vix_samples_ignore_n_inner_workers_and_blas_threads():
    # At T = 1e-4 the VIX sample bytes are the same for every n_inner,
    # worker count and BLAS thread count.
    import os
    import subprocess
    import sys

    import vixsmile

    src = os.path.dirname(os.path.dirname(os.path.abspath(vixsmile.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _VIX_DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.split())
    assert len(digests[0]) == 1 and len(digests[0][0]) == 64
    assert digests[0] == digests[1]


_BLAS_DIGEST_SCRIPT = """
import hashlib
import numpy as np
from vixsmile.mc import SimGrid, build_vix_sampler, sample_rv, sample_vix
from vixsmile.model import ModelParams, grid_covariance_matrix, kernel_covariance_matrix

digest = hashlib.sha256()
for params in (ModelParams(v0=0.04, H=0.3, nu=2.0),
               ModelParams(v0=0.04, H=0.1, beta=1.0, gamma=0.5, nu=3.0, eta=1.0)):
    # The VIX samples on their fixed window rule, and the RV samples at 16
    # and 96 steps only: at 150 and 170, eigh's bits, and so the samples,
    # still depend on the thread count.
    grid = SimGrid(T=0.25, n_paths=8192, seed=11)
    digest.update(sample_vix(build_vix_sampler(params, grid)).samples.tobytes())
    for n in (16, 96):
        grid = SimGrid(T=0.25, n_inner=n, n_paths=8192, seed=11)
        digest.update(sample_rv(params, grid).samples.tobytes())
    # Both layouts' covariances, with row counts that are not whole register
    # tiles and with several Gram blocks.
    for n in (16, 96, 150, 170, 200, 512):
        vix_nodes = np.linspace(0.25, 0.25 + 30 / 365, n)
        digest.update(kernel_covariance_matrix(params, vix_nodes, 0.25).tobytes())
        digest.update(grid_covariance_matrix(params, 0.25, n).tobytes())
print(digest.hexdigest())
"""


def test_covariances_and_samples_do_not_depend_on_blas_threads():
    # The covariance Gram products and the sampler matmuls run in BLAS; their
    # bytes must not change with its thread count.
    import os
    import subprocess
    import sys

    import vixsmile

    src = os.path.dirname(os.path.dirname(os.path.abspath(vixsmile.__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, "-c", _BLAS_DIGEST_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


@pytest.mark.parametrize("seed, chunk_index", [(0, 0), (7, 1), (42, 5), (2 ** 63 + 9, 12)])
def test_chunk_rng_is_the_spawned_child_stream(seed, chunk_index):
    # Chunk c of seed s is the c-th child of SeedSequence(s), drawn with SFC64.
    child = np.random.SeedSequence(seed).spawn(chunk_index + 1)[chunk_index]
    expected = np.random.Generator(np.random.SFC64(child)).standard_normal(64)
    assert np.array_equal(_chunk_rng(seed, chunk_index).standard_normal(64), expected)


def test_chunk_rng_accepts_extreme_seed_and_chunk_index():
    draws = _chunk_rng(2 ** 64 - 1, 2 ** 40).standard_normal(1000)
    assert np.all(np.isfinite(draws))
    assert not np.array_equal(draws, _chunk_rng(2 ** 64 - 1, 2 ** 40 - 1).standard_normal(1000))


@pytest.mark.parametrize("seed, chunk_index", [(0, 0), (41, 3), (1000, 1)])
def test_chunk_rng_streams_differ_across_diagonal_neighbours(seed, chunk_index):
    # (s, c + 1) and (s + 1, c) are different streams; an additive key
    # such as seed + chunk would make them the same.
    a = _chunk_rng(seed, chunk_index + 1).standard_normal(4096)
    b = _chunk_rng(seed + 1, chunk_index).standard_normal(4096)
    assert np.intersect1d(a, b).size == 0


def test_seed_changes_samples():
    grid = SimGrid(T=0.1, n_inner=8, n_paths=1000, seed=1)
    a, b = (sample_vix(build_vix_sampler(mk(H=0.3, nu=2.0), dataclasses.replace(grid, seed=s)))
            .samples for s in (1, 2))
    assert not np.array_equal(a, b)


def test_stderr_halves_with_four_times_the_paths():
    grid = SimGrid(T=0.25, n_inner=8, n_paths=2000, seed=0)
    params = mk(H=0.3, nu=2.0)

    def draw(n_paths, seed):
        return sample_vix(build_vix_sampler(
            params, dataclasses.replace(grid, n_paths=n_paths, seed=seed)))

    for rep in range(10):
        small, large = draw(2000, 1000 + rep), draw(8000, 2000 + rep)
        _, se_small = estimate_mean(small)
        _, se_large = estimate_mean(large)
        assert 0.4 <= se_large / se_small <= 0.6, rep


def test_grid_refinement_below_noise():
    # Doubling the RV grid's n_inner moves the ATM call price by less than 2
    # MC stderr. (The VIX window rule does not read n_inner.)
    params = mk(H=0.3, nu=2.0)
    prices = {}
    for n_inner in (32, 64):
        grid = SimGrid(T=0.25, n_inner=n_inner, n_paths=50_000, seed=31)
        batch = sample_rv(params, grid)
        forward, _ = estimate_mean(batch)
        payoff = np.maximum(batch.samples - forward, 0.0)
        prices[n_inner] = (np.mean(payoff), np.std(payoff, ddof=1) / math.sqrt(payoff.size))
    diff = abs(prices[64][0] - prices[32][0])
    noise = math.hypot(prices[64][1], prices[32][1])
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
    batch = PathBatch(np.full(5, 1.7))
    mean, stderr = estimate_mean(batch)
    assert mean == 1.7
    assert stderr == 0.0


def test_estimate_mean_rejects_single_path():
    batch = PathBatch(np.array([1.0]))
    with pytest.raises(ValueError):
        estimate_mean(batch)


def test_estimate_mean_reproducible():
    grid = SimGrid(T=0.1, n_inner=8, n_paths=9000, seed=64)
    sampler = build_vix_sampler(mk(H=0.4, nu=1.0), grid)
    values = {
        estimate_mean(sample_vix(sampler, workers=w))[0] for w in (1, 2, 4)
    }
    assert len(values) == 1
