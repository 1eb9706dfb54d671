"""Exact Gaussian Monte Carlo simulation of the VIX and realized-variance
underlyings.

The conditioning factors are jointly Gaussian with covariances given by the
kernel covariance integrals, so they are drawn exactly through a Cholesky
factor; the only discretisation is the trapezoid rule on the inner time grid.
Sampling is deterministic: paths are generated in fixed-size chunks, each
chunk owning a counter-based RNG stream keyed by seed XOR chunk index, so
results are bit-identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# kernel_covariance, the scalar reference of kernel_covariance_matrix, is
# imported but not called: perfbench/tracer.py binds it as mc.kernel_covariance.
from .model import ModelParams, kernel_covariance, kernel_covariance_matrix  # noqa: F401

__all__ = [
    "SimGrid",
    "PathBatch",
    "CovarianceNotPSDError",
    "VixSampler",
    "build_vix_sampler",
    "sample_vix",
    "sample_rv",
    "estimate_mean",
]

_CHOLESKY_JITTERS = (1e-14, 1e-12, 1e-10)


class CovarianceNotPSDError(RuntimeError):
    """Covariance matrix failed Cholesky even after diagonal jitter."""


@dataclass(frozen=True)
class SimGrid:
    """Simulation layout: maturity, averaging window, inner nodes, paths."""

    T: float
    delta: float = 30.0 / 365.0
    n_inner: int = 64
    n_paths: int = 200_000
    seed: int = 42
    chunk_size: int = 4096

    def __post_init__(self) -> None:
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T!r}")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if self.n_inner < 2:
            raise ValueError(f"n_inner must be >= 2, got {self.n_inner!r}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if self.chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {self.chunk_size!r}")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class PathBatch:
    """A batch of simulated underlying samples with full seed provenance."""

    kind: str  # "vix" or "rv"
    samples: np.ndarray
    grid: SimGrid
    params: ModelParams

    def __post_init__(self) -> None:
        if self.kind not in ("vix", "rv"):
            raise ValueError(f"kind must be 'vix' or 'rv', got {self.kind!r}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size != self.grid.n_paths:
            raise ValueError("samples must be a vector of length n_paths")
        if not np.all(samples > 0.0):
            raise ValueError("all samples must be strictly positive")
        object.__setattr__(self, "samples", samples)


def _cholesky_with_jitter(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    for eps in _CHOLESKY_JITTERS:
        bumped = cov.copy()
        bumped[np.diag_indices_from(bumped)] *= 1.0 + eps
        try:
            return np.linalg.cholesky(bumped)
        except np.linalg.LinAlgError:
            continue
    raise CovarianceNotPSDError(
        "covariance not positive semi-definite after jitter up to "
        f"{_CHOLESKY_JITTERS[-1]}; inner quadrature may be inaccurate"
    )


def _trapezoid_weights(n_points: int, dx: float) -> np.ndarray:
    w = np.full(n_points, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


def _mixture_factors(params: ModelParams):
    sqrt_2h = math.sqrt(2.0 * params.H)
    return params.nu * sqrt_2h, params.eta * sqrt_2h


def _chunk_sizes(n_paths: int, chunk_size: int) -> list[int]:
    n_chunks = (n_paths + chunk_size - 1) // chunk_size
    return [
        min(chunk_size, n_paths - c * chunk_size) for c in range(n_chunks)
    ]


def _run_chunks(
    simulate_chunk: Callable[[int, int], np.ndarray],
    n_paths: int,
    chunk_size: int,
    workers: int,
) -> np.ndarray:
    """Evaluate chunks (possibly in parallel) and assemble in chunk order.

    The assembly order is fixed by the chunk index, so the resulting sample
    vector (and anything reduced from it) is independent of ``workers``.
    """
    sizes = _chunk_sizes(n_paths, chunk_size)
    results: list[np.ndarray | None] = [None] * len(sizes)
    if workers <= 1 or len(sizes) == 1:
        for idx, size in enumerate(sizes):
            results[idx] = simulate_chunk(idx, size)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(simulate_chunk, idx, size): idx
                for idx, size in enumerate(sizes)
            }
            for future, idx in futures.items():
                results[idx] = future.result()
    return np.concatenate(results)


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed ^ chunk_index))


class VixSampler:
    """Precomputed state for drawing VIX samples at one maturity.

    Holds the inner node grid on [T, T+delta], the covariance matrix of the
    conditioning Gaussian factors, its (jittered) Cholesky factor, and the
    deterministic variance corrections of the conditional Wick exponentials.
    """

    def __init__(self, params: ModelParams, grid: SimGrid):
        self.params = params
        self.grid = grid
        self.nodes = np.linspace(grid.T, grid.T + grid.delta, grid.n_inner)
        windows = np.full(grid.n_inner, grid.T)
        self.cov = kernel_covariance_matrix(params, self.nodes, windows)
        self.chol = _cholesky_with_jitter(self.cov)
        self.wick = np.diag(self.cov).copy()
        self._weights = _trapezoid_weights(
            grid.n_inner, grid.delta / (grid.n_inner - 1)
        )

    def draw_chunk(self, chunk_index: int, size: int, seed: int) -> np.ndarray:
        rng = _chunk_rng(seed, chunk_index)
        normals = rng.standard_normal((self.grid.n_inner, size))
        factors = self.chol @ normals
        a1, a2 = _mixture_factors(self.params)
        p = self.params
        fwd_var = p.gamma * np.exp(
            a1 * factors - 0.5 * a1 ** 2 * self.wick[:, None]
        )
        fwd_var += (1.0 - p.gamma) * np.exp(
            a2 * factors - 0.5 * a2 ** 2 * self.wick[:, None]
        )
        fwd_var *= p.v0
        return np.sqrt((self._weights @ fwd_var) / self.grid.delta)


def build_vix_sampler(params: ModelParams, grid: SimGrid) -> VixSampler:
    """Precompute the Gaussian layer for VIX sampling at grid.T."""
    return VixSampler(params, grid)


def sample_vix(
    sampler: VixSampler,
    n_paths: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> PathBatch:
    """Draw VIX_T samples: sqrt of the window-averaged conditional variance."""
    grid = sampler.grid
    n_paths = grid.n_paths if n_paths is None else n_paths
    seed = grid.seed if seed is None else seed
    samples = _run_chunks(
        lambda idx, size: sampler.draw_chunk(idx, size, seed),
        n_paths, grid.chunk_size, workers,
    )
    out_grid = SimGrid(grid.T, grid.delta, grid.n_inner, n_paths, seed,
                       grid.chunk_size)
    return PathBatch("vix", samples, out_grid, sampler.params)


def _rv_variance_state(params: ModelParams, grid: SimGrid):
    """Nodes in (0, T], Cholesky factor of the Volterra factor covariance,
    and per-node variances for the Wick corrections."""
    nodes = grid.T * (np.arange(1, grid.n_inner + 1) / grid.n_inner)
    cov = kernel_covariance_matrix(params, nodes, nodes)
    chol = _cholesky_with_jitter(cov)
    return nodes, chol, np.diag(cov).copy()


def _rv_variance_paths(params: ModelParams, chol: np.ndarray, node_vars: np.ndarray,
                       rng: np.random.Generator, size: int) -> np.ndarray:
    """Instantaneous variance at the inner nodes, shape (n_inner, size)."""
    normals = rng.standard_normal((chol.shape[0], size))
    factors = chol @ normals
    a1, a2 = _mixture_factors(params)
    v = params.gamma * np.exp(a1 * factors - 0.5 * a1 ** 2 * node_vars[:, None])
    v += (1.0 - params.gamma) * np.exp(
        a2 * factors - 0.5 * a2 ** 2 * node_vars[:, None]
    )
    return params.v0 * v


def sample_rv(
    params: ModelParams,
    grid: SimGrid,
    n_paths: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> PathBatch:
    """Draw RV_T = (1/T) int_0^T v_s ds samples by exact Gaussian simulation.

    The variance path starts at the analytic value v(0) = v0 and is
    integrated by the trapezoid rule over n_inner uniform steps.
    """
    n_paths = grid.n_paths if n_paths is None else n_paths
    seed = grid.seed if seed is None else seed
    _, chol, node_vars = _rv_variance_state(params, grid)
    weights = _trapezoid_weights(grid.n_inner + 1, grid.T / grid.n_inner)

    def simulate_chunk(idx: int, size: int) -> np.ndarray:
        v = _rv_variance_paths(params, chol, node_vars, _chunk_rng(seed, idx), size)
        integral = weights[0] * params.v0 + weights[1:] @ v
        return integral / grid.T

    samples = _run_chunks(simulate_chunk, n_paths, grid.chunk_size, workers)
    out_grid = SimGrid(grid.T, grid.delta, grid.n_inner, n_paths, seed,
                       grid.chunk_size)
    return PathBatch("rv", samples, out_grid, params)


def estimate_mean(batch: PathBatch) -> tuple[float, float]:
    """Sample mean and standard error of a batch (the futures/forward level)."""
    samples = batch.samples
    if samples.size < 2:
        raise ValueError("need at least two paths to estimate a mean with error")
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
    return mean, stderr
