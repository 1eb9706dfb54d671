"""Exact Gaussian Monte Carlo simulation of the VIX and realized-variance
underlyings.

Both underlyings are trapezoid-rule window integrals of the same
Wick-exponential mixture of one Gaussian Volterra factor, so one sampler
serves both. The factor values at the inner nodes are jointly Gaussian with
covariances given by the kernel covariance integrals; they are drawn exactly
through a factor of that matrix, truncated to its numerical rank, so the only
discretisation is the trapezoid rule on the inner time grid.
Sampling is deterministic: paths are generated in fixed-size chunks, each
chunk owning a counter-based Philox stream keyed by the two words
(seed, chunk index), so results are bit-identical for any worker count and
no two (seed, chunk) pairs share a stream.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

# kernel_covariance, the scalar reference of kernel_covariance_matrix, is
# imported but not called: perfbench/tracer.py binds it as mc.kernel_covariance.
from .model import ModelParams, kernel_covariance, kernel_covariance_matrix  # noqa: F401

__all__ = [
    "SimGrid",
    "PathBatch",
    "CovarianceNotPSDError",
    "FactorSampler",
    "build_vix_sampler",
    "sample_vix",
    "sample_rv",
    "estimate_mean",
]

# Relative eigenvalue tolerance of _factor. Dropping the eigenvalues below
# tol * max moves no covariance entry by more than ~1.3e-13 of the largest,
# under the ~7e-13 accuracy of the matrices themselves; at 1e-12 the dropped
# eigenvalues add up to 8e-12. The most negative eigenvalue of a sampler
# covariance is about -1.2e-15 of the largest (n_inner up to 512).
_FACTOR_TOL = 1e-14


class CovarianceNotPSDError(RuntimeError):
    """Covariance matrix has an eigenvalue below -tol times its largest."""


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
        if not np.all(np.isfinite(samples)):
            raise ValueError("all samples must be finite")
        if not np.all(samples > 0.0):
            raise ValueError("all samples must be strictly positive")
        object.__setattr__(self, "samples", samples)


def _factor(cov: np.ndarray) -> np.ndarray:
    """F (n x r) with F @ F.T == cov up to the dropped eigenvalues.

    Keeps the eigenpairs above _FACTOR_TOL times the largest eigenvalue, so
    r is the numerical rank; a matrix with an eigenvalue below -_FACTOR_TOL
    times the largest is not a covariance and raises.
    """
    lam, vecs = np.linalg.eigh(cov)
    cutoff = _FACTOR_TOL * lam[-1]
    if not lam[0] >= -cutoff:
        raise CovarianceNotPSDError(
            f"covariance has eigenvalue {lam[0]:.3e} against largest {lam[-1]:.3e}; "
            "inner quadrature may be inaccurate"
        )
    keep = lam > cutoff
    return vecs[:, keep] * np.sqrt(lam[keep])


def _trapezoid_weights(n_points: int, dx: float) -> np.ndarray:
    w = np.full(n_points, dx)
    w[0] = w[-1] = 0.5 * dx
    return w


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
    # Philox's 128-bit key holds the seed (below 2**64) in its low word and
    # the chunk index in its high word.
    return np.random.Generator(np.random.Philox(key=seed + (chunk_index << 64)))


class FactorSampler:
    """Precomputed Gaussian layer for one underlying at one maturity.

    At each inner node t_i, with its conditioning window U_i, the variance is
    v_i = v0 * sum_k g_k exp(a_k X_i - a_k^2 Var X_i / 2), where X_i is the
    Volterra factor integrated over [0, U_i], g = (gamma, 1 - gamma) and
    a = (nu, eta) * sqrt(2H); a zero-weight term is skipped. A sample is
    (offset + weights . v) / divisor, and its square root for the VIX.
    The Wick variances are taken from the drawn factor itself, so
    E[v_i] = v0 holds exactly for the simulated Gaussians.

    Each term's variance shift exp(-a^2 Var X_i / 2) and mixture weight g_k
    are folded into the reduction weights once per sampler, and the terms'
    scaled factors a_k F are stacked, so a chunk costs one matmul, one
    in-place exp and one reduction.
    """

    def __init__(self, kind: str, params: ModelParams, grid: SimGrid,
                 nodes: np.ndarray, windows: np.ndarray, weights: np.ndarray,
                 offset: float, divisor: float):
        self.kind = kind
        self.params = params
        self.grid = grid
        self.nodes = nodes
        self.cov = kernel_covariance_matrix(params, nodes, windows)
        self.factor = _factor(self.cov)
        wick = np.sum(self.factor ** 2, axis=1)
        sqrt_2h = math.sqrt(2.0 * params.H)
        terms = [
            (g, a)
            for g, a in ((params.gamma, params.nu * sqrt_2h),
                         (1.0 - params.gamma, params.eta * sqrt_2h))
            if g != 0.0
        ]
        self._scaled = np.vstack([a * self.factor for _, a in terms])
        self._reduce = np.concatenate(
            [g * weights * np.exp(-0.5 * a ** 2 * wick) for g, a in terms], axis=-1
        )
        self._offset = offset
        self._divisor = divisor

    def draw_chunk(self, chunk_index: int, size: int, seed: int) -> np.ndarray:
        rng = _chunk_rng(seed, chunk_index)
        y = self._scaled @ rng.standard_normal((self.factor.shape[1], size))
        np.exp(y, out=y)
        samples = (self._offset + self.params.v0 * (self._reduce @ y)) / self._divisor
        return np.sqrt(samples) if self.kind == "vix" else samples


def build_vix_sampler(params: ModelParams, grid: SimGrid) -> FactorSampler:
    """Precompute the Gaussian layer for VIX sampling at grid.T.

    The nodes cover [T, T+delta], each conditioned on [0, T]:
    VIX_T^2 = (1/delta) int_T^{T+delta} E_T[v_s] ds.
    """
    nodes = np.linspace(grid.T, grid.T + grid.delta, grid.n_inner)
    weights = _trapezoid_weights(grid.n_inner, grid.delta / (grid.n_inner - 1))
    return FactorSampler("vix", params, grid, nodes, np.full(grid.n_inner, grid.T),
                         weights, 0.0, grid.delta)


def _draw(sampler: FactorSampler, n_paths: int | None, seed: int | None,
          workers: int) -> PathBatch:
    grid = sampler.grid
    n_paths = grid.n_paths if n_paths is None else n_paths
    seed = grid.seed if seed is None else seed
    samples = _run_chunks(
        lambda idx, size: sampler.draw_chunk(idx, size, seed),
        n_paths, grid.chunk_size, workers,
    )
    out_grid = replace(grid, n_paths=n_paths, seed=seed)
    return PathBatch(sampler.kind, samples, out_grid, sampler.params)


def sample_vix(
    sampler: FactorSampler,
    n_paths: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> PathBatch:
    """Draw VIX_T samples: sqrt of the window-averaged conditional variance."""
    return _draw(sampler, n_paths, seed, workers)


def sample_rv(
    params: ModelParams,
    grid: SimGrid,
    n_paths: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> PathBatch:
    """Draw RV_T = (1/T) int_0^T v_s ds samples by exact Gaussian simulation.

    The variance path starts at the analytic value v(0) = v0 and is
    integrated by the trapezoid rule over n_inner uniform steps; each node in
    (0, T] is its own conditioning window.
    """
    nodes = grid.T * (np.arange(1, grid.n_inner + 1) / grid.n_inner)
    weights = _trapezoid_weights(grid.n_inner + 1, grid.T / grid.n_inner)
    sampler = FactorSampler("rv", params, grid, nodes, nodes, weights[1:],
                            weights[0] * params.v0, grid.T)
    return _draw(sampler, n_paths, seed, workers)


def estimate_mean(batch: PathBatch) -> tuple[float, float]:
    """Sample mean and standard error of a batch (the futures/forward level)."""
    samples = batch.samples
    if samples.size < 2:
        raise ValueError("need at least two paths to estimate a mean with error")
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
    return mean, stderr
