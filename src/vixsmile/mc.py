"""Exact Gaussian Monte Carlo simulation of the VIX and realized-variance
underlyings.

Both underlyings are fixed-rule window averages of the same
Wick-exponential mixture of one Gaussian Volterra factor, scaled by v0, so
one sampler serves both. The factor values at the inner nodes are jointly
Gaussian with covariances given by the kernel covariance integrals: the VIX
nodes all over the noise window [0, T] (``kernel_covariance_matrix``), and the RV grid
nodes each over its own past (``grid_covariance_matrix``). They are drawn
exactly through a factor of that matrix, truncated to its numerical rank, so
the only discretisation is the quadrature rule in time: for the VIX,
``_VIX_NODES`` Gauss-Legendre nodes graded onto [T, T+delta] at the scale T
(``specfun.window_rule``), and for the RV, the trapezoid rule on
``SimGrid.n_inner`` uniform steps.
Sampling is deterministic: paths are generated in fixed-size chunks, and
chunk c of seed s draws from an SFC64 generator seeded by the c-th child of
``SeedSequence(s)`` (spawn key (c,)), numpy's scheme for independent
parallel streams. A draw allocates one sample vector per sampler; chunk c
writes its samples straight into its own slice of each, and each worker
draws its chunks through one reused workspace for the normals and Wick
exponents. Results are therefore bit-identical for any worker count, and
different (seed, chunk) pairs seed their generators differently, so batches
drawn at nearby seeds share no chunk.

``sample_common`` draws several samplers that share a path count and a
seed (common random numbers): each chunk's normals are drawn once, at the
largest rank R, and a sampler of rank r reads their first r rows. Those are
the first r * chunk-size normals of the chunk's stream, exactly what its
lone draw reads, so every batch is bit-identical to drawing its sampler
alone. ``sample_vix`` and ``sample_rv`` are its one-sampler calls.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .model import ModelParams, grid_covariance_matrix, kernel_covariance_matrix
from .specfun import window_rule

# kernel_covariance, the scalar reference of the covariance builders, is
# imported but not called: perfbench/tracer.py binds it as mc.kernel_covariance.
from .model import kernel_covariance  # noqa: F401

__all__ = [
    "SimGrid",
    "PathBatch",
    "CovarianceNotPSDError",
    "FactorSampler",
    "build_vix_sampler",
    "build_rv_sampler",
    "sample_common",
    "sample_vix",
    "sample_rv",
    "estimate_mean",
]

# Relative eigenvalue tolerance of _factor. Dropping the eigenvalues below
# tol * max moves no covariance entry by more than ~1.2e-13 of the largest
# (the matrices agree with their scalar oracle to ~7e-15 of it); at 1e-12
# the dropped eigenvalues add up to 8e-12. The tolerance must stay above the
# eigenvalue noise: the most negative eigenvalue of a sampler covariance is
# about -1.1e-15 of the largest (n_inner up to 512).
_FACTOR_TOL = 1e-14

# Gauss-Legendre nodes of the VIX window rule. E_T[v_s] varies on the time
# scale T just after s = T, rough like (s - T)^H, and window_rule grades the
# nodes at that scale. Against a 48-node reference drawn from the same
# normals (50k paths, T from 1e-4 to 2, H from 0.05 to 1/2, beta in {0, 5},
# one factor and a mixture), 8 nodes are at worst 2.3e-5 off in relative ATM
# implied vol and 0.0012 stderr off in the ATM skew. 12 nodes raise the
# factor's rank from 8 to 10 at T = 0.1, and draw about 40 % slower. The
# weights sum to delta only within 6.3e-6 at T = 1e-4 (3e-3 at T = 1e-8), so
# the sampler averages by their sum: a constant variance reads exactly.
_VIX_NODES = 8
_VIX_X, _VIX_W = np.polynomial.legendre.leggauss(_VIX_NODES)

# Paths per chunk. Each chunk has its own stream (see _chunk_rng), so the
# sample bytes of every batch longer than one chunk depend on this value.
_CHUNK_SIZE = 4096


class CovarianceNotPSDError(RuntimeError):
    """Covariance matrix has an eigenvalue below -tol times its largest."""


@dataclass(frozen=True)
class SimGrid:
    """Simulation layout: maturity, averaging window, inner nodes, paths.

    ``n_inner`` is the number of trapezoid steps of the RV grid; the VIX
    window always takes the ``_VIX_NODES`` graded nodes and ignores it.
    """

    T: float
    delta: float = 30.0 / 365.0
    n_inner: int = 64
    n_paths: int = 200_000
    seed: int = 42

    def __post_init__(self) -> None:
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T!r}")
        if not (self.delta > 0.0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be positive, got {self.delta!r}")
        if self.n_inner < 2:
            raise ValueError(f"n_inner must be >= 2, got {self.n_inner!r}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths!r}")
        if not (0 <= self.seed < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class PathBatch:
    """A nonempty vector of simulated underlying samples, each finite and
    strictly positive."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a nonempty vector")
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


def _run_chunks(samplers: Sequence[FactorSampler], n_paths: int, seed: int,
                workers: int) -> list[np.ndarray]:
    """n_paths samples per sampler from seed's chunk streams, drawn (possibly
    in parallel).

    Chunk c fills samples[c * _CHUNK_SIZE : (c + 1) * _CHUNK_SIZE] of every
    sampler's vector whichever worker draws it, so the sample vectors (and
    anything reduced from them) are independent of ``workers``. Worker w
    draws chunks w, w + workers, ... through its own workspace; the calling
    thread is worker 0, and workers 1, 2, ... run on their own threads. The
    first error, in worker order, is raised once every thread has ended.
    """
    outs = [np.empty(n_paths) for _ in samplers]
    n_chunks = -(-n_paths // _CHUNK_SIZE)
    workers = min(max(workers, 1), n_chunks)
    errors: list[BaseException | None] = [None] * workers

    def draw_chunks(first: int) -> None:
        work = _workspace(samplers, min(_CHUNK_SIZE, n_paths))
        for idx in range(first, n_chunks, workers):
            chunk = slice(idx * _CHUNK_SIZE, (idx + 1) * _CHUNK_SIZE)
            _draw_chunk(samplers, idx, [out[chunk] for out in outs], seed, work)

    def worker(first: int) -> None:
        try:
            draw_chunks(first)
        except BaseException as exc:  # re-raised by the calling thread
            errors[first] = exc

    threads: list[threading.Thread] = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=worker, args=(first,))
            thread.start()
            threads.append(thread)
        draw_chunks(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return outs


def _workspace(samplers: Sequence[FactorSampler], size: int) -> np.ndarray:
    """Scratch buffer for _draw_chunk: the normals of chunks of up to ``size``
    paths at the samplers' largest rank, then the Wick exponents of the
    sampler with the most of them."""
    rank = max(sampler.factor.shape[1] for sampler in samplers)
    rows = max(sampler._scaled.shape[0] for sampler in samplers)
    return np.empty((rank + rows) * size)


def _draw_chunk(samplers: Sequence[FactorSampler], chunk_index: int,
                outs: Sequence[np.ndarray], seed: int, work: np.ndarray) -> None:
    """Write chunk ``chunk_index`` of ``seed`` of each sampler into its
    ``outs`` entry from one draw of the chunk's normals, using ``work`` from
    _workspace() as scratch. The chunk size is the outputs' last axis."""
    size = outs[0].shape[-1]
    rank = max(sampler.factor.shape[1] for sampler in samplers)
    # C-contiguous prefixes of the flat buffer, as out= needs: z's first r
    # rows are the first r * size normals of the stream.
    z = work[:rank * size].reshape(rank, size)
    _chunk_rng(seed, chunk_index).standard_normal(out=z)
    for sampler, out in zip(samplers, outs):
        sampler.transform(z[:sampler.factor.shape[1]], out, work[rank * size:])


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    # The same stream as SeedSequence(seed).spawn(chunk_index + 1)[chunk_index],
    # built without spawning the earlier children. SeedSequence hashes the
    # seed and the spawn key together into SFC64's state, so (s, c + 1) and
    # (s + 1, c) are seeded differently; numpy documents such spawned
    # streams as independent with very high probability.
    seq = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.SFC64(seq))


class FactorSampler:
    """Precomputed Gaussian layer for one underlying at one maturity.

    ``cov`` is the covariance matrix of the Volterra factor X_i at the inner
    nodes, each integrated over its conditioning window. At node i the
    unit-mean variance is u_i = sum_k g_k exp(a_k X_i - a_k^2 Var X_i / 2),
    where g = (gamma, 1 - gamma) and a = (nu, eta) * sqrt(2H); a zero-weight
    term is skipped. ``weights`` and ``offset`` average the nodes and a node
    where u = 1, summing to one, and a sample is v0 (offset + weights . u),
    its square root for the VIX. The Wick variances are taken from the drawn
    factor, so E[u_i] = 1 holds exactly for the simulated Gaussians.

    v0, each term's variance shift exp(-a^2 Var X_i / 2) and its mixture
    weight g_k are folded into the reduction weights and the offset once per
    sampler, and the terms' scaled factors a_k F are stacked, so a chunk is
    the normals, one matmul (a broadcast multiply when F has rank one, as at
    H = 1/2), one in-place exp, one reduction and the offset, all written
    into preallocated arrays. Neither ``cov`` nor ``params`` is kept: a
    sampler holds its factor, those folded arrays, ``kind`` and ``grid``.
    """

    def __init__(self, kind: str, params: ModelParams, grid: SimGrid,
                 cov: np.ndarray, weights: np.ndarray, offset: float):
        self.kind = kind
        self.grid = grid
        self.factor = _factor(cov)
        wick = np.sum(self.factor ** 2, axis=1)
        sqrt_2h = math.sqrt(2.0 * params.H)
        terms = [
            (g, a)
            for g, a in ((params.gamma, params.nu * sqrt_2h),
                         (1.0 - params.gamma, params.eta * sqrt_2h))
            if g != 0.0
        ]
        self._scaled = np.vstack([a * self.factor for _, a in terms])
        self._reduce = params.v0 * np.concatenate(
            [g * weights * np.exp(-0.5 * a ** 2 * wick) for g, a in terms], axis=-1
        )
        self._offset = params.v0 * offset

    def transform(self, z: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        """Write the samples of the normals ``z`` (rank x chunk size,
        C-contiguous) into ``out``, with ``work`` as scratch for the Wick
        exponents."""
        rows, size = self._scaled.shape[0], out.shape[-1]
        y = work[:rows * size].reshape(rows, size)
        if z.shape[0] == 1:
            # An outer product: the same bits as the matmul, which is slow
            # with an inner dimension of one.
            np.multiply(self._scaled, z, out=y)
        else:
            np.matmul(self._scaled, z, out=y)
        np.exp(y, out=y)
        np.matmul(self._reduce, y, out=out)
        out += self._offset
        if self.kind == "vix":
            np.sqrt(out, out=out)


def _vix_rule(T: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Times and weights of the VIX window rule on [T, T+delta]."""
    offsets, weights = window_rule(T, delta, _VIX_X, _VIX_W)
    return T + offsets, weights


def build_vix_sampler(params: ModelParams, grid: SimGrid) -> FactorSampler:
    """Precompute the Gaussian layer for VIX sampling at grid.T.

    VIX_T^2 = (1/delta) int_T^{T+delta} E_T[v_s] ds, taken by the
    ``_VIX_NODES``-node Gauss-Legendre rule graded onto the window by
    ``specfun.window_rule`` over the sum of its weights, so that it averages
    a constant exactly; every node is conditioned on [0, T]. ``grid.n_inner``
    is not read.
    """
    times, weights = _vix_rule(grid.T, grid.delta)
    cov = kernel_covariance_matrix(params, times, grid.T)
    return FactorSampler("vix", params, grid, cov, weights / weights.sum(), 0.0)


def build_rv_sampler(params: ModelParams, grid: SimGrid) -> FactorSampler:
    """Precompute the Gaussian layer for RV_T = (1/T) int_0^T v_s ds samples.

    The variance path starts at the analytic value v(0) = v0 and is
    averaged by the trapezoid rule over ``grid.n_inner`` uniform steps; each
    node in (0, T] is its own conditioning window.
    """
    cov = grid_covariance_matrix(params, grid.T, grid.n_inner)
    weights = _trapezoid_weights(grid.n_inner + 1, 1.0 / grid.n_inner)
    return FactorSampler("rv", params, grid, cov, weights[1:], weights[0])


def _shared(samplers: Sequence[FactorSampler], name: str, override: int | None) -> int:
    """``override``, else the grid field ``name`` that all samplers share."""
    if override is not None:
        return override
    values = {getattr(sampler.grid, name) for sampler in samplers}
    if len(values) != 1:
        raise ValueError(f"samplers must share {name}, got {sorted(values)}")
    return values.pop()


def sample_common(
    samplers: Sequence[FactorSampler],
    n_paths: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> list[PathBatch]:
    """One batch per sampler, all drawn from one seed's chunk streams.

    Each chunk's normals are drawn once, at the samplers' largest rank, and
    serve every sampler, so each batch is bit-identical to its sampler's
    lone draw. ``n_paths`` and ``seed`` override the samplers' grids', which
    must otherwise share them; a ValueError says when they do not.
    """
    if not samplers:
        raise ValueError("need at least one sampler")
    n_paths = _shared(samplers, "n_paths", n_paths)
    seed = _shared(samplers, "seed", seed)
    replace(samplers[0].grid, n_paths=n_paths, seed=seed)  # SimGrid checks the overrides
    return [PathBatch(values) for values in _run_chunks(samplers, n_paths, seed, workers)]


def sample_vix(
    sampler: FactorSampler,
    n_paths: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> PathBatch:
    """Draw VIX_T samples: sqrt of the window-averaged conditional variance.
    ``n_paths`` and ``seed`` override the sampler grid's."""
    return sample_common([sampler], n_paths, seed, workers)[0]


def sample_rv(params: ModelParams, grid: SimGrid, workers: int = 1) -> PathBatch:
    """Draw RV_T = (1/T) int_0^T v_s ds samples by exact Gaussian simulation
    (see :func:`build_rv_sampler`)."""
    return sample_common([build_rv_sampler(params, grid)], workers=workers)[0]


def estimate_mean(batch: PathBatch) -> tuple[float, float]:
    """Sample mean and standard error of a batch (the futures/forward level)."""
    samples = batch.samples
    if samples.size < 2:
        raise ValueError("need at least two paths to estimate a mean with error")
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / math.sqrt(samples.size))
    return mean, stderr
