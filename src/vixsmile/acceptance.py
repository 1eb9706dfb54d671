"""The acceptance suite: formula-anchored, property-based criteria that
reproduce the headline Monte Carlo vs asymptote comparisons at desk scale.

Each criterion reports the worst measured discrepancy against its pinned
tolerance. The same criteria back ``tests/test_acceptance.py`` and the
``vixsmile validate`` subcommand. A criterion is one ``Criterion`` row of
``CRITERIA``: key, name, its tolerance at full scale and in quick mode,
its runner and the batches it draws. A runner returns only what it
measures, (achieved, detail); :func:`run_criterion` pairs it with the
row's tolerance for the mode. Quick mode cuts the Monte Carlo path counts
(10x on ``_grid``'s) and C7's brute-force grid; the rows of C1, C2, C4,
C5 and C6 pin twice their full-scale tolerance there, the others the same.

A Monte Carlo criterion lists its batches as ``Draw`` keys (kind, params,
grid) in ``Criterion.draws``. :func:`run_criterion` looks them up in
``_batches``, a memo of one mode's batches, and hands the runner its
(draw, batch) pairs; the runner reads its models and maturities from the
draws. The first criterion with draws fills the memo, inside its own
``run_criterion`` call: one sampler per distinct key (C1 and C11 share
theirs), and one ``sample_common`` call per (seed, n_paths) group of them.
Quick mode has one group, the full suite two, as C10's RV batch takes a
quarter of the full path count. Each batch is bit-identical to its
sampler's lone draw, so sharing moves no value, and the first criterion's
seconds include the whole draw. C10 makes three draws of its own: one VIX
sampler of three chunks at workers 1, 2 and 4, which must agree bit for
bit, and whose first quarter must have about twice the whole's stderr.

No criterion runs an adaptive quadrature: C8's ``vix_skew_approx`` takes
fixed rules only. C9 checks the incomplete gamma, scalar and array paths,
against one Gauss-Jacobi rule per shape whose remainder is bounded in
closed form, and reports it as "gamma vs Gauss-Jacobi: err (bound b,
cap 1e-10)".
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import asymptotics as asy
from .bs import atm_price, implied_vol
from .mc import (
    _CHUNK_SIZE,
    FactorSampler,
    PathBatch,
    SimGrid,
    build_rv_sampler,
    build_vix_sampler,
    estimate_mean,
    sample_common,
    sample_vix,
)
from .model import ModelParams
from .pricing import atmi, atmi_skew
from .specfun import QuadratureError, gauss_2f1, gauss_jacobi, lower_incomplete_gamma

__all__ = ["CriterionResult", "CRITERIA", "run_criterion"]

DELTA = 30.0 / 365.0
SEED = 42
FULL_PATHS = 200_000


@dataclass(frozen=True)
class CriterionResult:
    key: str
    name: str
    passed: bool
    achieved: float
    tolerance: float
    detail: str
    seconds: float


def _grid(maturity: float, quick: bool) -> SimGrid:
    """The grid of every Monte Carlo criterion but C10, with 10x fewer paths
    in quick mode. Its 64 inner nodes serve only the RV criteria, C2 and C6:
    the VIX draws take their fixed window rule. All its batches fall in one
    (seed, n_paths) group of ``_batches``; C10's RV batch joins that group
    in quick mode only."""
    return SimGrid(T=maturity, delta=DELTA, n_inner=64,
                   n_paths=FULL_PATHS // 10 if quick else FULL_PATHS, seed=SEED)


class Draw(NamedTuple):
    """One Monte Carlo batch a criterion reads: ``kind`` "vix" or "rv", the
    model and the grid; the key of the batch in ``_batches``."""

    kind: str
    params: ModelParams
    grid: SimGrid

    def sampler(self) -> FactorSampler:
        build = build_vix_sampler if self.kind == "vix" else build_rv_sampler
        return build(self.params, self.grid)


@functools.lru_cache(maxsize=1)
def _batches(quick: bool) -> dict[Draw, PathBatch]:
    """The batch of every distinct draw of ``CRITERIA`` in this mode, one
    ``sample_common`` call per (seed, n_paths) group. The samples are read-only:
    every reader of a draw, in any run, gets the same array."""
    groups: dict[tuple[int, int], dict[Draw, None]] = {}
    for criterion in CRITERIA:
        for draw in criterion.draws(quick):
            groups.setdefault((draw.grid.seed, draw.grid.n_paths), {})[draw] = None
    batches: dict[Draw, PathBatch] = {}
    for group in groups.values():
        batches.update(zip(group, sample_common([draw.sampler() for draw in group])))
    for batch in batches.values():
        batch.samples.flags.writeable = False
    return batches


# A runner's batches: one (draw, batch) pair per draw of its criterion.
Pairs = tuple[tuple[Draw, PathBatch], ...]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

# The short maturity of C1, C2 and C11.
_SHORT_T = 1e-4


def _sabr_draws(quick: bool) -> tuple[Draw, ...]:
    """The one batch of C1 and C11: the SABR VIX at the short maturity."""
    params = ModelParams(H=0.5, beta=0.0, gamma=1.0, nu=2.0)
    return (Draw("vix", params, _grid(_SHORT_T, quick)),)


def _c1_sabr_vix_atmi(quick: bool, pairs: Pairs):
    ((draw, batch),) = pairs
    vol, _ = atmi(batch, draw.grid.T)
    return abs(vol - 1.0), f"mc_atmi={vol:.5f} vs limit=1.0"


def _c2_draws(quick: bool) -> tuple[Draw, ...]:
    return tuple(Draw("rv", ModelParams(H=hurst, beta=0.0, gamma=1.0, nu=2.0),
                      _grid(_SHORT_T, quick)) for hurst in (0.1, 0.3))


def _c2_rv_power_law(quick: bool, pairs: Pairs):
    worst, parts = 0.0, []
    for draw, batch in pairs:
        hurst = draw.params.H
        vol, _ = atmi(batch, draw.grid.T)
        rescaled = draw.grid.T ** (0.5 - hurst) * vol
        target = asy.rv_atmi_limit(draw.params)
        gap = abs(rescaled / target - 1.0)
        worst = max(worst, gap)
        parts.append(f"H={hurst}: {rescaled:.4f} vs {target:.4f}")
    return worst, "; ".join(parts)


def _c3_heston_sign(quick: bool, pairs: Pairs):
    values = [asy.heston_vix_skew_sign(k, 0.25, DELTA) for k in (0.5, 1.0, 2.0, 5.0)]
    achieved = max(values)  # all must be negative
    return achieved, f"values={['%.4f' % v for v in values]}"


def _c4_draws(quick: bool) -> tuple[Draw, ...]:
    params = ModelParams(H=0.5, beta=0.0, gamma=0.5, nu=3.0, eta=1.0)
    return tuple(Draw("vix", params, _grid(maturity, quick)) for maturity in (1.0 / 12.0, 0.25))


def _c4_mixed_sabr_skew(quick: bool, pairs: Pairs):
    params = pairs[0][0].params
    closed = asy.sabr_mixed_vix_skew(params.gamma, params.nu, params.eta)
    if abs(closed - 0.25) > 1e-12:
        return math.inf, f"closed form {closed!r} != 0.25"
    worst, parts = 0.0, []
    for draw, batch in pairs:
        maturity = draw.grid.T
        value, _ = atmi_skew(batch, maturity)
        gap = abs(value / 0.25 - 1.0)
        worst = max(worst, gap)
        parts.append(f"T={maturity:.3f}: {value:.4f}")
    return worst, "closed=0.25 exact; " + "; ".join(parts)


def _c5_draws(quick: bool) -> tuple[Draw, ...]:
    params = ModelParams(H=0.3, beta=0.0, gamma=1.0, nu=2.0)
    return tuple(Draw("vix", params, _grid(maturity, quick)) for maturity in (0.1, 0.25, 0.5))


def _c5_vix_atmi_approx_vs_mc(quick: bool, pairs: Pairs):
    worst, parts = 0.0, []
    for draw, batch in pairs:
        maturity = draw.grid.T
        mc_vol, _ = atmi(batch, maturity)
        approx = asy.vix_atmi_approx(draw.params, DELTA, maturity)
        gap = abs(approx - mc_vol) / mc_vol
        worst = max(worst, gap)
        parts.append(f"T={maturity}: mc={mc_vol:.4f} approx={approx:.4f}")
    return worst, "; ".join(parts)


def _c6_draws(quick: bool) -> tuple[Draw, ...]:
    return (Draw("rv", ModelParams(H=0.3, beta=1.0, gamma=1.0, nu=2.0), _grid(0.25, quick)),)


def _c6_rv_atmi_approx(quick: bool, pairs: Pairs):
    # At beta = 0 the closed form must equal the fixed rule that every
    # beta > 0 takes: f'(0) T^(H-1/2) sqrt(I_1), with I_1 = T^(-2H-2) int_0^T G^2.
    params0 = ModelParams(H=0.3, beta=0.0, gamma=1.0, nu=2.0)
    fprime, _ = asy._volvol_derivatives(params0)
    for maturity in (0.05, 0.25, 1.0):
        integral, _ = asy._rv_level_integral(params0, maturity)
        expected = fprime * maturity ** (params0.H - 0.5) * math.sqrt(integral)
        got = asy.rv_atmi_approx(params0, maturity)
        if abs(got / expected - 1.0) > 1e-12:
            return math.inf, f"beta=0 reduction broken at T={maturity}: {got!r} vs {expected!r}"
    ((draw, batch),) = pairs
    mc_vol, _ = atmi(batch, draw.grid.T)
    approx = asy.rv_atmi_approx(draw.params, draw.grid.T)
    gap = abs(approx - mc_vol) / mc_vol
    detail = f"beta=0 exact; beta=1: mc={mc_vol:.4f} approx={approx:.4f}"
    return gap, detail


def _rv_skew_constant_bruteforce(hurst: float, maturity: float, n: int = 500) -> float:
    """Tensor-product midpoint oracle on the raw (s, u) grid of [0, maturity]
    with the inner substitution w = (u - s)^(H+1/2); independent of the
    one-dimensional path used by rv_skew_constant."""
    q = 1.0 / (hurst + 0.5)
    s = (np.arange(n) + 0.5) * maturity / n
    xi = ((np.arange(n) + 0.5) / n)[None, :]
    w_max = (maturity - s)[:, None] ** (hurst + 0.5)
    u = s[:, None] + (w_max * xi) ** q
    z = (maturity - u) / (s[:, None] - u)
    hyp = np.asarray(gauss_2f1(0.5 - hurst, hurst + 0.5, hurst + 1.5, z.ravel()))
    hyp = hyp.reshape(z.shape)
    inner = np.sum((maturity - u) ** (2.0 * hurst + 1.0) * hyp, axis=1)
    inner *= (w_max[:, 0] / n) / (hurst + 0.5) ** 2
    outer = float(np.sum((maturity - s) ** (hurst + 0.5) * inner)) * maturity / n
    return outer / maturity ** (4.0 * hurst + 3.0)


def _c7_overlap_constant(quick: bool, pairs: Pairs):
    parts = []
    for hurst in (0.1, 0.3, 0.5):
        value = asy.rv_skew_constant(hurst)
        if not value > 0.0:
            return math.inf, f"nonpositive value at H={hurst}"
        parts.append(f"H={hurst}: {value:.5f}")
    brute = _rv_skew_constant_bruteforce(0.3, 1e-4, n=200 if quick else 500)
    worst = abs(asy.rv_skew_constant(0.3) - brute) / brute
    parts.append(f"brute(H=0.3)={brute:.5f}")
    return worst, "; ".join(parts)


def _c8_limit_approx_consistency(quick: bool, pairs: Pairs):
    # Worst gap as a fraction of its stated cap (so the pass bar is 1.0).
    checks = []
    single = ModelParams(H=0.3, beta=0.0, gamma=1.0, nu=2.0)
    damped = ModelParams(H=0.3, beta=1.0, gamma=1.0, nu=2.0)
    mixed = ModelParams(H=0.3, beta=0.0, gamma=0.5, nu=3.0, eta=1.0)

    gap = abs(asy.vix_atmi_approx(single, DELTA, 1e-6)
              / asy.vix_atmi_limit(single, DELTA) - 1.0)
    checks.append(("vix_atmi@1e-6", gap, 1e-3))

    gap = abs(asy.vix_skew_approx(mixed, DELTA, 1e-5)
              / asy.vix_skew_limit(mixed, DELTA) - 1.0)
    checks.append(("vix_skew@1e-5", gap, 1e-2))

    rescaled = 1e-6 ** (0.5 - damped.H) * asy.rv_atmi_approx(damped, 1e-6)
    gap = abs(rescaled / asy.rv_atmi_limit(damped) - 1.0)
    checks.append(("rv_atmi@1e-6", gap, 1e-3))

    worst = max(gap / cap for _, gap, cap in checks)
    detail = "; ".join(f"{name}: {gap:.2e} (cap {cap:g})" for name, gap, cap in checks)
    return worst, detail


_GAMMA_NODES = 16
_GAMMA_CAP = 1e-10


def _incomplete_gamma_oracle(a: float, x: np.ndarray, n_nodes: int = _GAMMA_NODES,
                             max_bound: float = _GAMMA_CAP / 1000.0):
    """gamma(a, x) for an array of x > 0 by one Gauss-Jacobi rule, with a
    proven error bound per element.

    gamma(a, x) = x^a int_0^1 s^(a-1) e^(-xs) ds, so the n-node rule for the
    weight s^(a-1) on [0, 1] takes every x at once. Its remainder is
    f^(2n)(xi) / (2n)! * ||pi_n||^2 for f(s) = e^(-xs), |f^(2n)| <= x^(2n)
    on [0, 1], and pi_n the monic orthogonal polynomial, whose squared norm
    (1 / (alpha + 1)) * prod_k k^2 (k + alpha)^2 / (s^2 (s + 1) (s - 1)),
    s = 2k + alpha, k = 1..n, is the product of the squared off-diagonal
    recurrence coefficients that ``gauss_jacobi`` builds its rule from.
    Returns (values, bounds); raises :class:`QuadratureError` if any bound
    exceeds ``max_bound``, by default a thousandth of C9's cap.
    """
    alpha = a - 1.0
    nodes, weights = gauss_jacobi(alpha, n_nodes)
    k = np.arange(1.0, n_nodes + 1.0)
    s = 2.0 * k + alpha
    norm2 = np.prod(k ** 2 * (k + alpha) ** 2 / (s ** 2 * (s + 1.0) * (s - 1.0))) / (alpha + 1.0)
    scale = x ** a
    values = scale * (np.exp(-np.outer(x, nodes)) @ weights)
    bounds = scale * x ** (2 * n_nodes) * (norm2 / math.factorial(2 * n_nodes))
    if bounds.max() > max_bound:
        raise QuadratureError("Gauss-Jacobi incomplete gamma bound above its cap",
                              float(values[bounds.argmax()]), float(bounds.max()))
    return values, bounds


def _c9_special_function_oracles(quick: bool, pairs: Pairs):
    # Worst error as a fraction of its stated cap (pass bar 1.0). The
    # incomplete gamma is checked on its scalar and its array path.
    gamma_err = gamma_bound = 0.0
    xs = np.linspace(0.05, 8.0, 10)
    for a in np.linspace(0.1, 3.0, 10).tolist():
        oracle, bounds = _incomplete_gamma_oracle(a, xs)
        scalar = np.array([lower_incomplete_gamma(a, x) for x in xs.tolist()])
        array = lower_incomplete_gamma(a, xs)
        gamma_err = max(gamma_err, np.abs(scalar - oracle).max(),
                        np.abs(array - oracle).max())
        gamma_bound = max(gamma_bound, bounds.max())
    # One identity per gauss_2f1 branch: the series (z = 0, -1), the Euler
    # integral at an integer b - a (z = -7.5) and the connection formula.
    hyp_err = abs(gauss_2f1(0.2, 0.8, 1.8, 0.0) - 1.0)
    hyp_err = max(hyp_err, abs(gauss_2f1(1.0, 1.0, 2.0, -1.0) - math.log(2.0)))
    hyp_err = max(hyp_err, abs(gauss_2f1(1.0, 1.0, 2.0, -7.5) - math.log(8.5) / 7.5))
    hyp_err = max(hyp_err, abs(gauss_2f1(0.5, 1.0, 1.5, -1e6) - math.atan(1e3) / 1e3))
    roundtrip_err = 0.0
    for sigma in (1e-4, 1e-2, 0.2, 1.0, 5.0):
        for maturity in (1e-4, 0.05, 0.5, 2.0):
            recovered = implied_vol(atm_price(sigma, maturity), maturity)
            roundtrip_err = max(roundtrip_err, abs(recovered - sigma))
    checks = [
        ("gamma vs Gauss-Jacobi", gamma_err, f"bound {gamma_bound:.2e}, ", _GAMMA_CAP),
        ("2F1 identities", hyp_err, "", 1e-9),
        ("implied-vol round trip", roundtrip_err, "", 1e-10),
    ]
    worst = max(err / cap for _, err, _, cap in checks)
    detail = "; ".join(f"{name}: {err:.2e} ({bound}cap {cap:g})"
                       for name, err, bound, cap in checks)
    return worst, detail


def _c10_draws(quick: bool) -> tuple[Draw, ...]:
    """C10's martingale batch: the RV on 32 inner nodes, at 20k paths in
    quick mode (``_grid``'s group) and a quarter of the full count else."""
    grid = SimGrid(T=0.25, delta=DELTA, n_inner=32,
                   n_paths=20_000 if quick else FULL_PATHS // 4, seed=SEED)
    return (Draw("rv", ModelParams(H=0.3, beta=0.0, gamma=1.0, nu=2.0), grid),)


def _c10_simulation_invariants(quick: bool, pairs: Pairs):
    violations: list[tuple[str, float]] = []

    ((draw, batch),) = pairs
    mean, stderr = estimate_mean(batch)
    violations.append(("martingale sigmas/4", abs(mean - draw.params.v0) / (4.0 * stderr)))

    # One VIX draw of three chunks, so that workers 2 and 4 each draw on
    # more than one thread. Its first quarter has half the whole's stderr.
    grid = SimGrid(T=draw.grid.T, delta=DELTA, n_paths=2 * _CHUNK_SIZE + 1, seed=SEED)
    sampler = build_vix_sampler(draw.params, grid)
    ref = sample_vix(sampler, workers=1)
    _, se_whole = estimate_mean(ref)
    _, se_quarter = estimate_mean(PathBatch(ref.samples[:grid.n_paths // 4]))
    violations.append(("stderr halving", 0.0 if 0.4 <= se_whole / se_quarter <= 0.6 else 2.0))

    same = all(
        np.array_equal(sample_vix(sampler, workers=w).samples, ref.samples)
        for w in (2, 4)
    )
    violations.append(("worker determinism", 0.0 if same else 2.0))

    worst_name, worst = max(violations, key=lambda kv: kv[1])
    detail = "; ".join(f"{k}={v:.3f}" for k, v in violations)
    return worst, f"worst: {worst_name}; {detail}"


def _c11_sabr_flat_skew(quick: bool, pairs: Pairs):
    ((draw, batch),) = pairs
    value, stderr = atmi_skew(batch, draw.grid.T)
    achieved = abs(value) / stderr if stderr > 0.0 else math.inf
    return achieved, f"skew={value:.5f} stderr={stderr:.5f}"


def _no_draws(quick: bool) -> tuple[Draw, ...]:
    return ()


@dataclass(frozen=True)
class Criterion:
    key: str
    name: str
    tolerance: float  # pass bar of achieved at full scale
    quick_tolerance: float  # pass bar in quick mode
    runner: Callable[[bool, Pairs], tuple[float, str]]  # quick, pairs -> (achieved, detail)
    draws: Callable[[bool], tuple[Draw, ...]] = _no_draws  # quick -> batches it reads


# The Monte Carlo gaps C1, C2 and C4-C6 pin twice their full tolerance in quick
# mode, as their noise grows when it cuts the paths by 10x; C10 and C11 do not.
CRITERIA: list[Criterion] = [
    Criterion("C1", "SABR VIX ATMI limit (MC vs nu/2)", 0.02, 0.04,  # relative
              _c1_sabr_vix_atmi, _sabr_draws),
    Criterion("C2", "RV ATMI short-maturity power law", 0.03, 0.06,  # relative
              _c2_rv_power_law, _c2_draws),
    Criterion("C3", "Heston VIX skew sign negative", 0.0, 0.0,  # largest value, must be < 0
              _c3_heston_sign),
    Criterion("C4", "Mixed SABR skew 0.25 (closed form + MC)", 0.15, 0.30,  # relative
              _c4_mixed_sabr_skew, _c4_draws),  # (closed form to 1e-12 inside)
    Criterion("C5", "Semi-closed VIX ATMI vs MC", 0.05, 0.10,  # relative
              _c5_vix_atmi_approx_vs_mc, _c5_draws),
    Criterion("C6", "Semi-closed RV ATMI (exact beta=0, MC beta=1)", 0.05, 0.10,  # relative
              _c6_rv_atmi_approx, _c6_draws),  # (beta = 0 vs the fixed rule to 1e-12 inside)
    Criterion("C7", "Kernel-overlap constant vs brute force", 0.005, 0.005,  # relative
              _c7_overlap_constant),
    Criterion("C8", "Limit/approximation consistency", 1.0, 1.0,  # worst gap / its cap
              _c8_limit_approx_consistency),
    Criterion("C9", "Special-function and implied-vol oracles", 1.0, 1.0,  # worst error / cap
              _c9_special_function_oracles),
    Criterion("C10", "Simulation invariants", 1.0, 1.0,  # worst normalised violation
              _c10_simulation_invariants, _c10_draws),
    Criterion("C11", "SABR flat skew within noise", 3.0, 3.0,  # skew in stderr units
              _c11_sabr_flat_skew, _sabr_draws),
]


def run_criterion(criterion: Criterion, quick: bool = False) -> CriterionResult:
    start = time.perf_counter()
    tolerance = criterion.quick_tolerance if quick else criterion.tolerance
    try:
        pairs = tuple((draw, _batches(quick)[draw]) for draw in criterion.draws(quick))
        achieved, detail = criterion.runner(quick, pairs)
        passed = achieved <= tolerance
    except Exception as exc:  # recorded, not raised: the run continues
        achieved, tolerance = math.inf, math.nan
        detail = f"error: {exc!r}"
        passed = False
    return CriterionResult(
        criterion.key, criterion.name, passed, achieved, tolerance, detail,
        time.perf_counter() - start,
    )
