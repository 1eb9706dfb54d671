"""The acceptance suite: formula-anchored, property-based criteria that
reproduce the headline Monte Carlo vs asymptote comparisons at desk scale.

Each criterion reports the worst measured discrepancy against its pinned
tolerance. The same criteria back ``tests/test_acceptance.py`` and the
``vixsmile validate`` subcommand. Each runner returns only what it
measures, (achieved, detail); :func:`run_criterion` pairs it with the
criterion's pinned tolerance. Quick mode cuts the Monte Carlo path counts
(10x on ``_grid``'s) and C7's brute-force grid, and doubles the
tolerances of C1, C2, C4, C5 and C6 (``QUICK_DOUBLED``); C10 and C11 keep
theirs.

Only C8 runs an adaptive quadrature: ``vix_skew_approx`` takes its outer
integral through ``specfun.integrate_err``. C9 checks the incomplete gamma,
scalar and array paths, against one Gauss-Jacobi rule per shape whose
remainder is bounded in closed form, and reports it as
"gamma vs Gauss-Jacobi: err (bound b, cap 1e-10)".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import asymptotics as asy
from .bs import BsQuote, bs_price, implied_vol
from .mc import (
    _CHUNK_SIZE,
    SimGrid,
    build_rv_sampler,
    build_vix_sampler,
    estimate_mean,
    sample_common,
    sample_rv,
    sample_vix,
)
from .model import HestonParams, ModelParams
from .pricing import atmi, atmi_skew
from .specfun import QuadratureError, gauss_2f1, gauss_jacobi, lower_incomplete_gamma

__all__ = ["CriterionResult", "CRITERIA", "QUICK_DOUBLED", "TOLERANCES", "run_criterion"]

DELTA = 30.0 / 365.0
SEED = 42
FULL_PATHS = 200_000

# Pinned tolerances, one per criterion (monkeypatchable as a test hook).
TOLERANCES: dict[str, float] = {
    "C1": 0.02,     # SABR VIX ATMI limit, relative
    "C2": 0.03,     # RV ATMI power law, relative
    "C3": 0.0,      # Heston skew sign: value must be < 0 (achieved = max value)
    "C4": 0.15,     # mixed SABR skew vs 0.25, relative (closed form 1e-12 inside)
    "C5": 0.05,     # semi-closed VIX ATMI vs MC, relative
    "C6": 0.05,     # semi-closed RV ATMI vs MC, relative (beta=0 exact inside)
    "C7": 0.005,    # kernel-overlap constant against brute force
    "C8": 1.0,      # limit/approx consistency, worst ratio of gap to its cap
    "C9": 1.0,      # special-function oracles, worst ratio of error to its cap
    "C10": 1.0,     # simulation invariants, worst normalised violation
    "C11": 3.0,     # SABR flat skew in units of its standard error
}

# Criteria whose tolerance quick mode doubles: Monte Carlo gaps whose noise
# grows when quick mode cuts the paths by 10x.
QUICK_DOUBLED = frozenset({"C1", "C2", "C4", "C5", "C6"})


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
    """The grid of the Monte Carlo criteria, 10x fewer paths in quick mode. Its
    64 inner nodes serve only the RV criteria, C2 and C6: the VIX draws take
    their fixed window rule."""
    return SimGrid(T=maturity, delta=DELTA, n_inner=64,
                   n_paths=FULL_PATHS // 10 if quick else FULL_PATHS, seed=SEED)


def _sample_maturities(params: ModelParams, maturities, quick: bool):
    """One VIX batch per maturity on ``_grid``, from one shared draw."""
    return sample_common([build_vix_sampler(params, _grid(maturity, quick))
                          for maturity in maturities])


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def _c1_sabr_vix_atmi(quick: bool):
    params = ModelParams(H=0.5, beta=0.0, gamma=1.0, nu=2.0)
    grid = _grid(1e-4, quick)
    vol, _ = atmi(sample_vix(build_vix_sampler(params, grid)), grid.T)
    return abs(vol - 1.0), f"mc_atmi={vol:.5f} vs limit=1.0"


def _c2_rv_power_law(quick: bool):
    worst, parts = 0.0, []
    hursts = (0.1, 0.3)
    grid = _grid(1e-4, quick)
    samplers = [build_rv_sampler(ModelParams(H=hurst, beta=0.0, gamma=1.0, nu=2.0), grid)
                for hurst in hursts]
    for hurst, batch in zip(hursts, sample_common(samplers)):
        vol, _ = atmi(batch, grid.T)
        rescaled = grid.T ** (0.5 - hurst) * vol
        target = math.sqrt(2.0 * hurst) * 2.0 / (
            (hurst + 0.5) * math.sqrt(2.0 * hurst + 2.0)
        )
        gap = abs(rescaled / target - 1.0)
        worst = max(worst, gap)
        parts.append(f"H={hurst}: {rescaled:.4f} vs {target:.4f}")
    return worst, "; ".join(parts)


def _c3_heston_sign(quick: bool):
    values = []
    for k in (0.5, 1.0, 2.0, 5.0):
        params = HestonParams(k=k, nu=0.25, v0=0.09)
        values.append(asy.heston_vix_skew_sign(params, DELTA))
    achieved = max(values)  # all must be negative
    return achieved, f"values={['%.4f' % v for v in values]}"


def _c4_mixed_sabr_skew(quick: bool):
    closed = asy.sabr_mixed_vix_skew(0.5, 3.0, 1.0)
    if abs(closed - 0.25) > 1e-12:
        return math.inf, f"closed form {closed!r} != 0.25"
    params = ModelParams(H=0.5, beta=0.0, gamma=0.5, nu=3.0, eta=1.0)
    maturities = (1.0 / 12.0, 0.25)
    worst, parts = 0.0, []
    for maturity, batch in zip(maturities, _sample_maturities(params, maturities, quick)):
        value, _ = atmi_skew(batch, maturity)
        gap = abs(value / 0.25 - 1.0)
        worst = max(worst, gap)
        parts.append(f"T={maturity:.3f}: {value:.4f}")
    return worst, "closed=0.25 exact; " + "; ".join(parts)


def _c5_vix_atmi_approx_vs_mc(quick: bool):
    params = ModelParams(H=0.3, beta=0.0, gamma=1.0, nu=2.0)
    maturities = (0.1, 0.25, 0.5)
    worst, parts = 0.0, []
    for maturity, batch in zip(maturities, _sample_maturities(params, maturities, quick)):
        mc_vol, _ = atmi(batch, maturity)
        approx = asy.vix_atmi_approx(params, DELTA, maturity)
        gap = abs(approx - mc_vol) / mc_vol
        worst = max(worst, gap)
        parts.append(f"T={maturity}: mc={mc_vol:.4f} approx={approx:.4f}")
    return worst, "; ".join(parts)


def _c6_rv_atmi_approx(quick: bool):
    params0 = ModelParams(H=0.3, beta=0.0, gamma=1.0, nu=2.0)
    for maturity in (0.05, 0.25, 1.0):
        expected = asy.rv_atmi_limit(params0) * maturity ** (params0.H - 0.5)
        got = asy.rv_atmi_approx(params0, maturity)
        if abs(got / expected - 1.0) > 1e-12:
            return math.inf, f"beta=0 reduction broken at T={maturity}: {got!r} vs {expected!r}"
    params = ModelParams(H=0.3, beta=1.0, gamma=1.0, nu=2.0)
    grid = _grid(0.25, quick)
    mc_vol, _ = atmi(sample_rv(params, grid), grid.T)
    approx = asy.rv_atmi_approx(params, grid.T)
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


def _c7_overlap_constant(quick: bool):
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


def _c8_limit_approx_consistency(quick: bool):
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


def _c9_special_function_oracles(quick: bool):
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
            price = bs_price(BsQuote(0.0, 0.0, maturity, sigma))
            recovered = implied_vol(price, 0.0, 0.0, maturity)
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


def _c10_simulation_invariants(quick: bool):
    params = ModelParams(H=0.3, beta=0.0, gamma=1.0, nu=2.0)
    grid = SimGrid(T=0.25, delta=DELTA, n_inner=32,
                   n_paths=20_000 if quick else FULL_PATHS // 4, seed=SEED)
    violations: list[tuple[str, float]] = []

    batch = sample_rv(params, grid)
    mean, stderr = estimate_mean(batch)
    violations.append(("martingale sigmas/4", abs(mean - params.v0) / (4.0 * stderr)))
    violations.append(("positivity", 0.0 if float(np.min(batch.samples)) > 0.0 else 2.0))

    sampler = build_vix_sampler(params, SimGrid(T=0.25, delta=DELTA, n_paths=4000,
                                                seed=SEED))
    ratios = []
    for rep in range(10):
        _, se_small = estimate_mean(sample_vix(sampler, n_paths=4000, seed=100 + rep))
        _, se_large = estimate_mean(sample_vix(sampler, n_paths=16_000, seed=200 + rep))
        ratios.append(se_large / se_small)
    ratio_violation = max(
        max(0.0, (0.4 - r) / 0.4, (r - 0.6) / 0.6) for r in ratios
    )
    violations.append(("stderr halving", 2.0 if ratio_violation > 0 else 0.0))

    # Three chunks, so that workers 2 and 4 each draw on more than one thread.
    n_paths = 2 * _CHUNK_SIZE + 1
    ref = sample_vix(sampler, n_paths=n_paths, workers=1).samples
    same = all(
        np.array_equal(sample_vix(sampler, n_paths=n_paths, workers=w).samples, ref)
        for w in (2, 4)
    )
    violations.append(("worker determinism", 0.0 if same else 2.0))

    worst_name, worst = max(violations, key=lambda kv: kv[1])
    detail = "; ".join(f"{k}={v:.3f}" for k, v in violations)
    return worst, f"worst: {worst_name}; {detail}"


def _c11_sabr_flat_skew(quick: bool):
    params = ModelParams(H=0.5, beta=0.0, gamma=1.0, nu=2.0)
    grid = _grid(1e-4, quick)
    value, stderr = atmi_skew(sample_vix(build_vix_sampler(params, grid)), grid.T)
    achieved = abs(value) / stderr if stderr > 0.0 else math.inf
    return achieved, f"skew={value:.5f} stderr={stderr:.5f}"


@dataclass(frozen=True)
class Criterion:
    key: str
    name: str
    runner: Callable[[bool], tuple[float, str]]  # quick -> (achieved, detail)


CRITERIA: list[Criterion] = [
    Criterion("C1", "SABR VIX ATMI limit (MC vs nu/2)", _c1_sabr_vix_atmi),
    Criterion("C2", "RV ATMI short-maturity power law", _c2_rv_power_law),
    Criterion("C3", "Heston VIX skew sign negative", _c3_heston_sign),
    Criterion("C4", "Mixed SABR skew 0.25 (closed form + MC)", _c4_mixed_sabr_skew),
    Criterion("C5", "Semi-closed VIX ATMI vs MC", _c5_vix_atmi_approx_vs_mc),
    Criterion("C6", "Semi-closed RV ATMI (exact beta=0, MC beta=1)", _c6_rv_atmi_approx),
    Criterion("C7", "Kernel-overlap constant vs brute force", _c7_overlap_constant),
    Criterion("C8", "Limit/approximation consistency", _c8_limit_approx_consistency),
    Criterion("C9", "Special-function and implied-vol oracles", _c9_special_function_oracles),
    Criterion("C10", "Simulation invariants", _c10_simulation_invariants),
    Criterion("C11", "SABR flat skew within noise", _c11_sabr_flat_skew),
]


def run_criterion(criterion: Criterion, quick: bool = False) -> CriterionResult:
    start = time.perf_counter()
    try:
        achieved, detail = criterion.runner(quick)
        tolerance = TOLERANCES[criterion.key]
        if quick and criterion.key in QUICK_DOUBLED:
            tolerance *= 2.0
        passed = achieved <= tolerance
    except Exception as exc:  # recorded, not raised: the run continues
        achieved, tolerance = math.inf, math.nan
        detail = f"error: {exc!r}"
        passed = False
    return CriterionResult(
        criterion.key, criterion.name, passed, achieved, tolerance, detail,
        time.perf_counter() - start,
    )
