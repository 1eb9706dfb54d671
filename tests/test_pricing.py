"""Pricing-layer tests: ATM implied vols and skews."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import brentq

from vixsmile.bs import BracketError, atm_implied_vol, bs_vega
from vixsmile.mc import PathBatch, SimGrid, build_vix_sampler, sample_rv, sample_vix
from vixsmile.model import ModelParams
from vixsmile.pricing import JACKKNIFE_BLOCKS, _block_estimates, atmi, atmi_skew
from vixsmile.specfun import normal_cdf, normal_pdf


def mk(v0=0.04, H=0.3, beta=0.0, gamma=1.0, nu=2.0, eta=0.0):
    return ModelParams(v0=v0, H=H, beta=beta, gamma=gamma, nu=nu, eta=eta)


SINGLE = dict(gamma=1.0, nu=2.0, eta=0.0)
MIXED = dict(gamma=0.5, nu=3.0, eta=1.0)


# ---------------------------------------------------------------------------
# atmi
# ---------------------------------------------------------------------------

def test_atmi_degenerate_constant_batch():
    grid = SimGrid(T=0.2, n_inner=8, n_paths=200, seed=2)
    batch = sample_vix(build_vix_sampler(mk(nu=0.0, eta=0.0), grid))
    assert atmi(batch, 0.2) == (0.0, 0.0)
    # The mean of 100 copies of 0.2 rounds below every sample, which leaves
    # an ATM price of rounding size: still degenerate, not a vol of 2e-15.
    constant = PathBatch(np.full(100, 0.2))
    assert float(np.mean(constant.samples)) < 0.2
    assert atmi(constant, 0.1) == (0.0, 0.0)


def test_atmi_scale_invariance():
    grid = SimGrid(T=0.25, n_inner=16, n_paths=5000, seed=12)
    batch = sample_vix(build_vix_sampler(mk(H=0.4, nu=1.5), grid))
    vol, _ = atmi(batch, 0.25)
    for c in (0.1, 10.0):
        scaled = PathBatch(c * batch.samples)
        vol_scaled, _ = atmi(scaled, 0.25)
        assert vol_scaled == pytest.approx(vol, abs=1e-10)


def test_atmi_error_bar_is_sane():
    grid = SimGrid(T=0.25, n_inner=16, n_paths=20_000, seed=4)
    sampler = build_vix_sampler(mk(H=0.4, nu=1.5), grid)
    vols = []
    for seed in range(40):
        vol, stderr = atmi(sample_vix(sampler, n_paths=4000, seed=seed), 0.25)
        vols.append((vol, stderr))
    spread = np.std([v for v, _ in vols], ddof=1)
    typical_err = np.median([e for _, e in vols])
    # price_stderr/vega ignores the (negative) correlation between the
    # batch-estimated strike and the payoff, so the reported bar must cover
    # the observed scatter but may be conservative by a small factor.
    assert 0.9 <= typical_err / spread <= 4.0


def test_atmi_v0_invariance_for_rv_options():
    grid = SimGrid(T=0.25, n_inner=16, n_paths=5000, seed=21)
    base = sample_rv(mk(v0=0.04, H=0.3, nu=2.0), grid)
    scaled = sample_rv(mk(v0=0.16, H=0.3, nu=2.0), grid)
    np.testing.assert_allclose(scaled.samples, 4.0 * base.samples, rtol=1e-12)
    vol_base, _ = atmi(base, 0.25)
    vol_scaled, _ = atmi(scaled, 0.25)
    assert vol_scaled == pytest.approx(vol_base, abs=1e-10)


@pytest.mark.parametrize("kind", ["vix", "rv"])
def test_mixed_model_estimates_are_scale_free_in_v0(kind):
    # v multiplies by v0, so at a fixed seed the VIX samples scale by
    # sqrt(v0) and RV's by v0: ATM implied vols, skews and their error bars
    # move only by rounding.
    grid = SimGrid(T=0.25, n_inner=16, n_paths=20_000, seed=8)

    def estimates(v0):
        params = mk(v0=v0, gamma=0.5, nu=3.0, eta=1.0)
        batch = (sample_vix(build_vix_sampler(params, grid)) if kind == "vix"
                 else sample_rv(params, grid))
        return [*atmi(batch, grid.T), *atmi_skew(batch, grid.T)]

    base = estimates(0.04)
    for v0 in (0.01, 0.09, 1.0):
        np.testing.assert_allclose(estimates(v0), base, rtol=1e-10, atol=0.0)


# ---------------------------------------------------------------------------
# atmi_skew
# ---------------------------------------------------------------------------

def test_skew_zero_for_symmetric_lognormal_sabr():
    # SABR config: flat smile, skew indistinguishable from zero.
    grid = SimGrid(T=1e-4, n_inner=16, n_paths=50_000, seed=14)
    batch = sample_vix(build_vix_sampler(mk(H=0.5, nu=2.0), grid))
    value, stderr = atmi_skew(batch, 1e-4)
    assert abs(value) <= 3.0 * stderr


def test_skew_mixed_sabr_quarter():
    # The mixed SABR skew sits at 0.25 across short maturities.
    grid = SimGrid(T=1.0 / 12.0, n_inner=16, n_paths=100_000, seed=15)
    params = mk(H=0.5, gamma=0.5, nu=3.0, eta=1.0)
    batch = sample_vix(build_vix_sampler(params, grid))
    value, stderr = atmi_skew(batch, 1.0 / 12.0)
    assert value == pytest.approx(0.25, rel=0.15)


def _off_atm_implied_vol(price, forward, log_moneyness, maturity):
    """Implied vol at log-strike log(forward) + log_moneyness, by brentq on
    the Black-Scholes call price over the forward in the total vol
    sigma sqrt(T): an oracle the package, at the money only, does not have."""
    def excess(total_vol):
        d_plus = -log_moneyness / total_vol + 0.5 * total_vol
        return (normal_cdf(d_plus) - math.exp(log_moneyness) * normal_cdf(d_plus - total_vol)
                - price / forward)

    return brentq(excess, 1e-8, 10.0, xtol=1e-300, rtol=4.0 * 2.0 ** -52,
                  maxiter=500) / math.sqrt(maturity)


def test_skew_is_the_central_difference_where_no_sample_is_near_the_money():
    # With no sample in [F e^-h, F e^h] the Monte Carlo call price is linear
    # in the strike there, so the implied-vol central difference at step h
    # differs from the exact derivative only by its O(h^2) smile curvature.
    maturity, h = 0.1, 1e-5
    grid = SimGrid(T=maturity, n_inner=8, n_paths=20_000, seed=7)
    samples = sample_vix(build_vix_sampler(mk(H=0.1, **MIXED), grid)).samples
    forward = float(np.mean(samples))
    assert not np.any((samples >= forward * math.exp(-h)) & (samples <= forward * math.exp(h)))
    down, up = (_off_atm_implied_vol(
        float(np.mean(np.maximum(samples - forward * math.exp(k), 0.0))), forward, k, maturity)
        for k in (-h, h))
    value, _ = atmi_skew(PathBatch(samples), maturity)
    assert value == pytest.approx((up - down) / (2.0 * h), rel=0.0, abs=1e-8)


@pytest.mark.parametrize("params, maturity", [(mk(H=0.5, nu=2.0), 1e-4),
                                              (mk(H=0.1, **MIXED), 1e-3)],
                         ids=["sabr-1e-4", "rough-mixed-1e-3"])
def test_skew_jackknife_stderr_matches_the_spread_over_seeds(params, maturity):
    # 60 independent 20k-path batches: the median jackknife stderr tracks
    # the observed spread of the skew (0.549 vs 0.499 and 0.178 vs 0.170).
    # The spread itself is known to about 9 %.
    sampler = build_vix_sampler(params, SimGrid(T=maturity, n_paths=20_000, seed=0))
    skews = [atmi_skew(sample_vix(sampler, seed=seed), maturity) for seed in range(60)]
    spread = np.std([value for value, _ in skews], ddof=1)
    typical_err = np.median([stderr for _, stderr in skews])
    assert 0.8 <= typical_err / spread <= 1.5


def test_skew_sign_matches_limit_on_mixed_grid():
    # Mixed models with nu > eta produce a positive short-maturity VIX skew.
    from vixsmile.asymptotics import vix_skew_limit

    grid = SimGrid(T=1e-4, n_inner=16, n_paths=60_000, seed=18)
    for gamma in (0.25, 0.5):
        params = mk(H=0.5, gamma=gamma, nu=3.0, eta=1.0)
        batch = sample_vix(build_vix_sampler(params, grid))
        value, _ = atmi_skew(batch, 1e-4)
        assert math.copysign(1.0, value) == math.copysign(
            1.0, vix_skew_limit(params, 30 / 365)
        )


def test_vix_atmi_approx_tracks_mc_with_damped_kernel():
    from vixsmile.asymptotics import vix_atmi_approx
    from vixsmile.mc import build_vix_sampler, sample_vix

    params = mk(H=0.3, beta=1.5, nu=2.0)
    grid = SimGrid(T=0.25, n_inner=64, n_paths=50_000, seed=42)
    vol, _ = atmi(sample_vix(build_vix_sampler(params, grid)), 0.25)
    approx = vix_atmi_approx(params, 30 / 365, 0.25)
    assert approx == pytest.approx(vol, rel=0.03)


def test_vix_skew_approx_tracks_mc_decay_for_rough_model():
    # Rough single-factor skews decay fast in maturity; the finite-maturity
    # formula must follow the Monte Carlo estimate, not the short-time limit.
    from vixsmile.asymptotics import vix_skew_approx, vix_skew_limit
    from vixsmile.mc import build_vix_sampler, sample_vix

    params = mk(H=0.3, nu=2.0)
    maturity = 1.0 / 12.0
    grid = SimGrid(T=maturity, n_inner=64, n_paths=100_000, seed=42)
    mc_skew, stderr = atmi_skew(sample_vix(build_vix_sampler(params, grid)), maturity)
    approx = vix_skew_approx(params, 30 / 365, maturity)
    limit = vix_skew_limit(params, 30 / 365)
    assert abs(mc_skew - approx) <= 3.0 * stderr
    assert approx < 0.25 * limit  # most of the limit skew is already gone


def test_rv_skew_sign_matches_limit_at_tiny_maturity():
    # The sign and the size: the MC skew sits within 3 stderr of the power
    # law rv_skew_limit * T^(H - 1/2). Both H come from one shared draw.
    from vixsmile.asymptotics import rv_skew_limit
    from vixsmile.mc import build_rv_sampler, sample_common

    hursts, T = (0.1, 0.3), 1e-4
    grid = SimGrid(T=T, n_inner=32, n_paths=60_000, seed=42)
    params = [mk(H=hurst, nu=2.0) for hurst in hursts]
    batches = sample_common([build_rv_sampler(p, grid) for p in params])
    for p, batch in zip(params, batches):
        value, stderr = atmi_skew(batch, T)
        limit = rv_skew_limit(p)
        assert math.copysign(1.0, value) == math.copysign(1.0, limit)
        assert abs(value - limit * T ** (p.H - 0.5)) <= 3.0 * stderr


# ---------------------------------------------------------------------------
# atmi_skew jackknife against the masked-copy oracle
# ---------------------------------------------------------------------------

def _oracle_skew(samples, maturity):
    """The digital identity on a copy: dI/dk = (N(-s) - D) / (phi(s) sqrt(T)),
    s = I sqrt(T)/2, D the share of samples above the mean."""
    forward = float(np.mean(samples))
    price = float(np.mean(np.maximum(samples - forward, 0.0)))
    digital = float(np.mean(samples > forward))
    if not 0.0 < digital < 1.0:  # no sample on one side: a constant batch
        raise BracketError(f"digital {digital!r}")
    half = 0.5 * atm_implied_vol(price, forward, maturity) * math.sqrt(maturity)
    return (normal_cdf(-half) - digital) / (normal_pdf(half) * math.sqrt(maturity))


def _oracle_atmi_skew(samples, maturity):
    """Delete-block jackknife that recomputes each estimate on a masked copy."""
    value = _oracle_skew(samples, maturity)
    n_blocks = min(JACKKNIFE_BLOCKS, samples.size)
    boundaries = np.linspace(0, samples.size, n_blocks + 1).astype(int)
    estimates = np.empty(n_blocks)
    for b in range(n_blocks):
        mask = np.ones(samples.size, dtype=bool)
        mask[boundaries[b]:boundaries[b + 1]] = False
        estimates[b] = _oracle_skew(samples[mask], maturity)
    center = float(np.mean(estimates))
    stderr = math.sqrt(
        (n_blocks - 1) / n_blocks * float(np.sum((estimates - center) ** 2))
    )
    return value, stderr, estimates


def _assert_matches_oracle(samples, maturity):
    value, stderr = atmi_skew(PathBatch(samples), maturity)
    o_value, o_stderr, o_estimates = _oracle_atmi_skew(samples, maturity)
    assert value == o_value
    estimates = _block_estimates(samples, maturity, np.empty(samples.size))
    np.testing.assert_allclose(estimates, o_estimates, rtol=0.0, atol=1e-11)
    assert stderr == pytest.approx(o_stderr, rel=1e-8)


@pytest.mark.parametrize("kind", ["vix", "rv"])
@pytest.mark.parametrize("H", [0.1, 0.5])
@pytest.mark.parametrize("mix", [SINGLE, MIXED], ids=["single", "mixed"])
@pytest.mark.parametrize("T", [1e-4, 0.1, 0.5])
def test_skew_jackknife_matches_masked_copy_oracle(kind, H, mix, T):
    params = mk(H=H, **mix)
    grid = SimGrid(T=T, n_inner=8, n_paths=20_000, seed=41)
    if kind == "vix":
        batch = sample_vix(build_vix_sampler(params, grid))
    else:
        batch = sample_rv(params, grid)
    _assert_matches_oracle(batch.samples, T)


@pytest.mark.parametrize("n_paths", [1001, 19])
def test_skew_jackknife_uneven_and_single_path_blocks(n_paths):
    grid = SimGrid(T=0.1, n_inner=8, n_paths=n_paths, seed=43)
    batch = sample_vix(build_vix_sampler(mk(H=0.1, **MIXED), grid))
    _assert_matches_oracle(batch.samples, 0.1)


def test_skew_jackknife_samples_tied_at_strikes():
    # Block b's strike is its forward, the mean of the samples outside it. A
    # sample tied with the lowest strike sits in that block's own slice, one
    # tied with the highest (the top of the band) in another block, so it
    # stays in the subsample: neither is counted above its strike.
    maturity = 0.1
    grid = SimGrid(T=maturity, n_inner=8, n_paths=1001, seed=44)
    samples = sample_vix(build_vix_sampler(mk(H=0.3, **MIXED), grid)).samples.copy()
    boundaries = np.linspace(0, samples.size, JACKKNIFE_BLOCKS + 1).astype(int)
    kept = samples.size - np.diff(boundaries)

    def forwards():
        sums = np.add.reduceat(samples, boundaries[:-1])
        return (float(np.sum(samples)) - sums) / kept

    lowest, highest = int(np.argmin(forwards())), int(np.argmax(forwards()))
    ties = [(lowest, boundaries[lowest]), (highest, boundaries[lowest] + 1)]
    for _ in range(10):
        for block, index in ties:
            samples[index] = forwards()[block]
    for block, index in ties:
        assert samples[index] == forwards()[block]
    _assert_matches_oracle(samples, maturity)


def test_skew_constant_batch_raises_like_oracle():
    # The mean of 100 copies of 0.2 rounds below 0.2, so every sample lies
    # above the forward (a digital of 1); that of 64 copies of 0.25 is exact,
    # so none does, and the ATM price is 0.
    for samples in (np.full(100, 0.2), np.full(64, 0.25)):
        with pytest.raises(Exception) as oracle_error:
            _oracle_atmi_skew(samples, 0.1)
        with pytest.raises(oracle_error.type):
            atmi_skew(PathBatch(samples), 0.1)


def test_skew_rejects_too_few_paths():
    for n_paths in (1, 2):
        with pytest.raises(ValueError):
            atmi_skew(PathBatch(np.linspace(1.0, 2.0, n_paths)), 0.1)


@pytest.mark.parametrize("n_paths", [2, 7, 20_000])
def test_atmi_equals_the_allocating_numpy_form(n_paths):
    # The in-place payoff and standard deviation give the same bits as
    # np.maximum on a fresh array and np.std(ddof=1).
    grid = SimGrid(T=0.1, n_inner=8, n_paths=n_paths, seed=45)
    samples = sample_vix(build_vix_sampler(mk(H=0.1, **MIXED), grid)).samples
    forward = float(np.mean(samples))
    payoff = np.maximum(samples - forward, 0.0)
    price = float(np.mean(payoff))
    vol = atm_implied_vol(price, forward, 0.1)
    vega = forward * bs_vega(vol, 0.1)
    stderr = float(np.std(payoff, ddof=1) / math.sqrt(n_paths)) / vega
    assert repr(atmi(PathBatch(samples), 0.1)) == repr((vol, stderr))


def test_pricing_a_batch_needs_one_scratch_vector():
    # atmi and atmi_skew each write their payoffs into one vector the size
    # of the batch; fresh payoff arrays per pass peaked at twice that.
    grid = SimGrid(T=0.1, n_inner=8, n_paths=100_000, seed=46)
    batch = sample_vix(build_vix_sampler(mk(H=0.3, **MIXED), grid))
    atmi_skew(batch, 0.1)  # one-time imports and caches stay out of the peak
    tracemalloc.start()
    try:
        atmi(batch, 0.1)
        atmi_skew(batch, 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * batch.samples.nbytes
