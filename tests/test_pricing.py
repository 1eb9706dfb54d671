"""Pricing-layer tests: ATM implied vols and skews."""

import math

import numpy as np
import pytest

from vixsmile.bs import implied_vol
from vixsmile.mc import PathBatch, SimGrid, build_vix_sampler, sample_rv, sample_vix
from vixsmile.model import ModelParams
from vixsmile.pricing import JACKKNIFE_BLOCKS, _block_estimates, atmi, atmi_skew


def mk(v0=0.04, H=0.3, beta=0.0, gamma=1.0, nu=2.0, eta=0.0):
    return ModelParams(v0=v0, H=H, beta=beta, gamma=gamma, nu=nu, eta=eta)


def manual_batch(values, kind="vix"):
    values = np.asarray(values, dtype=float)
    grid = SimGrid(T=1.0, n_paths=values.size)
    return PathBatch(kind, values, grid, mk())


# ---------------------------------------------------------------------------
# atmi
# ---------------------------------------------------------------------------

def test_atmi_degenerate_constant_batch():
    grid = SimGrid(T=0.2, n_inner=8, n_paths=200, seed=2)
    batch = sample_vix(build_vix_sampler(mk(nu=0.0, eta=0.0), grid))
    assert atmi(batch, 0.2) == (0.0, 0.0)


def test_atmi_scale_invariance():
    grid = SimGrid(T=0.25, n_inner=16, n_paths=5000, seed=12)
    batch = sample_vix(build_vix_sampler(mk(H=0.4, nu=1.5), grid))
    vol, _ = atmi(batch, 0.25)
    for c in (0.1, 10.0):
        scaled = PathBatch("vix", c * batch.samples, batch.grid, batch.params)
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
    # The mixed SABR skew sits at 0.25 across short maturities; the finite
    # difference needs the smile width sigma*sqrt(T) to dominate the step.
    grid = SimGrid(T=1.0 / 12.0, n_inner=16, n_paths=100_000, seed=15)
    params = mk(H=0.5, gamma=0.5, nu=3.0, eta=1.0)
    batch = sample_vix(build_vix_sampler(params, grid))
    value, stderr = atmi_skew(batch, 1.0 / 12.0)
    assert value == pytest.approx(0.25, rel=0.15)


def test_skew_step_halving_within_noise():
    grid = SimGrid(T=1.0 / 12.0, n_inner=16, n_paths=50_000, seed=16)
    params = mk(H=0.5, gamma=0.5, nu=3.0, eta=1.0)
    batch = sample_vix(build_vix_sampler(params, grid))
    wide, err_wide = atmi_skew(batch, 1.0 / 12.0, step=1e-2)
    narrow, err_narrow = atmi_skew(batch, 1.0 / 12.0, step=5e-3)
    assert abs(wide - narrow) <= err_wide + err_narrow


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
    from vixsmile.asymptotics import rv_skew_limit
    from vixsmile.mc import sample_rv

    for hurst in (0.1, 0.3):
        params = mk(H=hurst, nu=2.0)
        grid = SimGrid(T=1e-4, n_inner=32, n_paths=60_000, seed=42)
        value, _ = atmi_skew(sample_rv(params, grid), 1e-4)
        assert math.copysign(1.0, value) == math.copysign(1.0, rv_skew_limit(params))


def test_skew_rejects_bad_step():
    grid = SimGrid(T=0.25, n_inner=8, n_paths=1000, seed=19)
    batch = sample_vix(build_vix_sampler(mk(H=0.4, nu=1.0), grid))
    with pytest.raises(ValueError):
        atmi_skew(batch, 0.25, step=0.0)


# ---------------------------------------------------------------------------
# atmi_skew jackknife against the masked-copy oracle
# ---------------------------------------------------------------------------

def _oracle_skew(samples, maturity, step):
    forward = float(np.mean(samples))
    log_f = math.log(forward)
    vols = []
    for sign in (+1.0, -1.0):
        price = float(np.mean(np.maximum(samples - forward * math.exp(sign * step), 0.0)))
        vols.append(implied_vol(price, log_f, log_f + sign * step, maturity))
    return (vols[0] - vols[1]) / (2.0 * step)


def _oracle_atmi_skew(samples, maturity, step=1e-2):
    """Delete-block jackknife that recomputes each estimate on a masked copy."""
    value = _oracle_skew(samples, maturity, step)
    n_blocks = min(JACKKNIFE_BLOCKS, samples.size)
    boundaries = np.linspace(0, samples.size, n_blocks + 1).astype(int)
    estimates = np.empty(n_blocks)
    for b in range(n_blocks):
        mask = np.ones(samples.size, dtype=bool)
        mask[boundaries[b]:boundaries[b + 1]] = False
        estimates[b] = _oracle_skew(samples[mask], maturity, step)
    center = float(np.mean(estimates))
    stderr = math.sqrt(
        (n_blocks - 1) / n_blocks * float(np.sum((estimates - center) ** 2))
    )
    return value, stderr, estimates


def _assert_matches_oracle(samples, maturity):
    value, stderr = atmi_skew(manual_batch(samples), maturity)
    o_value, o_stderr, o_estimates = _oracle_atmi_skew(samples, maturity)
    assert value == o_value
    np.testing.assert_allclose(_block_estimates(samples, maturity, 1e-2), o_estimates,
                               rtol=0.0, atol=1e-11)
    assert stderr == pytest.approx(o_stderr, rel=1e-8)


SINGLE = dict(gamma=1.0, nu=2.0, eta=0.0)
MIXED = dict(gamma=0.5, nu=3.0, eta=1.0)


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
    # Block b's forward ignores block b's own samples, so a sample placed in
    # block b can sit exactly on that block's strike. The down-leg tie goes
    # in the block with the lowest forward (the lowest strike of its leg),
    # the up-leg tie in the block with the highest (the top of the band).
    step, maturity = 1e-2, 0.1
    grid = SimGrid(T=maturity, n_inner=8, n_paths=1001, seed=44)
    samples = sample_vix(build_vix_sampler(mk(H=0.3, **MIXED), grid)).samples.copy()
    boundaries = np.linspace(0, samples.size, JACKKNIFE_BLOCKS + 1).astype(int)
    kept = samples.size - np.diff(boundaries)

    def forwards():
        sums = np.add.reduceat(samples, boundaries[:-1])
        return (float(np.sum(samples)) - sums) / kept

    lowest, highest = int(np.argmin(forwards())), int(np.argmax(forwards()))
    ties = [(lowest, -1.0), (highest, +1.0)]
    for _ in range(10):
        for block, sign in ties:
            samples[boundaries[block]] = forwards()[block] * math.exp(sign * step)
    for block, sign in ties:
        assert samples[boundaries[block]] == forwards()[block] * math.exp(sign * step)
    _assert_matches_oracle(samples, maturity)


def test_skew_constant_batch_raises_like_oracle():
    samples = np.full(100, 0.2)
    with pytest.raises(Exception) as oracle_error:
        _oracle_atmi_skew(samples, 0.1)
    with pytest.raises(oracle_error.type):
        atmi_skew(manual_batch(samples), 0.1)


def test_skew_rejects_too_few_paths():
    for n_paths in (1, 2):
        with pytest.raises(ValueError):
            atmi_skew(manual_batch(np.linspace(1.0, 2.0, n_paths)), 0.1)
