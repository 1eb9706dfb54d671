"""The two Monte Carlo estimators the paper's comparisons need: the ATM
implied vol (``atmi``) and the ATM skew (``atmi_skew``) of a path batch.

The ATM strike is always the sample mean of the same batch being priced
(maximal variance cancellation; the resulting O(1/n) bias is checked against
Monte Carlo noise in the tests). Skews are central differences in log-strike
with both legs priced on common random numbers; their standard errors come
from a delete-block jackknife, since the legs are strongly correlated and
naive error bars would be uselessly wide. The jackknife never copies the
batch: every leave-one-block-out forward and leg price is derived from
full-sample sums in O(n) work. Each estimator writes its payoffs into one
scratch vector the size of the batch, reused by every pass.
"""

from __future__ import annotations

import math

import numpy as np

from .bs import BsQuote, atm_implied_vol, bs_vega, implied_vol
from .mc import PathBatch

__all__ = ["atmi", "atmi_skew"]

DEFAULT_SKEW_STEP = 1e-2
JACKKNIFE_BLOCKS = 20


def _call_payoffs(samples: np.ndarray, strike: float, out: np.ndarray) -> np.ndarray:
    """max(samples - strike, 0), written into ``out``."""
    return np.maximum(np.subtract(samples, strike, out=out), 0.0, out=out)


def atmi(batch: PathBatch, maturity: float) -> tuple[float, float]:
    """ATM implied vol with strike at the batch mean, plus its standard error.

    A numerically constant batch (zero vol-of-vol) has zero ATM price and is
    reported as the degenerate result (0.0, 0.0).
    """
    samples = batch.samples
    n = samples.size
    if n < 2:
        raise ValueError("need at least two paths")
    forward = float(np.mean(samples))
    payoff = _call_payoffs(samples, forward, np.empty(n))
    price = float(np.mean(payoff))
    if price <= 0.0:
        return 0.0, 0.0
    # np.std(payoff, ddof=1) in place: centre, square, sum.
    np.subtract(payoff, price, out=payoff)
    np.multiply(payoff, payoff, out=payoff)
    price_stderr = math.sqrt(float(np.sum(payoff)) / (n - 1)) / math.sqrt(n)
    vol = atm_implied_vol(price, forward, maturity)
    vega = bs_vega(BsQuote(math.log(forward), math.log(forward), maturity, vol))
    return vol, price_stderr / vega


def _skew_from_prices(forward: float, prices: tuple[float, float],
                      maturity: float, step: float) -> float:
    """Central-difference skew from the call prices at forward * exp(+-step)."""
    log_f = math.log(forward)
    up = implied_vol(prices[0], log_f, log_f + step, maturity)
    down = implied_vol(prices[1], log_f, log_f - step, maturity)
    return (up - down) / (2.0 * step)


def _leave_block_out_payoffs(samples: np.ndarray, boundaries: np.ndarray,
                             strikes: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Summed call payoff at strikes[b] over the samples outside block b,
    with ``work`` (the size of ``samples``) as scratch.

    With K0 = min(strikes), the full-sample payoff sum at any K >= K0 is
    P(K) = P(K0) - sum over x > K0 of min(x - K0, K - K0). The min is
    x - K0 up to K and K - K0 above it, so only the samples in
    (K0, max(strikes)] are sorted, with prefix sums of x - K0. Block b's own
    payoff at strikes[b] is then removed with one pass over the block.
    """
    k0 = float(np.min(strikes))
    excess = _call_payoffs(samples, k0, work)
    gaps = strikes - k0
    in_band = excess > 0.0
    in_band &= excess <= np.max(gaps)
    band = np.sort(excess[in_band])
    below = np.searchsorted(band, gaps, side="right")
    band_sums = np.concatenate(([0.0], np.cumsum(band)))
    n_above = np.count_nonzero(excess)
    totals = float(np.sum(excess)) - band_sums[below] - gaps * (n_above - below)
    # excess is spent: each block's own payoff overwrites its slice of work.
    own = [
        np.sum(_call_payoffs(samples[lo:hi], strike, work[lo:hi]))
        for lo, hi, strike in zip(boundaries[:-1], boundaries[1:], strikes)
    ]
    return totals - own


def _block_estimates(samples: np.ndarray, maturity: float, step: float,
                     work: np.ndarray) -> np.ndarray:
    """Skew of each delete-block subsample, re-centred on its own mean.

    Forwards come from block sums and leg prices from
    _leave_block_out_payoffs, so no subsample is ever copied. ``work`` is
    scratch the size of ``samples``.
    """
    n = samples.size
    n_blocks = min(JACKKNIFE_BLOCKS, n)
    boundaries = np.linspace(0, n, n_blocks + 1).astype(int)
    kept = n - np.diff(boundaries)
    forwards = (float(np.sum(samples)) - np.add.reduceat(samples, boundaries[:-1])) / kept
    legs = [
        _leave_block_out_payoffs(samples, boundaries, forwards * math.exp(sign * step),
                                 work) / kept
        for sign in (1.0, -1.0)
    ]
    return np.array([
        _skew_from_prices(float(f), (float(up), float(down)), maturity, step)
        for f, up, down in zip(forwards, *legs)
    ])


def atmi_skew(batch: PathBatch, maturity: float,
              step: float = DEFAULT_SKEW_STEP) -> tuple[float, float]:
    """Central-difference ATM skew dI/dk and its jackknife standard error.

    Both legs are priced on the same paths; the error combines the leg
    covariance through a delete-block jackknife over JACKKNIFE_BLOCKS
    contiguous blocks, each estimate re-centring its strikes on its own
    subsample mean. The jackknife does O(n) work in all: see
    _block_estimates.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step!r}")
    samples = batch.samples
    if samples.size < 3:
        raise ValueError("need at least three paths for a delete-block jackknife")
    forward = float(np.mean(samples))
    work = np.empty(samples.size)
    prices = tuple(
        float(np.mean(_call_payoffs(samples, forward * math.exp(sign * step), work)))
        for sign in (1.0, -1.0)
    )
    value = _skew_from_prices(forward, prices, maturity, step)

    estimates = _block_estimates(samples, maturity, step, work)
    n_blocks = estimates.size
    center = float(np.mean(estimates))
    stderr = math.sqrt(
        (n_blocks - 1) / n_blocks * float(np.sum((estimates - center) ** 2))
    )
    return value, stderr
