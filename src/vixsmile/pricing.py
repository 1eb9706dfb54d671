"""The two Monte Carlo estimators the paper's comparisons need: the ATM
implied vol (``atmi``) and the ATM skew (``atmi_skew``) of a path batch.

The ATM strike is always the sample mean of the same batch being priced
(maximal variance cancellation; the resulting O(1/n) bias is checked against
Monte Carlo noise in the tests). The skew is the exact log-strike derivative
of the Monte Carlo smile at the money, from the digital identity: no strike
step enters it. Its standard error comes from a delete-block jackknife,
since the ATM price and the digital come from the same paths. The jackknife
never copies the batch: every leave-one-block-out forward, ATM price and
digital is derived from full-sample sums in O(n) work. Each estimator writes
its payoffs into one scratch vector the size of the batch, reused by every
pass.
"""

from __future__ import annotations

import math

import numpy as np

from .bs import BracketError, atm_implied_vol, bs_vega
from .mc import PathBatch
from .specfun import normal_cdf, normal_pdf

__all__ = ["atmi", "atmi_skew"]

JACKKNIFE_BLOCKS = 20


def _call_payoffs(samples: np.ndarray, strike: float, out: np.ndarray) -> np.ndarray:
    """max(samples - strike, 0), written into ``out``."""
    return np.maximum(np.subtract(samples, strike, out=out), 0.0, out=out)


def atmi(batch: PathBatch, maturity: float) -> tuple[float, float]:
    """ATM implied vol with strike at the batch mean, plus its standard error.

    A numerically constant batch (zero vol-of-vol) is reported as the
    degenerate result (0.0, 0.0): its ATM price is zero, or of rounding size
    when its mean rounds below every sample.
    """
    samples = batch.samples
    n = samples.size
    if n < 2:
        raise ValueError("need at least two paths")
    forward = float(np.mean(samples))
    payoff = _call_payoffs(samples, forward, np.empty(n))
    price = float(np.mean(payoff))
    if price <= 0.0 or float(np.min(samples)) > forward:
        return 0.0, 0.0
    # np.std(payoff, ddof=1) in place: centre, square, sum.
    np.subtract(payoff, price, out=payoff)
    np.multiply(payoff, payoff, out=payoff)
    price_stderr = math.sqrt(float(np.sum(payoff)) / (n - 1)) / math.sqrt(n)
    vol = atm_implied_vol(price, forward, maturity)
    return vol, price_stderr / (forward * bs_vega(vol, maturity))


def _skew_from_digital(price: float, digital: float, forward: float,
                       maturity: float) -> float:
    """ATM skew dI/dk from the ATM call price and the digital D, the share of
    samples above ``forward``: with s = I sqrt(T)/2, the strike derivative of
    the call price at the money reads -D = -N(-s) + phi(s) sqrt(T) dI/dk.
    Only a batch constant up to rounding puts D at 0 or 1, outside the
    digital's no-arbitrage bracket."""
    if not 0.0 < digital < 1.0:
        raise BracketError(f"digital {digital!r} at the forward outside (0, 1)")
    root_t = math.sqrt(maturity)
    half = 0.5 * atm_implied_vol(price, forward, maturity) * root_t
    return (normal_cdf(-half) - digital) / (normal_pdf(half) * root_t)


def _leave_block_out_payoffs(samples: np.ndarray, boundaries: np.ndarray,
                             strikes: np.ndarray,
                             work: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summed call payoff at strikes[b] and count of samples above strikes[b],
    over the samples outside block b, with ``work`` (the size of ``samples``)
    as scratch.

    With K0 = min(strikes), the full-sample payoff sum at any K >= K0 is
    P(K) = P(K0) - sum over x > K0 of min(x - K0, K - K0). The min is
    x - K0 up to K and K - K0 above it, so only the samples in
    (K0, max(strikes)] are sorted, with prefix sums of x - K0; the counts
    compare the samples themselves with the strikes. Block b's own payoff
    and count at strikes[b] are then removed with one pass over the block.
    """
    k0 = float(np.min(strikes))
    excess = _call_payoffs(samples, k0, work)
    gaps = strikes - k0
    in_band = excess > 0.0
    n_above = np.count_nonzero(in_band)
    in_band &= excess <= np.max(gaps)
    band = np.sort(samples[in_band])
    below = np.searchsorted(band, strikes, side="right")
    band_sums = np.concatenate(([0.0], np.cumsum(band - k0)))
    above = n_above - below
    totals = float(np.sum(excess)) - band_sums[below] - gaps * above
    # excess is spent: each block's own payoff overwrites its slice of work.
    cuts = boundaries[1:-1]
    own = [_call_payoffs(block, strike, out) for block, strike, out
           in zip(np.split(samples, cuts), strikes, np.split(work, cuts))]
    return (totals - [np.sum(payoff) for payoff in own],
            above - [np.count_nonzero(payoff) for payoff in own])


def _block_estimates(samples: np.ndarray, maturity: float,
                     work: np.ndarray) -> np.ndarray:
    """Skew of each delete-block subsample, at the money of its own mean.

    Forwards come from block sums, and ATM prices and digitals from one
    _leave_block_out_payoffs pass at the forwards, so no subsample is ever
    copied. ``work`` is scratch the size of ``samples``.
    """
    n = samples.size
    n_blocks = min(JACKKNIFE_BLOCKS, n)
    boundaries = np.linspace(0, n, n_blocks + 1).astype(int)
    kept = n - np.diff(boundaries)
    forwards = (float(np.sum(samples)) - np.add.reduceat(samples, boundaries[:-1])) / kept
    payoffs, above = _leave_block_out_payoffs(samples, boundaries, forwards, work)
    return np.array([_skew_from_digital(price, digital, forward, maturity)
                     for price, digital, forward in zip(payoffs / kept, above / kept, forwards)])


def atmi_skew(batch: PathBatch, maturity: float) -> tuple[float, float]:
    """ATM skew dI/dk of the batch's own smile, from the digital identity,
    and its delete-block jackknife standard error over JACKKNIFE_BLOCKS
    contiguous blocks, each estimate at the money of its own subsample mean.
    The jackknife does O(n) work in all: see _block_estimates.
    """
    samples = batch.samples
    n = samples.size
    if n < 3:
        raise ValueError("need at least three paths for a delete-block jackknife")
    forward = float(np.mean(samples))
    work = np.empty(n)
    payoff = _call_payoffs(samples, forward, work)
    value = _skew_from_digital(float(np.mean(payoff)), int(np.count_nonzero(payoff)) / n,
                               forward, maturity)

    estimates = _block_estimates(samples, maturity, work)
    spread = float(np.sum((estimates - np.mean(estimates)) ** 2))
    return value, math.sqrt((estimates.size - 1) / estimates.size * spread)
