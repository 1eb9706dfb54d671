"""Turn path batches into option prices, ATM implied vols, smiles, and skews.

The ATM strike is always the sample mean of the same batch being priced
(maximal variance cancellation; the resulting O(1/n) bias is checked against
Monte Carlo noise in the tests). Skews are central differences in log-strike
with both legs priced on common random numbers; their standard errors come
from a delete-block jackknife, since the legs are strongly correlated and
naive error bars would be uselessly wide. The jackknife never copies the
batch: every leave-one-block-out forward and leg price is derived from
full-sample sums in O(n) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bs import BracketError, BsQuote, atm_implied_vol, bs_vega, implied_vol
from .mc import PathBatch

__all__ = [
    "PriceEstimate",
    "SmilePoint",
    "price_call",
    "atmi",
    "smile",
    "atmi_skew",
]

DEFAULT_SKEW_STEP = 1e-2
JACKKNIFE_BLOCKS = 20


@dataclass(frozen=True)
class PriceEstimate:
    """Monte Carlo price with standard error and path count."""

    value: float
    stderr: float
    n_paths: int

    def __post_init__(self) -> None:
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")
        if self.value < 0.0:
            raise ValueError("call prices must be nonnegative")
        if self.n_paths < 1:
            raise ValueError("n_paths must be >= 1")


@dataclass(frozen=True)
class SmilePoint:
    """One smile node: log-strike offset from ATM, implied vol, vol error.

    ``implied_vol`` is NaN when the inversion failed at that strike (price
    outside the no-arbitrage bracket after Monte Carlo noise).
    """

    log_strike_offset: float
    implied_vol: float
    vol_stderr: float


def _payoff_stats(samples: np.ndarray, strike: float) -> tuple[float, float]:
    payoff = np.maximum(samples - strike, 0.0)
    mean = float(np.mean(payoff))
    if samples.size < 2:
        raise ValueError("need at least two paths")
    stderr = float(np.std(payoff, ddof=1) / math.sqrt(samples.size))
    return mean, stderr


def price_call(batch: PathBatch, strike: float) -> PriceEstimate:
    """Monte Carlo call price E(A - K)+ with its standard error.

    A zero strike prices the forward itself (payoff equals the underlying).
    """
    if not (strike >= 0.0 and math.isfinite(strike)):
        raise ValueError(f"strike must be nonnegative and finite, got {strike!r}")
    mean, stderr = _payoff_stats(batch.samples, strike)
    return PriceEstimate(mean, stderr, batch.samples.size)


def atmi(batch: PathBatch, maturity: float) -> tuple[float, float]:
    """ATM implied vol with strike at the batch mean, plus its standard error.

    A numerically constant batch (zero vol-of-vol) has zero ATM price and is
    reported as the degenerate result (0.0, 0.0).
    """
    samples = batch.samples
    forward = float(np.mean(samples))
    price, price_stderr = _payoff_stats(samples, forward)
    if price <= 0.0:
        return 0.0, 0.0
    vol = atm_implied_vol(price, forward, maturity)
    vega = bs_vega(BsQuote(math.log(forward), math.log(forward), maturity, vol))
    return vol, price_stderr / vega


def smile(batch: PathBatch, maturity: float,
          offsets: list[float]) -> list[SmilePoint]:
    """Implied vols at log-strike offsets from ATM, all on the same batch.

    Call-price monotonicity across the strike grid is asserted on every run;
    individual inversion failures yield NaN points rather than aborting.
    """
    samples = batch.samples
    forward = float(np.mean(samples))
    order = np.argsort(np.asarray(offsets, dtype=float))
    sorted_offsets = [float(offsets[i]) for i in order]
    strikes = [forward * math.exp(k) for k in sorted_offsets]
    stats = [_payoff_stats(samples, strike) for strike in strikes]

    prices = [s[0] for s in stats]
    tol = 1e-12 * max(1.0, prices[0] if prices else 0.0)
    if any(b > a + tol for a, b in zip(prices, prices[1:])):
        raise RuntimeError("call prices failed to be nonincreasing in strike")
    # Convexity in strike: slopes of a convex function are nondecreasing.
    slopes = [
        (pb - pa) / (kb - ka)
        for pa, pb, ka, kb in zip(prices, prices[1:], strikes, strikes[1:])
    ]
    if any(b < a - tol for a, b in zip(slopes, slopes[1:])):
        raise RuntimeError("call prices failed to be convex in strike")

    log_f = math.log(forward)
    points: dict[float, SmilePoint] = {}
    for offset, strike, (price, stderr) in zip(sorted_offsets, strikes, stats):
        try:
            vol = implied_vol(price, log_f, log_f + offset, maturity)
            quote = BsQuote(log_f, log_f + offset, maturity, vol)
            vega = bs_vega(quote)
            vol_err = stderr / vega if vega > 0.0 else math.inf
            points[offset] = SmilePoint(offset, vol, vol_err)
        except (BracketError, ValueError):
            points[offset] = SmilePoint(offset, math.nan, math.nan)
    return [points[float(k)] for k in offsets]


def _skew_from_prices(forward: float, prices: tuple[float, float],
                      maturity: float, step: float) -> float:
    """Central-difference skew from the call prices at forward * exp(+-step)."""
    log_f = math.log(forward)
    up = implied_vol(prices[0], log_f, log_f + step, maturity)
    down = implied_vol(prices[1], log_f, log_f - step, maturity)
    return (up - down) / (2.0 * step)


def _leave_block_out_payoffs(samples: np.ndarray, boundaries: np.ndarray,
                             strikes: np.ndarray) -> np.ndarray:
    """Summed call payoff at strikes[b] over the samples outside block b.

    With K0 = min(strikes), the full-sample payoff sum at any K >= K0 is
    P(K) = P(K0) - sum over x > K0 of min(x - K0, K - K0). The min is
    x - K0 up to K and K - K0 above it, so only the samples in
    (K0, max(strikes)] are sorted, with prefix sums of x - K0. Block b's own
    payoff at strikes[b] is then removed with one pass over the block.
    """
    k0 = float(np.min(strikes))
    excess = samples - k0
    np.maximum(excess, 0.0, out=excess)
    gaps = strikes - k0
    band = np.sort(excess[(excess > 0.0) & (excess <= np.max(gaps))])
    below = np.searchsorted(band, gaps, side="right")
    band_sums = np.concatenate(([0.0], np.cumsum(band)))
    n_above = np.count_nonzero(excess)
    totals = float(np.sum(excess)) - band_sums[below] - gaps * (n_above - below)
    own = [
        np.sum(np.maximum(samples[lo:hi] - strike, 0.0))
        for lo, hi, strike in zip(boundaries[:-1], boundaries[1:], strikes)
    ]
    return totals - own


def _block_estimates(samples: np.ndarray, maturity: float, step: float) -> np.ndarray:
    """Skew of each delete-block subsample, re-centred on its own mean.

    Forwards come from block sums and leg prices from
    _leave_block_out_payoffs, so no subsample is ever copied.
    """
    n = samples.size
    n_blocks = min(JACKKNIFE_BLOCKS, n)
    boundaries = np.linspace(0, n, n_blocks + 1).astype(int)
    kept = n - np.diff(boundaries)
    forwards = (float(np.sum(samples)) - np.add.reduceat(samples, boundaries[:-1])) / kept
    legs = [
        _leave_block_out_payoffs(samples, boundaries, forwards * math.exp(sign * step)) / kept
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
    prices = tuple(
        float(np.mean(np.maximum(samples - forward * math.exp(sign * step), 0.0)))
        for sign in (1.0, -1.0)
    )
    value = _skew_from_prices(forward, prices, maturity, step)

    estimates = _block_estimates(samples, maturity, step)
    n_blocks = estimates.size
    center = float(np.mean(estimates))
    stderr = math.sqrt(
        (n_blocks - 1) / n_blocks * float(np.sum((estimates - center) ** 2))
    )
    return value, stderr
