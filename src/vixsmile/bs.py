"""Black-Scholes pricing on a forward underlying and implied-vol inversion.

Zero interest rate throughout; calls only. Prices and vols live on a forward
underlying exp(log_forward), so every Monte Carlo estimate turns into an
implied-vol number through this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import normal_cdf, normal_pdf

__all__ = [
    "BsQuote",
    "BracketError",
    "ConvergenceError",
    "bs_price",
    "bs_vega",
    "implied_vol",
    "atm_implied_vol",
]

MAX_ITERATIONS = 200
PRICE_TOL = 1e-12  # absolute, in forward-normalised price space
_SIGMA_LO = 1e-8
_SIGMA_HI = 10.0
_SIGMA_HI_CAP = 1e7


class BracketError(ValueError):
    """Target price violates the no-arbitrage bracket (intrinsic, forward)."""


class ConvergenceError(RuntimeError):
    """Implied-vol iteration failed to converge."""


@dataclass(frozen=True)
class BsQuote:
    """A forward-measure call quote: log-forward x, log-strike k, maturity, vol."""

    log_forward: float
    log_strike: float
    maturity: float
    vol: float

    def __post_init__(self) -> None:
        for name in ("log_forward", "log_strike", "maturity", "vol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"BsQuote.{name} must be finite")
        if self.maturity <= 0.0:
            raise ValueError(f"maturity must be positive, got {self.maturity!r}")
        if self.vol < 0.0:
            raise ValueError(f"vol must be nonnegative, got {self.vol!r}")


def _normalized_price(log_moneyness: float, total_vol: float) -> float:
    """Call price divided by the forward, as a function of k - x and sigma*sqrt(T)."""
    if total_vol == 0.0:
        return max(1.0 - math.exp(log_moneyness), 0.0)
    d_plus = -log_moneyness / total_vol + 0.5 * total_vol
    d_minus = d_plus - total_vol
    return normal_cdf(d_plus) - math.exp(log_moneyness) * normal_cdf(d_minus)


def bs_price(q: BsQuote) -> float:
    """Black-Scholes call price e^x N(d+) - e^k N(d-); intrinsic value at vol 0."""
    total_vol = q.vol * math.sqrt(q.maturity)
    return math.exp(q.log_forward) * _normalized_price(
        q.log_strike - q.log_forward, total_vol
    )


def bs_vega(q: BsQuote) -> float:
    """dPrice/dVol = e^x N'(d+) sqrt(T). Zero is returned for vol = 0 ATM-off."""
    if q.vol == 0.0:
        # One-sided limit: vega -> 0 away from ATM; at ATM the limit is
        # e^x sqrt(T) N'(0), which is what the formula below would give.
        d_plus = 0.0 if q.log_forward == q.log_strike else math.inf
    else:
        total_vol = q.vol * math.sqrt(q.maturity)
        d_plus = (q.log_forward - q.log_strike) / total_vol + 0.5 * total_vol
    density = normal_pdf(d_plus) if math.isfinite(d_plus) else 0.0
    return math.exp(q.log_forward) * density * math.sqrt(q.maturity)


def implied_vol(price: float, log_forward: float, log_strike: float,
                maturity: float) -> float:
    """Invert the Black-Scholes price; safeguarded Newton with bisection fallback.

    The target must lie strictly inside (intrinsic value, forward). Accurate to
    1e-12 in forward-normalised price space, which round-trips vols in
    [1e-4, 5] to better than 1e-10.
    """
    if not all(math.isfinite(v) for v in (price, log_forward, log_strike, maturity)):
        raise ValueError("implied_vol arguments must be finite")
    if maturity <= 0.0:
        raise ValueError(f"maturity must be positive, got {maturity!r}")

    # Work on the forward-normalised problem: scale invariance for free.
    log_moneyness = log_strike - log_forward
    target = price / math.exp(log_forward)
    intrinsic = max(1.0 - math.exp(log_moneyness), 0.0)
    if not (intrinsic < target < 1.0):
        raise BracketError(
            f"price {price!r} outside the no-arbitrage bracket "
            f"({intrinsic * math.exp(log_forward)!r}, {math.exp(log_forward)!r})"
        )

    sqrt_t = math.sqrt(maturity)
    lo, hi = 0.0, _SIGMA_HI
    # Widen upward for targets beyond the default bracket (very short maturity
    # with violent vols); bs price tends to the forward, so this terminates.
    while _normalized_price(log_moneyness, hi * sqrt_t) < target:
        lo = hi
        hi *= 2.0
        if hi > _SIGMA_HI_CAP:
            raise ConvergenceError(
                f"could not bracket implied vol below {_SIGMA_HI_CAP}"
            )
    if lo == 0.0:
        lo = _SIGMA_LO if _normalized_price(log_moneyness, _SIGMA_LO * sqrt_t) < target else 0.0

    # ATM-style initial guess (price ~ sigma sqrt(T/2pi) near the money),
    # falling back to the bracket midpoint when it lands outside.
    sigma = target * math.sqrt(2.0 * math.pi / maturity)
    if not (lo < sigma < hi):
        sigma = 0.5 * (lo + hi)

    for _ in range(MAX_ITERATIONS):
        total_vol = sigma * sqrt_t
        f = _normalized_price(log_moneyness, total_vol) - target
        if abs(f) <= PRICE_TOL:
            # Polish once with Newton, then stop. Far out of the money the
            # vega is tiny and the step can overshoot to the bracket edge, so
            # keep it only when it does not worsen the price residual.
            vega = normal_pdf(-log_moneyness / total_vol + 0.5 * total_vol) * sqrt_t
            if vega > 0.0 and math.isfinite(vega):
                polished = min(max(sigma - f / vega, lo), hi)
                residual = _normalized_price(log_moneyness, polished * sqrt_t) - target
                if abs(residual) <= abs(f):
                    sigma = polished
            return sigma
        if f > 0.0:
            hi = sigma
        else:
            lo = sigma
        vega = normal_pdf(-log_moneyness / total_vol + 0.5 * total_vol) * sqrt_t
        if vega > 0.0 and math.isfinite(vega):
            candidate = sigma - f / vega
        else:
            candidate = math.nan
        if not (lo < candidate < hi):
            candidate = 0.5 * (lo + hi)
        if candidate == sigma:
            return sigma
        sigma = candidate

    raise ConvergenceError(
        f"implied vol did not converge within {MAX_ITERATIONS} iterations"
    )


def atm_implied_vol(price: float, forward: float, maturity: float) -> float:
    """Implied vol with strike pinned at the forward, k = x = ln(forward)."""
    if not (forward > 0.0) or not math.isfinite(forward):
        raise ValueError(f"forward must be positive and finite, got {forward!r}")
    log_f = math.log(forward)
    return implied_vol(price, log_f, log_f, maturity)
