"""At-the-money Black-Scholes on a forward underlying and its implied vol.

Zero interest rate; calls struck at the forward F, the only strike at
which the package reads a vol. There the price has the closed form
c/F = erf(sigma sqrt(T) / sqrt(8)), and the implied vol is its inverse:
Newton's method on erf(u) = c/F, which converges from below without a
bracket or a price tolerance.
"""

from __future__ import annotations

import math

from .specfun import normal_pdf

__all__ = [
    "BracketError",
    "ConvergenceError",
    "atm_price",
    "bs_vega",
    "implied_vol",
    "atm_implied_vol",
]

# Newton steps before the inversion gives up; c/F = 1 - 1e-16 takes 40.
_NEWTON_CAP = 100
_ROOT_8 = math.sqrt(8.0)
_HALF_ROOT_PI = 0.5 * math.sqrt(math.pi)


class BracketError(ValueError):
    """Target price outside the no-arbitrage bracket (0, forward)."""


class ConvergenceError(RuntimeError):
    """Implied-vol iteration failed to converge."""


def atm_price(vol: float, maturity: float) -> float:
    """ATM call price over the forward, erf(vol sqrt(T) / sqrt(8))."""
    return math.erf(vol * math.sqrt(maturity) / _ROOT_8)


def bs_vega(vol: float, maturity: float) -> float:
    """d(c/F)/d(vol) at the money, phi(vol sqrt(T) / 2) sqrt(T)."""
    root_t = math.sqrt(maturity)
    return normal_pdf(0.5 * vol * root_t) * root_t


def implied_vol(price_over_forward: float, maturity: float) -> float:
    """The vol whose ATM price over the forward is ``price_over_forward``.

    Solves erf(u) = c/F for u = vol sqrt(T) / sqrt(8) by Newton's method
    from u = (sqrt(pi)/2) c/F, below the root as erf(u) <= 2u/sqrt(pi).
    erf is concave on u >= 0, so every iterate stays below the root and
    rises to it; the loop stops at the first step that no longer raises u.
    Above c/F = 1/2 the residual is taken as erfc(u) - (1 - c/F), where both
    terms keep their relative precision. Raises :class:`BracketError`
    unless 0 < c/F < 1, and :class:`ConvergenceError` past _NEWTON_CAP steps.
    """
    if not 0.0 < maturity < math.inf:
        raise ValueError(f"maturity must be positive and finite, got {maturity!r}")
    target = price_over_forward
    if not 0.0 < target < 1.0:
        raise BracketError(f"price over forward {target!r} outside (0, 1)")
    u = _HALF_ROOT_PI * target
    for _ in range(_NEWTON_CAP):
        if target > 0.5:
            residual = math.erfc(u) - (1.0 - target)
        else:
            residual = target - math.erf(u)
        next_u = u + residual * _HALF_ROOT_PI * math.exp(u * u)
        if not next_u > u:
            return u * _ROOT_8 / math.sqrt(maturity)
        u = next_u
    raise ConvergenceError(f"implied vol did not converge within {_NEWTON_CAP} steps")


def atm_implied_vol(price: float, forward: float, maturity: float) -> float:
    """Implied vol of an ATM call price on the forward ``forward``."""
    if not 0.0 < forward < math.inf:
        raise ValueError(f"forward must be positive and finite, got {forward!r}")
    return implied_vol(price / forward, maturity)
