"""At-the-money Black-Scholes pricing and implied-vol inversion tests."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vixsmile import bs
from vixsmile.bs import (
    BracketError,
    ConvergenceError,
    atm_implied_vol,
    atm_price,
    bs_vega,
    implied_vol,
)
from vixsmile.specfun import normal_cdf


def _exact_inverse(price_over_forward, maturity):
    """sqrt(8) erfinv(c/F) / sqrt(T) at 40 digits: the vol whose exact ATM
    price is the given double."""
    with mpmath.workdps(40):
        return (mpmath.sqrt(8) * mpmath.erfinv(mpmath.mpf(price_over_forward))
                / mpmath.sqrt(mpmath.mpf(maturity)))


def _relative_error(vol, reference):
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(vol) / reference - 1))


def test_atm_identity():
    # ATM: c/F = 2 N(sigma sqrt(T)/2) - 1
    assert atm_price(0.2, 1.0) == pytest.approx(2.0 * normal_cdf(0.1) - 1.0, abs=1e-14)


def test_zero_vol_returns_intrinsic():
    # At the money the intrinsic value is 0, and the vega tends to sqrt(T) N'(0).
    assert atm_price(0.0, 1.0) == 0.0
    assert bs_vega(0.0, 0.25) == pytest.approx(0.5 / math.sqrt(2.0 * math.pi), rel=1e-15)


def test_total_variance_limit():
    assert atm_price(20.0, 1.0) == pytest.approx(1.0, abs=1e-6)


def test_price_bounds_and_monotonicity_in_vol():
    prices = [atm_price(float(v), 0.5) for v in np.linspace(0.01, 3.0, 40)]
    assert all(0.0 < p < 1.0 for p in prices)
    assert all(b > a for a, b in zip(prices, prices[1:]))


def test_maturity_and_forward_validation():
    for maturity in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="maturity"):
            implied_vol(0.1, maturity)
    for forward in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="forward"):
            atm_implied_vol(0.1, forward, 1.0)


def test_vega_matches_central_differences():
    vol, maturity, h = 0.4, 0.75, 1e-6
    numeric = (atm_price(vol + h, maturity) - atm_price(vol - h, maturity)) / (2.0 * h)
    assert bs_vega(vol, maturity) == pytest.approx(numeric, rel=1e-8)


def test_implied_vol_atm_identity_inverse():
    price = 2.0 * normal_cdf(0.1) - 1.0
    assert implied_vol(price, 1.0) == pytest.approx(0.2, rel=1e-14)


def test_implied_vol_at_intrinsic_bound_rejected():
    # The ATM bracket is (0, F): the intrinsic value 0, the forward, and
    # anything past them or not a number.
    for price in (0.0, -1e-300, 1.0, 1.5, math.inf, math.nan):
        with pytest.raises(BracketError):
            implied_vol(price, 1.0)
    with pytest.raises(BracketError):
        atm_implied_vol(2.0, 2.0, 1.0)


def test_implied_vol_bisection_oracle():
    # 2 N(sigma/4) - 1 = 0.05 at T = 0.25, solved independently by bisection.
    target = 0.05
    lo, hi = 0.0, 5.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * normal_cdf(mid / 4.0) - 1.0 < target:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert implied_vol(target, 0.25) == pytest.approx(oracle, rel=1e-14)


def test_atm_wrapper_scale_invariance():
    price = 2.0 * (2.0 * normal_cdf(0.05) - 1.0)
    assert atm_implied_vol(price, 2.0, 1.0) == pytest.approx(0.1, rel=1e-14)
    base = atm_implied_vol(0.04, 1.0, 0.5)
    for c in (0.1, 10.0):
        assert atm_implied_vol(c * 0.04, c * 1.0, 0.5) == pytest.approx(base, rel=1e-15)


def test_atm_wrapper_rejects_zero_price():
    with pytest.raises(BracketError):
        atm_implied_vol(0.0, 1.0, 1.0)


def test_round_trip_small_forward_short_maturity():
    maturity = 1.0 / 12.0
    price = 0.2 * atm_price(0.8, maturity)
    assert atm_implied_vol(price, 0.2, maturity) == pytest.approx(0.8, rel=1e-14)


def test_round_trip_grid():
    # Acceptance-sized grid: sigma in [1e-4, 5] x T in [1e-4, 2].
    for sigma in (1e-4, 1e-3, 0.05, 0.2, 1.0, 2.5, 5.0):
        for maturity in (1e-4, 0.01, 0.25, 1.0, 2.0):
            recovered = implied_vol(atm_price(sigma, maturity), maturity)
            assert recovered == pytest.approx(sigma, rel=1e-14), (sigma, maturity)


def test_round_trip_at_violent_vols():
    # Realized-variance smiles at T ~ 1e-4 produce vols far above 10.
    assert implied_vol(atm_price(40.0, 1e-4), 1e-4) == pytest.approx(40.0, rel=1e-15)


def test_inversion_matches_mpmath_on_the_grid():
    # Every price strictly inside (0, 1) over sigma in [1e-6, 60] x T in
    # [1e-8, 10] inverts to within 1e-15 of the exact inverse of that price.
    # Prices in [1e-8, 1e-3) were the hard case of the bracketed solver,
    # whose absolute price tolerance left vol errors up to 4e-9 there.
    worst, inside = 0.0, 0
    for sigma in np.geomspace(1e-6, 60.0, 29).tolist():
        for maturity in np.geomspace(1e-8, 10.0, 29).tolist():
            price = atm_price(sigma, maturity)
            if not 0.0 < price < 1.0:
                continue
            inside += 1
            error = _relative_error(implied_vol(price, maturity),
                                    _exact_inverse(price, maturity))
            worst = max(worst, error)
    assert inside > 700
    assert worst <= 1e-15


@pytest.mark.parametrize("price", [1.0 - 2.0 ** -53, 1.0 - 1e-15, 1.0 - 1e-12,
                                   0.5, np.nextafter(0.5, 1.0), 1e-300])
def test_inversion_matches_mpmath_at_the_ends(price):
    # Above 1/2 the residual is taken through erfc, which keeps the
    # inversion exact up to the largest double below 1.
    error = _relative_error(implied_vol(float(price), 1.0), _exact_inverse(price, 1.0))
    assert error <= 1e-15


def test_inversion_fails_loudly_past_its_step_cap(monkeypatch):
    # 1 - 1e-16 takes 40 Newton steps from (sqrt(pi)/2) c/F.
    monkeypatch.setattr(bs, "_NEWTON_CAP", 39)
    with pytest.raises(ConvergenceError):
        implied_vol(1.0 - 1e-16, 1.0)
    monkeypatch.setattr(bs, "_NEWTON_CAP", 40)
    assert implied_vol(1.0 - 1e-16, 1.0) > 0.0


@given(sigma=st.floats(1e-6, 60.0), maturity=st.floats(1e-8, 10.0))
@settings(max_examples=250, deadline=None)
def test_round_trip_property(sigma, maturity):
    price = atm_price(sigma, maturity)
    if price == 1.0:
        return  # rounds to the forward: outside the bracket
    recovered = implied_vol(price, maturity)
    assert _relative_error(recovered, _exact_inverse(price, maturity)) <= 1e-15
    # Back in price space the round trip is exact up to the price's rounding.
    assert atm_price(recovered, maturity) == pytest.approx(price, rel=4e-16, abs=0.0)


def test_round_trip_tiny_extrinsic_value():
    # At the money the extrinsic value is the whole price, tiny when
    # sigma sqrt(T) is: the Newton start (sqrt(pi)/2) c/F is then the root
    # up to rounding, down to prices near the smallest normal double.
    for total_vol in np.geomspace(1e-300, 1e-8, 13).tolist():
        recovered = implied_vol(atm_price(total_vol, 1.0), 1.0)
        assert recovered == pytest.approx(total_vol, rel=1e-15, abs=0.0)
