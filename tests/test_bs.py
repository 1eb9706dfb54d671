"""Black-Scholes pricing and implied-vol inversion tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vixsmile.bs import (
    BracketError,
    BsQuote,
    atm_implied_vol,
    bs_price,
    bs_vega,
    implied_vol,
)
from vixsmile.specfun import normal_cdf


def test_atm_identity():
    # ATM: price = e^x (2 N(sigma sqrt(T)/2) - 1)
    q = BsQuote(log_forward=0.0, log_strike=0.0, maturity=1.0, vol=0.2)
    assert bs_price(q) == pytest.approx(2.0 * normal_cdf(0.1) - 1.0, abs=1e-14)


def test_zero_vol_returns_intrinsic():
    q = BsQuote(log_forward=0.0, log_strike=-0.1, maturity=1.0, vol=0.0)
    assert bs_price(q) == pytest.approx(1.0 - math.exp(-0.1), abs=1e-14)
    otm = BsQuote(log_forward=0.0, log_strike=0.1, maturity=1.0, vol=0.0)
    assert bs_price(otm) == 0.0


def test_total_variance_limit():
    q = BsQuote(log_forward=0.0, log_strike=0.0, maturity=1.0, vol=20.0)
    assert bs_price(q) == pytest.approx(1.0, abs=1e-6)


def test_price_bounds_and_monotonicity_in_vol():
    vols = np.linspace(0.01, 3.0, 40)
    prices = [
        bs_price(BsQuote(log_forward=0.2, log_strike=0.1, maturity=0.5, vol=float(v)))
        for v in vols
    ]
    intrinsic = max(math.exp(0.2) - math.exp(0.1), 0.0)
    assert all(intrinsic < p < math.exp(0.2) for p in prices)
    assert all(b > a for a, b in zip(prices, prices[1:]))


def test_quote_validation():
    with pytest.raises(ValueError):
        BsQuote(log_forward=0.0, log_strike=0.0, maturity=0.0, vol=0.2)
    with pytest.raises(ValueError):
        BsQuote(log_forward=0.0, log_strike=0.0, maturity=1.0, vol=-0.1)
    with pytest.raises(ValueError):
        BsQuote(log_forward=math.nan, log_strike=0.0, maturity=1.0, vol=0.2)


def test_vega_matches_central_differences():
    q = BsQuote(log_forward=0.1, log_strike=0.05, maturity=0.75, vol=0.4)
    h = 1e-6
    up = bs_price(BsQuote(q.log_forward, q.log_strike, q.maturity, q.vol + h))
    down = bs_price(BsQuote(q.log_forward, q.log_strike, q.maturity, q.vol - h))
    numeric = (up - down) / (2.0 * h)
    assert bs_vega(q) == pytest.approx(numeric, rel=1e-6)


def test_implied_vol_atm_identity_inverse():
    price = 2.0 * normal_cdf(0.1) - 1.0
    assert implied_vol(price, 0.0, 0.0, 1.0) == pytest.approx(0.2, abs=1e-10)


def test_implied_vol_at_intrinsic_bound_rejected():
    intrinsic = 1.0 - math.exp(-0.1)
    with pytest.raises(BracketError):
        implied_vol(intrinsic, 0.0, -0.1, 1.0)
    with pytest.raises(BracketError):
        implied_vol(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(BracketError):
        implied_vol(1.5, 0.0, 0.0, 1.0)  # above the forward


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
    assert implied_vol(target, 0.0, 0.0, 0.25) == pytest.approx(oracle, abs=1e-10)


def test_atm_wrapper_scale_invariance():
    price = 2.0 * (2.0 * normal_cdf(0.05) - 1.0)
    assert atm_implied_vol(price, 2.0, 1.0) == pytest.approx(0.1, abs=1e-10)
    base = atm_implied_vol(0.04, 1.0, 0.5)
    for c in (0.1, 10.0):
        assert atm_implied_vol(c * 0.04, c * 1.0, 0.5) == pytest.approx(
            base, abs=1e-12
        )


def test_atm_wrapper_rejects_zero_price():
    with pytest.raises(BracketError):
        atm_implied_vol(0.0, 1.0, 1.0)


def test_round_trip_small_forward_short_maturity():
    q = BsQuote(math.log(0.2), math.log(0.2), 1.0 / 12.0, 0.8)
    assert atm_implied_vol(bs_price(q), 0.2, 1.0 / 12.0) == pytest.approx(
        0.8, abs=1e-10
    )


def test_round_trip_grid():
    # Acceptance-sized grid: sigma in [1e-4, 5] x T in [1e-4, 2].
    for sigma in (1e-4, 1e-3, 0.05, 0.2, 1.0, 2.5, 5.0):
        for maturity in (1e-4, 0.01, 0.25, 1.0, 2.0):
            q = BsQuote(0.0, 0.0, maturity, sigma)
            recovered = implied_vol(bs_price(q), 0.0, 0.0, maturity)
            assert recovered == pytest.approx(sigma, abs=1e-10), (sigma, maturity)


def test_bracket_extends_beyond_default_upper_bound():
    # Realized-variance smiles at T ~ 1e-4 produce vols far above 10.
    q = BsQuote(0.0, 0.0, 1e-4, 40.0)
    assert implied_vol(bs_price(q), 0.0, 0.0, 1e-4) == pytest.approx(40.0, rel=1e-9)


@given(
    sigma=st.floats(1e-4, 5.0),
    maturity=st.floats(1e-4, 2.0),
    moneyness=st.floats(-0.2, 0.2),
)
@settings(max_examples=250, deadline=None)
def test_round_trip_property(sigma, maturity, moneyness):
    q = BsQuote(0.0, moneyness, maturity, sigma)
    price = bs_price(q)
    intrinsic = max(1.0 - math.exp(moneyness), 0.0)
    if not (intrinsic < price < 1.0):
        return  # numerically at a bound; inversion is out of contract
    recovered = implied_vol(price, 0.0, moneyness, maturity)
    # Always consistent in price space; sigma recovery is only well posed
    # when the extrinsic value sits clearly above the solver's price
    # tolerance (deep OTM/ITM at tiny maturity carries no vol information).
    back = bs_price(BsQuote(0.0, moneyness, maturity, recovered))
    assert back == pytest.approx(price, abs=2e-12)
    if price - intrinsic > 1e-9 and 1.0 - price > 1e-9:
        vega = bs_vega(q)
        assert recovered == pytest.approx(
            sigma, abs=max(2e-9, 4e-12 / vega), rel=1e-9
        )


def test_round_trip_tiny_extrinsic_value():
    # Far out of the money the vega is tiny; a Newton polish step must not
    # jump to the bracket edge and leave the price far from the target.
    k, maturity = 0.01171875, 0.01171875
    for sigma in (0.015625, 0.0078125, 0.0239):
        price = bs_price(BsQuote(0.0, k, maturity, sigma))
        recovered = implied_vol(price, 0.0, k, maturity)
        back = bs_price(BsQuote(0.0, k, maturity, recovered))
        assert back == pytest.approx(price, abs=2e-12)
