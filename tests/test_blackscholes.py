"""Tests for the Black-Scholes layer.

Expected values come from independent oracles computed in this file:
payoff quadrature against the lognormal density for prices, and
high-order finite-difference ladders for derivative ratios.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from letfvol.blackscholes import (
    IV_MAX_VOL,
    MAX_LOG,
    BsInputs,
    bs_call_price,
    bs_put_price,
    bs_vega,
    hermite_poly_value,
    hermite_vega_ratio,
    implied_vol,
)
from letfvol.errors import DomainError, NoArbitrageError, SolverError

def vega_ratio(order: int, inputs: BsInputs) -> float:
    """Oracle: ratio of the order-2, 3 or 4 sigma-derivative of the call
    price to its vega, written out in (k - z), tau and sigma.

    The expansion uses the Laurent form ``expansion.vega_ratio_coeffs``;
    this float form checks it, and finite differences check this.
    """
    lam = inputs.k - inputs.z
    sigma, tau = inputs.sigma, inputs.tau
    if order == 2:
        return lam * lam / (tau * sigma**3) - tau * sigma / 4.0
    if order == 3:
        return (
            lam**4 / (tau**2 * sigma**6)
            - (3.0 / (tau * sigma**4) + 1.0 / (2.0 * sigma**2)) * lam * lam
            + tau**2 * sigma**2 / 16.0
            - tau / 4.0
        )
    if order == 4:
        return (
            lam**6 / (sigma**9 * tau**3)
            - 9.0 * lam**4 / (sigma**7 * tau**2)
            - 3.0 * lam**4 / (4.0 * sigma**5 * tau)
            + 12.0 * lam**2 / (sigma**5 * tau)
            + 3.0 * lam**2 / (2.0 * sigma**3)
            + 3.0 * lam**2 * tau / (16.0 * sigma)
            + 3.0 * sigma * tau**2 / 16.0
            - sigma**3 * tau**3 / 64.0
        )
    raise DomainError(f"vega_ratio supports orders 2 to 4, got {order}")


# Frozen from the quadrature oracle below (sigma=0.2, tau=1, z=k=0).
ATM_CALL_02_1Y = 0.0796557


def quadrature_call_price(sigma, tau, z, k):
    """Oracle: integrate the call payoff against the exact terminal density."""
    mean = z - 0.5 * sigma * sigma * tau
    std = sigma * math.sqrt(tau)

    def integrand(zeta):
        return (math.exp(zeta) - math.exp(k)) * norm.pdf(zeta, loc=mean, scale=std)

    value, err = integrate.quad(
        integrand, k, mean + 12 * std, limit=200, epsabs=1e-14, epsrel=1e-13
    )
    assert err < 1e-10
    return value


def fd_derivative(f, x0, order, h, half_points):
    """Oracle helper: n-th derivative via a symmetric polynomial fit."""
    offsets = np.arange(-half_points, half_points + 1, dtype=float)
    values = np.array([f(x0 + o * h) for o in offsets])
    # Fit in units of h for conditioning, then rescale.
    coeffs = np.polynomial.polynomial.polyfit(offsets, values, deg=2 * half_points)
    return coeffs[order] * math.factorial(order) / h**order


def bisection_implied_vol(price, tau, z, k):
    """Oracle: bisect ``bs_call_price`` in sigma on (0, IV_MAX_VOL] until
    the price gap meets the solver's stopping rule, 1e-12 * e^z."""
    spot = math.exp(z)
    if not max(spot - math.exp(k), 0.0) < price < spot:
        raise NoArbitrageError(f"price {price} outside arbitrage bounds")
    tol = 1e-12 * spot

    def gap(sigma):
        return bs_call_price(BsInputs(sigma, tau, z, k)) - price

    if gap(IV_MAX_VOL) < -tol:
        raise SolverError(f"implied vol exceeds {IV_MAX_VOL}")
    lo, hi = 0.0, IV_MAX_VOL
    for _ in range(1100):  # enough halvings to reach the smallest float
        mid = 0.5 * (lo + hi)
        g = gap(mid)
        if abs(g) <= tol:
            return mid
        lo, hi = (mid, hi) if g < 0.0 else (lo, mid)
    raise SolverError("bisection stalled")


def d_plus_minus(sigma, tau, z, k):
    """Oracle: the Black-Scholes d+ and d-, written out."""
    std = sigma * math.sqrt(tau)
    return (z - k) / std + 0.5 * std, (z - k) / std - 0.5 * std


@pytest.mark.parametrize(
    "sigma, tau, z, k",
    [(0.2, 0.25, 0.0, 1.0), (0.1, 1.0, 0.0, 0.8), (0.5, 0.02, -0.2, 0.9)],
)
def test_deep_otm_call_keeps_the_left_tail(sigma, tau, z, k):
    inputs = BsInputs(sigma, tau, z, k)
    d_plus, d_minus = d_plus_minus(sigma, tau, z, k)
    want = math.exp(z) * norm.sf(-d_plus) - math.exp(k) * norm.sf(-d_minus)
    assert want < 1e-15
    assert math.isclose(bs_call_price(inputs), want, rel_tol=1e-10)


def deep_otm_put(sigma, tau, z, k):
    """Oracle: e^k N(-d-) - e^z N(-d+) from scipy's survival function."""
    d_plus, d_minus = d_plus_minus(sigma, tau, z, k)
    return math.exp(k) * norm.sf(d_minus) - math.exp(z) * norm.sf(d_plus)


@pytest.mark.parametrize(
    "sigma, tau, z, k", [(0.2, 1.0, 40.0, 0.0), (0.2, 1.0, 5.0, 0.0), (0.5, 0.02, 0.9, -0.2)]
)
def test_deep_otm_put_keeps_the_left_tail(sigma, tau, z, k):
    # Parity, call - e^z + e^k, loses the whole strike once e^z / e^k
    # passes 2^53: at z = 40 it returned 1.0 for a put worth 0.
    want = deep_otm_put(sigma, tau, z, k)
    assert want < 1e-15
    assert math.isclose(bs_put_price(BsInputs(sigma, tau, z, k)), want, rel_tol=1e-10)


def test_prices_near_the_exp_range_stay_finite():
    # e^z * erfc(.) overflows before the halving for z within log 2 of
    # MAX_LOG; the price e^z - 1 itself is finite.
    inputs = BsInputs(0.2, 1.0, MAX_LOG - 0.5, 0.0)
    call = bs_call_price(inputs)
    assert math.isfinite(call)
    assert math.isclose(call, math.expm1(inputs.z), rel_tol=1e-12)
    put = bs_put_price(inputs)
    assert math.isfinite(put) and put >= 0.0


@pytest.mark.parametrize(
    "sigma, tau, z, k",
    [
        (0.0003788161680109165, 0.34471653407482455, 42.94875415817356, 42.957258247684265),
        (0.04189317719376227, 0.0004217333724127191, 354.38464574815066, 354.41765828069276),
    ],
)
def test_subnormal_legs_never_price_below_zero(sigma, tau, z, k):
    # Both erfc legs are subnormal here, so their difference has no
    # relative precision left: it came out as -8.2e-307 and -1.2e-170, for
    # calls worth 9.4e-307 and 3.5e-173.
    call = bs_call_price(BsInputs(sigma, tau, z, k))
    assert 0.0 <= call < 1e-170
    # The put with spot and strike swapped is the same call.
    assert bs_put_price(BsInputs(sigma, tau, k, z)) == call


def test_vega_stays_finite_where_spot_times_root_tau_overflows():
    sigma, tau, z = 0.2, 25.0, MAX_LOG - 0.1
    k = z - 8.0
    s = sigma * math.sqrt(tau)
    d_plus = (z - k) / s + 0.5 * s
    log_vega = z + 0.5 * math.log(tau / (2.0 * math.pi)) - 0.5 * d_plus * d_plus
    assert math.isclose(bs_vega(BsInputs(sigma, tau, z, k)), math.exp(log_vega), rel_tol=1e-12)


def test_atm_call_matches_quadrature_oracle():
    oracle = quadrature_call_price(0.2, 1.0, 0.0, 0.0)
    assert abs(oracle - ATM_CALL_02_1Y) < 1e-6
    assert abs(bs_call_price(BsInputs(0.2, 1.0, 0.0, 0.0)) - oracle) < 1e-12


def test_call_matches_quadrature_on_grid():
    rng = np.random.default_rng(7)
    for _ in range(25):
        sigma = rng.uniform(0.05, 1.5)
        tau = rng.uniform(0.05, 2.0)
        z = rng.uniform(-0.5, 0.5)
        k = z + rng.uniform(-0.8, 0.8)
        got = bs_call_price(BsInputs(sigma, tau, z, k))
        want = quadrature_call_price(sigma, tau, z, k)
        assert abs(got - want) < 1e-10


def test_put_call_parity():
    inputs = BsInputs(0.35, 0.7, 0.1, -0.05)
    lhs = bs_call_price(inputs) - bs_put_price(inputs)
    rhs = math.exp(inputs.z) - math.exp(inputs.k)
    assert abs(lhs - rhs) < 1e-14


def test_call_price_bounds_and_monotonicity():
    z, k, tau = 0.0, 0.1, 0.5
    prices = [bs_call_price(BsInputs(s, tau, z, k)) for s in np.linspace(0.05, 3, 40)]
    lower = max(math.exp(z) - math.exp(k), 0.0)
    assert all(lower < p < math.exp(z) for p in prices)
    assert all(b > a for a, b in zip(prices, prices[1:]))


def test_domain_validation():
    with pytest.raises(DomainError):
        BsInputs(-0.1, 1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        BsInputs(0.2, 0.0, 0.0, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            BsInputs(0.2, 1.0, bad, 0.0)
        with pytest.raises(DomainError):
            BsInputs(0.2, 1.0, 0.0, bad)


@pytest.mark.parametrize("z,k", [(710.0, 0.0), (0.0, 710.0)])
@pytest.mark.parametrize(
    "fn", [bs_call_price, bs_put_price, bs_vega, implied_vol], ids=lambda fn: fn.__name__
)
def test_logs_above_the_exp_range_raise_domain_error(fn, z, k):
    # e^710 overflows a float.
    with pytest.raises(DomainError):
        if fn is implied_vol:
            implied_vol(0.5, 1.0, z, k)
        else:
            fn(BsInputs(0.2, 1.0, z, k))


def test_implied_vol_recovers_frozen_atm_value():
    result = implied_vol(ATM_CALL_02_1Y, 1.0, 0.0, 0.0)
    assert abs(result.value - 0.2) < 1e-6


@settings(max_examples=80, deadline=None)
@given(
    sigma=st.floats(0.01, 3.0),
    tau=st.floats(0.05, 3.0),
    lam=st.floats(-1.0, 1.0),
)
def test_implied_vol_round_trip(sigma, tau, lam):
    z = 0.1
    inputs = BsInputs(sigma, tau, z, z + lam)
    price = bs_call_price(inputs)
    intrinsic = max(math.exp(z) - math.exp(z + lam), 0.0)
    # Stay away from prices that collapse onto the arbitrage bounds, where
    # no inverter can resolve sigma from the price alone.
    assume(price - intrinsic > 1e-10 * math.exp(z))
    recovered = implied_vol(price, tau, z, z + lam).value
    assert abs(bs_call_price(BsInputs(recovered, tau, z, z + lam)) - price) <= 1e-12 * math.exp(z)
    if bs_vega(inputs) > 1e-4:
        assert abs(recovered - sigma) < 1e-7


def test_implied_vol_rejects_out_of_bounds_prices():
    with pytest.raises(NoArbitrageError):
        implied_vol(1.0, 1.0, 0.0, 0.1)  # above spot e^0
    with pytest.raises(NoArbitrageError):
        implied_vol(math.exp(0.2) - math.exp(0.1), 1.0, 0.2, 0.1)  # at intrinsic
    with pytest.raises(NoArbitrageError):
        implied_vol(-0.01, 1.0, 0.0, 0.1)


@pytest.mark.parametrize("price, tau, z, k", [(1e-10, 1.0, 0.0, 0.0), (1e-20, 1.0, 700.0, 700.0)])
def test_implied_vol_solves_tiny_atm_prices_to_the_rule(price, tau, z, k):
    # Below the price at sigma = 1e-6: such a price must still be solved
    # to the stopping rule, not answered with a bracket end.
    result = implied_vol(price, tau, z, k)
    again = bs_call_price(BsInputs(result.value, tau, z, k))
    assert abs(again - price) <= 1e-12 * math.exp(z)
    assert result.iterations >= 1
    if z == 0.0:
        assert math.isclose(result.value, math.sqrt(2.0 * math.pi) * price, rel_tol=1e-2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("position", range(4))
def test_implied_vol_rejects_non_finite_inputs(position, bad):
    args = [0.08, 1.0, 0.0, 0.0]
    args[position] = bad
    with pytest.raises(DomainError):
        implied_vol(*args)


def _outcome(solve, *args):
    try:
        return solve(*args)
    except (NoArbitrageError, SolverError) as exc:
        return type(exc)


def test_implied_vol_matches_bisection_oracle_on_grid():
    z = 0.1
    for sigma in (0.005, 0.02, 0.1, 0.3, 0.7, 1.5, 3.0, 6.0):
        for tau in (1 / 365, 1 / 52, 0.25, 1.0, 5.0):
            for x in np.linspace(-3.0, 3.0, 13):
                k = z - x
                inputs = BsInputs(sigma, tau, z, k)
                price = bs_call_price(inputs)
                got = _outcome(implied_vol, price, tau, z, k)
                want = _outcome(bisection_implied_vol, price, tau, z, k)
                if isinstance(want, type):
                    assert got is want
                    continue
                gap = bs_call_price(BsInputs(got.value, tau, z, k)) - price
                assert abs(gap) <= 1e-12 * math.exp(z)
                if bs_vega(inputs) > 1e-4:
                    assert abs(got.value - sigma) < 1e-7
                    assert abs(want - sigma) < 1e-7


def test_implied_vol_far_above_the_first_guess():
    # A price a hair below the spot needs sigma ~ 12, far above the start.
    price = 0.999999999
    result = implied_vol(price, 1.0, 0.0, 0.0)
    assert abs(result.value - 12.2188) < 1e-3
    assert abs(bs_call_price(BsInputs(result.value, 1.0, 0.0, 0.0)) - price) <= 1e-12


def test_implied_vol_caps_the_vol():
    # At tau = 1e-12 this price needs sigma ~ 2.5e5, above IV_MAX_VOL.
    with pytest.raises(SolverError):
        implied_vol(0.1, 1e-12, 0.0, 0.0)


def test_implied_vol_iteration_budget_on_quote_grid():
    iterations = []
    for sigma in np.linspace(0.1, 0.9, 9):
        for tau in np.linspace(1 / 52, 1.0, 8):
            for d in np.linspace(-2.5, 2.5, 41):
                lam = d * sigma * math.sqrt(tau)
                price = bs_call_price(BsInputs(sigma, tau, 0.0, lam))
                iterations.append(implied_vol(price, tau, 0.0, lam).iterations)
    assert sum(iterations) / len(iterations) <= 6.0
    assert max(iterations) <= 10


def test_vega_positive():
    assert bs_vega(BsInputs(0.2, 1.0, 0.0, 0.0)) > 0
    assert bs_vega(BsInputs(1.5, 0.1, 0.0, 0.8)) > 0


def test_vega_ratio_atm_closed_forms():
    # At the money (k == z) the ratios collapse to pure tau/sigma terms.
    for sigma, tau in [(0.2, 1.0), (0.5, 0.3), (1.1, 2.0)]:
        inputs = BsInputs(sigma, tau, 0.0, 0.0)
        assert math.isclose(vega_ratio(2, inputs), -tau * sigma / 4.0, rel_tol=1e-15)
        want3 = tau * tau * sigma * sigma / 16.0 - tau / 4.0
        assert math.isclose(vega_ratio(3, inputs), want3, rel_tol=1e-15)


def test_vega_ratio_rejects_unsupported_order():
    with pytest.raises(DomainError):
        vega_ratio(5, BsInputs(0.2, 1.0, 0.0, 0.0))


def test_vega_ratio_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(100):
        sigma = rng.uniform(0.15, 1.2)
        tau = rng.uniform(0.1, 2.0)
        z = rng.uniform(-0.3, 0.3)
        k = z + rng.uniform(-0.5, 0.5)
        h = 0.015 * sigma

        def price_of_sigma(s):
            return bs_call_price(BsInputs(s, tau, z, k))

        vega_fd = fd_derivative(price_of_sigma, sigma, 1, h, 4)
        for order in (2, 3):
            deriv_fd = fd_derivative(price_of_sigma, sigma, order, h, 4)
            want = deriv_fd / vega_fd
            got = vega_ratio(order, BsInputs(sigma, tau, z, k))
            assert abs(got - want) <= 1e-6 * max(abs(want), 1e-2)
        # The fourth derivative needs a wider step and one more point a side.
        want = fd_derivative(price_of_sigma, sigma, 4, 0.03 * sigma, 5) / vega_fd
        got = vega_ratio(4, BsInputs(sigma, tau, z, k))
        assert abs(got - want) <= 1e-5 * max(abs(want), 1e-2)


def test_hermite_ratio_base_case():
    # With k = z - sigma^2 tau / 2 the Hermite argument vanishes and the
    # m = 0 ratio is exactly 1 / (tau sigma).
    sigma, tau, z = 0.4, 0.8, 0.1
    k = z - 0.5 * sigma * sigma * tau
    got = hermite_vega_ratio(0, BsInputs(sigma, tau, z, k))
    assert math.isclose(got, 1.0 / (tau * sigma), rel_tol=1e-15)


def test_hermite_ratio_matches_finite_differences():
    rng = np.random.default_rng(13)
    for _ in range(30):
        sigma = rng.uniform(0.2, 0.9)
        tau = rng.uniform(0.2, 1.5)
        z = rng.uniform(-0.2, 0.2)
        k = z + rng.uniform(-0.4, 0.4)
        h = 0.02

        def price_of_z(zz):
            return bs_call_price(BsInputs(sigma, tau, zz, k))

        vega = bs_vega(BsInputs(sigma, tau, z, k))
        for m in (1, 2):
            num = fd_derivative(price_of_z, z, m + 2, h, 5) - fd_derivative(
                price_of_z, z, m + 1, h, 5
            )
            want = num / vega
            got = hermite_vega_ratio(m, BsInputs(sigma, tau, z, k))
            assert abs(got - want) <= 1e-5 * max(abs(want), 1e-2)


def test_hermite_ratio_order_cap():
    inputs = BsInputs(0.2, 1.0, 0.0, 0.0)
    hermite_vega_ratio(12, inputs)
    with pytest.raises(DomainError):
        hermite_vega_ratio(13, inputs)
    with pytest.raises(DomainError):
        hermite_vega_ratio(-1, inputs)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(0, 11),
    w=st.fractions(
        min_value=-5, max_value=5, max_denominator=20
    ),
)
def test_hermite_recurrence_exact_on_rationals(m, w):
    # H_{m+1}(w) = 2 w H_m(w) - 2 m H_{m-1}(w), exact in rational arithmetic.
    h_next = hermite_poly_value(m + 1, w)
    h_curr = hermite_poly_value(m, w)
    h_prev = hermite_poly_value(m - 1, w) if m > 0 else Fraction(0)
    assert h_next == 2 * w * h_curr - 2 * m * h_prev


def test_hermite_low_orders_explicit():
    w = Fraction(3, 7)
    assert hermite_poly_value(0, w) == 1
    assert hermite_poly_value(1, w) == 2 * w
    assert hermite_poly_value(2, w) == 4 * w * w - 2
    assert hermite_poly_value(3, w) == 8 * w**3 - 12 * w
