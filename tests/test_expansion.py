"""Tests for the price and implied-vol series assembly."""

import dataclasses
import itertools
import json
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letfvol.blackscholes import BsInputs, bs_call_price, bs_put_price, bs_vega, hermite_vega_ratio
from letfvol import expansion
from letfvol.closedform import iv_series_printed
from letfvol.errors import ConfigError, DomainError
from letfvol.expansion import (
    MAX_ORDER,
    MIN_TAU,
    SERIES_CACHE_SIZE,
    IvSeries,
    base_sigma,
    iv_approx,
    iv_series_engine,
    lp_add,
    lp_eval,
    lp_mul,
    price_u0,
    price_uN,
    reduced_Ln,
    vega_ratio_coeffs,
)
from letfvol.models import (
    CevModel,
    HestonModel,
    MarketPoint,
    SabrModel,
    TaylorTable,
)
from test_blackscholes import deep_otm_put, vega_ratio
from test_opalgebra import MODEL_TABLES


def make_point(beta=2.0, tau=0.75, k=0.12, z=0.0, x=0.05, y=-2.0):
    return MarketPoint(t=0.0, T=tau, x=x, y=y, z=z, k=k, beta=beta)


def rich_table(extent=3):
    """Fixed dense table with no accidental symmetries."""
    entries = {"a": {}, "b": {}, "c": {}, "f": {}}
    for i in range(extent + 1):
        for j in range(extent + 1 - i):
            entries["a"][(i, j)] = 0.04 + 0.11 * i - 0.07 * j + 0.013 * i * j
            entries["b"][(i, j)] = 0.31 - 0.05 * i + 0.02 * j
            entries["c"][(i, j)] = -0.12 + 0.04 * i + 0.09 * j
            entries["f"][(i, j)] = 0.06 - 0.03 * i + 0.05 * j
    return TaylorTable(extent=extent, entries=entries)


def flat_table(a00=0.02, extent=3):
    entries = {"a": {(i, j): 0.0 for i in range(extent + 1) for j in range(extent + 1 - i)}}
    entries["a"][(0, 0)] = a00
    return TaylorTable(extent=extent, entries=entries)


# ---------------------------------------------------------------------------
# Laurent helpers


def test_lp_helpers_round_trip():
    a = {(1, 0): 2.0, (0, 1): -3.0}
    b = {(0, 0): 1.0, (1, -1): 0.5}
    prod = lp_mul(a, b)
    assert prod == {(1, 0): 0.5, (2, -1): 1.0, (0, 1): -3.0}
    lam, tau = 0.3, 0.7
    assert lp_eval(prod, lam, tau) == pytest.approx(lp_eval(a, lam, tau) * lp_eval(b, lam, tau), rel=1e-14)
    acc = dict(a)
    lp_add(acc, a, -1.0)
    assert acc == {}


def float_route_terms(point, table, order):
    """Oracle: price corrections as chi weights times hermite_vega_ratio values times vega.

    Shares reduced_Ln with price_uN, but none of its Laurent assembly.
    """
    inputs = BsInputs(sigma=base_sigma(table, point.beta), tau=point.tau, z=point.z, k=point.k)
    return [
        bs_vega(inputs) * sum(
            sum(coeff * point.tau**p for p, coeff in chi.items()) * hermite_vega_ratio(m, inputs)
            for m, chi in reduced_Ln(table, n, point.beta).items()
        )
        for n in range(1, order + 1)
    ]


@pytest.mark.parametrize("beta", [2.0, -3.0])
def test_correction_dicts_match_the_float_route(beta):
    # U_n summed by Horner's rule in D, as Laurent dicts, against chi times
    # Hermite values at points.
    table = rich_table()
    corrections = expansion._correction_dicts(table, beta, MAX_ORDER)
    for n, U in enumerate(corrections, 1):
        # r_m has lam-degree m and tau powers down to -(m + 1).
        top = max(reduced_Ln(table, n, beta))
        assert max(lp for lp, _ in U) == top
        assert min(tp for _, tp in U) >= -(top + 1)
    for tau, k in ((0.05, -0.2), (0.85, 0.02), (2.0, 0.33)):
        point = make_point(beta=beta, tau=tau, k=k, z=0.04)
        vega = bs_vega(BsInputs(sigma=base_sigma(table, beta), tau=tau, z=point.z, k=k))
        for U, want in zip(corrections, float_route_terms(point, table, MAX_ORDER)):
            assert lp_eval(U, point.lam, tau) == pytest.approx(want / vega, rel=1e-11, abs=1e-11)


@pytest.mark.parametrize("beta", [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(MODEL_TABLES))
def test_price_uN_terms_match_the_float_route(kind, beta):
    model, x, y = MODEL_TABLES[kind]
    table = model.taylor_table(x, y, MAX_ORDER)
    sigma0 = base_sigma(table, beta)
    for tau, d in itertools.product((1 / 52, 0.25, 1.0), (-2.0, 0.0, 2.0)):
        k = d * sigma0 * math.sqrt(tau)
        point = MarketPoint(t=0.0, T=tau, x=x, y=y, z=0.0, k=k, beta=beta)
        vega = bs_vega(BsInputs(sigma=sigma0, tau=tau, z=0.0, k=k))
        want = float_route_terms(point, table, MAX_ORDER)
        for order in range(1, MAX_ORDER + 1):
            got = price_uN(point, table, order).terms
            assert got == pytest.approx(want[:order], rel=0.0, abs=1e-12 * vega), (tau, d, order)


@pytest.mark.parametrize("beta", [0.0, float("nan")])
def test_engine_rejects_a_base_volatility_that_is_not_positive(beta):
    with pytest.raises(DomainError):
        iv_series_engine(SimpleNamespace(beta=beta), rich_table(), 3)


@pytest.mark.parametrize(
    "route",
    [
        lambda point, model: iv_approx(point, model, 3),
        lambda point, model: price_uN(point, model.taylor_table(point.x, point.y, 3), 3),
    ],
    ids=["iv_approx", "price_uN"],
)
@pytest.mark.parametrize(
    "model, y",
    [(HestonModel(1.5, 0.04, 0.3, -0.6), 100.0), (SabrModel(0.3, 0.5, -0.3), -120.0)],
    ids=["heston", "sabr"],
)
def test_extreme_states_raise_domain_error(model, y, route):
    # sigma0 = 1e22 overflows a power of sigma0^2, sigma0 = 1.5e-52 underflows
    # one; on the price route vega underflows to 0 while the corrections grow.
    point = make_point(beta=-2.0, tau=0.25, k=0.1, x=0.0, y=y)
    with pytest.raises(DomainError):
        route(point, model)


def test_vega_ratio_coeffs_match_finite_differences():
    sigma0, tau, z = 0.27, 0.6, -0.02
    for order in (2, 3):
        coeffs = vega_ratio_coeffs(order, sigma0)
        for k in (-0.15, 0.0, 0.2):
            lam = k - z

            def price(sig):
                return bs_call_price(BsInputs(sigma=sig, tau=tau, z=z, k=k))

            h = 1e-3
            if order == 2:
                fd = lambda hh: (price(sigma0 + hh) - 2 * price(sigma0) + price(sigma0 - hh)) / hh**2
            else:
                fd = lambda hh: (
                    price(sigma0 + 2 * hh) - 2 * price(sigma0 + hh) + 2 * price(sigma0 - hh) - price(sigma0 - 2 * hh)
                ) / (2 * hh**3)
            richardson = (4.0 * fd(h / 2) - fd(h)) / 3.0
            want = richardson / bs_vega(BsInputs(sigma=sigma0, tau=tau, z=z, k=k))
            assert lp_eval(coeffs, lam, tau) == pytest.approx(want, rel=2e-6, abs=1e-8)
    # Generated orders against the written-out oracle, itself checked by
    # finite differences in test_blackscholes.
    assert vega_ratio_coeffs(1, sigma0) == {(0, 0): 1.0}
    for order in (2, 3, 4):
        coeffs = vega_ratio_coeffs(order, sigma0)
        for k in (-0.15, 0.0, 0.2):
            assert vega_ratio(order, BsInputs(sigma=sigma0, tau=tau, z=z, k=k)) == pytest.approx(
                lp_eval(coeffs, k - z, tau), rel=1e-12
            )


def z_route_vega_ratio(k, inputs):
    """Oracle: R_k through z-derivatives, for any k the Hermite ratios reach.

    The price depends on sigma only through s = sigma^2 tau, with
    du/ds = D u / 2 and D = Dz^2 - Dz, so Faa di Bruno on s(sigma) gives

        d^k u/dsigma^k = sum_j (D^j u / 2^j) k! / ((2j-k)! (k-j)!)
                         (2 sigma tau)^(2j-k) tau^(k-j),

    and D^j u = sum_i C(j-1, i) (-1)^(j-1-i) Dz^(j-1+i) D u is a sum of
    hermite_vega_ratio values times vega.
    """
    sigma, tau = inputs.sigma, inputs.tau
    total = 0.0
    for j in range((k + 1) // 2, k + 1):
        d_power = sum(
            math.comb(j - 1, i) * (-1) ** (j - 1 - i) * hermite_vega_ratio(j - 1 + i, inputs)
            for i in range(j)
        )
        weight = math.factorial(k) / (math.factorial(2 * j - k) * math.factorial(k - j))
        total += d_power / 2.0**j * weight * (2.0 * sigma * tau) ** (2 * j - k) * tau ** (k - j)
    return total


def test_vega_ratio_coeffs_match_the_z_derivative_route():
    # Orders past the written-out oracle, through a route that shares no
    # code with the sigma-step generator.
    sigma0, tau, z = 0.27, 0.6, -0.02
    for order in range(1, 7):
        coeffs = vega_ratio_coeffs(order, sigma0)
        for k in (-0.15, 0.0, 0.2):
            want = z_route_vega_ratio(order, BsInputs(sigma=sigma0, tau=tau, z=z, k=k))
            assert lp_eval(coeffs, k - z, tau) == pytest.approx(want, rel=1e-10), (order, k)


def test_vega_ratio_coeffs_rejects_unsupported_order():
    for order in (0, -1, 1.5):
        with pytest.raises(DomainError):
            vega_ratio_coeffs(order, 0.3)
    for sigma0 in (0.0, -0.3, float("nan")):
        with pytest.raises(DomainError):
            vega_ratio_coeffs(2, sigma0)


# ---------------------------------------------------------------------------
# base price


def test_base_price_uses_flat_vol_from_the_table():
    table = flat_table(a00=0.02)
    point = make_point(beta=2.0, tau=1.0, k=0.1, z=0.0)
    assert base_sigma(table, 2.0) == pytest.approx(0.4, rel=1e-15)
    want = bs_call_price(BsInputs(sigma=0.4, tau=1.0, z=0.0, k=0.1))
    assert price_u0(point, table) == pytest.approx(want, rel=1e-15)


def test_base_price_put_and_parity():
    table = flat_table(a00=0.05)
    point = make_point(beta=-2.0, tau=0.5, k=-0.07, z=0.03)
    call = price_u0(point, table, payoff="call")
    put = price_u0(point, table, payoff="put")
    assert call - put == pytest.approx(math.exp(point.z) - math.exp(point.k), abs=1e-14)


def test_deep_otm_base_put_is_worthless():
    # sigma0 = 2 sqrt(2 * 0.005) = 0.2; parity returned 1.0 here.
    point = make_point(beta=2.0, tau=1.0, k=0.0, z=40.0)
    want = deep_otm_put(0.2, 1.0, 40.0, 0.0)
    assert math.isclose(price_u0(point, flat_table(a00=0.005), payoff="put"), want, rel_tol=1e-10)


def test_base_price_guards():
    table = flat_table()
    with pytest.raises(DomainError):
        price_u0(MarketPoint(t=0.0, T=1e-10, x=0.0, y=0.0, z=0.0, k=0.0, beta=2.0), table)
    with pytest.raises(ConfigError):
        price_u0(make_point(), table, payoff="straddle")
    with pytest.raises(DomainError):
        price_u0(make_point(), flat_table(a00=0.0))


# ---------------------------------------------------------------------------
# correction structure


def test_flat_table_has_zero_corrections():
    table = flat_table(a00=0.03)
    point = make_point(beta=-3.0, tau=0.8)
    series = iv_series_engine(point, table, MAX_ORDER)
    assert all(term == {} for term in series.terms)
    approx = price_uN(point, table, MAX_ORDER)
    assert approx.terms == (0.0, 0.0, 0.0)
    assert approx.total == pytest.approx(approx.u0, rel=1e-15)


@pytest.mark.parametrize("beta", [2.0, -2.0, 1.0, -3.0])
def test_lambda_degree_and_tau_positivity(beta):
    table = rich_table()
    series = iv_series_engine(make_point(beta=beta), table, MAX_ORDER)
    for n in range(1, MAX_ORDER + 1):
        for lp, tp in series.term(n):
            assert 0 <= lp <= n
            assert tp >= 0


def test_sigma0_depends_only_on_abs_beta():
    table = rich_table()
    plus = iv_series_engine(make_point(beta=2.0), table, 2)
    minus = iv_series_engine(make_point(beta=-2.0), table, 2)
    assert plus.sigma0 == pytest.approx(minus.sigma0, rel=1e-15)
    assert plus.sigma0 == pytest.approx(2.0 * math.sqrt(2.0 * 0.04), rel=1e-12)


def test_engine_order_zero_is_base_only():
    table = rich_table()
    series = iv_series_engine(make_point(), table, 0)
    assert series.terms == ()
    assert series.evaluate(0.1, 0.5) == pytest.approx(series.sigma0, rel=1e-15)


def test_order_guards():
    table = rich_table(extent=1)
    with pytest.raises(DomainError):
        iv_series_engine(make_point(), table, 2)
    with pytest.raises(DomainError):
        iv_series_engine(make_point(), rich_table(), MAX_ORDER + 1)
    with pytest.raises(DomainError):
        iv_series_engine(make_point(), rich_table(), 1.5)


# ---------------------------------------------------------------------------
# hand-folded single-asset check at beta = 1

# With unit leverage the LETF contract degenerates to the plain ETF one, so
# the order-1 and order-2 coefficients must match the hand-folded forms
# below, written out from the time-homogeneous single-asset expansion with
# every beta power collapsed and (beta - 1) factors dropped.


def hand_beta1_terms(table):
    s0 = math.sqrt(2.0 * table.get("a", 0, 0))
    a10, a01 = table.get("a", 1, 0), table.get("a", 0, 1)
    A20, A02 = 2.0 * table.get("a", 2, 0), 2.0 * table.get("a", 0, 2)
    A11 = 2.0 * table.get("a", 1, 1)
    b00 = table.get("b", 0, 0)
    c00, c10, c01 = (table.get("c", i, j) for i, j in ((0, 0), (1, 0), (0, 1)))
    f00, f10, f01 = (table.get("f", i, j) for i, j in ((0, 0), (1, 0), (0, 1)))
    term1 = {
        (1, 0): a10 / (2.0 * s0) + a01 * f00 / (2.0 * s0**3),
        (0, 1): a01 * (2.0 * c00 + f00) / (4.0 * s0),
    }
    s20 = {
        (0, 1): (2.0 * s0**2 * A20 - 3.0 * a10**2) / (24.0 * s0),
        (0, 2): -s0 * a10**2 / 96.0,
        (2, 0): (2.0 * s0**2 * A20 - 3.0 * a10**2) / (12.0 * s0**3),
    }
    s11 = {
        (0, 1): (a01 * (a10 * f00 - 2.0 * s0**2 * f10) + s0**2 * A11 * f00) / (12.0 * s0**3),
        (0, 2): -a01 * a10 * f00 / (48.0 * s0),
        (1, 1): (
            a01 * (5.0 * a10 * (-f00 - 2.0 * c00) + 2.0 * s0**2 * (2.0 * c10 + f10))
            + 2.0 * s0**2 * A11 * (2.0 * c00 + f00)
        )
        / (24.0 * s0**3),
        (2, 0): (a01 * (s0**2 * f10 - 5.0 * a10 * f00) + s0**2 * A11 * f00) / (6.0 * s0**5),
    }
    s02 = {
        (0, 1): (
            12.0 * s0**4 * A02 * b00
            - 4.0 * s0**2 * (2.0 * a01**2 * b00 + a01 * f00 * f01 + A02 * f00**2)
            + 9.0 * a01**2 * f00**2
        )
        / (24.0 * s0**5),
        (0, 2): (
            s0**2
            * (
                -2.0 * a01**2 * b00
                + a01 * (2.0 * c00 + f00) * (2.0 * c01 + f01)
                + A02 * (2.0 * c00 + f00) ** 2
            )
            - 3.0 * a01**2 * c00 * (c00 + f00)
        )
        / (24.0 * s0**3),
        (1, 1): (
            -9.0 * a01**2 * f00 * (2.0 * c00 + f00)
            + 4.0 * s0**2 * A02 * f00 * (2.0 * c00 + f00)
            + 4.0 * s0**2 * a01 * (f01 * (c00 + f00) + c01 * f00)
        )
        / (24.0 * s0**5),
        (2, 0): (
            2.0 * s0**2 * (2.0 * a01**2 * b00 + a01 * f00 * f01 + A02 * f00**2)
            - 9.0 * a01**2 * f00**2
        )
        / (12.0 * s0**7),
    }
    term2 = {}
    for part in (s20, s11, s02):
        lp_add(term2, part)
    return s0, term1, term2


def test_beta_one_matches_hand_folded_single_asset_forms():
    table = rich_table()
    series = iv_series_engine(make_point(beta=1.0), table, 2)
    s0, term1, term2 = hand_beta1_terms(table)
    assert series.sigma0 == pytest.approx(s0, rel=1e-14)
    for n, want in ((1, term1), (2, term2)):
        got = series.term(n)
        keys = set(got) | {key for key, value in want.items() if value != 0.0}
        for key in keys:
            assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), rel=1e-10, abs=1e-13), (n, key)


# ---------------------------------------------------------------------------
# engine vs printed closed forms


@pytest.mark.parametrize(
    "model,order",
    [
        (CevModel(delta=0.25, gamma=0.6), 3),
        (HestonModel(kappa=1.4, theta=0.05, delta=0.35, rho=-0.55), 3),
        (SabrModel(delta=0.45, gamma=0.4, rho=-0.3), 2),
    ],
)
@pytest.mark.parametrize("beta", [1.0, -1.0, 2.0, -2.0, 3.0, -3.0])
def test_engine_matches_printed_forms(model, order, beta):
    point = make_point(beta=beta, tau=0.6, y=-2.6 if isinstance(model, HestonModel) else -1.1)
    table = model.taylor_table(point.x, point.y, order)
    eng = iv_series_engine(point, table, order)
    pr = iv_series_printed(model, point, order)
    assert eng.sigma0 == pytest.approx(pr.sigma0, rel=1e-12)
    for n in range(1, order + 1):
        keys = set(eng.term(n)) | set(pr.term(n))
        for key in keys:
            e, p = eng.term(n).get(key, 0.0), pr.term(n).get(key, 0.0)
            assert e == pytest.approx(p, rel=1e-10, abs=1e-12), (n, key)


def general_sigma_terms(table, sigma0, beta, order):
    """Time-homogeneous forms written against raw coefficient derivatives.

    Convention note: the forms are written against the quadratic-form
    weights of the degree-2 Taylor block, so every normalized degree-2
    table entry is doubled on the way in (for the pure entries that
    recovers the raw second derivative; the mixed entry carries both cross
    orderings).
    """
    a10 = table.get("a", 1, 0)
    a01 = table.get("a", 0, 1)
    c00 = table.get("c", 0, 0)
    f00 = table.get("f", 0, 0)
    terms = []
    if order >= 1:
        s10 = {
            (0, 1): (beta - 1.0) * sigma0 * a10 / 4.0,
            (1, 0): beta * a10 / (2.0 * sigma0),
        }
        s01 = {
            (0, 1): beta**2 * a01 * (2.0 * c00 + beta * f00) / (4.0 * sigma0),
            (1, 0): beta**3 * a01 * f00 / (2.0 * sigma0**3),
        }
        term = {}
        for part in (s10, s01):
            lp_add(term, part)
        terms.append(term)
    if order >= 2:
        A11 = 2.0 * table.get("a", 1, 1)
        A20 = 2.0 * table.get("a", 2, 0)
        A02 = 2.0 * table.get("a", 0, 2)
        b00 = table.get("b", 0, 0)
        c10 = table.get("c", 1, 0)
        c01 = table.get("c", 0, 1)
        f10 = table.get("f", 1, 0)
        f01 = table.get("f", 0, 1)
        s20 = {
            (0, 1): (2.0 * sigma0**2 * A20 - 3.0 * beta**2 * a10**2) / (24.0 * sigma0),
            (0, 2): (
                beta**2 * (2.0 * beta * (2.0 * beta - 5.0) + 5.0) * sigma0 * a10**2
                + 4.0 * (beta - 1.0) ** 2 * sigma0**3 * A20
            )
            / (96.0 * beta**2),
            (1, 1): -(beta - 1.0)
            * (beta**2 * a10**2 - 4.0 * sigma0**2 * A20)
            / (24.0 * beta * sigma0),
            (2, 0): (2.0 * sigma0**2 * A20 - 3.0 * beta**2 * a10**2) / (12.0 * sigma0**3),
        }
        s11 = {
            (0, 1): beta**2
            * (a01 * (beta**2 * a10 * f00 - 2.0 * sigma0**2 * f10) + sigma0**2 * A11 * f00)
            / (12.0 * sigma0**3),
            (0, 2): (
                a01
                * (
                    beta**2 * a10 * (2.0 * (beta - 1.0) * c00 - beta * f00)
                    + 2.0 * (beta - 1.0) * sigma0**2 * (2.0 * c10 + beta * f10)
                )
                + 2.0 * (beta - 1.0) * sigma0**2 * A11 * (2.0 * c00 + beta * f00)
            )
            / (48.0 * sigma0),
            (1, 1): beta
            * (
                a01
                * (
                    5.0 * beta**2 * a10 * ((1.0 - 2.0 * beta) * f00 - 2.0 * c00)
                    + 2.0 * sigma0**2 * (2.0 * c10 + (2.0 * beta - 1.0) * f10)
                )
                + 2.0 * sigma0**2 * A11 * (2.0 * c00 + (2.0 * beta - 1.0) * f00)
            )
            / (24.0 * sigma0**3),
            (2, 0): beta**2
            * (a01 * (sigma0**2 * f10 - 5.0 * beta**2 * a10 * f00) + sigma0**2 * A11 * f00)
            / (6.0 * sigma0**5),
        }
        s02 = {
            (0, 1): (
                12.0 * beta**2 * sigma0**4 * A02 * b00
                - 4.0
                * beta**4
                * sigma0**2
                * (2.0 * a01**2 * b00 + a01 * f00 * f01 + A02 * f00**2)
                + 9.0 * beta**6 * a01**2 * f00**2
            )
            / (24.0 * sigma0**5),
            (0, 2): beta**2
            * (
                sigma0**2
                * (
                    -2.0 * beta**2 * a01**2 * b00
                    + a01 * (2.0 * c00 + beta * f00) * (2.0 * c01 + beta * f01)
                    + A02 * (2.0 * c00 + beta * f00) ** 2
                )
                - 3.0 * beta**2 * a01**2 * c00 * (c00 + beta * f00)
            )
            / (24.0 * sigma0**3),
            (1, 1): beta**3
            * (
                -9.0 * beta**2 * a01**2 * f00 * (2.0 * c00 + beta * f00)
                + 4.0 * sigma0**2 * A02 * f00 * (2.0 * c00 + beta * f00)
                + 4.0 * sigma0**2 * a01 * (f01 * (c00 + beta * f00) + c01 * f00)
            )
            / (24.0 * sigma0**5),
            (2, 0): beta**4
            * (
                2.0 * sigma0**2 * (2.0 * a01**2 * b00 + a01 * f00 * f01 + A02 * f00**2)
                - 9.0 * beta**2 * a01**2 * f00**2
            )
            / (12.0 * sigma0**7),
        }
        term = {}
        for part in (s20, s11, s02):
            lp_add(term, part)
        terms.append(term)
    return terms


def general_series_printed(table, beta, order):
    """The general forms' series for a table used as given, at leverage beta."""
    sigma0 = abs(beta) * math.sqrt(2.0 * table.get("a", 0, 0))
    return IvSeries(sigma0=sigma0, terms=tuple(general_sigma_terms(table, sigma0, beta, order)))


@settings(max_examples=25, deadline=None)
@given(
    a00=st.floats(0.005, 0.3),
    a10=st.floats(-0.4, 0.4),
    a01=st.floats(-0.4, 0.4),
    a20=st.floats(-0.3, 0.3),
    a11=st.floats(-0.3, 0.3),
    a02=st.floats(-0.3, 0.3),
    b00=st.floats(0.0, 0.6),
    c00=st.floats(-0.6, 0.6),
    f00=st.floats(-0.4, 0.4),
    beta=st.sampled_from([1.0, 2.0, -2.0, 3.0, -3.0]),
)
def test_engine_matches_general_forms_on_random_tables(
    a00, a10, a01, a20, a11, a02, b00, c00, f00, beta
):
    entries = {
        "a": {(0, 0): a00, (1, 0): a10, (0, 1): a01, (2, 0): a20, (1, 1): a11, (0, 2): a02},
        "b": {(0, 0): b00, (1, 0): 0.0, (0, 1): 0.0, (2, 0): 0.0, (1, 1): 0.0, (0, 2): 0.0},
        "c": {(0, 0): c00, (1, 0): 0.17, (0, 1): -0.05, (2, 0): 0.0, (1, 1): 0.0, (0, 2): 0.0},
        "f": {(0, 0): f00, (1, 0): -0.08, (0, 1): 0.11, (2, 0): 0.0, (1, 1): 0.0, (0, 2): 0.0},
    }
    table = TaylorTable(extent=2, entries=entries)
    point = make_point(beta=beta, tau=0.9)
    eng = iv_series_engine(point, table, 2)
    pr = general_series_printed(table, beta, 2)
    for n in (1, 2):
        keys = set(eng.term(n)) | set(pr.term(n))
        for key in keys:
            e, p = eng.term(n).get(key, 0.0), pr.term(n).get(key, 0.0)
            assert e == pytest.approx(p, rel=1e-9, abs=1e-11), (n, key)


@pytest.mark.parametrize("beta", [2.0, -3.0])
def test_engine_terms_solve_the_composition_sum_pointwise(beta):
    # Each sigma_n against the recursion written over explicit compositions,
    # fed by the corrections U_n = u_n / vega of the float route (Hermite
    # values, not Laurent dicts) and the written-out vega ratios.
    table = rich_table()
    for tau, k in ((0.4, -0.08), (0.9, 0.15)):
        point = make_point(beta=beta, tau=tau, k=k)
        series = iv_series_engine(point, table, MAX_ORDER)
        inputs = BsInputs(sigma=series.sigma0, tau=tau, z=point.z, k=k)
        corrections = [u / bs_vega(inputs) for u in float_route_terms(point, table, MAX_ORDER)]
        sigmas = [lp_eval(series.term(n), point.lam, tau) for n in range(1, MAX_ORDER + 1)]
        for n in range(1, MAX_ORDER + 1):
            want = corrections[n - 1]
            for order in range(2, n + 1):
                compositions = sum(
                    math.prod(sigmas[i - 1] for i in parts)
                    for parts in itertools.product(range(1, n), repeat=order)
                    if sum(parts) == n
                )
                want -= vega_ratio(order, inputs) / math.factorial(order) * compositions
            assert sigmas[n - 1] == pytest.approx(want, rel=1e-9, abs=1e-12), (n, tau, k)


def test_printed_order_cap_points_to_engine():
    model = SabrModel(delta=0.4, gamma=0.5, rho=-0.2)
    with pytest.raises(ConfigError, match="engine"):
        iv_series_printed(model, make_point(y=-1.3), 3)


def test_printed_dispatches_on_the_type():
    # Only the named model classes have closed forms; a TaylorTable goes
    # to the engine.
    for model in (object(), rich_table().entries, rich_table()):
        with pytest.raises(ConfigError):
            iv_series_printed(model, make_point(), 1)


def test_iv_approx_rejects_what_is_not_an_expansion_input():
    # Neither a named model nor a TaylorTable: ConfigError, not a bare
    # AttributeError or an unhashable-key TypeError.
    for model in (object(), rich_table().entries):
        with pytest.raises(ConfigError):
            iv_approx(make_point(), model, 2)


def test_iv_approx_routes_agree():
    model = HestonModel(kappa=1.1, theta=0.04, delta=0.3, rho=-0.6)
    point = make_point(beta=-2.0, tau=0.5, y=-3.0)
    engine = iv_approx(point, model, 3)
    printed = iv_series_printed(model, point, 3).evaluate(point.lam, point.tau)
    assert engine == pytest.approx(printed, rel=1e-10)
    table = model.taylor_table(point.x, point.y, 3)
    assert iv_approx(point, table, 3) == pytest.approx(engine, rel=1e-14)
    # A table is used as given: the point it was built at, not (point.x,
    # point.y), is the expansion point.
    elsewhere = model.taylor_table(0.0, -2.6, 3)
    from_table = iv_approx(point, elsewhere, 2)
    assert from_table != pytest.approx(iv_approx(point, model, 2), rel=1e-10)
    printed = general_series_printed(elsewhere, point.beta, 2).evaluate(point.lam, point.tau)
    assert printed == pytest.approx(from_table, rel=1e-10)
    moved = make_point(beta=-2.0, tau=0.5, x=0.0, y=-2.6)
    printed = iv_series_printed(model, moved, 2).evaluate(moved.lam, moved.tau)
    assert from_table == pytest.approx(printed, rel=1e-10)
    short = model.taylor_table(0.0, -2.6, 1)
    with pytest.raises(DomainError):
        iv_approx(point, short, 2)


# ---------------------------------------------------------------------------
# iv_approx assembles a named model's series once per (model, x, y, beta, order)


@pytest.fixture
def series_cache():
    expansion._model_series.cache_clear()
    yield expansion._model_series
    expansion._model_series.cache_clear()


def smile_points(x, y, beta, tau=0.25, strikes=41):
    return [
        MarketPoint(t=0.0, T=tau, x=x, y=y, z=0.0, k=-0.3 + 0.6 * i / (strikes - 1), beta=beta)
        for i in range(strikes)
    ]


def fresh_iv(point, model, order):
    table = model.taylor_table(point.x, point.y, order)
    return iv_series_engine(point, table, order).evaluate(point.lam, point.tau)


@pytest.mark.parametrize("beta", [-2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(MODEL_TABLES))
def test_iv_approx_reuse_equals_fresh_assembly(series_cache, kind, beta):
    model, x, y = MODEL_TABLES[kind]
    points = smile_points(x, y, beta)
    for order in range(1, MAX_ORDER + 1):
        want = [fresh_iv(point, model, order) for point in points]
        assert [iv_approx(point, model, order) for point in points] == want
        assert [iv_approx(point, model, order) for point in points] == want


def test_iv_approx_checks_the_order_before_reuse(series_cache):
    model, x, y = MODEL_TABLES["sabr"]
    point = smile_points(x, y, -2.0)[20]
    iv_approx(point, model, 1)
    # 1.0 == 1 and both hash alike: a lookup first would return order 1.
    for order in (1.0, 1.5):
        with pytest.raises(DomainError):
            iv_approx(point, model, order)
    for _ in range(3):
        with pytest.raises(DomainError):
            iv_approx(point, model, MAX_ORDER + 1)


def test_iv_approx_follows_every_key_component(series_cache):
    model, x, y = MODEL_TABLES["sabr"]
    base = MarketPoint(t=0.0, T=0.25, x=x, y=y, z=0.0, k=0.1, beta=-2.0)
    before = iv_approx(base, model, 3)
    for change in ({"x": x + 0.1}, {"y": y + 0.2}, {"beta": 3.0}):
        point = dataclasses.replace(base, **change)
        got = iv_approx(point, model, 3)
        assert got == fresh_iv(point, model, 3), change
        assert got != before, change
    for kind in sorted(MODEL_TABLES):
        model, x, y = MODEL_TABLES[kind]
        point = dataclasses.replace(base, x=x, y=y)
        before = iv_approx(point, model, 3)
        for field in dataclasses.fields(model):
            changed = dataclasses.replace(model, **{field.name: 1.1 * getattr(model, field.name)})
            got = iv_approx(point, changed, 3)
            assert got == fresh_iv(point, changed, 3), (kind, field.name)
            assert got != before, (kind, field.name)


def test_iv_approx_assembles_once_per_smile(series_cache, monkeypatch):
    calls = []
    engine = expansion.iv_series_engine

    def counting_engine(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(expansion, "iv_series_engine", counting_engine)
    model, x, y = MODEL_TABLES["sabr"]
    points = smile_points(x, y, -2.0)
    for point in points:
        iv_approx(point, model, 3)
    assert len(calls) == 1
    # Three smiles, each on its own model and order, strike by strike.
    calls.clear()
    smiles = [
        (SabrModel(delta=0.45 + 0.05 * order, gamma=0.4, rho=-0.3), order)
        for order in range(1, MAX_ORDER + 1)
    ]
    for point in points:
        for smile_model, order in smiles:
            iv_approx(point, smile_model, order)
    assert len(calls) == 3


def test_series_cache_is_bounded(series_cache):
    point = make_point()
    for i in range(20):
        iv_approx(point, CevModel(delta=0.2 + 0.01 * i, gamma=0.6), 2)
    info = series_cache.cache_info()
    assert info.misses == 20
    assert info.maxsize == SERIES_CACHE_SIZE >= 3
    assert info.currsize <= info.maxsize


# ---------------------------------------------------------------------------
# price/IV consistency and parity


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_price_and_iv_consistency_order(order):
    model = HestonModel(kappa=1.3, theta=0.06, delta=0.4, rho=-0.5)
    ratios = []
    for tau in (0.1, 0.2, 0.4):
        point = make_point(beta=2.0, tau=tau, k=0.06 * math.sqrt(tau / 0.1), y=-2.9)
        table = model.taylor_table(point.x, point.y, order)
        approx = price_uN(point, table, order)
        iv = iv_series_engine(point, table, order).evaluate(point.lam, tau)
        via_iv = bs_call_price(BsInputs(sigma=iv, tau=tau, z=point.z, k=point.k))
        ratios.append(abs(approx.total - via_iv) / tau ** ((order + 2) / 2.0))
    # Parabolic regime: the strike, and with it lam, scales as sqrt(tau), so
    # each series term lam^p tau^q of order n has size tau^(n/2) and both
    # routes are graded in tau alike; the gap divided by tau^((N+2)/2) must
    # then stay bounded as tau shrinks, not blow up.  A fixed strike cannot
    # show this: the lam^n tau^0 terms do not shrink with tau and the vega
    # ratios carry lam^2/tau, so there the normalized gap grows as tau falls.
    assert ratios[0] <= 4.0 * max(ratios[2], 1e-12)
    assert ratios[0] * 0.1 ** ((order + 2) / 2.0) < 5e-3


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_put_call_parity_shared_corrections(order):
    table = rich_table()
    point = make_point(beta=-2.0, tau=0.7, k=-0.04, z=0.02)
    call = price_uN(point, table, order, payoff="call")
    put = price_uN(point, table, order, payoff="put")
    assert call.terms == put.terms
    assert call.total - put.total == pytest.approx(
        math.exp(point.z) - math.exp(point.k), abs=1e-14
    )


def test_price_uN_order_zero_total_is_base():
    table = rich_table()
    point = make_point()
    approx = price_uN(point, table, 0)
    assert approx.terms == ()
    assert approx.total == approx.u0


def test_price_uN_rejects_bad_payoff_and_order():
    table = rich_table()
    with pytest.raises(ConfigError):
        price_uN(make_point(), table, 1, payoff="digital")
    with pytest.raises(DomainError):
        price_uN(make_point(), table, MAX_ORDER + 1)


# ---------------------------------------------------------------------------
# series container


def test_series_evaluate_guards_tiny_tau():
    series = iv_series_engine(make_point(), rich_table(), 2)
    with pytest.raises(DomainError):
        series.evaluate(0.1, 0.0)
    with pytest.raises(DomainError):
        series.evaluate(0.1, MIN_TAU / 10.0)
    for lam, tau in ((math.nan, 0.25), (math.inf, 0.25), (-math.inf, 0.25), (0.1, math.inf)):
        with pytest.raises(DomainError):
            series.evaluate(lam, tau)


def test_series_term_bounds():
    series = iv_series_engine(make_point(), rich_table(), 2)
    with pytest.raises(DomainError):
        series.term(0)
    with pytest.raises(DomainError):
        series.term(3)


def test_series_json_round_trip():
    series = iv_series_engine(make_point(beta=-3.0), rich_table(), MAX_ORDER)
    back = IvSeries.from_json(series.to_json())
    assert back.sigma0 == series.sigma0
    assert back.terms == series.terms
    payload = json.loads(series.to_json())
    assert [entry["n"] for entry in payload["terms"]] == [1, 2, 3]
    for entry in payload["terms"]:
        coeffs = [(c["lam_pow"], c["tau_pow"]) for c in entry["coeffs"]]
        assert coeffs == sorted(coeffs)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"sigma0": 0.4}',
        '{"sigma0": 0.4, "terms": [{"n": 2, "coeffs": []}]}',
        '{"sigma0": 0.4, "terms": [{"n": 1, "coeffs": [{"lam_pow": 0}]}]}',
        '{"sigma0": "forty", "terms": []}',
        '{"sigma0": 0.4, "terms": [{"n": 1, "coeffs": [{"lam_pow": 1.5, "tau_pow": 0, "value": 0.1}]}]}',
        '{"sigma0": 0.4, "terms": [{"n": 1, "coeffs": [{"lam_pow": 1, "tau_pow": 0, "value": 0.1}, '
        '{"lam_pow": 1, "tau_pow": 0, "value": 0.2}]}]}',
        '{"sigma0": 0.4, "terms": [{"n": 1, "coeffs": [{"lam_pow": 1, "tau_pow": -1, "value": 0.1}]}]}',
        '{"sigma0": 0.4, "terms": [{"n": 1, "coeffs": [{"lam_pow": -1, "tau_pow": 0, "value": 0.1}]}]}',
        '{"sigma0": NaN, "terms": []}',
        '{"sigma0": -0.2, "terms": []}',
        '{"sigma0": 0.4, "terms": [{"n": 1, "coeffs": [{"lam_pow": 1, "tau_pow": 0, "value": Infinity}]}]}',
        '{"sigma0": 0.4, "terms": [{"n": 1, "coeffs": [{"lam_pow": 1, "tau_pow": 0, "value": NaN}]}]}',
    ],
)
def test_series_json_rejects_malformed(text):
    with pytest.raises(ConfigError):
        IvSeries.from_json(text)
