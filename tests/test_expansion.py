"""Tests for the price and implied-vol series assembly."""

import itertools
import json
import math
import random
import sys
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.stats import ncx2, norm, t as student_t

from letfvol.blackscholes import BsInputs, bs_call_price, bs_put_price, bs_vega, hermite_vega_ratio
from letfvol import expansion
from letfvol.closedform import iv_series_printed
from letfvol.errors import ConfigError, DomainError
from letfvol.expansion import (
    MAX_ORDER,
    MIN_TAU,
    TRIM_TOL,
    IvSeries,
    base_sigma,
    iv_approx,
    iv_series_engine,
    price_uN,
)
from letfvol.models import (
    CevModel,
    HestonModel,
    MarketPoint,
    SabrModel,
    TaylorTable,
    heston_beta_map,
)
from test_blackscholes import deep_otm_put, vega_ratio
from test_opalgebra import MODEL_TABLES


def lp_eval(a: dict, lam: float, tau: float) -> float:
    """Oracle: a Laurent dict {(lam_power, tau_power): value} at (lam, tau), term by term."""
    return sum(v * lam**lp * tau**tp for (lp, tp), v in a.items())


def lp_max_abs(a: dict) -> float:
    return max((abs(v) for v in a.values()), default=0.0)


def lp_sum(*terms) -> dict:
    """The sum of Laurent dicts, exact zeros dropped."""
    out: dict = {}
    for term in terms:
        for key, value in term.items():
            out[key] = out.get(key, 0.0) + value
    return {key: value for key, value in out.items() if value != 0.0}


def reduced_Ln(table, n, beta):
    """chi of ``reduce_to_z(build_Ln(n))`` at one table and beta as {m: {tau_power: coeff}}:
    order n's slice of the walk ``_correction_dicts`` spreads into U_n, nonzero weights only,
    in the number type of the table and beta, so a Fraction table gives it exactly."""
    chi: dict = {}
    for (m, tau_pow, den), total in zip(expansion._chi_program(n)[1],
                                        expansion._chi_totals(table, n, beta)[-1]):
        if total:
            chi.setdefault(m, {})[tau_pow] = total / den
    return chi


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
# price corrections


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


def correction_dicts(table, beta, order):
    """U_1..U_order as Laurent dicts {key: value}, nonzero values only, formed from the
    dense lists the table keeps (``_correction_dicts``) along each order's program keys."""
    _, _, dense = expansion._correction_dicts(table, beta, order)
    return tuple({key: value for key, value in zip(expansion._chi_program(n)[2], U) if value}
                 for n, (U, _) in enumerate(dense[:order], 1))


@pytest.mark.parametrize("beta", [2.0, -3.0])
def test_correction_dicts_match_the_float_route(beta):
    # U_n as Laurent dicts against chi times Hermite values at points.
    table = rich_table()
    corrections = correction_dicts(table, beta, MAX_ORDER)
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


def horner_correction_dicts(table, beta, order, sigma0=None):
    """Oracle: U_n = sum_m chi_{n,m}(tau) D^m (1 / (sigma0 tau)) by Horner's rule in D.

    Shares the chi walk with _correction_dicts, through reduced_Ln, but not
    its map of D powers.
    Keeps the number type of the chi weights and sigma0 (default
    base_sigma), so a Fraction table and sigma0 give U_n exactly.
    """
    if sigma0 is None:
        sigma0 = base_sigma(table, beta)
    inv_sigma0, inv_var = 1 / sigma0, 1 / (sigma0 * sigma0)
    out = []
    for n in range(1, order + 1):
        chi = reduced_Ln(table, n, beta)
        U: dict = {}
        for m in range(max(chi, default=-1), -1, -1):
            step: dict = {}
            for (lp, tp), value in U.items():
                if lp:
                    step[lp - 1, tp] = step.get((lp - 1, tp), 0) - lp * value
                step[lp + 1, tp - 1] = step.get((lp + 1, tp - 1), 0) + value * inv_var
                step[lp, tp] = step.get((lp, tp), 0) + value / 2
            for tau_pow, coeff in chi.get(m, {}).items():
                step[0, tau_pow - 1] = step.get((0, tau_pow - 1), 0) + coeff * inv_sigma0
            U = step
        out.append(U)
    return out


def reject_subnormal(*terms):
    # Below the normal range a coefficient carries fewer bits than the
    # relative bound asks of it, and two routes, summing in different
    # orders, round it apart; such examples are skipped, not bounded.
    if any(0.0 < abs(value) < sys.float_info.min for term in terms for value in term.values()):
        reject()


def assert_terms_match(got, want):
    """Each term of ``got`` within 1e-13 of the largest of ``want``'s at every key of either."""
    assert len(got) == len(want)
    for n, (g, w) in enumerate(zip(got, want), 1):
        scale = lp_max_abs(w)
        for key in set(g) | set(w):
            assert abs(g.get(key, 0.0) - w.get(key, 0.0)) <= 1e-13 * scale, (n, key)


def assert_corrections_match_horner(table, beta, order):
    got = correction_dicts(table, beta, order)
    want = horner_correction_dicts(table, beta, order)
    assert len(want) == order
    reject_subnormal(*got, *want)
    assert_terms_match(got, want)


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
@pytest.mark.parametrize("beta", [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(MODEL_TABLES) + ["rich"])
def test_correction_dicts_match_horner_in_D(kind, beta, order):
    if kind == "rich":
        table = rich_table()
    else:
        model, x, y = MODEL_TABLES[kind]
        table = model.taylor_table(x, y, MAX_ORDER)
    assert_corrections_match_horner(table, beta, order)


TABLE_KEYS = [(name, (i, j)) for name in "abcf" for i in range(4) for j in range(4 - i)]

# The random order-3 tables of the random-table tests; CI runs these tests
# at Hypothesis seeds 6 and 56, which draw the same tables for each.
RANDOM_TABLES = dict(
    a00=st.floats(0.005, 0.3),
    # Zeros as often as not: a zero entry zeroes whole subtrees of products.
    values=st.lists(
        st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
        min_size=len(TABLE_KEYS),
        max_size=len(TABLE_KEYS),
    ),
    beta=st.sampled_from([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0]),
)


def random_table(a00, values):
    entries = {name: {} for name in "abcf"}
    for (name, key), value in zip(TABLE_KEYS, values):
        entries[name][key] = value
    entries["a"][0, 0] = a00
    return TaylorTable(extent=3, entries=entries)


@settings(max_examples=40, deadline=None)
@given(**RANDOM_TABLES)
def test_correction_dicts_match_horner_in_D_on_random_tables(a00, values, beta):
    assert_corrections_match_horner(random_table(a00, values), beta, MAX_ORDER)


# ---------------------------------------------------------------------------
# corrections kept by the table


def model_table(kind):
    model, x, y = MODEL_TABLES[kind]
    return model.taylor_table(x, y, MAX_ORDER)


def count_chi_walks(monkeypatch):
    """Route expansion._chi_totals, the one walk of orders 1..n, through a counter;
    returns the list it appends to."""
    calls = []
    original = expansion._chi_totals

    def counted(table, n, beta):
        calls.append((n, beta))
        return original(table, n, beta)

    monkeypatch.setattr(expansion, "_chi_totals", counted)
    return calls


@pytest.mark.parametrize("beta", [-3.0, 2.0])
@pytest.mark.parametrize("kind", sorted(MODEL_TABLES))
def test_price_after_series_reuses_the_tables_corrections(kind, beta, monkeypatch):
    point = make_point(beta=beta, tau=0.4, k=0.07)
    want = price_uN(point, model_table(kind), MAX_ORDER)
    want_json = iv_series_engine(point, model_table(kind), MAX_ORDER).to_json()
    table = model_table(kind)
    series = iv_series_engine(point, table, MAX_ORDER)
    calls = count_chi_walks(monkeypatch)
    got = price_uN(point, table, MAX_ORDER)
    assert calls == []
    # Bit for bit, as on a fresh table; and the series is what a fresh table gives.
    assert (got.u0, got.terms, got.total) == (want.u0, want.terms, want.total)
    assert series.to_json() == iv_series_engine(point, table, MAX_ORDER).to_json() == want_json


@pytest.mark.parametrize("beta", [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(MODEL_TABLES))
def test_price_uN_is_vega_times_the_laurent_corrections(kind, beta):
    # Horner's rule along each order's layout against the dicts, term by term.
    table = model_table(kind)
    corrections = correction_dicts(table, beta, MAX_ORDER)
    sigma0 = base_sigma(table, beta)
    for tau in (1 / 52, 0.25, 1.0):
        for d in (0.0, 1.5, -1.5, 2.5, -2.5):
            point = make_point(beta=beta, tau=tau, k=0.03 + d * sigma0 * math.sqrt(tau), z=0.03)
            inputs = BsInputs(sigma0, tau, point.z, point.k)
            vega = bs_vega(inputs)
            for order in range(MAX_ORDER + 1):
                for payoff, base in (("call", bs_call_price), ("put", bs_put_price)):
                    got = price_uN(point, table, order, payoff)
                    assert got.u0 == base(inputs)
                    assert len(got.terms) == order
                    for n, (term, U) in enumerate(zip(got.terms, corrections), 1):
                        want = vega * lp_eval(U, point.lam, tau)
                        assert abs(term - want) <= 1e-13 * max(abs(term), vega), (tau, d, n)


@pytest.mark.parametrize("kind", sorted(MODEL_TABLES) + ["rich"])
def test_lower_order_after_higher_is_the_fresh_prefix(kind, monkeypatch):
    make = rich_table if kind == "rich" else lambda: model_table(kind)
    table = make()
    full = correction_dicts(table, -2.0, 3)
    kept = table._corrections
    calls = count_chi_walks(monkeypatch)
    for order in (2, 1, 0):
        # The kept value itself serves a lower order: no prefix is built.
        assert expansion._correction_dicts(table, -2.0, order) is kept
        got = correction_dicts(table, -2.0, order)
        assert got == full[:order]
        assert got == correction_dicts(make(), -2.0, order)
    # Only the fresh tables derived anything, one walk each: orders 1-2,
    # order 1, and none for order 0.
    assert calls == [(2, -2.0), (1, -2.0)]
    # An order above the stored one derives afresh, in one walk, and replaces it.
    table = make()
    expansion._correction_dicts(table, -2.0, 1)
    del calls[:]
    assert correction_dicts(table, -2.0, 3) == full
    assert calls == [(3, -2.0)] and len(table._corrections[2]) == 3


def test_each_beta_and_number_type_is_its_own_key(monkeypatch):
    # 2, 2.0 and Fraction(2) are equal numbers but distinct keys, and 2.0
    # does not serve -2.0: the corrections hold odd powers of beta.
    betas = (2, 2, 2.0, 2.0, Fraction(2), Fraction(2), -2.0, -2.0)
    wants = [correction_dicts(model_table("heston"), beta, 2) for beta in betas]
    assert wants[-1] != wants[2]
    table = model_table("heston")
    calls = count_chi_walks(monkeypatch)
    derived = []
    for beta, want in zip(betas, wants):
        before = len(calls)
        assert correction_dicts(table, beta, 2) == want
        assert table._corrections[0] == (type(beta), beta)
        derived.append(len(calls) - before)
    # One walk of orders 1-2 per derivation.
    assert derived == [1, 0, 1, 0, 1, 0, 1, 0]


def test_a_call_that_raises_stores_nothing():
    # sigma0 = 0 at beta = 0, and about 1.4e307 beyond the float range.
    for beta, table, order in ((0.0, rich_table(), 1), (1e207, flat_table(a00=1e200), 0)):
        with pytest.raises(DomainError):
            expansion._correction_dicts(table, beta, order)
        assert "_corrections" not in vars(table)
    table = rich_table()
    kept = expansion._correction_dicts(table, 2.0, 2)
    with pytest.raises(DomainError):
        expansion._correction_dicts(table, 0.0, 2)
    assert table._corrections is kept
    assert kept[:2] == ((float, 2.0), base_sigma(table, 2.0))


def test_kept_corrections_are_read_only():
    # The kept value is tuples all the way down: (key, sigma0, dense), each
    # dense[n-1] the tuple U_n and the order's (low, rows) layout.
    table = rich_table()
    iv_series_engine(make_point(), table, MAX_ORDER)
    kept = expansion._correction_dicts(table, 2.0, MAX_ORDER)
    assert kept is table._corrections
    key, sigma0, dense = kept
    assert type(dense) is tuple and len(dense) == MAX_ORDER
    for n, (U, (low, rows)) in enumerate(dense, 1):
        assert type(U) is tuple and len(U) == len(expansion._chi_program(n)[2]) + 1
        assert U[-1] == 0.0 and type(low) is int
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    with pytest.raises(TypeError):
        dense[0][0][0] = 1.0
    with pytest.raises(TypeError):
        del dense[0]


def holds_a_mapping(value):
    """Whether ``value`` is a mapping or holds one, in tuples at any depth."""
    return isinstance(value, Mapping) or isinstance(value, tuple) and any(map(holds_a_mapping, value))


@pytest.mark.parametrize("kind", sorted(MODEL_TABLES) + ["rich"])
def test_runtime_path_builds_no_dict_views(kind):
    # The engine and price_uN spread the chi walk straight into the dense
    # U_n: a table keeps no mapping, and the series and prices repeat bit
    # for bit, those of one table priced at every order in turn included.
    make = rich_table if kind == "rich" else lambda: model_table(kind)
    points = [make_point(beta=beta, tau=0.3, k=0.08) for beta in (-3.0, 2.0)]
    wants = [(iv_series_engine(point, make(), order).to_json(), price_uN(point, make(), order))
             for point in points for order in range(MAX_ORDER + 1)]
    for point in points:
        table = make()
        for order in range(MAX_ORDER + 1):
            assert (iv_series_engine(point, make(), order).to_json(),
                    price_uN(point, table, order)) == wants.pop(0)
            assert not holds_a_mapping(table._corrections)
    assert wants == []


def test_kept_corrections_leave_equality_repr_and_replace_alone():
    table, fresh = rich_table(), rich_table()
    text = repr(fresh)
    price_uN(make_point(), table, MAX_ORDER)
    assert "_corrections" in vars(table)
    assert table == fresh and repr(table) == text
    assert table._fields == ("extent", "entries") and len(table) == 2
    copy = table._replace()
    assert copy == table and "_corrections" not in vars(copy)


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


@pytest.mark.parametrize(
    "route",
    [
        lambda point, model: iv_approx(point, model, 3),
        lambda point, model: price_uN(point, model.taylor_table(point.x, point.y, 3), 3),
    ],
    ids=["iv_approx", "price_uN"],
)
@pytest.mark.parametrize(
    "model, x, y",
    [
        (HestonModel(1.5, 0.04, 0.3, -0.6), 0.0, 800.0),
        (SabrModel(0.3, 0.5, -0.3), 0.0, 800.0),
        (HestonModel(1.5, 0.04, 0.3, -0.6), 0.0, 1e300),
        (HestonModel(1.5, 0.04, 0.3, -0.6), 0.0, -1e300),
        (CevModel(0.2, 0.5), -1e300, 0.0),
        (SabrModel(0.3, 0.5, -0.3), -1e300, 0.0),
    ],
    ids=["heston-y800", "sabr-y800", "heston-y1e300", "heston-y-1e300", "cev-x-1e300",
         "sabr-x-1e300"],
)
def test_states_whose_table_leaves_the_float_range_raise_domain_error(model, x, y, route):
    # The point is valid; e^(p x + q y) of a table term overflows a float.
    point = MarketPoint(t=0.0, T=0.25, x=x, y=y, z=0.0, k=0.05, beta=2.0)
    with pytest.raises(DomainError):
        route(point, model)


def scaled_vega_ratio(k, sigma0):
    """R_k at sigma0 from the plans' sigma0 = 1 coefficients: tau^t's scales by sigma0^(2t+1-k)."""
    return {(lp, tp): c * sigma0 ** (2 * tp + 1 - k) for (lp, tp), c in expansion._vega_ratio(k).items()}


def test_vega_ratio_coeffs_match_finite_differences():
    sigma0, tau, z = 0.27, 0.6, -0.02
    for order in (2, 3):
        coeffs = scaled_vega_ratio(order, sigma0)
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
    assert expansion._vega_ratio(1) == {(0, 0): 1.0}
    for order in (2, 3, 4):
        coeffs = scaled_vega_ratio(order, sigma0)
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
        coeffs = scaled_vega_ratio(order, sigma0)
        for k in (-0.15, 0.0, 0.2):
            want = z_route_vega_ratio(order, BsInputs(sigma=sigma0, tau=tau, z=z, k=k))
            assert lp_eval(coeffs, k - z, tau) == pytest.approx(want, rel=1e-10), (order, k)


def test_vega_ratio_coeffs_scale_by_sigma0_powers():
    # The identity the assembly plans rest on: R_k's tau^t coefficient at
    # sigma0 is its sigma0 = 1 value times sigma0^(2t + 1 - k), exactly, as
    # the exact recursion in sigma gives it at rational sigma0.  Every
    # sigma0 = 1 coefficient is a dyadic rational, exact in a float.
    def nonzero(ratio):
        return {key: value for key, value in ratio.items() if value}

    unit = exact_vega_ratios(8, 1)
    for k in range(2, 9):
        assert expansion._vega_ratio(k) == nonzero(unit[k]), k
    for sigma0 in (Fraction(1, 1000), Fraction(1, 20), Fraction(3, 10), Fraction(2), Fraction(40)):
        exact = exact_vega_ratios(MAX_ORDER + 3, sigma0)
        for k in range(2, MAX_ORDER + 4):
            want = {(lp, tp): Fraction(c) * sigma0 ** (2 * tp + 1 - k)
                    for (lp, tp), c in expansion._vega_ratio(k).items()}
            assert nonzero(exact[k]) == want, (k, sigma0)


# ---------------------------------------------------------------------------
# base price


def test_base_price_uses_flat_vol_from_the_table():
    table = flat_table(a00=0.02)
    point = make_point(beta=2.0, tau=1.0, k=0.1, z=0.0)
    assert base_sigma(table, 2.0) == pytest.approx(0.4, rel=1e-15, abs=0)
    want = bs_call_price(BsInputs(sigma=0.4, tau=1.0, z=0.0, k=0.1))
    assert price_uN(point, table, 0).u0 == pytest.approx(want, rel=1e-15, abs=0)


def test_base_price_put_and_parity():
    table = flat_table(a00=0.05)
    point = make_point(beta=-2.0, tau=0.5, k=-0.07, z=0.03)
    call = price_uN(point, table, 0, payoff="call").u0
    put = price_uN(point, table, 0, payoff="put").u0
    assert call - put == pytest.approx(math.exp(point.z) - math.exp(point.k), abs=1e-14)


def test_deep_otm_base_put_is_worthless():
    # sigma0 = 2 sqrt(2 * 0.005) = 0.2; parity returned 1.0 here.
    point = make_point(beta=2.0, tau=1.0, k=0.0, z=40.0)
    want = deep_otm_put(0.2, 1.0, 40.0, 0.0)
    assert math.isclose(price_uN(point, flat_table(a00=0.005), 0, payoff="put").u0, want,
                        rel_tol=1e-10)


def test_base_price_guards():
    table = flat_table()
    with pytest.raises(DomainError):
        price_uN(MarketPoint(t=0.0, T=1e-10, x=0.0, y=0.0, z=0.0, k=0.0, beta=2.0), table, 0)
    with pytest.raises(ConfigError):
        price_uN(make_point(), table, 0, payoff="straddle")
    with pytest.raises(DomainError):
        price_uN(make_point(), flat_table(a00=0.0), 0)


def test_price_uN_order_zero_checks_the_float_range_of_sigma0():
    # sigma0 = 1e207 sqrt(2e200), about 1.4e307: a valid BsInputs sigma, but
    # beyond the float range the corrections check, at order 0 too.
    with pytest.warns(UserWarning, match="leverage ratio"):
        point = make_point(beta=1e207)
    with pytest.raises(DomainError, match="float range"):
        price_uN(point, flat_table(a00=1e200), 0)


def test_a_leverage_beyond_the_float_range_raises_domain_error():
    # Order 3 forms beta^p, p <= 9: 1e100 overflows a float although
    # sigma0 is 1.41 on the first table; an int beta of that size
    # overflows where it meets a float entry of the second.
    small = TaylorTable(extent=3, entries={"a": {(0, 0): 1e-200, (1, 0): 1e-201}})
    for beta, table in ((1e100, small), (10**100, rich_table())):
        with pytest.warns(UserWarning, match="leverage ratio"):
            point = make_point(beta=beta)
        for call in (price_uN, iv_series_engine, iv_approx):
            with pytest.raises(DomainError, match="float range"):
                call(point, table, 3)
        assert vars(table) == {}


@pytest.mark.parametrize("a00", [1e-207, 1e-250])
def test_a_tiny_sigma0_gives_zero_terms_or_raises_domain_error(a00):
    # sigma0 = 2 sqrt(2 a00), about 8.9e-104 and 2.8e-125.  Every chi weight
    # of this table is zero, so U_n is 0 and the old check, on the D powers
    # alone, passed; but the order-3 plan scales its terms by sigma0^-3,
    # beyond the float range.  Orders 1 and 2 form no such power: the
    # all-zero series.  Order 3 raises DomainError, on both routes, which
    # share the check, and the table keeps nothing.
    point = make_point(beta=2.0)
    for order in (1, 2):
        table = TaylorTable(3, {"a": {(0, 0): a00}})
        series = iv_series_engine(point, table, order)
        assert series.sigma0 == base_sigma(table, 2.0) and series.terms == ({},) * order
        assert price_uN(point, table, order).terms == (0.0,) * order
    for call in (iv_series_engine, price_uN):
        table = TaylorTable(3, {"a": {(0, 0): a00}})
        with pytest.raises(DomainError, match="float range for order 3"):
            call(point, table, 3)
        assert vars(table) == {}
    # Just inside the bound, 3 |log2 sigma0| < 1020, order 3 is all zero too.
    table = TaylorTable(3, {"a": {(0, 0): 1e-198}})
    assert iv_series_engine(point, table, 3).terms == ({},) * 3
    assert price_uN(point, table, 3).terms == (0.0,) * 3


def test_price_uN_checks_its_black_scholes_inputs():
    # BsInputs bounds the log strike by MAX_LOG.
    with pytest.raises(DomainError, match="at most"):
        price_uN(make_point(k=800.0), flat_table(), 0)


# ---------------------------------------------------------------------------
# correction structure


def test_flat_table_has_zero_corrections():
    table = flat_table(a00=0.03)
    point = make_point(beta=-3.0, tau=0.8)
    series = iv_series_engine(point, table, MAX_ORDER)
    assert all(term == {} for term in series.terms)
    approx = price_uN(point, table, MAX_ORDER)
    assert approx.terms == (0.0, 0.0, 0.0)
    assert approx.total == pytest.approx(approx.u0, rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# exact identities


@pytest.mark.parametrize("beta", [-3.0, -2.0, -1.0, 2.0, 3.0])
def test_heston_at_leverage_is_the_mapped_model_at_unit_leverage(beta):
    model, x, y = MODEL_TABLES["heston"]
    mapped, mapped_y = heston_beta_map(model, y, beta)
    for order in range(1, MAX_ORDER + 1):
        got = iv_series_engine(make_point(beta=beta), model.taylor_table(x, y, order), order)
        want = iv_series_engine(
            make_point(beta=1.0), mapped.taylor_table(x, mapped_y, order), order
        )
        # |beta| sqrt(e^y) against sqrt(e^(y + log beta^2)): one rounding apart.
        assert got.sigma0 == pytest.approx(want.sigma0, rel=1e-15, abs=0)
        for n, (term, mapped_term) in enumerate(zip(got.terms, want.terms), 1):
            assert term.keys() == mapped_term.keys(), (order, n)
            scale = lp_max_abs(term)
            for key, value in term.items():
                assert abs(value - mapped_term[key]) <= 1e-13 * scale, (order, n, key)


@pytest.mark.parametrize("beta", [-2.0, -1.0, 1.0, 2.0])
def test_a_low_volatility_heston_state_has_a_finite_series(beta):
    # Variance 1e-5 (vol 0.32%): the keys that cancel reach sigma0^-7 at
    # order 3, so their float residue exceeds 1e-8 times max(1, the largest
    # coefficient formed).  It is dropped; the series is the beta-mapped one.
    model, y = HestonModel(kappa=1.5, theta=0.04, delta=0.3, rho=-0.6), math.log(1e-5)
    point = make_point(beta=beta, tau=0.25, k=0.001, x=0.0, y=y)
    got = iv_series_engine(point, model.taylor_table(0.0, y, 3), 3)
    assert math.isfinite(got.evaluate(point.lam, point.tau))
    assert math.isfinite(iv_approx(point, model, 3))
    mapped, mapped_y = heston_beta_map(model, y, beta)
    want = iv_series_engine(make_point(beta=1.0), mapped.taylor_table(0.0, mapped_y, 3), 3)
    assert got.sigma0 == pytest.approx(want.sigma0, rel=1e-15, abs=0)
    for n, (term, mapped_term) in enumerate(zip(got.terms, want.terms), 1):
        scale = lp_max_abs(mapped_term)
        for key in term.keys() | mapped_term.keys():
            assert abs(term.get(key, 0.0) - mapped_term.get(key, 0.0)) <= 1e-13 * scale, (n, key)


@pytest.mark.parametrize("beta", [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
def test_cev_at_gamma_one_is_black_scholes_at_beta_delta(beta):
    model = CevModel(delta=0.3, gamma=1.0)
    point = make_point(beta=beta, tau=0.5, k=0.1)
    for order in range(MAX_ORDER + 1):
        table = model.taylor_table(point.x, point.y, order)
        series = iv_series_engine(point, table, order)
        assert series.sigma0 == pytest.approx(abs(beta) * model.delta, rel=1e-15, abs=0)
        assert series.terms == ({},) * order
        assert price_uN(point, table, order).terms == (0.0,) * order


@pytest.mark.parametrize("beta", [2.0, -2.0, 1.0, -3.0])
def test_lambda_degree_and_tau_positivity(beta):
    table = rich_table()
    series = iv_series_engine(make_point(beta=beta), table, MAX_ORDER)
    for n in range(1, MAX_ORDER + 1):
        for lp, tp in series.terms[n - 1]:
            assert lp >= 0 and tp >= 0
            assert lp + tp <= n


def finalize_term(n, raw):
    """The keys of ``raw`` that an order-n correction holds (tau power >= 0, degree <= n),
    trimmed; the others cancel exactly, so what floats leave of them is rounding, dropped."""
    kept = {(lp, tp): value for (lp, tp), value in raw.items() if tp >= 0 and lp + tp <= n}
    cut = TRIM_TOL * max(1.0, lp_max_abs(kept))
    return {key: value for key, value in kept.items() if abs(value) > cut}


def dict_iv_terms(table, beta, order):
    """Oracle: sigma_1..sigma_order by the Taylor-remainder recursion on Laurent dicts.

    Forms every key, those that cancel included, with C(n, k) =
    sum_i sigma_i C(n - i, k - 1) and R_k at sigma0 from the recursion in
    sigma (``exact_vega_ratios``), then keeps and trims each order's keys
    (``finalize_term``).  Shares _correction_dicts with the engine, and
    nothing of its plan or of its sigma0 = 1 ratios.
    """
    sigma0 = base_sigma(table, beta)
    corrections = correction_dicts(table, beta, order)
    ratios = exact_vega_ratios(order, sigma0)
    compositions: dict = {}  # (n, k) -> C(n, k)
    terms: list = []
    for n in range(1, order + 1):
        raw = dict(corrections[n - 1])
        for k in range(2, n + 1):
            total = lp_sum(*(exact_poly_mul(terms[i - 1], compositions[n - i, k - 1])
                             for i in range(1, n - k + 2)))
            compositions[n, k] = total
            for key, value in exact_poly_mul(total, ratios[k]).items():
                raw[key] = raw.get(key, 0.0) - value / math.factorial(k)
        terms.append(finalize_term(n, raw))
        compositions[n, 1] = terms[-1]
    return terms


@settings(max_examples=40, deadline=None)
@given(**RANDOM_TABLES)
def test_engine_matches_the_dict_recursion_on_random_tables(a00, values, beta):
    table = random_table(a00, values)
    series = iv_series_engine(make_point(beta=beta), table, MAX_ORDER)
    want = dict_iv_terms(table, beta, MAX_ORDER)
    reject_subnormal(*correction_dicts(table, beta, MAX_ORDER), *series.terms, *want)
    assert [term.keys() for term in series.terms] == [term.keys() for term in want]
    assert_terms_match(series.terms, want)


def test_assembly_plans_form_only_the_kept_keys():
    # Only the keys that can be nonzero, 2 of 3, 4 of 6 and 6 of 10 at orders
    # 1-3, with 0, 0 and 4 terms.  U_1 has no lam^0 tau^0 key and U_2 none at
    # lam^0 tau^0 or lam tau^0, so the 34 terms with such a factor, which only
    # ever added 0.0, are gone, and so are the keys that only they reached.
    plans = [expansion._assembly_plan(n) for n in range(1, MAX_ORDER + 1)]
    assert [len(keys) for keys, _, _ in plans] == [2, 4, 6]
    assert [len(terms) for _, _, terms in plans] == [0, 0, 4]
    # The keys the engine can keep, as when the plans named every key.
    assert [set(keys) for keys, _, _ in plans] == [
        {(1, 0), (0, 1)},
        {(2, 0), (0, 1), (1, 1), (0, 2)},
        {(3, 0), (1, 1), (2, 1), (0, 2), (1, 2), (0, 3)},
    ]
    lower = 0  # how many values the lower orders' plans hold
    for n, (keys, slots, terms) in enumerate(plans, 1):
        program_keys = expansion._chi_program(n)[2]
        targets = {j for j, *_ in terms}
        for j, (lp, tp) in enumerate(keys):
            assert tp >= 0 and lp + tp <= n
            assert (lp, tp) in program_keys or j in targets
            assert (*program_keys, (lp, tp)).index((lp, tp)) == slots[j]
        assert all(i < lower for *_, idx in terms for i in idx)
        lower += len(keys)


def engine_on_kept_corrections(corrections, beta=2.0):
    """The order-3 series of a table whose kept U_1..U_3 are replaced by ``corrections``,
    {key: value} dicts over their orders' program keys, put in the dense lists the engine reads."""
    table = rich_table()
    expansion._correction_dicts(table, beta, 3)
    key, sigma0, dense = table.__dict__["_corrections"]
    planted = tuple(
        (tuple(values.get(k, 0.0) for k in expansion._chi_program(n)[2]) + (0.0,), layout)
        for n, (values, (_, layout)) in enumerate(zip(corrections, dense), 1)
    )
    table.__dict__["_corrections"] = (key, sigma0, planted)
    return iv_series_engine(make_point(beta=beta), table, 3)


def test_the_engine_trims_residue_beyond_total_degree():
    # This table's order-3 term once kept lam^3 tau^1 = -1.24e-14, just above
    # TRIM_TOL of its scale, though lam^lp tau^tp with lp + tp > n cancels.
    model = HestonModel(kappa=1.0461014306228213, theta=0.03346278457002082,
                        delta=0.47436308102028435, rho=-0.76253376325581)
    table = model.taylor_table(0.09416031888210169, -3.0277118787958623, 3)
    series = iv_series_engine(make_point(beta=-1.0), table, 3)
    for n in range(1, 4):
        assert all(lp + tp <= n for lp, tp in series.terms[n - 1]), series.terms[n - 1]
    # With U_1 = U_2 = 0, sigma_3 is U_3 at the keys it keeps, trimmed: a
    # value at or below TRIM_TOL of max(1, the largest kept) is dropped.
    series = engine_on_kept_corrections([{}, {}, {(0, 2): 1.0, (1, 1): TRIM_TOL, (2, 1): 2 * TRIM_TOL}])
    assert series.terms == ({}, {}, {(0, 2): 1.0, (2, 1): 2 * TRIM_TOL})
    # A key that cannot survive is dropped however large, and does not set
    # the trim scale: beside it 1e-13 is kept, against max(1, 1e-13).
    series = engine_on_kept_corrections([{}, {}, {(0, 2): 1e-13, (3, 1): 1e6, (5, -1): -1e6}])
    assert series.terms == ({}, {}, {(0, 2): 1e-13})


def exact_poly_mul(a, b):
    """Product of polynomial dicts whose keys are tuples of powers, in the coefficients' type."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(map(sum, zip(ka, kb)))
            out[key] = out.get(key, 0) + va * vb
    return out


def exact_vega_ratios(order, sigma0):
    """R_k, k = 2..order, at sigma0 as {(lam_power, tau_power): value}, in sigma0's type.

    R_2 = d+ d- / sigma = lam^2 / (sigma^3 tau) - sigma tau / 4 and
    R_{k+1} = dR_k/dsigma + R_k R_2, formed on polynomials in (lam, tau,
    sigma) with sigma a symbol, then evaluated at sigma0.
    """
    r2 = {(2, -1, -3): 1, (0, 1, 1): Fraction(-1, 4)}
    ratio, out = r2, {}
    for k in range(2, order + 1):
        out[k] = {}
        for (lp, tp, sp), value in ratio.items():
            out[k][lp, tp] = out[k].get((lp, tp), 0) + value * sigma0**sp
        step = exact_poly_mul(ratio, r2)
        for (lp, tp, sp), value in ratio.items():
            step[lp, tp, sp - 1] = step.get((lp, tp, sp - 1), 0) + sp * value
        ratio = step
    return out


def exact_iv_terms(table, beta, sigma0, order):
    """Oracle: sigma_1..sigma_order with every key kept, exact for a Fraction table and sigma0.

    U_n by Horner's rule in D, R_k from ``exact_vega_ratios``, and
    sigma_n = U_n - sum_k R_k / k! C(n, k) with C(n, k) summed over the
    compositions of n into k parts, written out.  Shares reduced_Ln with
    the engine, and nothing of its assembly.
    """
    corrections = horner_correction_dicts(table, beta, order, sigma0)
    ratios = exact_vega_ratios(order, sigma0)
    sigmas = []
    for n in range(1, order + 1):
        term = dict(corrections[n - 1])
        for k in range(2, n + 1):
            for parts in itertools.product(range(1, n), repeat=k):
                if sum(parts) == n:
                    product = ratios[k]
                    for i in parts:
                        product = exact_poly_mul(product, sigmas[i - 1])
                    for key, value in product.items():
                        term[key] = term.get(key, 0) - value / math.factorial(k)
        sigmas.append(term)
    return sigmas


def dyadic_tables(seed):
    """A random order-3 float table, its exact Fraction copy, an int beta and the exact sigma0.

    a00 = s^2 / 2 with s = m / 2^e dyadic, so both tables hold it exactly
    and sigma0 = |beta| s; a00 spans 1.9e-6 to 7.9, the low end where the
    cancelling keys reach sigma0^-7.  60% of the other entries are
    nonzero, uniform in +-w with w log-uniform in [1e-3, 100].
    """
    rng = random.Random(seed)
    s = Fraction(rng.randrange(128, 256), 2 ** rng.randrange(6, 17))
    entries = {name: {} for name in "abcf"}
    for name, key in TABLE_KEYS:
        if rng.random() < 0.6:
            width = math.exp(rng.uniform(math.log(1e-3), math.log(100.0)))
            entries[name][key] = rng.uniform(-width, width)
    entries["a"][0, 0] = float(s * s / 2)
    exact = {name: {key: Fraction(value) for key, value in family.items()}
             for name, family in entries.items()}
    beta = rng.choice([-3, -2, -1, 1, 2, 3])
    return (TaylorTable(extent=3, entries=entries), TaylorTable(extent=3, entries=exact),
            beta, abs(beta) * s)


# Seeds among 0-399 whose tables, a00 between 2.3e-6 and 3.1e-5, leave a
# key that cancels a float residue above 1e-8 times max(1, the largest
# coefficient formed).
LOW_VOL_SEEDS = (93, 105, 112, 135, 162, 166, 194, 271, 312)


@pytest.mark.parametrize("seed", [*range(40), *LOW_VOL_SEEDS])
def test_engine_matches_the_exact_assembly_on_random_tables(seed):
    # Every key that cannot survive (tau power < 0 or degree > n) cancels
    # exactly, and the float engine keeps the others to 1e-12 of the
    # term's largest coefficient.
    table, exact_table, beta, sigma0 = dyadic_tables(seed)
    series = iv_series_engine(make_point(beta=float(beta)), table, MAX_ORDER)
    assert series.sigma0 == sigma0
    exact_terms = exact_iv_terms(exact_table, beta, sigma0, MAX_ORDER)
    for n, (got, exact) in enumerate(zip(series.terms, exact_terms), 1):
        survivors = {}
        for (lp, tp), value in exact.items():
            if tp >= 0 and lp + tp <= n:
                survivors[lp, tp] = value
            else:
                assert value == 0, (n, lp, tp)
        scale = float(max(map(abs, survivors.values()), default=0))
        for key in got.keys() | survivors.keys():
            assert abs(got.get(key, 0.0) - float(survivors.get(key, 0))) <= 1e-12 * scale, (n, key)


def test_sigma0_depends_only_on_abs_beta():
    table = rich_table()
    plus = iv_series_engine(make_point(beta=2.0), table, 2)
    minus = iv_series_engine(make_point(beta=-2.0), table, 2)
    assert plus.sigma0 == pytest.approx(minus.sigma0, rel=1e-15, abs=0)
    assert plus.sigma0 == pytest.approx(2.0 * math.sqrt(2.0 * 0.04), rel=1e-12)


def test_engine_order_zero_is_base_only():
    table = rich_table()
    series = iv_series_engine(make_point(), table, 0)
    assert series.terms == ()
    assert series.evaluate(0.1, 0.5) == pytest.approx(series.sigma0, rel=1e-15, abs=0)


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
    return s0, term1, lp_sum(s20, s11, s02)


def test_beta_one_matches_hand_folded_single_asset_forms():
    table = rich_table()
    series = iv_series_engine(make_point(beta=1.0), table, 2)
    s0, term1, term2 = hand_beta1_terms(table)
    assert series.sigma0 == pytest.approx(s0, rel=1e-14, abs=0)
    for n, want in ((1, term1), (2, term2)):
        got = series.terms[n - 1]
        keys = set(got) | {key for key, value in want.items() if value != 0.0}
        for key in keys:
            assert got.get(key, 0.0) == pytest.approx(want.get(key, 0.0), rel=1e-10, abs=1e-13), (n, key)


# ---------------------------------------------------------------------------
# published short-maturity results, written out by hand

SHORT_TIME_STATES = {
    "cev": (CevModel(delta=0.3, gamma=0.5), 0.0),
    "sabr": (SabrModel(delta=0.4, gamma=0.5, rho=-0.3), -1.0),
    "heston": (HestonModel(kappa=1.5, theta=0.04, delta=0.3, rho=-0.6), math.log(0.04)),
}


@pytest.mark.parametrize("beta", [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(SHORT_TIME_STATES))
def test_order_one_skew_is_the_short_time_atm_skew(kind, beta):
    # Durrleman (Finance Stoch. 2010), for the LETF's own dynamics: level
    # |beta| sigma and ATM skew d<sigma_z, z>/dt / (2 sigma_z^2)
    # = sign(beta) (sigma_x sigma^2 + sigma_y f00) / (2 sigma^2), with
    # sigma = sqrt(2 a00), sigma_x = a10 / sigma, sigma_y = a01 / sigma.
    model, y = SHORT_TIME_STATES[kind]
    table = model.taylor_table(0.0, y, 1)
    sigma = math.sqrt(2.0 * table.get("a", 0, 0))
    sigma_x, sigma_y = table.get("a", 1, 0) / sigma, table.get("a", 0, 1) / sigma
    skew = math.copysign(1.0, beta) * (sigma_x * sigma**2 + sigma_y * table.get("f", 0, 0)) / (
        2.0 * sigma**2)
    series = iv_series_engine(make_point(beta=beta, x=0.0, y=y), table, 1)
    assert series.sigma0 == pytest.approx(abs(beta) * sigma, rel=1e-15, abs=0)
    assert series.terms[0][1, 0] == pytest.approx(skew, rel=1e-14, abs=0)


def test_unit_leverage_lognormal_sabr_matches_hagans_formula():
    # Hagan, Kumar, Lesniewski, Woodward (Wilmott 2002), gamma = 1: with
    # alpha = e^y and nu = delta, the Taylor coefficients of the Black vol
    # at lam = 0 are alpha, rho nu / 2 (lam), (2 - 3 rho^2) nu^2 / (12 alpha)
    # (lam^2) and alpha (rho nu alpha / 4 + (2 - 3 rho^2) nu^2 / 24) (tau).
    # Its lam tau and lam^2 tau terms are not exact, so they are not checked.
    y, nu, rho = -1.0, 0.4, -0.3
    series = iv_series_engine(make_point(beta=1.0, x=0.0, y=y),
                              SabrModel(delta=nu, gamma=1.0, rho=rho).taylor_table(0.0, y, 3), 3)
    summed = lp_sum(*series.terms)
    alpha = math.exp(y)
    assert series.sigma0 == pytest.approx(alpha, rel=1e-15, abs=0)
    hagan = {
        (1, 0): rho * nu / 2.0,
        (2, 0): (2.0 - 3.0 * rho**2) * nu**2 / (12.0 * alpha),
        (0, 1): alpha * (rho * nu * alpha / 4.0 + (2.0 - 3.0 * rho**2) * nu**2 / 24.0),
    }
    for key, want in hagan.items():
        assert summed[key] == pytest.approx(want, rel=1e-13, abs=0), key


# CEV dS = delta S^gamma dW at beta = 1, the ETF itself, from S = 1 (x = 0).
CEV_RATE_MODEL = CevModel(delta=0.3, gamma=0.5)
CEV_RATE_TAUS = (1.0 / 416.0, 1.0 / 208.0, 1.0 / 104.0, 1.0 / 52.0, 1.0 / 26.0)
BRENTQ_XTOL, BRENTQ_RTOL = 1e-16, 8.9e-16


def schroder_cev_call(model, k, tau):
    """Reference: Schroder's noncentral chi^2 call (J. Finance 1989) at S = 1,
    and its own error, each chi^2 probability's cdf against 1 - sf."""
    g = 1.0 - model.gamma
    v = g * g * model.delta**2 * tau
    a, b, c, strike = math.exp(2.0 * g * k) / v, 1.0 / g, 1.0 / v, math.exp(k)
    p1, p2 = ncx2.cdf(a, b + 2.0, c), ncx2.cdf(c, b, a)
    error = abs(p1 - (1.0 - ncx2.sf(a, b + 2.0, c))) + strike * abs(p2 - (1.0 - ncx2.sf(c, b, a)))
    return (1.0 - p1) - strike * p2, error


def scipy_bs_call_and_vega(sigma, k, tau):
    """Black-Scholes at spot 1 from scipy's normal, sharing nothing with letfvol."""
    s = sigma * math.sqrt(tau)
    d_plus = -k / s + 0.5 * s
    return norm.cdf(d_plus) - math.exp(k) * norm.cdf(d_plus - s), norm.pdf(d_plus) * math.sqrt(tau)


def test_unit_leverage_cev_iv_error_falls_at_the_expansions_rate():
    # The order-N series carries the implied vol's expansion in sqrt(tau) at
    # fixed d = lam / (sigma0 sqrt(tau)) through tau^(N/2), so its error is
    # O(tau^((N+1)/2)) (Lorig, Pagliarani, Pascucci, arXiv 1306.5447, the
    # expansion the engine assembles).  At the money sigma_1 and sigma_3 vanish
    # here, so the orders pair up at rates 1, 1, 2, 2.  A straight line through
    # log|error| gave 0.502, 1.004, 1.506, 2.007 at d = -1, 0.498, 0.996, 1.493,
    # 1.992 at d = +1 and 1.0, 1.0, 1.996, 1.996 at d = 0; the next term of the
    # error, one power of sqrt(tau) up, bends that line, so the fit carries it.
    # The tolerance is the half-width of the rate's 99% confidence interval,
    # from the fit's residual, plus the shift the reference's own error allows.
    point = make_point(beta=1.0, x=0.0, y=0.0)
    series = [iv_series_engine(point, CEV_RATE_MODEL.taylor_table(0.0, 0.0, n), n)
              for n in range(MAX_ORDER + 1)]
    log_tau = np.log(CEV_RATE_TAUS)
    design = np.column_stack([np.ones_like(log_tau), log_tau, np.sqrt(CEV_RATE_TAUS)])
    fit = np.linalg.pinv(design)  # least squares: coefficients = fit @ log|error|
    dof = len(log_tau) - design.shape[1]
    rate_variance = np.linalg.inv(design.T @ design)[1, 1] / dof
    for d in (-1.0, 0.0, 1.0):
        errors, noise = [], []
        for tau in CEV_RATE_TAUS:
            k = d * series[0].sigma0 * math.sqrt(tau)
            price, price_error = schroder_cev_call(CEV_RATE_MODEL, k, tau)
            iv = brentq(lambda sigma: scipy_bs_call_and_vega(sigma, k, tau)[0] - price, 1e-3, 2.0,
                        xtol=BRENTQ_XTOL, rtol=BRENTQ_RTOL)
            noise.append(price_error / scipy_bs_call_and_vega(iv, k, tau)[1]
                         + BRENTQ_XTOL + BRENTQ_RTOL * iv)
            errors.append([abs(one.evaluate(k, tau) - iv) for one in series])
        errors, noise = np.array(errors).T, np.array(noise)
        assert (noise < errors).all(), d  # the reference resolves every error
        for n, error in enumerate(errors):
            if d == 0.0 and n % 2:
                assert (error == errors[n - 1]).all()  # sigma_n is 0 at lam = 0
            elif n:
                assert (error < errors[n - 1]).all(), (d, n)
            rate = (n + 2) // 2 if d == 0.0 else (n + 1) / 2
            log_error = np.log(error)
            coeffs = fit @ log_error
            residual = log_error - design @ coeffs
            tol = (student_t.ppf(0.995, dof) * math.sqrt(residual @ residual * rate_variance)
                   + np.abs(fit[1]) @ (noise / error))
            assert coeffs[1] >= rate - tol, (d, n, coeffs[1], tol)


def test_unit_leverage_cev_price_error_falls_at_the_expansions_rate():
    # The price route, with no inversion: the order-N price is the base price
    # plus vega times U_1..U_N, so its error is vega, O(sqrt(tau)) at fixed
    # d, times the implied vol's, O(tau^((N+1)/2)): O(tau^((N+2)/2)), and at
    # the money, where the orders pair up, rates 1.5, 1.5, 2.5, 2.5.  Fitted
    # as the IV test fits its errors: 1.000, 1.500, 2.001, 2.507 at d = -1,
    # 1.000, 1.500, 2.001, 2.508 at d = +1 and 1.500, 1.500, 2.479, 2.479 at
    # d = 0.  The tolerance is the rate's 99% half-width from the fit's
    # residual plus the shift Schroder's cdf against 1 - sf allows.
    table = CEV_RATE_MODEL.taylor_table(0.0, 0.0, MAX_ORDER)
    sigma0 = base_sigma(table, 1.0)
    log_tau = np.log(CEV_RATE_TAUS)
    design = np.column_stack([np.ones_like(log_tau), log_tau, np.sqrt(CEV_RATE_TAUS)])
    fit = np.linalg.pinv(design)
    dof = len(log_tau) - design.shape[1]
    rate_variance = np.linalg.inv(design.T @ design)[1, 1] / dof
    for d in (-1.0, 0.0, 1.0):
        errors, noise = [], []
        for tau in CEV_RATE_TAUS:
            k = d * sigma0 * math.sqrt(tau)
            price, price_error = schroder_cev_call(CEV_RATE_MODEL, k, tau)
            point = make_point(beta=1.0, tau=tau, k=k, z=0.0, x=0.0, y=0.0)
            errors.append([abs(price_uN(point, table, n).total - price) for n in range(MAX_ORDER + 1)])
            noise.append(price_error)
        errors, noise = np.array(errors).T, np.array(noise)
        assert (noise < errors).all(), d  # the reference resolves every error
        for n, error in enumerate(errors):
            if d == 0.0 and n % 2:
                assert (error == errors[n - 1]).all()  # U_n is 0 at lam = 0
            elif n:
                assert (error < errors[n - 1]).all(), (d, n)
            rate = (n // 2) + 1.5 if d == 0.0 else (n + 2) / 2
            log_error = np.log(error)
            coeffs = fit @ log_error
            residual = log_error - design @ coeffs
            tol = (student_t.ppf(0.995, dof) * math.sqrt(residual @ residual * rate_variance)
                   + np.abs(fit[1]) @ (noise / error))
            assert coeffs[1] >= rate - tol, (d, n, coeffs[1], tol)


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
        keys = set(eng.terms[n - 1]) | set(pr.terms[n - 1])
        for key in keys:
            e, p = eng.terms[n - 1].get(key, 0.0), pr.terms[n - 1].get(key, 0.0)
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
        terms.append(lp_sum(s10, s01))
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
        terms.append(lp_sum(s20, s11, s02))
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
        keys = set(eng.terms[n - 1]) | set(pr.terms[n - 1])
        for key in keys:
            e, p = eng.terms[n - 1].get(key, 0.0), pr.terms[n - 1].get(key, 0.0)
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
        sigmas = [lp_eval(series.terms[n - 1], point.lam, tau) for n in range(1, MAX_ORDER + 1)]
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
    # The table-only entries take no named model and no dict either.
    for table in (SabrModel(0.4, 0.5, -0.3), rich_table().entries, {}):
        for call in (lambda: iv_series_engine(make_point(), table, 2),
                     lambda: price_uN(make_point(), table, 2)):
            with pytest.raises(ConfigError):
                call()


@pytest.mark.parametrize("call", [
    lambda: iv_series_engine(make_point(), None, 2),
    lambda: price_uN(make_point(), None, 2),
], ids=["iv_series_engine", "price_uN"])
def test_an_explicit_none_table_raises_config_error(call):
    # None given as the table is a table of the wrong type, not "no table".
    with pytest.raises(ConfigError, match="NoneType"):
        call()


def test_iv_approx_routes_agree():
    model = HestonModel(kappa=1.1, theta=0.04, delta=0.3, rho=-0.6)
    point = make_point(beta=-2.0, tau=0.5, y=-3.0)
    engine = iv_approx(point, model, 3)
    printed = iv_series_printed(model, point, 3).evaluate(point.lam, point.tau)
    assert engine == pytest.approx(printed, rel=1e-10)
    table = model.taylor_table(point.x, point.y, 3)
    assert iv_approx(point, table, 3) == pytest.approx(engine, rel=1e-14, abs=0)
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
# iv_approx: a table or named model keeps the series it last assembled


def smile_points(x, y, beta, tau=0.25, strikes=41):
    return [
        MarketPoint(t=0.0, T=tau, x=x, y=y, z=0.0, k=-0.3 + 0.6 * i / (strikes - 1), beta=beta)
        for i in range(strikes)
    ]


def fresh_iv(point, model, order):
    table = model.taylor_table(point.x, point.y, order)
    return iv_series_engine(point, table, order).evaluate(point.lam, point.tau)


def count_engine_calls(monkeypatch):
    """Route expansion.iv_series_engine through a counter; returns the list it appends to."""
    calls = []
    engine = expansion.iv_series_engine

    def counting_engine(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(expansion, "iv_series_engine", counting_engine)
    return calls


@pytest.mark.parametrize("beta", [-2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(MODEL_TABLES))
def test_iv_approx_reuse_equals_fresh_assembly(kind, beta):
    model, x, y = MODEL_TABLES[kind]
    points = smile_points(x, y, beta)
    for order in range(1, MAX_ORDER + 1):
        want = [fresh_iv(point, model, order) for point in points]
        assert [iv_approx(point, model, order) for point in points] == want
        assert [iv_approx(point, model, order) for point in points] == want


class IntOrder(int):
    """An int subclass: equal to the int it wraps, but not an order."""


def test_iv_approx_checks_the_order_before_reuse(monkeypatch):
    calls = count_engine_calls(monkeypatch)
    model, x, y = MODEL_TABLES["sabr"]
    model = model._replace()
    point = smile_points(x, y, -2.0)[20]
    for kept in (1, MAX_ORDER):
        want = iv_approx(point, model, kept)
        # 1.0 == 1 and both hash alike, as does IntOrder(1): a key without
        # the order's type would return the kept series.
        for order in (float(kept), kept + 0.5, IntOrder(kept), MAX_ORDER + 1, MAX_ORDER + 1):
            with pytest.raises(DomainError):
                iv_approx(point, model, order)
        # The raising calls leave the kept series in place.
        assert iv_approx(point, model, kept) == want
    assert len(calls) == 2


def bool_order_calls():
    model = SabrModel(0.4, 0.5, -0.3)
    point = make_point(beta=-2.0, x=0.0, y=-1.0)
    return {
        # Order 1 first: True equals 1, so a lookup before the order check
        # would return the order-1 series the model keeps.
        "iv_approx": lambda: (iv_approx(point, model, 1), iv_approx(point, model, True)),
        "iv_series_engine": lambda: iv_series_engine(point, model.taylor_table(0.0, -1.0, 1), True),
        "iv_series_printed": lambda: iv_series_printed(model, point, True),
        "price_uN": lambda: price_uN(point, model.taylor_table(0.0, -1.0, 1), True),
    }


@pytest.mark.parametrize("name", sorted(bool_order_calls()))
def test_bool_order_raises_domain_error(name):
    with pytest.raises(DomainError):
        bool_order_calls()[name]()


def test_iv_approx_follows_every_key_component():
    model, x, y = MODEL_TABLES["sabr"]
    base = MarketPoint(t=0.0, T=0.25, x=x, y=y, z=0.0, k=0.1, beta=-2.0)
    before = iv_approx(base, model, 3)
    for change in ({"x": x + 0.1}, {"y": y + 0.2}, {"beta": 3.0}):
        point = base._replace(**change)
        got = iv_approx(point, model, 3)
        assert got == fresh_iv(point, model, 3), change
        assert got != before, change
    for kind in sorted(MODEL_TABLES):
        model, x, y = MODEL_TABLES[kind]
        point = base._replace(x=x, y=y)
        before = iv_approx(point, model, 3)
        for name in model._fields:
            changed = model._replace(**{name: 1.1 * getattr(model, name)})
            got = iv_approx(point, changed, 3)
            assert got == fresh_iv(point, changed, 3), (kind, name)
            assert got != before, (kind, name)


def test_iv_approx_assembles_once_per_smile(monkeypatch):
    calls = count_engine_calls(monkeypatch)
    model, x, y = MODEL_TABLES["sabr"]
    # A fresh instance: the shared one may keep a series from another test.
    model = model._replace()
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


@pytest.mark.parametrize("kind", sorted(MODEL_TABLES))
def test_iv_approx_on_a_table_assembles_once_per_smile(kind, monkeypatch):
    model, x, y = MODEL_TABLES[kind]
    points = smile_points(x, y, -2.0)
    want = [fresh_iv(point, model, MAX_ORDER) for point in points]
    table = model.taylor_table(x, y, MAX_ORDER)
    calls = count_engine_calls(monkeypatch)
    # Bit for bit what a fresh assembly gives, from one assembly.
    assert [iv_approx(point, table, MAX_ORDER) for point in points] == want
    assert len(calls) == 1
    # Another beta or order replaces the kept series.
    for point, order in ((points[0]._replace(beta=3.0), MAX_ORDER), (points[0], 2)):
        assert iv_approx(point, table, order) == fresh_iv(point, model, order)
    assert len(calls) == 3


def test_kept_series_leaves_equality_hash_repr_and_replace_alone(monkeypatch):
    model, x, y = MODEL_TABLES["heston"]
    model, fresh = model._replace(), model._replace()
    text, digest = repr(fresh), hash(fresh)
    point = smile_points(x, y, 2.0)[10]
    iv_approx(point, model, MAX_ORDER)
    assert "_series" in vars(model)
    assert model == fresh and hash(model) == digest and repr(model) == text
    assert model._asdict() == fresh._asdict() and len(model) == len(model._fields) == 4
    # Sharing is per instance: an equal copy starts cold and assembles its own.
    copy = model._replace()
    assert copy == model and "_series" not in vars(copy)
    calls = count_engine_calls(monkeypatch)
    assert iv_approx(point, copy, MAX_ORDER) == iv_approx(point, model, MAX_ORDER)
    assert len(calls) == 1


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


def sabr_series():
    """The order-3 SABR(0.4, 0.5, -0.3) series at (x, y) = (0, -1), beta = -2."""
    table = SabrModel(0.4, 0.5, -0.3).taylor_table(0.0, -1.0, 3)
    return iv_series_engine(make_point(beta=-2.0), table, 3)


def canonical_series():
    root = Path(__file__).resolve().parent.parent / "perfbench" / "canonical"
    return [IvSeries.from_json(path.read_text()) for path in sorted(root.glob("*.json"))]


def test_series_evaluate_matches_the_term_sum():
    # Horner on the summed table against sigma0 + sum of lp_eval per term,
    # on a quotes-like grid: lam = d sigma0 sqrt(tau), |d| <= 2.5.
    series_list = canonical_series() + [sabr_series()]
    assert len(series_list) == 58
    taus = [1.0 / 52.0, 1.0 / 12.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0]
    worst = 0.0
    for series in series_list:
        for tau in taus:
            for i in range(41):
                lam = (-2.5 + 0.125 * i) * series.sigma0 * math.sqrt(tau)
                want = series.sigma0 + sum(lp_eval(term, lam, tau) for term in series.terms)
                worst = max(worst, abs(series.evaluate(lam, tau) - want) / abs(want))
    assert worst <= 1e-15


def row_horner_evaluate(series, lam, tau):
    """Oracle: ``IvSeries.evaluate`` as it ran on a table of rows.  The terms
    sum into row tau_power, column lam_power of an order-sized table; rows run
    from tau power ``series.order`` down to 0, each from its top lam power."""
    n = series.order
    rows = [[0.0] * (n + 1 - tp) for tp in range(n + 1)]
    for term in series.terms:
        for (lp, tp), coeff in term.items():
            rows[tp][n - tp - lp] += coeff
    value = 0.0
    for row in reversed(rows):
        acc = 0.0
        for coeff in row:
            acc = acc * lam + coeff
        value = value * tau + acc
    value += series.sigma0
    if not math.isfinite(value):
        raise DomainError(f"series value overflows at lam={lam}, tau={tau}")
    return value


def outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except DomainError as exc:
        return str(exc)


@st.composite
def random_series(draw):
    """Series of every order up to MAX_ORDER, each cell in one or two terms.
    Half have cells and sigma0 of any finite size, subnormal and near the
    float maximum included; half have cells of one size from a seeded
    generator and a sigma0 below them, so that each sum rounds and keeps it."""
    order = draw(st.integers(0, MAX_ORDER))
    rng = draw(st.randoms(use_true_random=True))
    any_size = draw(st.booleans())
    finite = st.floats(allow_nan=False, allow_infinity=False)
    terms = [{} for _ in range(order)]
    for tp in range(order + 1 if order else 0):
        for lp in range(order + 1 - tp):
            for n in draw(st.sets(st.integers(0, order - 1), min_size=1, max_size=2)):
                terms[n][lp, tp] = draw(finite) if any_size else rng.uniform(-1.0, 1.0)
    sigma0 = (draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)) if any_size
              else 10.0 ** rng.uniform(-300.0, 0.0))
    return IvSeries(sigma0=sigma0, terms=tuple(terms))


# |lam| and tau from MIN_TAU to 1e200, spread over their decades.
DECADES = st.floats(math.log10(MIN_TAU), 200.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(series=random_series(), rng=st.randoms(use_true_random=True),
       points=st.lists(st.tuples(st.one_of(DECADES, DECADES.map(float.__neg__)), DECADES), max_size=8))
def test_series_evaluate_matches_the_row_horner_oracle(series, rng, points):
    # The padded cells below the top order add exact zeros: the same float,
    # or the same overflow error.  Points below 2 keep terms of one size.
    points += [(rng.uniform(-2.0, 2.0), rng.uniform(MIN_TAU, 2.0)) for _ in range(8)]
    for lam, tau in points:
        assert outcome(series.evaluate, lam, tau) == outcome(row_horner_evaluate, series, lam, tau)


def test_series_evaluate_reads_every_cell_of_the_top_order():
    # One distinct integer per cell and integer (lam, tau): every sum is
    # exact, so a cell the expression leaves out, as it would if MAX_ORDER
    # grew past the cells it unpacks, shows as an unequal value.
    keys = [(lp, tp) for tp in range(MAX_ORDER + 1) for lp in range(MAX_ORDER + 1 - tp)]
    series = IvSeries(sigma0=0.5, terms=tuple(
        {key: float(i + 1) for i, key in enumerate(keys) if i % MAX_ORDER == n}
        for n in range(MAX_ORDER)))
    assert sum(map(len, series.terms)) == len(keys)
    for lam, tau in [(2.0, 3.0), (-3.0, 2.0), (5.0, 7.0)]:
        want = 0.5 + sum(float(i + 1) * lam**lp * tau**tp for i, (lp, tp) in enumerate(keys))
        assert series.evaluate(lam, tau) == want == row_horner_evaluate(series, lam, tau)


def test_series_rejects_more_terms_than_max_order():
    terms = ({(1, 0): 0.1},) + ({},) * (MAX_ORDER - 1) + ({(MAX_ORDER + 1, 0): 1e-3},)
    with pytest.raises(DomainError, match=f"at most {MAX_ORDER} terms"):
        IvSeries(sigma0=0.2, terms=terms)
    payload = {"sigma0": 0.2, "terms": [{"n": n, "coeffs": []} for n in range(1, MAX_ORDER + 2)]}
    with pytest.raises(ConfigError, match=f"at most {MAX_ORDER} terms"):
        IvSeries.from_json(json.dumps(payload))
    IvSeries.from_json(json.dumps({**payload, "terms": payload["terms"][:MAX_ORDER]}))


def test_series_terms_are_read_only_copies():
    # iv_approx hands one cached series to every caller: an edit must not
    # reach it, nor leave evaluate apart from terms, == and to_json.
    term = {(0, 1): 0.1}
    series = IvSeries(sigma0=0.2, terms=(term,))
    text = series.to_json()
    term[1, 0] = 5.0
    with pytest.raises(TypeError):
        series.terms[0][0, 1] = math.nan
    assert series.terms == ({(0, 1): 0.1},)
    assert series == IvSeries(sigma0=0.2, terms=({(0, 1): 0.1},))
    assert series.to_json() == text
    assert series.evaluate(1.0, 1.0) == pytest.approx(0.3, rel=1e-15, abs=0)


@pytest.mark.parametrize(
    "terms",
    [({(1, 1): 0.1},), ({(0, 1): 0.1}, {(3, 0): 0.2}), ({(-1, 1): 0.1},), ({(1, -1): 0.1},)],
    ids=["degree-2-in-order-1", "degree-3-in-order-2", "negative-lam", "negative-tau"],
)
def test_series_rejects_keys_beyond_total_degree(terms):
    with pytest.raises(DomainError):
        IvSeries(sigma0=0.2, terms=terms)


@pytest.mark.parametrize("sigma0", [-0.5, 0.0, math.nan, math.inf])
def test_series_rejects_a_sigma0_that_is_not_finite_and_positive(sigma0):
    # Unchecked, -0.5 would evaluate to a negative implied vol.
    with pytest.raises(DomainError, match="sigma0"):
        IvSeries(sigma0=sigma0, terms=())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_series_rejects_a_coefficient_that_is_not_finite(value):
    # Unchecked, evaluate would report a nan coefficient as an overflow.
    with pytest.raises(DomainError, match="finite"):
        IvSeries(sigma0=0.2, terms=({(0, 1): 0.1, (1, 0): value},))


def test_series_keeps_its_numbers_as_floats():
    # A float32 coefficient was kept and summed as given: evaluate returned
    # a single-precision numpy scalar, and to_json raised a bare TypeError.
    for sigma0, value in ((0.2, np.float32(0.1)), (Fraction(1, 5), Fraction(1, 10)),
                          (np.float32(0.2), 1)):
        series = IvSeries(sigma0, ({(0, 1): value},))
        assert type(series.sigma0) is float and type(series.terms[0][0, 1]) is float
        got = series.evaluate(0.1, 0.3)
        assert type(got) is float
        assert got == pytest.approx(float(sigma0) + 0.3 * float(value), rel=1e-15, abs=0)
        assert IvSeries.from_json(series.to_json()) == series
    # A sigma0 whose float rounds to 0.0 is not positive.
    with pytest.raises(DomainError, match="positive"):
        IvSeries(Fraction(1, 10**400), ())


def test_series_overflow_raises_domain_error():
    series = sabr_series()
    for lam, tau in [(1e200, 0.25), (0.1, 1e200)]:
        with pytest.raises(DomainError):
            series.evaluate(lam, tau)
    with pytest.raises(DomainError):
        iv_approx(make_point(beta=-2.0, tau=1e200, y=-1.0, x=0.0), SabrModel(0.4, 0.5, -0.3), 3)


@pytest.mark.parametrize(
    "model, y, beta, tau",
    [
        # Horner's rule overflows to inf in tau, and gives nan where tau^-2
        # underflows to 0.
        (SabrModel(0.4, 0.5, -0.3), -1.0, -2.0, 1e200),
        # tau^5 stays finite, its product with the coefficient does not,
        # and vega is 0: 0 * inf gives a nan term.
        (SabrModel(2.0, 0.9, -0.9), 1.0, 3.0, 4e61),
    ],
    ids=["overflow", "nan"],
)
def test_price_uN_out_of_float_range_raises_domain_error(model, y, beta, tau):
    point = make_point(beta=beta, tau=tau, k=0.0, x=0.0, y=y)
    with pytest.raises(DomainError):
        price_uN(point, model.taylor_table(0.0, y, 3), 3)


def test_series_evaluate_guards_tiny_tau():
    series = iv_series_engine(make_point(), rich_table(), 2)
    with pytest.raises(DomainError):
        series.evaluate(0.1, 0.0)
    with pytest.raises(DomainError):
        series.evaluate(0.1, MIN_TAU / 10.0)
    for lam, tau in ((math.nan, 0.25), (math.inf, 0.25), (-math.inf, 0.25), (0.1, math.inf),
                     ("0.1", 0.25), (True, 0.25), (0.1, "0.25"), (0.1, 10**400)):
        with pytest.raises(DomainError):
            series.evaluate(lam, tau)


def test_series_json_round_trip():
    series = iv_series_engine(make_point(beta=-3.0), rich_table(), MAX_ORDER)
    back = IvSeries.from_json(series.to_json())
    assert back == series
    assert back.sigma0 == series.sigma0
    assert back.terms == series.terms
    # The reader keeps its own dicts without a copy, read-only all the same.
    assert back.evaluate(0.1, 0.3) == series.evaluate(0.1, 0.3)
    with pytest.raises(TypeError):
        back.terms[0][0, 1] = math.nan
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
        '{"sigma0": 0.4, "terms": [{"n": 1, "coeffs": [{"lam_pow": 1, "tau_pow": 1, "value": 0.1}]}]}',
        '{"sigma0": NaN, "terms": []}',
        '{"sigma0": -0.2, "terms": []}',
        '{"sigma0": 0.4, "terms": [{"n": 1, "coeffs": [{"lam_pow": 1, "tau_pow": 0, "value": Infinity}]}]}',
        '{"sigma0": 0.4, "terms": [{"n": 1, "coeffs": [{"lam_pow": 1, "tau_pow": 0, "value": NaN}]}]}',
    ],
)
def test_series_json_rejects_malformed(text):
    with pytest.raises(ConfigError):
        IvSeries.from_json(text)


def canonical_payload():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "canonical" / "sabr_m2_o1.json"
    return json.loads(path.read_text())


def set_sigma0(payload, bad):
    payload["sigma0"] = bad


def set_value(payload, bad):
    payload["terms"][0]["coeffs"][0]["value"] = bad


def set_n(payload, bad):
    payload["terms"][0]["n"] = bad


@pytest.mark.parametrize(
    "mutate, bad",
    [
        (set_sigma0, True),
        (set_sigma0, "0.3"),
        (set_sigma0, 10**400),
        (set_value, "1e-3"),
        (set_value, True),
        (set_value, 10**400),
        (set_n, 1.0),
        (set_n, True),
    ],
    ids=["sigma0-true", "sigma0-string", "sigma0-huge-int", "value-string", "value-true",
         "value-huge-int", "n-float", "n-true"],
)
def test_series_json_rejects_what_to_json_never_writes(mutate, bad):
    payload = canonical_payload()
    IvSeries.from_json(json.dumps(payload))
    mutate(payload, bad)
    with pytest.raises(ConfigError):
        IvSeries.from_json(json.dumps(payload))


def test_series_json_reads_integer_numbers_as_floats():
    payload = canonical_payload()
    set_sigma0(payload, 1)
    set_value(payload, 0)
    series = IvSeries.from_json(json.dumps(payload))
    assert type(series.sigma0) is float and series.sigma0 == 1.0
    assert all(type(v) is float for v in series.terms[0].values())
