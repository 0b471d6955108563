"""Tests for model definitions, Taylor tables, the market point, the
Heston leverage map and the validated value-object contract."""

import copy
import math
import pickle
import struct
from fractions import Fraction

import numpy as np
import pytest

from letfvol.blackscholes import BsInputs
from letfvol import models
from letfvol.errors import ConfigError, DomainError, StructuralError
from letfvol.expansion import IvSeries, iv_approx
from letfvol.models import (
    CevModel,
    HestonModel,
    MarketPoint,
    SabrModel,
    TaylorTable,
    check_beta,
    heston_beta_map,
)

# Desk parameter sets used throughout the suite.
CEV = CevModel(delta=0.2, gamma=-0.75)
HESTON = HestonModel(kappa=1.15, theta=0.04, delta=0.2, rho=-0.4)
SABR = SabrModel(delta=0.5, gamma=-0.5, rho=0.0)


def coefficient_functions(model):
    """The generator coefficients (a, b, c, f) as plain callables of (x, y)."""
    if isinstance(model, CevModel):
        return (
            lambda x, y: 0.5 * model.delta**2 * math.exp(2 * (model.gamma - 1) * x),
            lambda x, y: 0.0,
            lambda x, y: 0.0,
            lambda x, y: 0.0,
        )
    if isinstance(model, HestonModel):
        return (
            lambda x, y: 0.5 * math.exp(y),
            lambda x, y: 0.5 * model.delta**2 * math.exp(-y),
            lambda x, y: (model.kappa * model.theta - 0.5 * model.delta**2)
            * math.exp(-y)
            - model.kappa,
            lambda x, y: model.rho * model.delta,
        )
    if isinstance(model, SabrModel):
        return (
            lambda x, y: 0.5 * math.exp(2 * y + 2 * (model.gamma - 1) * x),
            lambda x, y: 0.5 * model.delta**2,
            lambda x, y: -0.5 * model.delta**2,
            lambda x, y: model.rho * model.delta * math.exp(y + (model.gamma - 1) * x),
        )
    raise AssertionError(f"no coefficient functions for {model}")


def fd_stencil(func, x, y, i, j, h):
    if i > 0:
        return (
            fd_stencil(func, x + h, y, i - 1, j, h) - fd_stencil(func, x - h, y, i - 1, j, h)
        ) / (2 * h)
    if j > 0:
        return (
            fd_stencil(func, x, y + h, i, j - 1, h) - fd_stencil(func, x, y - h, i, j - 1, h)
        ) / (2 * h)
    return func(x, y)


def fd_partial(func, x, y, i, j, h=2e-2):
    """Oracle: mixed (i, j) partial derivative, Richardson-extrapolated central
    stencils (leading h^2 error cancelled)."""
    coarse = fd_stencil(func, x, y, i, j, h)
    fine = fd_stencil(func, x, y, i, j, h / 2)
    return (4 * fine - coarse) / 3


# ---------------------------------------------------------------------------
# tables


def test_cev_table_values():
    table = CEV.taylor_table(0.0, 0.0, 3)
    assert table.get("a", 0, 0) == pytest.approx(0.02)
    assert table.get("a", 1, 0) == pytest.approx(-0.07)
    assert table.get("a", 2, 0) == pytest.approx(0.1225)
    assert table.get("b", 0, 0) == 0.0
    assert table.get("c", 0, 1) == 0.0
    assert table.get("f", 1, 1) == 0.0


def test_heston_table_values():
    y0 = math.log(HESTON.theta)
    table = HESTON.taylor_table(0.0, y0, 2)
    assert table.get("a", 0, 0) == pytest.approx(0.02)
    assert table.get("a", 0, 1) == pytest.approx(0.02)
    assert table.get("a", 0, 2) == pytest.approx(0.01)
    assert table.get("b", 0, 0) == pytest.approx(0.5)
    assert table.get("b", 0, 1) == pytest.approx(-0.5)
    assert table.get("c", 0, 0) == pytest.approx(0.65 - 1.15)
    assert table.get("c", 0, 1) == pytest.approx(-0.65)
    assert table.get("f", 0, 0) == pytest.approx(-0.08)
    assert table.get("a", 1, 0) == 0.0


def test_sabr_table_values():
    table = SABR.taylor_table(0.0, -1.5, 2)
    a00 = 0.5 * math.exp(-3.0)
    assert table.get("a", 0, 0) == pytest.approx(a00)
    assert table.get("a", 1, 0) == pytest.approx(-3.0 * a00)
    assert table.get("a", 0, 1) == pytest.approx(2.0 * a00)
    assert table.get("a", 1, 1) == pytest.approx(-6.0 * a00)
    assert table.get("b", 0, 0) == pytest.approx(0.125)
    assert table.get("c", 0, 0) == pytest.approx(-0.125)
    assert table.get("f", 0, 0) == 0.0  # rho = 0 profile


@pytest.mark.parametrize(
    "model,point",
    [
        (CEV, (0.1, 0.0)),
        (HESTON, (0.0, math.log(0.04))),
        (SabrModel(delta=0.5, gamma=-0.5, rho=-0.3), (0.05, -1.4)),
    ],
)
def test_tables_match_finite_differences(model, point):
    x, y = point
    order = 3
    table = model.taylor_table(x, y, order)
    funcs = dict(zip("abcf", coefficient_functions(model)))
    for name, func in funcs.items():
        for i in range(order + 1):
            for j in range(order + 1 - i):
                norm = math.factorial(i) * math.factorial(j)
                want = fd_partial(func, x, y, i, j) / norm
                got = table.get(name, i, j)
                assert got == pytest.approx(want, rel=2e-5, abs=1e-7), (name, i, j)


def test_table_extent_enforced():
    table = CEV.taylor_table(0.0, 0.0, 2)
    with pytest.raises(StructuralError):
        table.get("a", 2, 1)
    with pytest.raises(StructuralError):
        table.get("q", 0, 0)


def test_table_requires_positive_a00():
    with pytest.raises(DomainError):
        TaylorTable(extent=1, entries={"a": {(0, 0): 0.0}})


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("family", ["a", "b", "c", "f"])
def test_table_rejects_non_finite_entries(family, value):
    # Unchecked, a NaN f(0,0) left iv_approx at the flat sigma0 and price_uN at NaN.
    entries = {"a": {(0, 0): 0.02}, "b": {}, "c": {}, "f": {}}
    entries[family][(0, 1)] = value
    with pytest.raises(DomainError):
        TaylorTable(extent=3, entries=entries)


def test_table_copies_the_callers_entries():
    # The table neither adds families to the caller's dict nor sees the
    # caller's later edits, which would skip its checks.
    family = {(0, 0): 0.02}
    entries = {"a": family}
    table = TaylorTable(extent=1, entries=entries)
    assert entries == {"a": {(0, 0): 0.02}}
    family[1, 0] = math.nan
    entries["F"] = {(0, 0): 0.1}
    assert table.get("a", 1, 0) == 0.0
    assert set(table.entries) == set("abcf")


def test_table_is_read_only():
    table = CEV.taylor_table(0.0, 0.0, 2)
    with pytest.raises(TypeError):
        table.entries["F"] = {(0, 0): 0.1}
    with pytest.raises(TypeError):
        table.entries["a"][0, 1] = math.nan
    for name, value in (("entries", {}), ("extent", 5)):
        with pytest.raises(AttributeError):
            setattr(table, name, value)


@pytest.mark.parametrize(
    "extent, entries",
    [
        # A misspelled family is never read: its terms would be dropped.
        (1, {"a": {(0, 0): 0.02}, "F": {(0, 0): 0.1}}),
        (1, {"a": {(0, 0): 0.02, (3, 0): 0.1}}),
        (1, {"a": {(0, 0): 0.02, (-1, 0): 0.1}}),
        (2.5, {"a": {(0, 0): 0.02}}),
        (-1, {"a": {(0, 0): 0.02}}),
        (True, {"a": {(0, 0): 0.02}}),
        # A key that is not a pair of ints is never read, or cannot be unpacked.
        (1, {"a": {(0, 0): 0.02, (0.5, 0): 1.0}}),
        (1, {"a": {(0, 0): 0.02, 0: 1.0}}),
        (1, {"a": {(0, 0): 0.02, True: 1.0}}),
        (1, {"a": {(0, 0): 0.02, (True, 0): 1.0}}),
        (1, {"a": {(0, 0): 0.02, (0, 0, 0): 1.0}}),
        # A value that is not a real number, or is a bool.
        (1, {"a": {(0, 0): True}}),
        (1, {"a": {(0, 0): 0.02, (1, 0): False}}),
        (1, {"a": {(0, 0): 0.02, (1, 0): "0.1"}}),
        (1, {"a": {(0, 0): 0.02, (1, 0): 0.1j}}),
        (1, {"a": {(0, 0): 0.02, (1, 0): None}}),
        # Entries or a family that is not a mapping.
        (1, 0),
        (1, None),
        (1, {"a": 5}),
        (1, {"a": {(0, 0): 0.02}, "b": [((0, 0), 0.1)]}),
    ],
    ids=["family-F", "key-beyond-extent", "negative-key", "extent-2.5", "extent--1", "extent-true",
         "key-0.5", "key-int", "key-bool", "key-bool-pair", "key-triple",
         "value-true-a00", "value-false", "value-str", "value-complex", "value-none",
         "entries-0", "entries-none", "family-int", "family-pairs"],
)
def test_table_rejects_what_the_expansion_never_reads(extent, entries):
    with pytest.raises(DomainError):
        TaylorTable(extent=extent, entries=entries)


def test_gamma_one_collapses_to_flat_vol():
    table = CevModel(delta=0.3, gamma=1.0).taylor_table(0.0, 0.0, 3)
    assert table.get("a", 0, 0) == pytest.approx(0.045)
    for i in range(1, 4):
        assert table.get("a", i, 0) == 0.0


def taylor_rule(order, x, y, **families):
    """Oracle: the Taylor rule cell by cell, w p^i q^j / (i! j!) for every (i, j) of every
    term, zero slopes included, a cell left out while its sum is 0."""
    entries = {}
    for name, terms in families.items():
        family = entries[name] = {}
        for c, p, q in terms:
            w = c * math.exp(p * x + q * y)
            for i in range(order + 1):
                for j in range(order + 1 - i):
                    value = w * p**i * q**j / (math.factorial(i) * math.factorial(j))
                    if value:
                        family[i, j] = family.get((i, j), 0.0) + value
    return entries


@pytest.mark.parametrize("order", [0, 1, 3])
def test_taylor_rule_skips_only_zero_cells(order):
    # A zero x slope zeroes every i > 0 and a zero y slope every j > 0, so the
    # table stops those loops at 0; it must hold what the whole rule gives,
    # bit for bit.
    families = dict(a=[(0.5, 0, 1.0), (0.3, -1.5, 0), (0.2, 0.0, -0.0)], b=[(0.2, 0, 0)],
                    c=[(0.1, 2.0, -1.0), (-0.4, 0, 0.5)], f=[(0.4, -0.7, 0.0)])
    for x, y in ((0.0, 0.0), (0.3, -1.2)):
        table = models._taylor_table(order, x, y, **families)
        assert {name: dict(family) for name, family in table.entries.items()} == taylor_rule(
            order, x, y, **families)
    cev = CevModel(delta=0.3, gamma=1.0)
    assert dict(cev.taylor_table(0.2, 0.0, 3).entries["a"]) == taylor_rule(
        3, 0.2, 0.0, a=[(0.5 * 0.3**2, 0.0, 0)])["a"]


def test_model_parameter_validation():
    with pytest.raises(DomainError):
        CevModel(delta=-0.1, gamma=0.5)
    with pytest.raises(DomainError):
        CevModel(delta=0.2, gamma=1.5)
    with pytest.raises(DomainError):
        HestonModel(kappa=1.0, theta=-0.04, delta=0.2, rho=0.0)
    with pytest.raises(DomainError):
        HestonModel(kappa=1.0, theta=0.04, delta=0.2, rho=1.0)
    with pytest.raises(DomainError):
        SabrModel(delta=0.5, gamma=2.0, rho=0.0)
    nan, inf = math.nan, math.inf
    for bad in (
        dict(delta=0.2, gamma=nan),
        dict(delta=0.2, gamma=-inf),
        dict(delta=inf, gamma=0.5),
        dict(delta=nan, gamma=0.5),
    ):
        with pytest.raises(DomainError):
            CevModel(**bad)
        with pytest.raises(DomainError):
            SabrModel(rho=0.0, **bad)
    for bad in (dict(kappa=inf), dict(theta=inf), dict(delta=inf)):
        with pytest.raises(DomainError):
            HestonModel(**{**dict(kappa=1.0, theta=0.04, delta=0.2, rho=0.0), **bad})
    # A model's table takes the table's extent rule, checked before any loop.
    for model in (CEV, HESTON, SABR):
        for order in (2.0, True, -1, "2"):
            with pytest.raises(DomainError, match="extent"):
                model.taylor_table(0.0, -3.0, order)
    # The leverage map is Heston's alone.
    for model in (CEV, SABR, object()):
        with pytest.raises(ConfigError):
            heston_beta_map(model, -3.0, 2.0)


# ---------------------------------------------------------------------------
# market point


def test_market_point_basics():
    point = MarketPoint(t=0.25, T=1.0, x=0.0, y=-1.0, z=0.1, k=0.3, beta=2.0)
    assert point.tau == pytest.approx(0.75)
    assert point.lam == pytest.approx(0.2)


def test_market_point_validation():
    with pytest.raises(DomainError):
        MarketPoint(t=1.0, T=1.0, x=0, y=0, z=0, k=0, beta=2)
    with pytest.raises(DomainError):
        MarketPoint(t=0.0, T=1.0, x=0, y=0, z=0, k=0, beta=0.0)
    with pytest.warns(UserWarning):
        MarketPoint(t=0.0, T=1.0, x=0, y=0, z=0, k=0, beta=1.5)


BEYOND_FLOAT = Fraction(10**400)


@pytest.mark.parametrize(
    "build",
    [
        lambda: check_beta(BEYOND_FLOAT),
        lambda: MarketPoint(t=0.0, T=1.0, x=0.0, y=0.0, z=0.0, k=0.0, beta=BEYOND_FLOAT),
        lambda: heston_beta_map(HESTON, -3.0, BEYOND_FLOAT),
        lambda: MarketPoint(t=0.0, T=1.0, x=BEYOND_FLOAT, y=0.0, z=0.0, k=0.0, beta=2.0),
        lambda: TaylorTable(extent=1, entries={"a": {(0, 0): 0.02, (1, 0): BEYOND_FLOAT}}),
        lambda: TaylorTable(extent=0, entries={"a": {(0, 0): BEYOND_FLOAT}}),
        lambda: CevModel(delta=10**400, gamma=0.5),
        lambda: HestonModel(kappa=10**400, theta=0.04, delta=0.2, rho=0.0),
        lambda: SabrModel(delta=0.5, gamma=-(10**400), rho=0.0),
    ],
    ids=["check_beta", "point-beta", "heston_beta_map", "point-x", "table-entry", "table-a00",
         "cev-int-delta", "heston-int-kappa", "sabr-int-gamma"],
)
def test_numbers_beyond_the_float_range_raise_domain_error(build):
    # The finiteness checks convert to float; the conversion overflows.
    with pytest.raises(DomainError):
        build()


def test_exact_numbers_within_the_float_range_are_accepted():
    tiny = Fraction(1, 10**400)  # converts to 0.0
    point = MarketPoint(t=0.0, T=1.0, x=Fraction(1, 3), y=tiny, z=0.0, k=0.0, beta=Fraction(2))
    assert point.x == Fraction(1, 3) and point.y == tiny
    table = TaylorTable(extent=1, entries={"a": {(0, 0): Fraction(1, 3), (1, 0): tiny}})
    assert table.get("a", 1, 0) == tiny
    assert CevModel(delta=Fraction(1, 3), gamma=tiny).gamma == tiny


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["t", "T", "x", "y", "z", "k", "beta"])
def test_market_point_rejects_non_finite_fields(field, value):
    fields = dict(t=0.0, T=1.0, x=0.0, y=-1.0, z=0.0, k=0.1, beta=2.0)
    fields[field] = value
    with pytest.raises(DomainError):
        MarketPoint(**fields)


# ---------------------------------------------------------------------------
# leverage map


def test_heston_beta_map_example():
    mapped, y = heston_beta_map(HESTON, math.log(0.04), beta=-2.0)
    assert mapped.kappa == pytest.approx(1.15)
    assert mapped.theta == pytest.approx(0.16)
    assert mapped.delta == pytest.approx(0.4)
    assert mapped.rho == pytest.approx(0.4)
    assert y == pytest.approx(math.log(0.04) + math.log(4.0))


def test_heston_beta_map_identity_and_sign():
    mapped, y = heston_beta_map(HESTON, -3.0, beta=1.0)
    assert mapped == HESTON and y == -3.0
    flipped, _ = heston_beta_map(HESTON, -3.0, beta=-1.0)
    assert flipped.rho == pytest.approx(0.4)
    assert flipped.theta == pytest.approx(HESTON.theta)


def test_heston_beta_map_state_consistency():
    # The mapped variance e^(mapped y) must equal beta^2 e^y.
    y = -2.7
    _, y_mapped = heston_beta_map(HESTON, y, beta=-3.0)
    assert math.exp(y_mapped) == pytest.approx(9.0 * math.exp(y))


# ---------------------------------------------------------------------------
# value objects: validated named tuples


# Per class: a fixed instance, its repr as the frozen dataclasses printed it,
# its field names in their order, and a _replace that breaks a check.
VALUE_OBJECTS = {
    "MarketPoint": (
        lambda: MarketPoint(t=0.0, T=0.75, x=0.05, y=-2.0, z=0.0, k=0.12, beta=2.0),
        "MarketPoint(t=0.0, T=0.75, x=0.05, y=-2.0, z=0.0, k=0.12, beta=2.0)",
        ("t", "T", "x", "y", "z", "k", "beta"),
        {"T": 0.0},
    ),
    "TaylorTable": (
        lambda: TaylorTable(extent=1, entries={"a": {(0, 0): 0.02, (1, 0): 0.01}}),
        "TaylorTable(extent=1, entries=mappingproxy({'a': mappingproxy({(0, 0): 0.02, "
        "(1, 0): 0.01}), 'b': mappingproxy({}), 'c': mappingproxy({}), 'f': mappingproxy({})}))",
        ("extent", "entries"),
        {"extent": 0},
    ),
    "CevModel": (
        lambda: CevModel(delta=0.2, gamma=0.5),
        "CevModel(delta=0.2, gamma=0.5)",
        ("delta", "gamma"),
        {"gamma": 1.5},
    ),
    "HestonModel": (
        lambda: HestonModel(kappa=1.15, theta=0.04, delta=0.2, rho=-0.4),
        "HestonModel(kappa=1.15, theta=0.04, delta=0.2, rho=-0.4)",
        ("kappa", "theta", "delta", "rho"),
        {"rho": 1.0},
    ),
    "SabrModel": (
        lambda: SabrModel(delta=0.4, gamma=0.5, rho=-0.3),
        "SabrModel(delta=0.4, gamma=0.5, rho=-0.3)",
        ("delta", "gamma", "rho"),
        {"delta": math.nan},
    ),
    "IvSeries": (
        lambda: IvSeries(sigma0=0.3, terms=({(1, 0): 0.01, (0, 1): -0.02},)),
        "IvSeries(sigma0=0.3, terms=(mappingproxy({(1, 0): 0.01, (0, 1): -0.02}),))",
        ("sigma0", "terms"),
        {"terms": ({(2, 0): 0.01},)},
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_OBJECTS))
def test_value_object_contract(name):
    build, text, fields, bad = VALUE_OBJECTS[name]
    value = build()
    assert repr(value) == text
    assert value._fields == fields and tuple(value) == tuple(getattr(value, f) for f in fields)
    assert value._replace() == value and type(value._replace()) is type(value)
    assert type(value)._make(value) == value
    with pytest.raises(DomainError):
        value._replace(**bad)
    with pytest.raises(DomainError):
        type(value)._make({**value._asdict(), **bad}.values())
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert repr(value) == text and vars(value).keys() <= {"_cells"}


# Per class: a valid instance and, for each numeric field, how to put a bad
# number there, as a dict of field replacements.
NUMBER_FIELDS = {
    "MarketPoint": (VALUE_OBJECTS["MarketPoint"][0], {
        name: (lambda bad, name=name: {name: bad}) for name in ("t", "T", "x", "y", "z", "k", "beta")
    }),
    "TaylorTable": (VALUE_OBJECTS["TaylorTable"][0], {
        "extent": lambda bad: {"extent": bad},
        "entry": lambda bad: {"entries": {"a": {(0, 0): 0.02, (1, 0): bad}}},
        "a00": lambda bad: {"entries": {"a": {(0, 0): bad}}},
    }),
    "CevModel": (VALUE_OBJECTS["CevModel"][0], {
        name: (lambda bad, name=name: {name: bad}) for name in ("delta", "gamma")
    }),
    "HestonModel": (VALUE_OBJECTS["HestonModel"][0], {
        name: (lambda bad, name=name: {name: bad}) for name in ("kappa", "theta", "delta", "rho")
    }),
    "SabrModel": (VALUE_OBJECTS["SabrModel"][0], {
        name: (lambda bad, name=name: {name: bad}) for name in ("delta", "gamma", "rho")
    }),
    "IvSeries": (VALUE_OBJECTS["IvSeries"][0], {
        "sigma0": lambda bad: {"sigma0": bad},
        "value": lambda bad: {"terms": ({(1, 0): 0.01, (0, 1): bad},)},
        "pair-value": lambda bad: {"terms": ([((1, 0), bad)],)},
    }),
    "BsInputs": (lambda: BsInputs(0.2, 1.0, 0.1, -0.05), {
        name: (lambda bad, name=name: {name: bad}) for name in ("sigma", "tau", "z", "k")
    }),
}

# Not numbers, or numbers whose float is not finite.
NOT_NUMBERS = [True, "0.1", None, 1j, Fraction(10**400), math.nan]
NOT_NUMBER_IDS = ["true", "str", "none", "complex", "fraction-beyond-float", "nan"]


def assert_every_route_raises(value, changes):
    cls = type(value)
    with pytest.raises(DomainError):
        cls(**{**value._asdict(), **changes})
    with pytest.raises(DomainError):
        cls._make({**value._asdict(), **changes}.values())
    with pytest.raises(DomainError):
        value._replace(**changes)


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
@pytest.mark.parametrize(
    "name, field", [(name, field) for name in NUMBER_FIELDS for field in NUMBER_FIELDS[name][1]]
)
def test_every_number_field_follows_the_number_rule(name, field, bad):
    build, fields = NUMBER_FIELDS[name]
    assert_every_route_raises(build(), fields[field](bad))


@pytest.mark.parametrize(
    "terms",
    [
        ({(1.0, 0): 0.1},),
        ({"a": 0.1},),
        ({(True, 0): 0.1},),
        (5,),
        (0.1,),
        ([((1, 0), 0.1), ((1, 0), 0.2)],),
        ([((1, 0), 0.1, 0.2)],),
        None,
    ],
    ids=["key-float", "key-str", "key-bool", "term-int", "term-float", "pairs-repeat",
         "pairs-triple", "terms-none"],
)
def test_series_terms_follow_the_series_rules(terms):
    assert_every_route_raises(VALUE_OBJECTS["IvSeries"][0](), {"terms": terms})


def test_series_accepts_pair_sequences_as_terms():
    pairs = IvSeries(sigma0=0.3, terms=([((1, 0), 0.01), ((0, 1), -0.02)],))
    assert pairs == VALUE_OBJECTS["IvSeries"][0]()
    assert pairs.evaluate(0.1, 0.25) == VALUE_OBJECTS["IvSeries"][0]().evaluate(0.1, 0.25)


def round_trips(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("name", sorted(NUMBER_FIELDS))
def test_value_objects_copy_and_pickle_through_their_checks(name):
    value = NUMBER_FIELDS[name][0]()
    for back in round_trips(value):
        assert back == value and type(back) is type(value) and repr(back) == repr(value)
        # Only what __new__ sets travels; kept derivations are derived again.
        assert getattr(back, "__dict__", {}).keys() <= {"_cells"}
        if name == "IvSeries":
            assert back._cells == value._cells
            assert back.evaluate(0.1, 0.25) == value.evaluate(0.1, 0.25)
            with pytest.raises(TypeError):
                back.terms[0][0, 1] = 0.0
        if name == "TaylorTable":
            with pytest.raises(TypeError):
                back.entries["a"][0, 0] = 0.0


def test_a_model_with_a_kept_series_copies_without_it():
    model = VALUE_OBJECTS["SabrModel"][0]()
    point = MarketPoint(t=0.0, T=0.25, x=0.0, y=-1.0, z=0.0, k=0.05, beta=-2.0)
    value = iv_approx(point, model, 3)
    assert "_series" in vars(model)
    for back in round_trips(model):
        assert back == model and vars(back) == {}
        assert iv_approx(point, back, 3) == value


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_copies_check_again(protocol):
    # The fields a copy is rebuilt from go through __new__: a pickle whose
    # fields were tampered with raises, as the constructor does.  Protocol 0
    # writes a float as text, the others as 8 bytes.
    good, bad = (b"F%a\n" % gamma if protocol == 0 else b"G" + struct.pack(">d", gamma)
                 for gamma in (0.5, 1.5))
    data = pickle.dumps(CevModel(delta=0.2, gamma=0.5), protocol)
    assert data.count(good) == 1
    with pytest.raises(DomainError):
        pickle.loads(data.replace(good, bad))
