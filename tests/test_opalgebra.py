"""Tests for the sparse normal-ordered operator algebra.

Exact-arithmetic fixtures use Fraction coefficients throughout, so every
equality below is exact unless a tolerance is spelled out.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letfvol.errors import DomainError, StructuralError
from letfvol.models import CevModel, HestonModel, SabrModel, TaylorTable
from letfvol.opalgebra import (
    N_MAX,
    OperatorPoly,
    TimePoly,
    _normal_order_product,
    build_Ank,
    build_Gn,
    build_Ln,
    build_M_shift,
    compositions,
    reduce_to_z,
    simplex_integrate_poly,
    simplex_weight,
)

F = Fraction


def cev_like_table(a00=F(1, 50), slope=F(-7, 2), extent=4):
    """Exact stand-in for a local-vol table: a(i,0) = a00 slope^i / i!."""
    entries = {"a": {}}
    fact = 1
    for i in range(extent + 1):
        if i:
            fact *= i
        entries["a"][(i, 0)] = a00 * slope**i / fact
    return TaylorTable(point=(0, 0), extent=extent, entries=entries)


def full_table(extent=4):
    """Dense exact table exercising every coefficient family."""
    entries = {"a": {}, "b": {}, "c": {}, "f": {}}
    for i in range(extent + 1):
        for j in range(extent + 1 - i):
            entries["a"][(i, j)] = F(2 + 3 * i - j, 40 + i + j)
            entries["b"][(i, j)] = F(1 - i + 2 * j, 30 + 2 * i + j)
            entries["c"][(i, j)] = F(-2 + i + j, 25 + i)
            entries["f"][(i, j)] = F(1 + i - 2 * j, 35 + j)
    return TaylorTable(point=(0, 0), extent=extent, entries=entries)


def antiderivative_simplex_weight(exponents: tuple) -> Fraction:
    """Oracle for ``simplex_weight``: antidifferentiate one variable at a time.

    Innermost first, carrying a bivariate polynomial in the current lower
    limit and tau, over t < t_1 < ... < t_k < T with u_j = t_j - t.
    """
    # terms: {(power_of_v, power_of_tau): Fraction} where v is the lower
    # limit passed down to the next outer integral.
    terms = {(0, 0): F(1)}
    for a in reversed(exponents):
        integrated = {}
        for (pv, pt), coeff in terms.items():
            new_pv = pv + a + 1
            integrated_coeff = F(coeff, new_pv)
            # Upper limit tau: the v-power folds into the tau power.
            upper = (0, pt + new_pv)
            integrated[upper] = integrated.get(upper, F(0)) + integrated_coeff
            # Lower limit: stays a polynomial in the next variable down.
            lower = (new_pv, pt)
            integrated[lower] = integrated.get(lower, F(0)) - integrated_coeff
        terms = {key: c for key, c in integrated.items() if c != 0}
    # The outermost lower limit is 0 and every v-power is >= 1 there.
    terms = {key: c for key, c in terms.items() if key[0] == 0}
    ((_, tau_power), coeff), = terms.items()
    assert tau_power == len(exponents) + sum(exponents)
    return coeff


def unpruned_Ln(table, n, beta):
    """Oracle for ``build_Ln``: every generator factor in full, no monomial dropped."""
    total = OperatorPoly.zero()
    for k in range(1, n + 1):
        for comp in compositions(n, k):
            product = None
            for j, order in enumerate(comp):
                factor = build_Gn(table, order, beta, time_index=j + 1)
                product = factor if product is None else product * factor
            integrated = OperatorPoly()
            for key, poly in product.terms.items():
                integrated.terms[key] = simplex_integrate_poly(poly, k)
            total = total + integrated
    return total


def op(**monomials):
    """Shorthand builder: op(X=..., Dx=...) with 5-tuple keys spelled out."""
    return OperatorPoly(monomials)


# ---------------------------------------------------------------------------
# polynomial layers


def test_poly_mul_dz_example():
    dz = OperatorPoly({(0, 0, 0, 0, 1): 1})
    dz2_minus_dz = OperatorPoly({(0, 0, 0, 0, 2): 1, (0, 0, 0, 0, 1): -1})
    want = OperatorPoly({(0, 0, 0, 0, 3): 1, (0, 0, 0, 0, 2): -1})
    assert (dz * dz2_minus_dz).equals(want)


def test_operator_pow_matches_repeated_mul():
    o = OperatorPoly(
        {(1, 0, 0, 0, 0): F(2), (0, 0, 1, 0, 0): F(-1), (0, 0, 0, 0, 0): F(3)}
    )
    assert (o**3).equals(o * o * o)
    assert (o**0).equals(OperatorPoly.identity())


def test_exchange_rule_first_order():
    # Dx X = X Dx + 1: the derivative consumes the multiplication once.
    dx = OperatorPoly({(0, 0, 1, 0, 0): F(1)})
    x_mult = OperatorPoly({(1, 0, 0, 0, 0): F(1)})
    want = OperatorPoly({(1, 0, 1, 0, 0): F(1), (0, 0, 0, 0, 0): F(1)})
    assert (dx * x_mult).equals(want)
    # The reversed product is already normal-ordered, so nothing happens.
    assert (x_mult * dx).equals(OperatorPoly({(1, 0, 1, 0, 0): F(1)}))


def test_exchange_rule_second_order():
    # Dy^2 Y^2 = Y^2 Dy^2 + 4 Y Dy + 2.
    dy2 = OperatorPoly({(0, 0, 0, 2, 0): F(1)})
    y2 = OperatorPoly({(0, 2, 0, 0, 0): F(1)})
    want = OperatorPoly(
        {(0, 2, 0, 2, 0): F(1), (0, 1, 0, 1, 0): F(4), (0, 0, 0, 0, 0): F(2)}
    )
    assert (dy2 * y2).equals(want)


def test_left_factor_multiplications_are_never_consumed():
    # The invariant behind build_Ln's pruning: in k1 * k2 the derivatives
    # of k1 can consume multiplications of k2 only, so the X and Y powers
    # of k1 survive in every resulting monomial.
    small = list(itertools.product(range(3), repeat=5))
    for k1 in small:
        for k2 in small:
            for key, count in _normal_order_product(k1, k2):
                assert count > 0
                assert key[0] >= k1[0] and key[1] >= k1[1], (k1, k2, key)


def test_cross_coordinate_factors_commute():
    dz = OperatorPoly({(0, 0, 0, 0, 1): F(1)})
    dx = OperatorPoly({(0, 0, 1, 0, 0): F(1)})
    x_mult = OperatorPoly({(1, 0, 0, 0, 0): F(1)})
    y_mult = OperatorPoly({(0, 1, 0, 0, 0): F(1)})
    assert (dz * x_mult).equals(x_mult * dz)
    assert (dz * y_mult).equals(y_mult * dz)
    assert (dx * y_mult).equals(y_mult * dx)


@st.composite
def time_polys(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        powers = tuple(draw(st.integers(0, 2)) for _ in range(draw(st.integers(0, 3))))
        terms[powers] = F(draw(st.integers(-4, 4)), draw(st.integers(1, 5)))
    return TimePoly(terms)


@st.composite
def operator_polys(draw):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        key = tuple(draw(st.integers(0, 2)) for _ in range(5))
        terms[key] = draw(time_polys())
    return OperatorPoly(terms)


@settings(max_examples=60, deadline=None)
@given(a=operator_polys(), b=operator_polys(), c=operator_polys())
def test_ring_laws_exact(a, b, c):
    assert ((a * b) * c).equals(a * (b * c))
    assert (a * (b + c)).equals(a * b + a * c)
    assert ((a + b) * c).equals(a * c + b * c)
    assert (a + b).equals(b + a)


@settings(max_examples=60, deadline=None)
@given(p=time_polys(), q=time_polys())
def test_time_layer_is_commutative(p, q):
    assert (p * q - q * p).max_abs() == 0


def test_timepoly_dump_is_canonical():
    p = TimePoly({(0, 2): F(1, 2), (1,): F(-3), (): F(2)})
    assert p.dump() == "2 + 1/2*u1^2 + -3*tau"


# ---------------------------------------------------------------------------
# simplex integration


def test_simplex_examples():
    tau = 0.7
    one = TimePoly.constant(1)
    u1 = TimePoly.variable(1)
    u2 = TimePoly.variable(2)
    assert simplex_integrate_poly(one, 2).evaluate(tau) == pytest.approx(tau**2 / 2, rel=1e-15)
    assert simplex_integrate_poly(u1, 1).evaluate(tau) == pytest.approx(tau**2 / 2, rel=1e-15)
    assert simplex_integrate_poly(u1 * u2, 2).evaluate(tau) == pytest.approx(
        tau**4 / 8, rel=1e-15
    )


def test_simplex_constant_weight_is_inverse_factorial():
    import math

    for k in range(1, 7):
        assert simplex_weight((0,) * k) == F(1, math.factorial(k))


def test_simplex_weight_examples():
    assert simplex_weight((1,)) == F(1, 2)
    assert simplex_weight((1, 1)) == F(1, 8)
    # int_0^tau dv1 v1^2 int_{v1}^tau dv2 = tau^4/3 - tau^4/4 = tau^4/12.
    assert simplex_weight((2, 0)) == F(1, 12)


def test_simplex_weight_matches_antiderivative_oracle():
    for k in range(5):
        for exponents in itertools.product(range(5), repeat=k):
            assert simplex_weight(exponents) == antiderivative_simplex_weight(exponents)


def test_simplex_poly_variant_keeps_tau_symbolic():
    p = TimePoly({(0, 1, 1): F(3)})  # 3 u1 u2
    out = simplex_integrate_poly(p, 2)
    assert out.terms == {(4,): F(3, 8)}


def test_simplex_rejects_existing_tau():
    with pytest.raises(StructuralError):
        simplex_integrate_poly(TimePoly.variable(0), 1).evaluate(0.5)


def test_simplex_rejects_excess_variables():
    with pytest.raises(StructuralError):
        simplex_integrate_poly(TimePoly.variable(3), 2).evaluate(0.5)


# ---------------------------------------------------------------------------
# operator builders


def test_build_Ank_a_only_table():
    table = cev_like_table(a00=F(1, 50))
    got = build_Ank(table, 0, 0, beta=2.0)
    want = OperatorPoly(
        {
            (0, 0, 2, 0, 0): F(1, 50),
            (0, 0, 1, 0, 0): F(-1, 50),
            (0, 0, 0, 0, 2): F(2, 25),
            (0, 0, 0, 0, 1): F(-2, 25),
            (0, 0, 1, 0, 1): F(2, 25),
        }
    )
    assert got.equals(want)


def test_build_Ank_full_table_has_all_blocks():
    table = full_table()
    o = build_Ank(table, 3, 1, beta=-2)
    a, b, c, f = (table.get(n, 2, 1) for n in "abcf")
    want = OperatorPoly(
        {
            (0, 0, 2, 0, 0): a,
            (0, 0, 1, 0, 0): -a,
            (0, 0, 0, 0, 2): 4 * a,
            (0, 0, 0, 0, 1): -4 * a,
            (0, 0, 1, 0, 1): -4 * a,
            (0, 0, 0, 2, 0): b,
            (0, 0, 0, 1, 0): c,
            (0, 0, 1, 1, 0): f,
            (0, 0, 0, 1, 1): -2 * f,
        }
    )
    assert o.equals(want)


def test_build_Ank_beyond_extent_errors():
    with pytest.raises(StructuralError):
        build_Ank(cev_like_table(extent=2), 3, 0, beta=2)


def test_build_M_shift_forms():
    table = full_table()
    a00, b00, c00, f00 = (table.get(n, 0, 0) for n in "abcf")
    u1 = TimePoly.variable(1)
    got_x = build_M_shift("x", table, beta=2)
    want_x = OperatorPoly({(1, 0, 0, 0, 0): 1}) + OperatorPoly(
        {
            (0, 0, 1, 0, 0): 2 * a00,
            (0, 0, 0, 0, 1): 4 * a00,
            (0, 0, 0, 0, 0): -a00,
            (0, 0, 0, 1, 0): f00,
        }
    ).scale_poly(u1)
    assert got_x.equals(want_x)
    got_y = build_M_shift("y", table, beta=2, time_index=3)
    want_y = OperatorPoly({(0, 1, 0, 0, 0): 1}) + OperatorPoly(
        {
            (0, 0, 1, 0, 0): f00,
            (0, 0, 0, 0, 1): 2 * f00,
            (0, 0, 0, 1, 0): 2 * b00,
            (0, 0, 0, 0, 0): c00,
        }
    ).scale_poly(TimePoly.variable(3))
    assert got_y.equals(want_y)
    with pytest.raises(DomainError):
        build_M_shift("z", table, beta=2)


def test_M_shifts_commute_at_equal_times():
    # The two centered shifts commute when they share a time variable:
    # the f00 pickups from Dx against Y and Dy against X cancel exactly.
    table = full_table()
    mx = build_M_shift("x", table, beta=-3, time_index=1)
    my = build_M_shift("y", table, beta=-3, time_index=1)
    assert (mx * my - my * mx).equals(OperatorPoly.zero())


def test_M_shift_commutator_across_times():
    # With distinct time variables the commutator survives and equals
    # (u1 - u2) f00, a sharp witness for the normal-ordering bookkeeping.
    table = full_table()
    f00 = table.get("f", 0, 0)
    mx = build_M_shift("x", table, beta=-3, time_index=1)
    my = build_M_shift("y", table, beta=-3, time_index=2)
    want = OperatorPoly(
        {(0, 0, 0, 0, 0): TimePoly({(0, 1): f00, (0, 0, 1): -f00})}
    )
    assert (mx * my - my * mx).equals(want)


def test_build_Gn_order_zero_is_the_top_block():
    table = full_table()
    assert build_Gn(table, 0, beta=-3).equals(build_Ank(table, 0, 0, beta=-3))


def test_build_Gn_order_one_cev_hand_expansion():
    # Hand-expanded golden fixture: with only a-coefficients the order-1
    # generator is (X + u1 a00 (2Dx + 2bDz - 1)) A10 where A10 is
    # a10 ((Dx^2 - Dx) + b^2(Dz^2 - Dz) + 2b Dx Dz), collected below by
    # monomial.  The X prefix stays unconsumed: A10 brings no further
    # multiplications for the derivatives to act on.
    a00, slope = F(1, 50), F(-7, 2)
    table = cev_like_table(a00=a00, slope=slope)
    beta = F(2)
    a10 = a00 * slope
    scale = a00 * a10
    body = OperatorPoly(
        {
            (0, 0, 3, 0, 0): 2 * scale,
            (0, 0, 2, 0, 0): -3 * scale,
            (0, 0, 2, 0, 1): 6 * beta * scale,
            (0, 0, 1, 0, 0): scale,
            (0, 0, 1, 0, 2): 6 * beta**2 * scale,
            (0, 0, 1, 0, 1): (-2 * beta**2 - 4 * beta) * scale,
            (0, 0, 0, 0, 3): 2 * beta**3 * scale,
            (0, 0, 0, 0, 2): (-2 * beta**3 - beta**2) * scale,
            (0, 0, 0, 0, 1): beta**2 * scale,
        }
    ).scale_poly(TimePoly.variable(1))
    carried = OperatorPoly(
        {
            (1, 0, 2, 0, 0): a10,
            (1, 0, 1, 0, 0): -a10,
            (1, 0, 0, 0, 2): beta**2 * a10,
            (1, 0, 0, 0, 1): -(beta**2) * a10,
            (1, 0, 1, 0, 1): 2 * beta * a10,
        }
    )
    assert build_Gn(table, 1, beta=2).equals(body + carried)


def test_build_Gn_a_part_only_keeps_pure_z_blocks():
    table = full_table()
    o = build_Gn(table, 2, beta=2, a_part_only=True)
    # Every monomial traces back to a (Dz^2 - Dz) block times two shift
    # factors, each contributing one multiplication or at most one
    # derivative, so the total monomial degree never exceeds 4.
    assert all(sum(key) <= 4 for key in o.terms)


def test_compositions_enumeration():
    assert sorted(compositions(2, 1)) == [(2,)]
    assert sorted(compositions(2, 2)) == [(1, 1)]
    assert sorted(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert sorted(compositions(4, 3)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert list(compositions(3, 4)) == []


def test_build_Ln_order_bounds():
    table = full_table()
    with pytest.raises(DomainError):
        build_Ln(table, 0, beta=2)
    with pytest.raises(DomainError):
        build_Ln(table, N_MAX + 1, beta=2)


def test_build_Ln_order_one_reduction_matches_hand_values():
    # For an a-only table, chi_{1,0} = -(tau^2/2) b^2 a00 a10 and
    # chi_{1,1} = tau^2 b^3 a00 a10, from integrating the order-1 generator
    # and dividing the pure-z part by Dz^2 - Dz.  The X-prefixed monomials
    # drop at the expansion point and do not disturb the division.
    a00, slope = F(1, 50), F(-7, 2)
    a10 = a00 * slope
    beta = F(2)
    table = cev_like_table(a00=a00, slope=slope)
    chi = reduce_to_z(build_Ln(table, 1, beta=2)).chi
    assert set(chi) == {0, 1}
    assert chi[0].terms == {(2,): -beta**2 * a00 * a10 / 2}
    assert chi[1].terms == {(2,): beta**3 * a00 * a10}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reduction_ignores_final_factor_restriction(n):
    # Restricting the last generator factor to its pure-z block and dropping
    # X/Y-carrying partial products change the operator but not its action
    # on functions of z alone.
    table = full_table()
    full = reduce_to_z(unpruned_Ln(table, n, beta=-2))
    restricted = reduce_to_z(build_Ln(table, n, beta=-2))
    assert set(full.chi) == set(restricted.chi)
    for m in full.chi:
        assert (full.chi[m] - restricted.chi[m]).max_abs() == 0


MODEL_TABLES = {
    "cev": (CevModel(delta=0.25, gamma=0.6), 0.05, 0.0),
    "heston": (HestonModel(kappa=1.4, theta=0.05, delta=0.35, rho=-0.55), 0.0, -3.0),
    "sabr": (SabrModel(delta=0.45, gamma=0.4, rho=-0.3), -0.02, -1.6),
}


@pytest.mark.parametrize("beta", [-3.0, 1.0])
@pytest.mark.parametrize("kind", sorted(MODEL_TABLES))
def test_reduction_matches_unpruned_oracle_on_model_tables(kind, beta):
    model, x, y = MODEL_TABLES[kind]
    table = model.taylor_table(x, y, 3)
    for n in (1, 2, 3):
        full = reduce_to_z(unpruned_Ln(table, n, beta)).chi
        pruned = reduce_to_z(build_Ln(table, n, beta)).chi
        scale = max(poly.max_abs() for poly in full.values())
        assert scale > 0
        for m in set(full) | set(pruned):
            diff = full.get(m, TimePoly()) - pruned.get(m, TimePoly())
            assert diff.max_abs() <= 1e-12 * scale, (n, m)


# ---------------------------------------------------------------------------
# reduction to z


def test_reduce_drops_multiplication_prefixes():
    o = OperatorPoly(
        {(1, 0, 0, 0, 3): F(5), (0, 2, 0, 0, 1): F(-2), (2, 1, 0, 0, 2): F(7)}
    )
    assert reduce_to_z(o).is_zero()


def test_reduce_drops_x_and_y_derivatives():
    o = OperatorPoly({(0, 0, 1, 0, 3): F(5), (0, 0, 0, 2, 1): F(-2)})
    assert reduce_to_z(o).is_zero()


def test_reduce_simple_block():
    o = OperatorPoly({(0, 0, 0, 0, 2): 0.08, (0, 0, 0, 0, 1): -0.08})
    chi = reduce_to_z(o).chi
    assert set(chi) == {0}
    assert chi[0].terms == {(): 0.08}


def test_reduce_shifted_block():
    o = OperatorPoly({(0, 0, 0, 0, 3): F(1), (0, 0, 0, 0, 2): F(-1)})
    chi = reduce_to_z(o).chi
    assert set(chi) == {1}
    assert chi[1].terms == {(): F(1)}


def test_reduce_rejects_nondivisible():
    with pytest.raises(StructuralError):
        reduce_to_z(OperatorPoly({(0, 0, 0, 0, 1): F(1)}))
    with pytest.raises(StructuralError):
        reduce_to_z(OperatorPoly({(0, 0, 0, 0, 0): F(1)}))


def test_reduce_rejects_any_exact_remainder():
    # Exact coefficients admit no tolerance: a remainder of 1e-12 is as
    # structural as a remainder of 1.  Floats keep the relative rule.
    tiny = F(1, 10**12)
    dz2, dz, one = (0, 0, 0, 0, 2), (0, 0, 0, 0, 1), (0, 0, 0, 0, 0)
    with pytest.raises(StructuralError):
        reduce_to_z(OperatorPoly({dz2: F(1), dz: F(-1), one: tiny}))
    with pytest.raises(StructuralError):
        reduce_to_z(OperatorPoly({dz2: F(1), dz: F(-1) + tiny}))
    chi = reduce_to_z(OperatorPoly({dz2: 1.0, dz: -1.0, one: 1e-12})).chi
    assert chi[0].terms == {(): 1.0}


def test_reduce_at_tau():
    o = OperatorPoly(
        {
            (0, 0, 0, 0, 2): TimePoly({(2,): 3.0}),
            (0, 0, 0, 0, 1): TimePoly({(2,): -3.0}),
        }
    )
    values = reduce_to_z(o).at_tau(0.5)
    assert values == {0: pytest.approx(0.75)}


# ---------------------------------------------------------------------------
# canonical dump


def test_dump_golden():
    table = full_table()
    o = build_Ank(table, 0, 0, beta=2)
    assert o.dump() == (
        "Dz: -1/5\n"
        "Dz^2: 1/5\n"
        "Dy: -2/25\n"
        "Dy*Dz: 2/35\n"
        "Dy^2: 1/30\n"
        "Dx: -1/20\n"
        "Dx*Dz: 1/5\n"
        "Dx*Dy: 1/35\n"
        "Dx^2: 1/20"
    )


def test_dump_shift_golden():
    table = full_table()
    o = build_M_shift("x", table, beta=2)
    assert o.dump() == (
        "1: -1/20*u1\n"
        "Dz: 1/5*u1\n"
        "Dy: 1/35*u1\n"
        "Dx: 1/10*u1\n"
        "X: 1"
    )
