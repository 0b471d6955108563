"""Tests for the generator of the integrated operators, against an oracle.

The oracle below forms the full, unpruned product of the expansion
generators in normal order and divides its pure-z part exactly by
Dz^2 - Dz.  It shares no code with ``letfvol.opalgebra``, which forms only
what that division reads, on commuting symbols, with the table entries
and beta as symbols; ``evaluate_Ln`` evaluates that for one table.

Exact fixtures use Fraction or integer coefficients throughout, so every
equality below is exact unless a tolerance is spelled out.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letfvol.errors import DomainError, StructuralError
from letfvol.models import CevModel, HestonModel, SabrModel, TaylorTable
from letfvol.opalgebra import build_Ln, reduce_to_z, simplex_denominator

F = Fraction


def cev_like_table(a00=F(1, 50), slope=F(-7, 2), extent=4):
    """Exact stand-in for a local-vol table: a(i,0) = a00 slope^i / i!."""
    entries = {"a": {}}
    fact = 1
    for i in range(extent + 1):
        if i:
            fact *= i
        entries["a"][(i, 0)] = a00 * slope**i / fact
    return TaylorTable(extent=extent, entries=entries)


def full_table(extent=4):
    """Dense exact table exercising every coefficient family."""
    entries = {"a": {}, "b": {}, "c": {}, "f": {}}
    for i in range(extent + 1):
        for j in range(extent + 1 - i):
            entries["a"][(i, j)] = F(2 + 3 * i - j, 40 + i + j)
            entries["b"][(i, j)] = F(1 - i + 2 * j, 30 + 2 * i + j)
            entries["c"][(i, j)] = F(-2 + i + j, 25 + i)
            entries["f"][(i, j)] = F(1 + i - 2 * j, 35 + j)
    return TaylorTable(extent=extent, entries=entries)


def integer_table(extent=4):
    """Dense integer table: every entry nonzero and distinct, a(0,0) = 1."""
    keys = [(i, j) for i in range(extent + 1) for j in range(extent + 1 - i)]
    entries = {
        name: {key: (-1) ** k * (k + 1) for k, key in enumerate(keys, f * len(keys))}
        for f, name in enumerate("abcf")
    }
    return TaylorTable(extent=extent, entries=entries)


def evaluate_Ln(table, n, beta):
    """chi of reduce_to_z(build_Ln(n)) at one table and beta: {m: {tau power: coeff}}.

    Exact on exact tables and beta, float on float ones; zero weights are
    left out.
    """
    chi = {}
    for m, weights in reduce_to_z(build_Ln(n)).items():
        for tau_pow, (den, poly) in weights.items():
            total = sum(
                num * beta**p * math.prod(table.get(*entry) or 0 for entry in entries)
                for (p, entries), num in poly.items()
            )
            if total:
                chi.setdefault(m, {})[tau_pow] = total * F(1, den)
    return chi


@functools.lru_cache(maxsize=None)
def antiderivative_simplex_weight(exponents: tuple) -> Fraction:
    """Oracle for 1 / ``simplex_denominator``: antidifferentiate one variable at a time.

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


# ---------------------------------------------------------------------------
# The oracle: normal-ordered operators.  An operator is a dict from
# (X, Y, Dx, Dy, Dz, tau, u_1, u_2, ...) powers to a coefficient: the
# multiplications X = x - xbar and Y = y - ybar act after the derivatives,
# and the time powers (tau first, then the elapsed times u_j) have their
# trailing zeros trimmed.  Zero coefficients are never stored.

ONE = (0, 0, 0, 0, 0)


def op(terms: dict) -> dict:
    out = {}
    for key, coeff in terms.items():
        key = tuple(key)
        while len(key) > 5 and key[-1] == 0:
            key = key[:-1]
        _accumulate(out, key, coeff)
    return out


def _accumulate(out: dict, key: tuple, coeff) -> None:
    acc = out.get(key, 0) + coeff
    if acc == 0:
        out.pop(key, None)
    else:
        out[key] = acc


def op_add(*ops) -> dict:
    out = {}
    for o in ops:
        for key, coeff in o.items():
            _accumulate(out, key, coeff)
    return out


def op_scale(o: dict, factor) -> dict:
    return op({key: coeff * factor for key, coeff in o.items()})


def normal_order(k1: tuple, k2: tuple):
    """Monomial product in normal order: multiplications left, derivatives right.

    Moving the left factor's derivatives past the right factor's
    multiplications uses Dx^i X^p = sum_r C(i, r) p!/(p-r)! X^(p-r) Dx^(i-r),
    coordinatewise in x and y; Dz commutes with everything because no
    monomial carries a z multiplication.  Yields (operator powers, integer
    count) pairs, time powers left out.
    """
    xm1, ym1, dx1, dy1, dz1 = k1[:5]
    xm2, ym2, dx2, dy2, dz2 = k2[:5]
    for r in range(min(dx1, xm2) + 1):
        cx = math.comb(dx1, r) * math.perm(xm2, r)
        for s in range(min(dy1, ym2) + 1):
            cy = math.comb(dy1, s) * math.perm(ym2, s)
            yield (xm1 + xm2 - r, ym1 + ym2 - s, dx1 + dx2 - r, dy1 + dy2 - s, dz1 + dz2), cx * cy


def op_mul(a: dict, b: dict) -> dict:
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            # Both time tails are trimmed, so their sum is too.
            time = tuple(map(sum, itertools.zip_longest(k1[5:], k2[5:], fillvalue=0)))
            for head, count in normal_order(k1, k2):
                _accumulate(out, head + time, count * c1 * c2)
    return out


def op_pow(o: dict, exponent: int) -> dict:
    out = {ONE: 1}
    for _ in range(exponent):
        out = op_mul(out, o)
    return out


def u(index: int) -> dict:
    """The elapsed time u_index as an operator."""
    return {ONE + (0,) * index + (1,): 1}


def build_Ank(table, n, k, beta):
    """Taylor block of the generator with x-order n-k and y-order k."""
    a, b, c, f = (table.get(name, n - k, k) for name in "abcf")
    return op(
        {
            (0, 0, 2, 0, 0): a,
            (0, 0, 1, 0, 0): -a,
            (0, 0, 0, 0, 2): a * beta * beta,
            (0, 0, 0, 0, 1): -a * beta * beta,
            (0, 0, 1, 0, 1): 2 * beta * a,
            (0, 0, 0, 2, 0): b,
            (0, 0, 0, 1, 0): c,
            (0, 0, 1, 1, 0): f,
            (0, 0, 0, 1, 1): beta * f,
        }
    )


def build_M_shift(which, table, beta, time_index=1):
    """Centered shift X + u B_x or Y + u B_y at the elapsed time u_time_index."""
    a00, b00, c00, f00 = (table.get(name, 0, 0) for name in "abcf")
    if which == "x":
        mult, body = (1, 0, 0, 0, 0), {
            (0, 0, 1, 0, 0): 2 * a00,
            (0, 0, 0, 0, 1): 2 * beta * a00,
            (0, 0, 0, 0, 0): -a00,
            (0, 0, 0, 1, 0): f00,
        }
    elif which == "y":
        mult, body = (0, 1, 0, 0, 0), {
            (0, 0, 1, 0, 0): f00,
            (0, 0, 0, 0, 1): beta * f00,
            (0, 0, 0, 1, 0): 2 * b00,
            (0, 0, 0, 0, 0): c00,
        }
    else:
        raise DomainError(f"shift must be 'x' or 'y', got {which!r}")
    return op_add({mult: 1}, op_mul(op(body), u(time_index)))


def build_Gn(table, n, beta, time_index=1):
    """Order-n generator at u_time_index: sum_k M_y^k M_x^(n-k) A_{n-k,k}."""
    mx = build_M_shift("x", table, beta, time_index)
    my = build_M_shift("y", table, beta, time_index)
    return op_add(
        *(
            op_mul(op_pow(my, k), op_mul(op_pow(mx, n - k), build_Ank(table, n, k, beta)))
            for k in range(n + 1)
        )
    )


def compositions(n, k):
    """Ordered tuples of k positive integers summing to n."""
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


def simplex_integrate(o: dict, k: int) -> dict:
    """Integrate the u_1..u_k powers over the ordered simplex; leaves tau powers."""
    out = {}
    for key, coeff in o.items():
        time = key[5:]
        if time and time[0]:
            raise StructuralError("simplex integrand already contains tau")
        if len(time) > k + 1:
            raise StructuralError(f"integrand uses u{len(time) - 1}, only {k} exist")
        us = time[1:] + (0,) * (k + 1 - max(len(time), 1))
        weight = antiderivative_simplex_weight(us)
        _accumulate(out, key[:5] + (k + sum(us),), coeff * weight)
    return out


def unpruned_Ln(table, n, beta):
    """L_n with every generator factor in full and no monomial dropped."""
    total = {}
    for k in range(1, n + 1):
        for comp in compositions(n, k):
            product = {ONE: 1}
            for j, order in enumerate(comp):
                product = op_mul(product, build_Gn(table, order, beta, time_index=j + 1))
            total = op_add(total, simplex_integrate(product, k))
    return total


def divide_to_z(o: dict, tol: float = 1e-9) -> dict:
    """Pure-z part at the expansion point, divided by Dz^2 - Dz: {m: {tau power: coeff}}.

    Monomials with an X, Y, Dx or Dy power are dropped; the rest must
    factor through Dz^2 - Dz, exactly for exact coefficients and to a
    relative ``tol`` for floats, or StructuralError is raised.
    """
    coeffs = {}
    for key, coeff in o.items():
        if key[:4] == (0, 0, 0, 0):
            tau_power = key[5] if len(key) > 5 else 0
            coeffs.setdefault(key[4], {})[tau_power] = coeff
    # Synthetic division: Dz^d = Dz^(d-2) (Dz^2 - Dz) + Dz^(d-1).
    chi = {}
    for d in range(max(coeffs, default=0), 1, -1):
        lead = coeffs.pop(d, {})
        if lead:
            chi[d - 2] = lead
            coeffs[d - 1] = op_add(coeffs.get(d - 1, {}), lead)
    remainder = [c for part in coeffs.values() for c in part.values()]
    if any(isinstance(c, float) for c in remainder):
        scale = max(max(abs(c) for c in o.values()), 1)
        if max(abs(c) for c in remainder) > tol * scale:
            raise StructuralError(f"pure-z part not divisible by Dz^2 - Dz: {remainder}")
    elif remainder:
        raise StructuralError(f"pure-z part not divisible by Dz^2 - Dz: {remainder}")
    return chi


# ---------------------------------------------------------------------------
# the oracle's algebra


def test_poly_mul_dz_example():
    dz = op({(0, 0, 0, 0, 1): 1})
    dz2_minus_dz = op({(0, 0, 0, 0, 2): 1, (0, 0, 0, 0, 1): -1})
    want = op({(0, 0, 0, 0, 3): 1, (0, 0, 0, 0, 2): -1})
    assert op_mul(dz, dz2_minus_dz) == want


def test_operator_pow_matches_repeated_mul():
    o = op({(1, 0, 0, 0, 0): F(2), (0, 0, 1, 0, 0): F(-1), (0, 0, 0, 0, 0): F(3)})
    assert op_pow(o, 3) == op_mul(op_mul(o, o), o)
    assert op_pow(o, 0) == {ONE: 1}


def test_exchange_rule_first_order():
    # Dx X = X Dx + 1: the derivative consumes the multiplication once.
    dx = op({(0, 0, 1, 0, 0): F(1)})
    x_mult = op({(1, 0, 0, 0, 0): F(1)})
    want = op({(1, 0, 1, 0, 0): F(1), (0, 0, 0, 0, 0): F(1)})
    assert op_mul(dx, x_mult) == want
    # The reversed product is already normal-ordered, so nothing happens.
    assert op_mul(x_mult, dx) == op({(1, 0, 1, 0, 0): F(1)})


def test_exchange_rule_second_order():
    # Dy^2 Y^2 = Y^2 Dy^2 + 4 Y Dy + 2.
    dy2 = op({(0, 0, 0, 2, 0): F(1)})
    y2 = op({(0, 2, 0, 0, 0): F(1)})
    want = op({(0, 2, 0, 2, 0): F(1), (0, 1, 0, 1, 0): F(4), (0, 0, 0, 0, 0): F(2)})
    assert op_mul(dy2, y2) == want


def test_left_factor_multiplications_are_never_consumed():
    # The invariant behind the generator's pruning: in k1 * k2 the
    # derivatives of k1 can consume multiplications of k2 only, so the X
    # and Y powers of k1 survive in every resulting monomial.
    small = list(itertools.product(range(3), repeat=5))
    for k1 in small:
        for k2 in small:
            for key, count in normal_order(k1, k2):
                assert count > 0
                assert key[0] >= k1[0] and key[1] >= k1[1], (k1, k2, key)


def test_cross_coordinate_factors_commute():
    dz = op({(0, 0, 0, 0, 1): F(1)})
    dx = op({(0, 0, 1, 0, 0): F(1)})
    x_mult = op({(1, 0, 0, 0, 0): F(1)})
    y_mult = op({(0, 1, 0, 0, 0): F(1)})
    assert op_mul(dz, x_mult) == op_mul(x_mult, dz)
    assert op_mul(dz, y_mult) == op_mul(y_mult, dz)
    assert op_mul(dx, y_mult) == op_mul(y_mult, dx)


@st.composite
def operator_polys(draw, head=st.integers(0, 2)):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key = tuple(draw(head) for _ in range(5))
        key += tuple(draw(st.integers(0, 2)) for _ in range(draw(st.integers(0, 3))))
        terms[key] = F(draw(st.integers(-4, 4)), draw(st.integers(1, 5)))
    return op(terms)


@settings(max_examples=60, deadline=None)
@given(a=operator_polys(), b=operator_polys(), c=operator_polys())
def test_ring_laws_exact(a, b, c):
    assert op_mul(op_mul(a, b), c) == op_mul(a, op_mul(b, c))
    assert op_mul(a, op_add(b, c)) == op_add(op_mul(a, b), op_mul(a, c))
    assert op_mul(op_add(a, b), c) == op_add(op_mul(a, c), op_mul(b, c))
    assert op_add(a, b) == op_add(b, a)


@settings(max_examples=60, deadline=None)
@given(p=operator_polys(head=st.just(0)), q=operator_polys(head=st.just(0)))
def test_time_layer_is_commutative(p, q):
    assert op_mul(p, q) == op_mul(q, p)


# ---------------------------------------------------------------------------
# simplex integration


def test_simplex_examples():
    tau2, tau4 = ONE + (2,), ONE + (4,)
    assert simplex_integrate({ONE: 1}, 2) == {tau2: F(1, 2)}
    assert simplex_integrate(u(1), 1) == {tau2: F(1, 2)}
    assert simplex_integrate(op_mul(u(1), u(2)), 2) == {tau4: F(1, 8)}


def test_simplex_constant_weight_is_inverse_factorial():
    for k in range(1, 7):
        assert simplex_denominator((0,) * k) == math.factorial(k)


def test_simplex_weight_examples():
    assert simplex_denominator((1,)) == 2
    assert simplex_denominator((1, 1)) == 8
    # int_0^tau dv1 v1^2 int_{v1}^tau dv2 = tau^4/3 - tau^4/4 = tau^4/12.
    assert simplex_denominator((2, 0)) == 12


def test_simplex_weight_matches_antiderivative_oracle():
    for k in range(5):
        for exponents in itertools.product(range(5), repeat=k):
            den = simplex_denominator(exponents)
            assert F(1, den) == antiderivative_simplex_weight(exponents)
            # So (2n)!, which build_Ln scales by, is a multiple for k + sum a <= 2n.
            assert math.factorial(k + sum(exponents)) % den == 0


def test_simplex_poly_variant_keeps_tau_symbolic():
    p = op_scale(op_mul(u(1), u(2)), F(3))  # 3 u1 u2
    assert simplex_integrate(p, 2) == {ONE + (4,): F(3, 8)}


def test_simplex_rejects_existing_tau():
    with pytest.raises(StructuralError):
        simplex_integrate(u(0), 1)


def test_simplex_rejects_excess_variables():
    with pytest.raises(StructuralError):
        simplex_integrate(u(3), 2)


# ---------------------------------------------------------------------------
# the oracle's operator builders


def test_build_Ank_a_only_table():
    table = cev_like_table(a00=F(1, 50))
    got = build_Ank(table, 0, 0, beta=2)
    want = op(
        {
            (0, 0, 2, 0, 0): F(1, 50),
            (0, 0, 1, 0, 0): F(-1, 50),
            (0, 0, 0, 0, 2): F(2, 25),
            (0, 0, 0, 0, 1): F(-2, 25),
            (0, 0, 1, 0, 1): F(2, 25),
        }
    )
    assert got == want


def test_build_Ank_full_table_has_all_blocks():
    table = full_table()
    o = build_Ank(table, 3, 1, beta=-2)
    a, b, c, f = (table.get(n, 2, 1) for n in "abcf")
    want = op(
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
    assert o == want


def test_build_Ank_beyond_extent_errors():
    with pytest.raises(StructuralError):
        build_Ank(cev_like_table(extent=2), 3, 0, beta=2)


def test_build_M_shift_forms():
    table = full_table()
    a00, b00, c00, f00 = (table.get(n, 0, 0) for n in "abcf")
    got_x = build_M_shift("x", table, beta=2)
    t1 = (0, 1)
    want_x = {
        (1, 0, 0, 0, 0): 1,
        (0, 0, 1, 0, 0) + t1: 2 * a00,
        (0, 0, 0, 0, 1) + t1: 4 * a00,
        (0, 0, 0, 0, 0) + t1: -a00,
        (0, 0, 0, 1, 0) + t1: f00,
    }
    assert got_x == want_x
    got_y = build_M_shift("y", table, beta=2, time_index=3)
    t3 = (0, 0, 0, 1)
    want_y = {
        (0, 1, 0, 0, 0): 1,
        (0, 0, 1, 0, 0) + t3: f00,
        (0, 0, 0, 0, 1) + t3: 2 * f00,
        (0, 0, 0, 1, 0) + t3: 2 * b00,
        (0, 0, 0, 0, 0) + t3: c00,
    }
    assert got_y == want_y
    with pytest.raises(DomainError):
        build_M_shift("z", table, beta=2)


def test_M_shifts_commute_at_equal_times():
    # The two centered shifts commute when they share a time variable:
    # the f00 pickups from Dx against Y and Dy against X cancel exactly.
    table = full_table()
    mx = build_M_shift("x", table, beta=-3, time_index=1)
    my = build_M_shift("y", table, beta=-3, time_index=1)
    assert op_mul(mx, my) == op_mul(my, mx)


def test_M_shift_commutator_across_times():
    # With distinct time variables the commutator survives and equals
    # (u1 - u2) f00, a sharp witness for the normal-ordering bookkeeping.
    table = full_table()
    f00 = table.get("f", 0, 0)
    mx = build_M_shift("x", table, beta=-3, time_index=1)
    my = build_M_shift("y", table, beta=-3, time_index=2)
    want = op({ONE + (0, 1): f00, ONE + (0, 0, 1): -f00})
    assert op_add(op_mul(mx, my), op_scale(op_mul(my, mx), -1)) == want


def test_build_Gn_order_zero_is_the_top_block():
    table = full_table()
    assert build_Gn(table, 0, beta=-3) == build_Ank(table, 0, 0, beta=-3)


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
    body = op(
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
    )
    carried = op(
        {
            (1, 0, 2, 0, 0): a10,
            (1, 0, 1, 0, 0): -a10,
            (1, 0, 0, 0, 2): beta**2 * a10,
            (1, 0, 0, 0, 1): -(beta**2) * a10,
            (1, 0, 1, 0, 1): 2 * beta * a10,
        }
    )
    assert build_Gn(table, 1, beta=2) == op_add(op_mul(body, u(1)), carried)


def test_compositions_enumeration():
    assert sorted(compositions(2, 1)) == [(2,)]
    assert sorted(compositions(2, 2)) == [(1, 1)]
    assert sorted(compositions(3, 2)) == [(1, 2), (2, 1)]
    assert sorted(compositions(4, 3)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    assert list(compositions(3, 4)) == []


# ---------------------------------------------------------------------------
# the generator against the oracle


def test_build_Ln_order_bounds():
    for n in (0, -1, 1.0, True):
        with pytest.raises(DomainError):
            build_Ln(n)
    # Order n reads the entries (name, i, j) with i + j <= n: a table of
    # extent n serves it.
    for n in (1, 2, 3):
        terms, _ = build_Ln(n)
        assert max(i + j for *_, entries in terms for _, i, j in entries) == n


def test_build_Ln_order_one_reduction_matches_hand_values():
    # For an a-only table, chi_{1,0} = -(tau^2/2) b^2 a00 a10 and
    # chi_{1,1} = tau^2 b^3 a00 a10, from integrating the order-1 generator
    # and dividing the pure-z part by Dz^2 - Dz.  The X-prefixed monomials
    # drop at the expansion point and do not disturb the division.
    a00, slope = F(1, 50), F(-7, 2)
    a10 = a00 * slope
    beta = F(2)
    table = cev_like_table(a00=a00, slope=slope)
    want = {0: {2: -beta**2 * a00 * a10 / 2}, 1: {2: beta**3 * a00 * a10}}
    assert evaluate_Ln(table, 1, beta=2) == want
    assert divide_to_z(unpruned_Ln(table, 1, beta=2)) == want


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reduction_ignores_final_factor_restriction(n):
    # Restricting the last generator factor to its pure-z block and dropping
    # X/Y-carrying partial products change the operator but not its action
    # on functions of z alone.  Integer entries keep the oracle's products
    # in integers; its simplex weights are exact fractions.
    table = integer_table()
    full = divide_to_z(unpruned_Ln(table, n, beta=-2))
    assert full
    assert evaluate_Ln(table, n, beta=-2) == full


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
        full = divide_to_z(unpruned_Ln(table, n, beta))
        pruned = evaluate_Ln(table, n, beta)
        scale = max(abs(c) for poly in full.values() for c in poly.values())
        assert scale > 0
        for m in set(full) | set(pruned):
            f, p = full.get(m, {}), pruned.get(m, {})
            diff = max(abs(f.get(k, 0.0) - p.get(k, 0.0)) for k in set(f) | set(p))
            assert diff <= 1e-12 * scale, (n, m)


# ---------------------------------------------------------------------------
# reduction to z


def test_reduce_drops_multiplication_prefixes():
    o = op({(1, 0, 0, 0, 3): F(5), (0, 2, 0, 0, 1): F(-2), (2, 1, 0, 0, 2): F(7)})
    assert divide_to_z(o) == {}


def test_reduce_drops_x_and_y_derivatives():
    o = op({(0, 0, 1, 0, 3): F(5), (0, 0, 0, 2, 1): F(-2)})
    assert divide_to_z(o) == {}


def test_reduce_to_z_gives_lowest_terms():
    # (Dz, tau, beta) powers and entries over one denominator, 24 here.
    a, b = ("a", 0, 0), ("b", 0, 0)
    terms = {(1, 2, 0, (a,)): 6, (1, 2, 1, (a, b)): -4, (0, 2, 2, (a,)): 5}
    assert reduce_to_z((terms, 24)) == {
        1: {2: (12, {(0, (a,)): 3, (1, (a, b)): -2})}, 0: {2: (24, {(2, (a,)): 5})}
    }


def test_reduce_simple_block():
    o = op({(0, 0, 0, 0, 2): 0.08, (0, 0, 0, 0, 1): -0.08})
    assert divide_to_z(o) == {0: {0: 0.08}}


def test_reduce_shifted_block():
    o = op({(0, 0, 0, 0, 3): F(1), (0, 0, 0, 0, 2): F(-1)})
    assert divide_to_z(o) == {1: {0: F(1)}}


def test_reduce_rejects_nondivisible():
    with pytest.raises(StructuralError):
        divide_to_z(op({(0, 0, 0, 0, 1): F(1)}))
    with pytest.raises(StructuralError):
        divide_to_z(op({(0, 0, 0, 0, 0): F(1)}))


def test_reduce_rejects_any_exact_remainder():
    # Exact coefficients admit no tolerance: a remainder of 1e-12 is as
    # structural as a remainder of 1.  Floats keep the relative rule.
    tiny = F(1, 10**12)
    dz2, dz, one = (0, 0, 0, 0, 2), (0, 0, 0, 0, 1), (0, 0, 0, 0, 0)
    with pytest.raises(StructuralError):
        divide_to_z(op({dz2: F(1), dz: F(-1), one: tiny}))
    with pytest.raises(StructuralError):
        divide_to_z(op({dz2: F(1), dz: F(-1) + tiny}))
    assert divide_to_z(op({dz2: 1.0, dz: -1.0, one: 1e-12})) == {0: {0: 1.0}}


def test_reduce_at_tau():
    o = op({(0, 0, 0, 0, 2, 2): 3.0, (0, 0, 0, 0, 1, 2): -3.0})
    chi = divide_to_z(o)
    assert {m: sum(c * 0.5**p for p, c in w.items()) for m, w in chi.items()} == {
        0: pytest.approx(0.75)
    }
