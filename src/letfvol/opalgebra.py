"""Integrated correction operators L_n of the price expansion, on commuting symbols.

The order-n correction is u_n = L_n u_0, where L_n sums, over the ordered
compositions (n_1, ..., n_k) of n, the iterated integrals

    int_{0 < u_1 < ... < u_k < tau} G_{n_1}(u_1) ... G_{n_k}(u_k),

u_j = t_j - t the elapsed times.  The generator
G_m(u) = sum_q M_y^q M_x^(m-q) A_{m-q,q} pairs the Taylor blocks A_{p,q} of
the pricing operator with the centered shifts M_x = X + u B_x and
M_y = Y + u B_y, where X = x - xbar and Y = y - ybar are multiplications
and the blocks and the bodies B are polynomials in Dx, Dy, Dz.

Three facts turn this product of noncommuting operators into commutative
algebra:

- Pruned products commute.  The factors are multiplied left to right, so
  every later factor acts to the right of the partial product, and no
  derivative ever reaches a multiplication on its left: a term of the
  partial product with X or Y in front keeps it and vanishes at the
  expansion point.  Dropping those terms leaves a pure derivative
  polynomial P, and derivatives commute.
- P X = X P + dP/dDx, and X P is dropped, so right-multiplying by a shift
  is P M_x = dP/dDx + u P B_x, and likewise P M_y = dP/dDy + u P B_y.
- The last factor acts first, on a function of z alone, so of its blocks
  only a_{p,q} beta^2 (Dz^2 - Dz) survives: every other monomial carries
  Dx or Dy.  Hence Dz^2 - Dz factors out of L_n to the right.

A partial product is a dict {(Dx order, Dy order, Dz order, u_1 power, ...,
u_j power): coeff}.  ``build_Ln`` returns L_n with Dz^2 - Dz factored out,
as {(Dx order, Dy order, Dz order, tau power): coeff}, and ``reduce_to_z``
keeps its Dx- and Dy-free part, chi as {m: {tau power: coeff}}.

Everything works with whatever number type the caller supplies: exact
coefficients (``fractions.Fraction`` in the tests, polynomials in the
table entries and beta when ``chi_compile`` compiles the chi programs) or
floats.  Exponent bookkeeping is exact either way; only coefficient
arithmetic inherits the input type.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import DomainError


@functools.lru_cache(maxsize=None)
def simplex_weight(exponents: tuple) -> Fraction:
    """Exact weight c with int_simplex prod u_j^(a_j) = c * tau^(k + sum a).

    The iterated integral runs over 0 < u_1 < ... < u_k < tau with
    u_j = t_j - t.  Integrating u_1, then u_2, ... each from 0 to the next
    variable up gives c = prod_j 1 / (j + a_1 + ... + a_j).  The exponent
    tuples are bounded by the expansion order, so the cache stays small.
    """
    denominator = 1
    depth = 0
    for a in exponents:
        depth += a + 1
        denominator *= depth
    return Fraction(1, denominator)


def _add(out: dict, key: tuple, value) -> None:
    """out[key] += value; a zero sum removes the key."""
    acc = out.get(key, 0) + value
    if acc == 0:
        out.pop(key, None)
    else:
        out[key] = acc


def _nonzero(terms: dict) -> dict:
    """A derivative polynomial {(Dx, Dy, Dz) orders: coeff}, zeros left out."""
    return {key: c for key, c in terms.items() if c != 0}


def _times(P: dict, B: dict, du: int) -> dict:
    """P B for a derivative polynomial B, times u^du in the newest variable."""
    out: dict = {}
    for key, c in P.items():
        us = key[3:-1] + (key[-1] + du,)
        for (i, j, m), b in B.items():
            _add(out, (key[0] + i, key[1] + j, key[2] + m) + us, c * b)
    return out


def _shift(P: dict, axis: int, body: dict) -> dict:
    """P (X + u B) for axis 0, P (Y + u B) for axis 1, pruned: dP/dD + u P B."""
    out = _times(P, body, 1)
    for key, c in P.items():
        power = key[axis]
        if power:
            _add(out, key[:axis] + (power - 1,) + key[axis + 1 :], power * c)
    return out


def _apply(P: dict, blocks: list, bx: dict, by: dict) -> dict:
    """P G_m at a new time variable, for blocks[q] = A_{m-q,q}."""
    x_powers = [{key + (0,): c for key, c in P.items()}]  # P M_x^i
    m = len(blocks) - 1
    out: dict = {}
    for q, block in enumerate(blocks):
        if not block:
            continue
        while len(x_powers) <= m - q:
            x_powers.append(_shift(x_powers[-1], 0, bx))
        piece = x_powers[m - q]
        for _ in range(q):
            piece = _shift(piece, 1, by)
        for key, c in _times(piece, block, 0).items():
            _add(out, key, c)
    return out


def _blocks(table, m: int, beta) -> list:
    """The Taylor blocks A_{m-q,q}, q = 0..m, of the order-m generator.

    A block couples the three log coordinates through the leverage ratio:
    a-entries weight (Dx^2 - Dx) + beta^2 (Dz^2 - Dz) + 2 beta Dx Dz,
    b-entries Dy^2, c-entries Dy, and f-entries Dx Dy + beta Dy Dz.
    """
    blocks = []
    for q in range(m + 1):
        a, b, c, f = (table.get(name, m - q, q) for name in "abcf")
        blocks.append(
            _nonzero(
                {
                    (2, 0, 0): a,
                    (1, 0, 0): -a,
                    (0, 0, 2): a * beta * beta,
                    (0, 0, 1): -a * beta * beta,
                    (1, 0, 1): 2 * beta * a,
                    (0, 2, 0): b,
                    (0, 1, 0): c,
                    (1, 1, 0): f,
                    (0, 1, 1): beta * f,
                }
            )
        )
    return blocks


def build_Ln(table, n: int, beta) -> dict:
    """Integrated order-n correction operator with Dz^2 - Dz factored out.

    Returns {(Dx order, Dy order, Dz order, tau power): coeff}, the operator
    sum coeff tau^p Dx^i Dy^j Dz^m (Dz^2 - Dz), as far as its action at the
    expansion point on functions of z goes (see the module docstring).
    Compositions sharing a prefix share its partial product.

    Raises:
        DomainError: n is not an integer >= 1.
        StructuralError: the table does not extend to order n.
    """
    if not isinstance(n, int) or n < 1:
        raise DomainError(f"correction order must be an integer >= 1, got {n}")
    a00, b00, c00, f00 = (table.get(name, 0, 0) for name in "abcf")
    bx = _nonzero(
        {(1, 0, 0): 2 * a00, (0, 0, 1): 2 * beta * a00, (0, 0, 0): -a00, (0, 1, 0): f00}
    )
    by = _nonzero(
        {(1, 0, 0): f00, (0, 0, 1): beta * f00, (0, 1, 0): 2 * b00, (0, 0, 0): c00}
    )
    beta2 = beta * beta
    inner = {m: _blocks(table, m, beta) for m in range(1, n)}
    last = {
        m: [_nonzero({(0, 0, 0): table.get("a", m - q, q) * beta2}) for q in range(m + 1)]
        for m in range(1, n + 1)
    }
    total: dict = {}

    def extend(P: dict, rest: int) -> None:
        # Every composition of the remaining order `rest` after the prefix P.
        for key, c in _apply(P, last[rest], bx, by).items():
            us = key[3:]
            _add(total, key[:3] + (len(us) + sum(us),), c * simplex_weight(us))
        for m in range(1, rest):
            extend(_apply(P, inner[m], bx, by), rest - m)

    extend({(0, 0, 0): 1}, n)
    return total


def reduce_to_z(op: dict) -> dict:
    """chi of a ``build_Ln`` operator: {m: {tau power: coeff}}.

    The weight of Dz^m (Dz^2 - Dz) in the action on functions of z alone;
    terms carrying Dx or Dy annihilate those functions and are dropped.
    """
    chi: dict = {}
    for (i, j, m, p), c in op.items():
        if i == 0 and j == 0:
            chi.setdefault(m, {})[p] = c
    return chi
