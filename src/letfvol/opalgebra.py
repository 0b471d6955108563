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

The weights of L_n are therefore fixed polynomials in tau, beta and the
Taylor-table entries, which the generator forms directly.  A partial
product is one flat dict

    {(Dx, Dy, Dz, beta power, entries, u_1 power, ..., u_j power): int},

where ``entries`` is the sorted tuple of the table entries (name, i, j) in
the product, one per unit of power; a Taylor block is a constant dict.

Coefficients stay integers.  The simplex integral of prod_j u_j^(a_j) is
tau^(k + sum a) / d, where d is a product of distinct depths
j + a_1 + ... + a_j <= k + sum a <= 2n, so d divides (2n)!; ``build_Ln``
scales every weight by (2n)! and returns that denominator with the
operator, and ``reduce_to_z`` takes each chi weight to lowest terms.

Only what can reach the expansion point is formed.  A shift lowers
Dx + Dy by at most one and a block never lowers it, and the factors of a
remaining order ``rest`` hold at most ``rest`` shifts, so a term with
Dx + Dy > rest before them can never become Dx- and Dy-free; it is
dropped, and after the last factor only Dx = Dy = 0 is kept.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError

# Templates {(Dx, Dy, Dz, beta power, family): coeff}, placed at the entries
# (family, i, j) by ``_at``.  The Taylor block A_{i,j}:
_BLOCK = {
    (2, 0, 0, 0, "a"): 1, (1, 0, 0, 0, "a"): -1,  # a (Dx^2 - Dx)
    (0, 0, 2, 2, "a"): 1, (0, 0, 1, 2, "a"): -1,  # a beta^2 (Dz^2 - Dz)
    (1, 0, 1, 1, "a"): 2,  # 2 a beta Dx Dz
    (0, 2, 0, 0, "b"): 1, (0, 1, 0, 0, "c"): 1,  # b Dy^2 + c Dy
    (1, 1, 0, 0, "f"): 1, (0, 1, 1, 1, "f"): 1,  # f (Dx Dy + beta Dy Dz)
}
# What acts of it in the last factor, with Dz^2 - Dz factored out.
_LAST = {(0, 0, 0, 2, "a"): 1}
# The shift bodies, at (0, 0): B_x = a (2 Dx + 2 beta Dz - 1) + f Dy and
# B_y = f (Dx + beta Dz) + 2 b Dy + c.
_BX = {(1, 0, 0, 0, "a"): 2, (0, 0, 1, 1, "a"): 2, (0, 0, 0, 0, "a"): -1, (0, 1, 0, 0, "f"): 1}
_BY = {(1, 0, 0, 0, "f"): 1, (0, 0, 1, 1, "f"): 1, (0, 1, 0, 0, "b"): 2, (0, 0, 0, 0, "c"): 1}


def _at(template: dict, i: int, j: int) -> dict:
    """A template as a constant dict: each family letter becomes (family, i, j)."""
    return {key[:4] + (((key[4], i, j),),): c for key, c in template.items()}


@functools.lru_cache(maxsize=None)
def simplex_denominator(exponents: tuple) -> int:
    """d with int_simplex prod u_j^(a_j) = tau^(k + sum a) / d.

    The iterated integral runs over 0 < u_1 < ... < u_k < tau with
    u_j = t_j - t.  Integrating u_1, then u_2, ... each from 0 to the next
    variable up gives d = prod_j (j + a_1 + ... + a_j).  The exponent
    tuples are bounded by the expansion order, so the cache stays small.
    """
    denominator = 1
    depth = 0
    for a in exponents:
        depth += a + 1
        denominator *= depth
    return denominator


def _add(out: dict, key: tuple, value: int) -> None:
    """out[key] += value; a zero sum removes the key."""
    acc = out.get(key, 0) + value
    if acc == 0:
        out.pop(key, None)
    else:
        out[key] = acc


def _times(P: dict, B: dict, du: int) -> dict:
    """P B for a constant dict B, times u^du in the newest variable."""
    out: dict = {}
    for key, c in P.items():
        us = key[5:-1] + (key[-1] + du,)
        for (i, j, m, p, entries), b in B.items():
            merged = tuple(sorted(key[4] + entries))
            _add(out, (key[0] + i, key[1] + j, key[2] + m, key[3] + p, merged) + us, c * b)
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
        while len(x_powers) <= m - q:
            x_powers.append(_shift(x_powers[-1], 0, bx))
        piece = x_powers[m - q]
        for _ in range(q):
            piece = _shift(piece, 1, by)
        for key, c in _times(piece, block, 0).items():
            _add(out, key, c)
    return out


def build_Ln(n: int) -> tuple:
    """Integrated order-n correction operator with Dz^2 - Dz factored out.

    Returns (terms, den): terms is {(Dz order, tau power, beta power,
    entries): num} with integer num, and L_n acts on functions of z at the
    expansion point as the sum of num / den * beta^p * prod(entries) *
    tau^power Dz^m (Dz^2 - Dz) (see the module docstring).  Compositions
    sharing a prefix share its partial product.

    Raises:
        DomainError: n is not an integer >= 1.
    """
    if type(n) is not int or n < 1:
        raise DomainError(f"correction order must be an integer >= 1, got {n}")
    bx, by = _at(_BX, 0, 0), _at(_BY, 0, 0)
    # The blocks A_{m-q,q}, q = 0..m, of each order-m generator.
    inner = {m: [_at(_BLOCK, m - q, q) for q in range(m + 1)] for m in range(1, n)}
    last = {m: [_at(_LAST, m - q, q) for q in range(m + 1)] for m in range(1, n + 1)}
    den = math.factorial(2 * n)
    total: dict = {}

    def extend(P: dict, rest: int) -> None:
        # Every composition of the remaining order `rest` after the prefix P.
        P = {key: c for key, c in P.items() if key[0] + key[1] <= rest}
        for key, c in _apply(P, last[rest], bx, by).items():
            if key[0] == key[1] == 0:
                us = key[5:]
                weight = den // simplex_denominator(us)
                _add(total, (key[2], len(us) + sum(us), key[3], key[4]), c * weight)
        for m in range(1, rest):
            extend(_apply(P, inner[m], bx, by), rest - m)

    extend({(0, 0, 0, 0, ()): 1}, n)
    return total, den


def reduce_to_z(op: tuple) -> dict:
    """chi of a ``build_Ln`` operator, in lowest terms.

    Returns {m: {tau power: (den, {(beta power, entries): num})}}: the
    weight of Dz^m (Dz^2 - Dz) at that power of tau is
    sum(num * beta^p * prod(entries)) / den, with integer num and den and
    no common factor left.
    """
    terms, den = op
    chi: dict = {}
    for (m, tau_pow, p, entries), num in terms.items():
        chi.setdefault(m, {}).setdefault(tau_pow, {})[p, entries] = num
    for weights in chi.values():
        for tau_pow, poly in weights.items():
            g = math.gcd(den, *poly.values())
            weights[tau_pow] = (den // g, {key: num // g for key, num in poly.items()})
    return chi
