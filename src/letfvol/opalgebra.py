"""Sparse operator algebra for the price expansion.

Two polynomial layers live here.  ``TimePoly`` is a sparse polynomial over
time variables: index 0 is reserved for the horizon ``tau`` and indices
1..k are the elapsed times u_i = t_i - t of the iterated integrals.
``OperatorPoly`` is a polynomial in five symbols: the centered state
multiplications X = (x - xbar) and Y = (y - ybar) and the derivatives
Dx, Dy, Dz, with TimePoly coefficients.

Multiplications and derivatives in the same coordinate do not commute
(Dx X = X Dx + 1), so every monomial is kept in normal order with the
multiplications on the left, and products re-normalize through the
derivative/multiplication exchange rule.  Dropping the X and Y symbols
altogether would be wrong from the second order on: a derivative arriving
from the left can consume a multiplication before the final evaluation at
the expansion point annihilates it.

``build_Ln`` forms only what ``reduce_to_z`` reads: the last generator
factor is always restricted to its pure-z blocks a * beta^2 (Dz^2 - Dz),
and after each factor the partial-product monomials with an X or Y power
above 0 are dropped.  A multiplication in a left factor is never consumed
(only derivatives to its left could consume it, and there are none), so
those monomials can never reach the X- and Y-free keys the reduction keeps.

Everything works with whatever number type the caller supplies: exact
coefficients (``fractions.Fraction`` in the tests, polynomials in the
table entries and beta when ``chi_compile`` compiles the chi programs) or
floats.  All monomial bookkeeping is exact either way; only coefficient
arithmetic inherits the input type.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, StructuralError

# Highest supported correction order for the integrated operators.
N_MAX = 4


def _trim(powers: tuple) -> tuple:
    end = len(powers)
    while end > 0 and powers[end - 1] == 0:
        end -= 1
    return tuple(powers[:end])


def _format_coeff(value) -> str:
    if isinstance(value, Fraction):
        return str(value)
    return format(float(value), ".12g")


class TimePoly:
    """Sparse polynomial over the time variables (tau, u1, u2, ...)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for powers, coeff in terms.items():
                if coeff == 0:
                    continue
                self.terms[_trim(powers)] = coeff

    @classmethod
    def constant(cls, value) -> "TimePoly":
        return cls({(): value})

    @classmethod
    def variable(cls, index: int, power: int = 1) -> "TimePoly":
        """Monomial for a single time variable; index 0 means tau."""
        if index < 0 or power < 0:
            raise DomainError(f"bad monomial request: index {index}, power {power}")
        powers = tuple(power if i == index else 0 for i in range(index + 1))
        return cls({powers: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TimePoly") -> "TimePoly":
        out = dict(self.terms)
        for powers, coeff in other.terms.items():
            acc = out.get(powers, 0) + coeff
            if acc == 0:
                out.pop(powers, None)
            else:
                out[powers] = acc
        result = TimePoly()
        result.terms = out
        return result

    def __neg__(self) -> "TimePoly":
        return self.scale(-1)

    def __sub__(self, other: "TimePoly") -> "TimePoly":
        return self + (-other)

    def __mul__(self, other: "TimePoly") -> "TimePoly":
        out = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                width = max(len(p1), len(p2))
                merged = _trim(
                    tuple(
                        (p1[i] if i < len(p1) else 0) + (p2[i] if i < len(p2) else 0)
                        for i in range(width)
                    )
                )
                acc = out.get(merged, 0) + c1 * c2
                if acc == 0:
                    out.pop(merged, None)
                else:
                    out[merged] = acc
        result = TimePoly()
        result.terms = out
        return result

    def scale(self, factor) -> "TimePoly":
        if factor == 0:
            return TimePoly()
        result = TimePoly()
        result.terms = {p: c * factor for p, c in self.terms.items()}
        return result

    def max_abs(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def evaluate(self, tau):
        """Value of a pure-tau polynomial at a numeric tau."""
        total = 0
        for powers, coeff in self.terms.items():
            if len(powers) > 1:
                raise StructuralError(
                    f"polynomial still carries u-variables: exponents {powers}"
                )
            total += coeff * tau ** (powers[0] if powers else 0)
        return total

    def dump(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for powers in sorted(self.terms):
            coeff = self.terms[powers]
            factors = [_format_coeff(coeff)]
            for index, power in enumerate(powers):
                if power == 0:
                    continue
                name = "tau" if index == 0 else f"u{index}"
                factors.append(name if power == 1 else f"{name}^{power}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    def __repr__(self):
        return f"TimePoly({self.dump()})"


def _falling(p: int, r: int) -> int:
    """Falling factorial p (p-1) ... (p-r+1)."""
    out = 1
    for step in range(r):
        out *= p - step
    return out


def _normal_order_product(k1: tuple, k2: tuple):
    """Monomial product in normal order: multiplications left, derivatives right.

    Keys are (X power, Y power, Dx order, Dy order, Dz order).  Moving the
    left factor's derivatives past the right factor's multiplications uses
    Dx^i X^p = sum_r C(i, r) p!/(p-r)! X^(p-r) Dx^(i-r), coordinatewise in
    x and y; Dz commutes with everything here because no monomial carries a
    z multiplication.  Yields (key, integer coefficient) pairs.
    """
    xm1, ym1, dx1, dy1, dz1 = k1
    xm2, ym2, dx2, dy2, dz2 = k2
    for r in range(min(dx1, xm2) + 1):
        cx = math.comb(dx1, r) * _falling(xm2, r)
        for s in range(min(dy1, ym2) + 1):
            cy = math.comb(dy1, s) * _falling(ym2, s)
            yield (
                (
                    xm1 + xm2 - r,
                    ym1 + ym2 - s,
                    dx1 + dx2 - r,
                    dy1 + dy2 - s,
                    dz1 + dz2,
                ),
                cx * cy,
            )


class OperatorPoly:
    """Normal-ordered polynomial in (X, Y, Dx, Dy, Dz) with TimePoly coefficients.

    Monomial keys are (X power, Y power, Dx order, Dy order, Dz order),
    read as the multiplications applied after the derivatives.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, poly in terms.items():
                if not isinstance(poly, TimePoly):
                    poly = TimePoly.constant(poly)
                if not poly.is_zero():
                    self.terms[tuple(key)] = poly

    @classmethod
    def zero(cls) -> "OperatorPoly":
        return cls()

    @classmethod
    def identity(cls) -> "OperatorPoly":
        return cls({(0, 0, 0, 0, 0): TimePoly.constant(1)})

    def __add__(self, other: "OperatorPoly") -> "OperatorPoly":
        out = dict(self.terms)
        for key, poly in other.terms.items():
            acc = out[key] + poly if key in out else poly
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
        result = OperatorPoly()
        result.terms = out
        return result

    def __sub__(self, other: "OperatorPoly") -> "OperatorPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "OperatorPoly") -> "OperatorPoly":
        out = {}
        for k1, p1 in self.terms.items():
            for k2, p2 in other.terms.items():
                prod = p1 * p2
                for key, count in _normal_order_product(k1, k2):
                    piece = prod.scale(count)
                    acc = out[key] + piece if key in out else piece
                    if acc.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = acc
        result = OperatorPoly()
        result.terms = out
        return result

    def scale(self, factor) -> "OperatorPoly":
        result = OperatorPoly()
        for key, poly in self.terms.items():
            scaled = poly.scale(factor)
            if not scaled.is_zero():
                result.terms[key] = scaled
        return result

    def scale_poly(self, poly: TimePoly) -> "OperatorPoly":
        result = OperatorPoly()
        for key, coeff in self.terms.items():
            prod = coeff * poly
            if not prod.is_zero():
                result.terms[key] = prod
        return result

    def __pow__(self, exponent: int) -> "OperatorPoly":
        if exponent < 0:
            raise DomainError(f"operator power must be nonnegative, got {exponent}")
        result = OperatorPoly.identity()
        for _ in range(exponent):
            result = result * self
        return result

    def max_abs(self) -> float:
        return max((p.max_abs() for p in self.terms.values()), default=0.0)

    def equals(self, other: "OperatorPoly", tol: float = 0.0) -> bool:
        keys = set(self.terms) | set(other.terms)
        for key in keys:
            a = self.terms.get(key, TimePoly())
            b = other.terms.get(key, TimePoly())
            if (a - b).max_abs() > tol:
                return False
        return True

    def dump(self) -> str:
        """Canonical text form, sorted by monomial exponents."""
        if not self.terms:
            return "0"
        lines = []
        for key in sorted(self.terms):
            xm, ym, i, j, m = key
            symbol = []
            for name, power in (("X", xm), ("Y", ym), ("Dx", i), ("Dy", j), ("Dz", m)):
                if power == 1:
                    symbol.append(name)
                elif power > 1:
                    symbol.append(f"{name}^{power}")
            head = "*".join(symbol) if symbol else "1"
            lines.append(f"{head}: {self.terms[key].dump()}")
        return "\n".join(lines)

    def __repr__(self):
        return f"OperatorPoly(\n{self.dump()}\n)"


def compositions(n: int, k: int):
    """Ordered tuples of k positive integers summing to n."""
    if k < 1 or k > n:
        return
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


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


def simplex_integrate_poly(p: TimePoly, k: int) -> TimePoly:
    """Integrate a TimePoly in u_1..u_k over the ordered simplex.

    Returns a polynomial in tau alone (variable index 0).
    """
    out = TimePoly()
    for powers, coeff in p.terms.items():
        if powers and powers[0] != 0:
            raise StructuralError("simplex integrand already contains tau")
        if len(powers) > k + 1:
            raise StructuralError(
                f"integrand uses u{len(powers) - 1} but only {k} time variables exist"
            )
        u_powers = tuple(powers[1 : k + 1])
        u_powers = u_powers + (0,) * (k - len(u_powers))
        weight = simplex_weight(u_powers)
        tau_power = k + sum(u_powers)
        out = out + TimePoly({(tau_power,): coeff * weight})
    return out


def build_Ank(table, n: int, k: int, beta: float) -> OperatorPoly:
    """Taylor block of the generator with x-order n-k and y-order k.

    The block couples the three log coordinates through the leverage
    ratio: a-entries weight (Dx^2 - Dx) + beta^2 (Dz^2 - Dz) + 2 beta Dx Dz,
    b-entries weight Dy^2, c-entries Dy, and f-entries Dx Dy + beta Dy Dz.
    """
    if k < 0 or k > n:
        raise DomainError(f"need 0 <= k <= n, got n={n}, k={k}")
    p, q = n - k, k
    a = table.get("a", p, q)
    b = table.get("b", p, q)
    c = table.get("c", p, q)
    f = table.get("f", p, q)
    beta2 = beta * beta
    terms = {
        (0, 0, 2, 0, 0): a,
        (0, 0, 1, 0, 0): -a,
        (0, 0, 0, 0, 2): a * beta2,
        (0, 0, 0, 0, 1): -a * beta2,
        (0, 0, 1, 0, 1): 2 * beta * a,
        (0, 0, 0, 2, 0): b,
        (0, 0, 0, 1, 0): c,
        (0, 0, 1, 1, 0): f,
        (0, 0, 0, 1, 1): beta * f,
    }
    return OperatorPoly(terms)


def build_M_shift(which: str, table, beta: float, time_index: int = 1) -> OperatorPoly:
    """Centered state-shift operator for the x or y coordinate.

    The shift is the centered multiplication X (or Y) plus a derivative
    body linear in the elapsed time u = t_i - t, carried by the time
    variable of the given index.  The multiplication part vanishes under
    the final evaluation at the expansion point but must be kept until
    then: derivatives arriving from the left do not commute with it.
    """
    a00 = table.get("a", 0, 0)
    b00 = table.get("b", 0, 0)
    c00 = table.get("c", 0, 0)
    f00 = table.get("f", 0, 0)
    u = TimePoly.variable(time_index)
    if which == "x":
        mult = OperatorPoly({(1, 0, 0, 0, 0): 1})
        body = OperatorPoly(
            {
                (0, 0, 1, 0, 0): 2 * a00,
                (0, 0, 0, 0, 1): 2 * beta * a00,
                (0, 0, 0, 0, 0): -a00,
                (0, 0, 0, 1, 0): f00,
            }
        )
    elif which == "y":
        mult = OperatorPoly({(0, 1, 0, 0, 0): 1})
        body = OperatorPoly(
            {
                (0, 0, 1, 0, 0): f00,
                (0, 0, 0, 0, 1): beta * f00,
                (0, 0, 0, 1, 0): 2 * b00,
                (0, 0, 0, 0, 0): c00,
            }
        )
    else:
        raise DomainError(f"shift must be 'x' or 'y', got {which!r}")
    return mult + body.scale_poly(u)


def build_Gn(
    table,
    n: int,
    beta: float,
    time_index: int = 1,
    a_part_only: bool = False,
) -> OperatorPoly:
    """Order-n expansion generator evaluated at elapsed time u_(time_index).

    Sums shift powers against the matching Taylor blocks.  With
    ``a_part_only`` each block is restricted to its pure-z second-order
    part a * beta^2 (Dz^2 - Dz), the form ``build_Ln`` uses for the last
    factor.
    """
    if n < 0:
        raise DomainError(f"generator order must be >= 0, got {n}")
    total = OperatorPoly.zero()
    shift_x = build_M_shift("x", table, beta, time_index) if n > 0 else None
    shift_y = build_M_shift("y", table, beta, time_index) if n > 0 else None
    beta2 = beta * beta
    for k in range(n + 1):
        if a_part_only:
            a = table.get("a", n - k, k)
            block = OperatorPoly(
                {(0, 0, 0, 0, 2): a * beta2, (0, 0, 0, 0, 1): -a * beta2}
            )
        else:
            block = build_Ank(table, n, k, beta)
        if not block.terms:
            continue
        piece = block
        if n - k:
            piece = shift_x ** (n - k) * piece
        if k:
            piece = shift_y**k * piece
        total = total + piece
    return total


def build_Ln(table, n: int, beta: float) -> OperatorPoly:
    """Integrated order-n correction operator, as far as ``reduce_to_z`` reads it.

    Sums generator products over all ordered compositions of n, each
    factor carrying its own time variable, and integrates them over the
    ordered simplex.  Coefficients of the result are polynomials in tau.
    Two kinds of terms are never formed:

    - The factor with the last time variable acts first on the function.
      Every monomial of its Taylor blocks other than a * beta^2 (Dz^2 - Dz)
      carries Dx or Dy and annihilates a function of z, so that factor is
      always restricted to its pure-z blocks.
    - After each factor, partial-product monomials with an X or Y power
      above 0 are dropped: no later derivative reaches them, so they
      vanish at the expansion point.

    The reduction to z equals that of the unrestricted, unpruned product,
    which the tests check.
    """
    if not 1 <= n <= N_MAX:
        raise DomainError(f"correction order must be in 1..{N_MAX}, got {n}")
    total = OperatorPoly.zero()
    for k in range(1, n + 1):
        for comp in compositions(n, k):
            product = OperatorPoly.identity()
            for j, order in enumerate(comp):
                factor = build_Gn(
                    table, order, beta, time_index=j + 1, a_part_only=j == k - 1
                )
                product = product * factor
                product.terms = {
                    key: poly
                    for key, poly in product.terms.items()
                    if key[0] == 0 and key[1] == 0
                }
            integrated = OperatorPoly()
            for key, poly in product.terms.items():
                integrated.terms[key] = simplex_integrate_poly(poly, k)
            total = total + integrated
    return total


@dataclass
class ZReduction:
    """Action of an operator on functions of z alone, divided by Dz^2 - Dz.

    ``chi[m]`` is the tau-polynomial weight of Dz^m (Dz^2 - Dz).
    """

    chi: dict

    def at_tau(self, tau) -> dict:
        return {m: poly.evaluate(tau) for m, poly in self.chi.items()}

    def is_zero(self) -> bool:
        return all(poly.is_zero() for poly in self.chi.values())


def reduce_to_z(op: OperatorPoly, tol: float = 1e-9) -> ZReduction:
    """Restrict an operator to its action on functions of z alone,
    evaluated at the expansion point.

    Monomials containing Dx or Dy annihilate such functions; monomials
    still carrying an X or Y multiplication vanish at the expansion
    point.  (Normal ordering matters here: a multiplication consumed by
    a derivative during a product no longer appears in the key.)  The
    surviving polynomial in Dz must factor through Dz^2 - Dz; the
    quotient coefficients are returned.

    Raises:
        StructuralError: the pure-z part is not divisible by Dz^2 - Dz
            (relative remainder above ``tol`` for float coefficients,
            any nonzero remainder for exact ones).
    """
    z_part = {}
    for (xm, ym, i, j, m), poly in op.terms.items():
        if xm == 0 and ym == 0 and i == 0 and j == 0:
            z_part[m] = z_part[m] + poly if m in z_part else poly
    if not z_part:
        return ZReduction(chi={})
    degree = max(z_part)
    coeffs = [z_part.get(m, TimePoly()) for m in range(degree + 1)]
    # Synthetic division by Dz^2 - Dz: Dz^d = Dz^(d-2) (Dz^2 - Dz) + Dz^(d-1).
    quotient = [TimePoly() for _ in range(max(degree - 1, 0))]
    for d in range(degree, 1, -1):
        lead = coeffs[d]
        if lead.is_zero():
            continue
        quotient[d - 2] = quotient[d - 2] + lead
        coeffs[d - 1] = coeffs[d - 1] + lead
        coeffs[d] = TimePoly()
    remainder = [c for poly in coeffs[:2] for c in poly.terms.values()]
    if any(isinstance(c, float) for c in remainder):
        remainder_scale = max(abs(c) for c in remainder)
        scale = max(op.max_abs(), 1)
        if remainder_scale > tol * scale:
            raise StructuralError(
                f"pure-z part not divisible by Dz^2 - Dz: remainder scale "
                f"{remainder_scale} vs operator scale {scale}"
            )
    elif remainder:
        raise StructuralError(
            f"pure-z part not divisible by Dz^2 - Dz: {len(remainder)} "
            f"nonzero exact remainder terms"
        )
    chi = {m: poly for m, poly in enumerate(quotient) if not poly.is_zero()}
    return ZReduction(chi=chi)
