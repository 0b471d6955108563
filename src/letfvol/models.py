"""Models, their Taylor coefficient tables, and the market point.

Dynamics are expressed in log coordinates: x is the log ETF price, y the
auxiliary volatility state, z the log LETF price.  A model supplies the
four coefficient functions of the pricing generator,

    a = sigma^2 / 2,   b = g^2 / 2,   c = drift of y,   f = g sigma rho,

and this module differentiates them analytically around an expansion
point to any requested order.

The market point, the table and the models are validated named tuples
(``errors.validated_tuple``): every construction checks the fields, each
number by ``errors.check_number``; fields cannot be reassigned, and an
instance compares, hashes and unpacks as the tuple of its fields.  Each
keeps an instance dict, which holds only what ``expansion`` derives from it.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from types import MappingProxyType

from .errors import ConfigError, DomainError, StructuralError, check_number, validated_tuple

TYPICAL_BETAS = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)


def check_beta(beta: float) -> float:
    """Validate a leverage ratio; warn when it is an unusual value."""
    check_number(beta, "leverage ratio")
    if beta == 0:
        raise DomainError(f"leverage ratio must be nonzero, got {beta}")
    if beta not in TYPICAL_BETAS:
        warnings.warn(
            f"leverage ratio {beta} is outside the funds traded in practice "
            f"{TYPICAL_BETAS}; proceeding anyway",
            stacklevel=3,
        )
    return beta


class MarketPoint(validated_tuple("MarketPoint", [
        ("t", float), ("T", float), ("x", float), ("y", float), ("z", float), ("k", float),
        ("beta", float)])):
    """State and contract for one valuation.

    Attributes:
        t: valuation time in years.
        T: expiry time in years; must exceed t.
        x: log ETF price.
        y: auxiliary volatility state.
        z: log LETF price.
        k: log strike on the LETF.
        beta: leverage ratio of the LETF.

    Every field must be finite.
    """

    def __new__(cls, t: float, T: float, x: float, y: float, z: float, k: float, beta: float):
        for name, value in zip(cls._fields, (t, T, x, y, z, k)):
            check_number(value, name)
        if not T > t:
            raise DomainError(f"need T > t, got t={t}, T={T}")
        check_beta(beta)
        return tuple.__new__(cls, (t, T, x, y, z, k, beta))

    @property
    def tau(self) -> float:
        return self.T - self.t

    @property
    def lam(self) -> float:
        """Log-moneyness of the LETF option."""
        return self.k - self.z


def _check_extent(extent: int) -> None:
    """The extent rule of a Taylor table: an int >= 0, else DomainError."""
    if type(extent) is not int or extent < 0:
        raise DomainError(f"table extent must be an integer >= 0, got {extent!r}")


class TaylorTable(validated_tuple("TaylorTable", [("extent", int), ("entries", Mapping)])):
    """Taylor coefficients of the generator around a frozen point.

    ``entries[name][(i, j)]`` is the coefficient of (x - xbar)^i (y - ybar)^j
    in the expansion of the named function, i.e. the (i, j) partial divided
    by i! j!.  ``entries`` maps families among a, b, c, f to mappings from
    pairs of ints (i, j), i + j <= extent, an int >= 0, to numbers
    (``errors.check_number``); anything else raises DomainError.  Entries
    absent within the extent are zero; reads beyond it are structural
    errors.  The table keeps read-only copies of the families, so what was
    checked is what the expansion reads.  It does not record its point: a
    named model builds it at the (x, y) it is asked for, and a table given
    to the expansion is used as given.  Being immutable, a table may keep
    what the expansion derives from it in its instance dict (see ``expansion``).
    A named model's table comes from ``_taylor_table``, which skips these
    checks (see there); its copies and pickles go through them.
    """

    def __new__(cls, extent: int, entries: Mapping = MappingProxyType({})):
        _check_extent(extent)
        if not isinstance(entries, Mapping) or entries.keys() - set("abcf") or not all(
                isinstance(family, Mapping) for family in entries.values()):
            raise DomainError(f"table entries must map a, b, c, f to mappings, got {entries!r}")
        families = {name: MappingProxyType(dict(entries.get(name, {}))) for name in "abcf"}
        for name, family in families.items():
            for key, value in family.items():
                # type(), not isinstance: True is an int, and a bool key is a slip.
                if not (type(key) is tuple and len(key) == 2 and type(key[0]) is int
                        and type(key[1]) is int and 0 <= key[0] and 0 <= key[1]
                        and key[0] + key[1] <= extent):
                    raise DomainError(f"table key {name}[{key!r}]: need ints >= 0, sum <= {extent}")
                if not (type(value) is float and -math.inf < value < math.inf):
                    check_number(value, "table entry %s%s", name, key)
        a00 = families["a"].get((0, 0), 0.0)
        if not a00 > 0:
            raise DomainError(f"table needs a positive a(0,0), got {a00}")
        return tuple.__new__(cls, (extent, MappingProxyType(families)))

    def get(self, name: str, i: int, j: int):
        if name not in self.entries:
            raise StructuralError(f"unknown coefficient family {name!r}")
        if i < 0 or j < 0 or i + j > self.extent:
            raise StructuralError(
                f"table extent is {self.extent}; requested {name}[{i},{j}]"
            )
        return self.entries[name].get((i, j), 0.0)


def _taylor_table(order: int, x: float, y: float, **families) -> TaylorTable:
    """The table at (x, y) of families that are sums of terms w = c e^(p x + q y),
    given as (c, p, q): each term adds w p^i q^j / (i! j!) to entry (i, j),
    i + j <= order, unless that is 0; leaving the float range raises DomainError.
    Its keys are int pairs within the extent and the named models give only
    families among a, b, c and f, so it checks only that each value is finite
    and a(0,0) positive, and ``TaylorTable.__new__`` does not check again.
    """
    _check_extent(order)  # before the loops read it
    entries: dict = {}
    try:
        for name, terms in families.items():
            family = entries[name] = {}
            for c, p, q in terms:
                w = c * math.exp(p * x + q * y)
                for i in range(order + 1 if p else 1):  # at p = 0 (q = 0) each i (j) > 0 adds 0
                    wp, fi = w * p**i, math.factorial(i)
                    for j in range(order + 1 - i if q else 1):
                        value = wp * q**j / (fi * math.factorial(j))
                        if value:
                            family[i, j] = family.get((i, j), 0.0) + value
    except OverflowError as exc:  # math.exp, or float ** of a steep slope
        raise DomainError(f"Taylor table at x={x}, y={y} leaves the float range") from exc
    # A product or a sum that overflows raises nothing.
    if not all(-math.inf < value < math.inf for family in entries.values() for value in family.values()):
        raise DomainError(f"Taylor table at x={x}, y={y} leaves the float range")
    families = {name: MappingProxyType(entries.get(name, {})) for name in "abcf"}
    a00 = families["a"].get((0, 0), 0.0)
    if not a00 > 0:  # e^(p x + q y) can underflow to 0
        raise DomainError(f"table needs a positive a(0,0), got {a00}")
    return tuple.__new__(TaylorTable, (order, MappingProxyType(families)))


class CevModel(validated_tuple("CevModel", [("delta", float), ("gamma", float)])):
    """Constant-elasticity local volatility: sigma(x) = delta e^((gamma-1) x)."""

    def __new__(cls, delta: float, gamma: float):
        for name, value in zip(cls._fields, (delta, gamma)):
            check_number(value, name)
        if not delta > 0:
            raise DomainError(f"delta must be positive, got {delta}")
        if not gamma <= 1.0:
            raise DomainError(f"gamma must be <= 1, got {gamma}")
        return tuple.__new__(cls, (delta, gamma))

    def taylor_table(self, x: float, y: float, order: int) -> TaylorTable:
        slope = 2.0 * (self.gamma - 1.0)
        return _taylor_table(order, x, y, a=[(0.5 * self.delta**2, slope, 0)])


class HestonModel(validated_tuple("HestonModel", [
        ("kappa", float), ("theta", float), ("delta", float), ("rho", float)])):
    """Square-root stochastic variance, tracked here as y = log variance."""

    def __new__(cls, kappa: float, theta: float, delta: float, rho: float):
        for name, value in zip(cls._fields, (kappa, theta, delta, rho)):
            check_number(value, name)
        if not kappa >= 0:
            raise DomainError(f"kappa must be nonnegative, got {kappa}")
        for name, value in (("theta", theta), ("delta", delta)):
            if not value > 0:
                raise DomainError(f"{name} must be positive, got {value}")
        if not -1.0 < rho < 1.0:
            raise DomainError(f"rho must lie in (-1, 1), got {rho}")
        return tuple.__new__(cls, (kappa, theta, delta, rho))

    def taylor_table(self, x: float, y: float, order: int) -> TaylorTable:
        half_var = 0.5 * self.delta**2
        drift = [(self.kappa * self.theta - half_var, 0, -1), (-self.kappa, 0, 0)]
        return _taylor_table(order, x, y, a=[(0.5, 0, 1)], b=[(half_var, 0, -1)], c=drift,
                             f=[(self.rho * self.delta, 0, 0)])


class SabrModel(validated_tuple("SabrModel", [("delta", float), ("gamma", float), ("rho", float)])):
    """Lognormal vol-of-vol on a CEV backbone: sigma = e^y e^((gamma-1) x)."""

    def __new__(cls, delta: float, gamma: float, rho: float):
        CevModel(delta, gamma)  # the backbone's own checks
        check_number(rho, "rho")
        if not -1.0 < rho < 1.0:
            raise DomainError(f"rho must lie in (-1, 1), got {rho}")
        return tuple.__new__(cls, (delta, gamma, rho))

    def taylor_table(self, x: float, y: float, order: int) -> TaylorTable:
        g, half_var = self.gamma - 1.0, 0.5 * self.delta**2
        return _taylor_table(order, x, y, a=[(0.5, 2.0 * g, 2.0)], b=[(half_var, 0, 0)],
                             c=[(-half_var, 0, 0)], f=[(self.rho * self.delta, g, 1)])


def heston_beta_map(model: HestonModel, y: float, beta: float) -> tuple[HestonModel, float]:
    """Map a Heston ETF description to the equivalent unit-leverage LETF one.

    The LETF log price under leverage beta follows Heston dynamics again,
    with variance scaled by beta^2, vol-of-vol by |beta|, and correlation
    carrying the sign of beta.  Returns the mapped model and log-variance
    state.
    """
    if not isinstance(model, HestonModel):
        raise ConfigError(f"expected a HestonModel, got {type(model).__name__}")
    check_beta(beta)
    check_number(y, "y")
    mapped = HestonModel(
        kappa=model.kappa,
        theta=beta * beta * model.theta,
        delta=abs(beta) * model.delta,
        rho=math.copysign(1.0, beta) * model.rho,
    )
    return mapped, y + math.log(beta * beta)
