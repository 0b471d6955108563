"""Models, their Taylor coefficient tables, and the market point.

Dynamics are expressed in log coordinates: x is the log ETF price, y the
auxiliary volatility state, z the log LETF price.  A model supplies the
four coefficient functions of the pricing generator,

    a = sigma^2 / 2,   b = g^2 / 2,   c = drift of y,   f = g sigma rho,

and this module differentiates them analytically around an expansion
point to any requested order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .errors import DomainError, StructuralError

TYPICAL_BETAS = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)


def check_beta(beta: float) -> float:
    """Validate a leverage ratio; warn when it is an unusual value."""
    if beta == 0 or not math.isfinite(beta):
        raise DomainError(f"leverage ratio must be a nonzero real, got {beta}")
    if beta not in TYPICAL_BETAS:
        warnings.warn(
            f"leverage ratio {beta} is outside the funds traded in practice "
            f"{TYPICAL_BETAS}; proceeding anyway",
            stacklevel=3,
        )
    return beta


@dataclass(frozen=True)
class MarketPoint:
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

    t: float
    T: float
    x: float
    y: float
    z: float
    k: float
    beta: float

    def __post_init__(self):
        for name in ("t", "T", "x", "y", "z", "k"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.T > self.t:
            raise DomainError(f"need T > t, got t={self.t}, T={self.T}")
        check_beta(self.beta)

    @property
    def tau(self) -> float:
        return self.T - self.t

    @property
    def lam(self) -> float:
        """Log-moneyness of the LETF option."""
        return self.k - self.z


@dataclass
class TaylorTable:
    """Taylor coefficients of the generator around a frozen point.

    ``entries[name][(i, j)]`` is the coefficient of (x - xbar)^i (y - ybar)^j
    in the expansion of the named function, i.e. the (i, j) partial divided
    by i! j!.  Entries absent within the extent are zero; reads beyond the
    extent are structural errors.  The table does not record its point: a
    named model builds it at the (x, y) it is asked for, and a table given
    to the expansion directly is used as given.
    """

    extent: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("a", "b", "c", "f"):
            for key, value in self.entries.setdefault(name, {}).items():
                if not math.isfinite(value):
                    raise DomainError(f"table entry {name}{key} must be finite, got {value}")
        a00 = self.entries["a"].get((0, 0), 0.0)
        if not a00 > 0:
            raise DomainError(f"table needs a positive a(0,0), got {a00}")

    def get(self, name: str, i: int, j: int):
        if name not in self.entries:
            raise StructuralError(f"unknown coefficient family {name!r}")
        if i < 0 or j < 0 or i + j > self.extent:
            raise StructuralError(
                f"table extent is {self.extent}; requested {name}[{i},{j}]"
            )
        return self.entries[name].get((i, j), 0.0)


def _taylor_table(order: int, **families) -> TaylorTable:
    """The table of families that are sums of terms w e^(p x + q y), given as
    (w, p, q) with w the term's value at the expansion point: each term adds
    w p^i q^j / (i! j!) to entry (i, j), i + j <= order, unless that is 0.
    """
    entries: dict = {}
    for name, terms in families.items():
        family = entries[name] = {}
        for w, p, q in terms:
            for i in range(order + 1):
                for j in range(order + 1 - i):
                    value = w * p**i * q**j / (math.factorial(i) * math.factorial(j))
                    if value:
                        family[i, j] = family.get((i, j), 0.0) + value
    return TaylorTable(extent=order, entries=entries)


@dataclass(frozen=True)
class CevModel:
    """Constant-elasticity local volatility: sigma(x) = delta e^((gamma-1) x)."""

    delta: float
    gamma: float

    def __post_init__(self):
        if not self.delta > 0 or not math.isfinite(self.delta):
            raise DomainError(f"delta must be positive and finite, got {self.delta}")
        if not self.gamma <= 1.0 or not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite and <= 1, got {self.gamma}")

    def taylor_table(self, x: float, y: float, order: int) -> TaylorTable:
        slope = 2.0 * (self.gamma - 1.0)
        return _taylor_table(order, a=[(0.5 * self.delta**2 * math.exp(slope * x), slope, 0)])


@dataclass(frozen=True)
class HestonModel:
    """Square-root stochastic variance, tracked here as y = log variance."""

    kappa: float
    theta: float
    delta: float
    rho: float

    def __post_init__(self):
        if not self.kappa >= 0 or not math.isfinite(self.kappa):
            raise DomainError(f"kappa must be nonnegative and finite, got {self.kappa}")
        if not self.theta > 0 or not math.isfinite(self.theta):
            raise DomainError(f"theta must be positive and finite, got {self.theta}")
        if not self.delta > 0 or not math.isfinite(self.delta):
            raise DomainError(f"delta must be positive and finite, got {self.delta}")
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie in (-1, 1), got {self.rho}")

    def taylor_table(self, x: float, y: float, order: int) -> TaylorTable:
        half_var, inv_var = 0.5 * self.delta**2, math.exp(-y)
        drift = [((self.kappa * self.theta - half_var) * inv_var, 0, -1), (-self.kappa, 0, 0)]
        return _taylor_table(order, a=[(0.5 * math.exp(y), 0, 1)], b=[(half_var * inv_var, 0, -1)],
                             c=drift, f=[(self.rho * self.delta, 0, 0)])


@dataclass(frozen=True)
class SabrModel:
    """Lognormal vol-of-vol on a CEV backbone: sigma = e^y e^((gamma-1) x)."""

    delta: float
    gamma: float
    rho: float

    def __post_init__(self):
        if not self.delta > 0 or not math.isfinite(self.delta):
            raise DomainError(f"delta must be positive and finite, got {self.delta}")
        if not self.gamma <= 1.0 or not math.isfinite(self.gamma):
            raise DomainError(f"gamma must be finite and <= 1, got {self.gamma}")
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie in (-1, 1), got {self.rho}")

    def taylor_table(self, x: float, y: float, order: int) -> TaylorTable:
        g, half_var = self.gamma - 1.0, 0.5 * self.delta**2
        return _taylor_table(order, a=[(0.5 * math.exp(2.0 * y + 2.0 * g * x), 2.0 * g, 2.0)],
                             b=[(half_var, 0, 0)], c=[(-half_var, 0, 0)],
                             f=[(self.rho * self.delta * math.exp(y + g * x), g, 1)])


def heston_beta_map(model: HestonModel, y: float, beta: float) -> tuple[HestonModel, float]:
    """Map a Heston ETF description to the equivalent unit-leverage LETF one.

    The LETF log price under leverage beta follows Heston dynamics again,
    with variance scaled by beta^2, vol-of-vol by |beta|, and correlation
    carrying the sign of beta.  Returns the mapped model and log-variance
    state.
    """
    check_beta(beta)
    mapped = HestonModel(
        kappa=model.kappa,
        theta=beta * beta * model.theta,
        delta=abs(beta) * model.delta,
        rho=math.copysign(1.0, beta) * model.rho,
    )
    return mapped, y + math.log(beta * beta)
