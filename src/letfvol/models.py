"""Model definitions, Taylor coefficient tables, and market-point plumbing.

Dynamics are expressed in log coordinates: x is the log ETF price, y the
auxiliary volatility state, z the log LETF price.  A model supplies the
four coefficient functions of the pricing generator,

    a = sigma^2 / 2,   b = g^2 / 2,   c = drift of y,   f = g sigma rho,

and this module differentiates them analytically around an expansion
point to any requested order.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, DomainError, StructuralError

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
    """

    t: float
    T: float
    x: float
    y: float
    z: float
    k: float
    beta: float

    def __post_init__(self):
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
    extent are structural errors.
    """

    point: tuple
    extent: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("a", "b", "c", "f"):
            self.entries.setdefault(name, {})
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


@dataclass(frozen=True)
class CevModel:
    """Constant-elasticity local volatility: sigma(x) = delta e^((gamma-1) x)."""

    delta: float
    gamma: float

    kind = "cev"
    rho = 0.0

    def __post_init__(self):
        if not self.delta > 0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        if self.gamma > 1.0:
            raise DomainError(f"gamma must be <= 1, got {self.gamma}")

    def taylor_table(self, x: float, y: float, order: int) -> TaylorTable:
        a00 = 0.5 * self.delta**2 * math.exp(2.0 * (self.gamma - 1.0) * x)
        slope = 2.0 * (self.gamma - 1.0)
        a = {
            (i, 0): a00 * slope**i / math.factorial(i)
            for i in range(order + 1)
            if a00 * slope**i != 0.0
        }
        return TaylorTable(point=(x, y), extent=order, entries={"a": a})


@dataclass(frozen=True)
class HestonModel:
    """Square-root stochastic variance, tracked here as y = log variance."""

    kappa: float
    theta: float
    delta: float
    rho: float

    kind = "heston"

    def __post_init__(self):
        if not self.kappa >= 0:
            raise DomainError(f"kappa must be nonnegative, got {self.kappa}")
        if not self.theta > 0:
            raise DomainError(f"theta must be positive, got {self.theta}")
        if not self.delta > 0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie in (-1, 1), got {self.rho}")

    def taylor_table(self, x: float, y: float, order: int) -> TaylorTable:
        a00 = 0.5 * math.exp(y)
        b00 = 0.5 * self.delta**2 * math.exp(-y)
        c_exp = (self.kappa * self.theta - 0.5 * self.delta**2) * math.exp(-y)
        entries: dict = {"a": {}, "b": {}, "c": {}, "f": {}}
        for j in range(order + 1):
            norm = math.factorial(j)
            sign = (-1.0) ** j
            entries["a"][(0, j)] = a00 / norm
            entries["b"][(0, j)] = b00 * sign / norm
            entries["c"][(0, j)] = c_exp * sign / norm
        entries["c"][(0, 0)] -= self.kappa
        if self.rho:
            entries["f"][(0, 0)] = self.rho * self.delta
        return TaylorTable(point=(x, y), extent=order, entries=entries)


@dataclass(frozen=True)
class SabrModel:
    """Lognormal vol-of-vol on a CEV backbone: sigma = e^y e^((gamma-1) x)."""

    delta: float
    gamma: float
    rho: float

    kind = "sabr"

    def __post_init__(self):
        if not self.delta > 0:
            raise DomainError(f"delta must be positive, got {self.delta}")
        if self.gamma > 1.0:
            raise DomainError(f"gamma must be <= 1, got {self.gamma}")
        if not -1.0 < self.rho < 1.0:
            raise DomainError(f"rho must lie in (-1, 1), got {self.rho}")

    def taylor_table(self, x: float, y: float, order: int) -> TaylorTable:
        a00 = 0.5 * math.exp(2.0 * y + 2.0 * (self.gamma - 1.0) * x)
        f00 = self.rho * self.delta * math.exp(y + (self.gamma - 1.0) * x)
        sx = 2.0 * (self.gamma - 1.0)
        entries: dict = {"a": {}, "b": {}, "c": {}, "f": {}}
        for i in range(order + 1):
            for j in range(order + 1 - i):
                norm = math.factorial(i) * math.factorial(j)
                entries["a"][(i, j)] = a00 * sx**i * 2.0**j / norm
                if f00 and (self.gamma - 1.0) ** i != 0.0:
                    entries["f"][(i, j)] = f00 * (self.gamma - 1.0) ** i / norm
        entries["b"][(0, 0)] = 0.5 * self.delta**2
        entries["c"][(0, 0)] = -0.5 * self.delta**2
        return TaylorTable(point=(x, y), extent=order, entries=entries)


@dataclass(frozen=True)
class CustomTableModel:
    """A model given directly by its Taylor table, with no global dynamics.

    The point and extent guards apply only to ``taylor_table`` queries,
    where the model is asked to act as a model at some (x, y): it can
    answer only at the table's own point.  The series routes read
    ``table`` directly and use it as given.
    """

    table: TaylorTable

    kind = "custom"
    rho = 0.0

    def taylor_table(self, x: float, y: float, order: int) -> TaylorTable:
        if (x, y) != tuple(self.table.point):
            raise ConfigError(
                f"custom table is frozen at {self.table.point}, requested ({x}, {y})"
            )
        if order > self.table.extent:
            raise ConfigError(
                f"custom table extends to order {self.table.extent}, requested {order}"
            )
        return self.table


ModelSpec = CevModel | HestonModel | SabrModel | CustomTableModel


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


@dataclass(frozen=True)
class PiecewiseConstantCurve:
    """Right-open piecewise-constant function of time with exact integrals."""

    times: tuple
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.times) + 1:
            raise ConfigError(
                f"need len(values) == len(times) + 1, got {len(self.values)} "
                f"and {len(self.times)}"
            )
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError(f"breakpoints must increase, got {self.times}")

    @classmethod
    def constant(cls, value: float) -> "PiecewiseConstantCurve":
        return cls(times=(), values=(value,))

    def integral(self, t: float, T: float) -> float:
        if T < t:
            raise DomainError(f"need T >= t, got t={t}, T={T}")
        grid = [t] + [s for s in self.times if t < s < T] + [T]
        total = 0.0
        for left, right in zip(grid, grid[1:]):
            index = sum(1 for s in self.times if s <= left)
            total += self.values[index] * (right - left)
        return total


@dataclass(frozen=True)
class RateCurves:
    """Deterministic interest rate r, dividend yield q, and expense rate c."""

    r: PiecewiseConstantCurve
    q: PiecewiseConstantCurve
    c: PiecewiseConstantCurve

    @classmethod
    def constant(cls, r: float = 0.0, q: float = 0.0, c: float = 0.0) -> "RateCurves":
        return cls(
            r=PiecewiseConstantCurve.constant(r),
            q=PiecewiseConstantCurve.constant(q),
            c=PiecewiseConstantCurve.constant(c),
        )

    def discount(self, t: float, T: float) -> float:
        return math.exp(-self.r.integral(t, T))


def drift_shift(point: MarketPoint, curves: RateCurves) -> MarketPoint:
    """Absorb deterministic carry into the state so pricing can assume
    zero rates.

    The log ETF price moves by the integrated rate net of dividends, and
    the log LETF price by the integrated rate net of expenses and of the
    leveraged dividend pass-through.  The caller applies the discount
    factor to the resulting price separately.
    """
    r_int = curves.r.integral(point.t, point.T)
    q_int = curves.q.integral(point.t, point.T)
    c_int = curves.c.integral(point.t, point.T)
    return MarketPoint(
        t=point.t,
        T=point.T,
        x=point.x + r_int - q_int,
        y=point.y,
        z=point.z + r_int - c_int - point.beta * q_int,
        k=point.k,
        beta=point.beta,
    )


# Keys accepted in model parameter files, per model kind.
_COMMON_KEYS = {"kind", "beta", "x0", "y0", "z0"}
_MODEL_KEYS = {
    "cev": {"delta", "gamma"},
    "heston": {"kappa", "theta", "delta", "rho"},
    "sabr": {"delta", "gamma", "rho"},
}


@dataclass(frozen=True)
class ModelConfig:
    """A parsed model parameter file."""

    model: ModelSpec
    x0: float
    y0: float
    z0: float
    beta: float | None


def parse_model_file(path) -> ModelConfig:
    """Read a flat ``key = value`` model parameter file.

    Blank lines and ``#`` comments are ignored.  Unknown keys, repeated
    keys, and non-numeric values are configuration errors.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read model file {path}: {exc}") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        match = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S+)", line)
        if not match:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = match.group(1), match.group(2)
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
        raw[key] = value

    kind = raw.get("kind", "").lower()
    if kind not in _MODEL_KEYS:
        raise ConfigError(
            f"{path}: 'kind' must be one of {sorted(_MODEL_KEYS)}, got {raw.get('kind')!r}"
        )
    allowed = _COMMON_KEYS | _MODEL_KEYS[kind]
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown keys for kind {kind!r}: {sorted(unknown)}; "
            f"allowed keys are {sorted(allowed)}"
        )
    missing = _MODEL_KEYS[kind] - set(raw)
    if missing:
        raise ConfigError(f"{path}: missing keys for kind {kind!r}: {sorted(missing)}")

    def number(key: str, default: float | None = None) -> float | None:
        if key not in raw:
            return default
        try:
            return float(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{path}: key {key!r} is not a number: {raw[key]!r}") from exc

    try:
        if kind == "cev":
            model: ModelSpec = CevModel(delta=number("delta"), gamma=number("gamma"))
        elif kind == "heston":
            model = HestonModel(
                kappa=number("kappa"),
                theta=number("theta"),
                delta=number("delta"),
                rho=number("rho"),
            )
        else:
            model = SabrModel(
                delta=number("delta"), gamma=number("gamma"), rho=number("rho")
            )
    except DomainError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return ModelConfig(
        model=model,
        x0=number("x0", 0.0),
        y0=number("y0", 0.0),
        z0=number("z0", 0.0),
        beta=number("beta", None),
    )
