"""Series approximations for leveraged ETF option prices and implied vols.

The price corrections act on the base Black-Scholes price through the
integrated operators L_n of ``opalgebra``, reduced to z:

    u_n = sum_m chi_{n,m}(tau) Dz^m (Dz^2 - Dz) u_0,

and each chi_{n,m} is a fixed polynomial in tau, the Taylor-table entries
and the leverage ratio beta.  The algebra is therefore run once per order,
with symbolic entries and beta (``letfvol.chi_compile``), and its result
is committed as data in ``chi_programs.jsonl``, one order per line, which
is read and parsed for an order on its first use.  ``reduced_Ln`` evaluates
the order-n program for one table and beta, with that table's number
type; it equals ``reduce_to_z(build_Ln(table, n, beta))``, which the tests
check along with the committed file itself.  Regenerate the file with

    PYTHONPATH=src python3 -m letfvol.chi_compile

Each z-derivative/vega ratio is a Laurent monomial in log-moneyness
lam = k - z and maturity tau, so every implied-vol correction sigma_n
assembles into a polynomial in (lam, tau) whose coefficients depend only
on the Taylor table and beta.  Assembly is symbolic; evaluation at a
concrete (lam, tau) is a separate, cheap step, which lets one assembly
serve a whole smile (``iv_approx`` reuses a named model's series across
strikes) and makes coefficient-level testing possible.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass
from types import SimpleNamespace

from .blackscholes import (
    BsInputs,
    bs_call_price,
    bs_put_price,
    bs_vega,
    hermite_vega_ratio,
)
from .errors import ConfigError, DomainError, StructuralError
from .models import CustomTableModel, PiecewiseConstantCurve, TaylorTable
# build_Ln, reduce_to_z: unused here, kept as attributes the benchmark's tracing wraps.
from .opalgebra import TimePoly, ZReduction, build_Ln, reduce_to_z

# Largest correction order carried by the series machinery.
MAX_ORDER = 3
# Maturities below this make the vega division ill-conditioned.
MIN_TAU = 1e-8
# Structural-cancellation and trimming thresholds, relative to max(1, scale).
CANCEL_TOL = 1e-8
TRIM_TOL = 1e-14
# Series iv_approx keeps for named models: >= 3, for smiles of orders 1-3 in turn.
SERIES_CACHE_SIZE = 8

PAYOFFS = ("call", "put")

CHI_PROGRAMS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "chi_programs.jsonl"
)

# A Laurent polynomial in (lam, tau): {(lam_power, tau_power): coefficient}.
# Negative tau powers appear only mid-assembly and must cancel by the end.


def lp_add(dst: dict, src: dict, factor: float = 1.0) -> None:
    """In-place dst += factor * src on Laurent coefficient dicts."""
    for key, value in src.items():
        acc = dst.get(key, 0.0) + factor * value
        if acc == 0.0:
            dst.pop(key, None)
        else:
            dst[key] = acc


def lp_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (la, ta), va in a.items():
        for (lb, tb), vb in b.items():
            key = (la + lb, ta + tb)
            acc = out.get(key, 0.0) + va * vb
            if acc == 0.0:
                out.pop(key, None)
            else:
                out[key] = acc
    return out


def lp_max_abs(a: dict) -> float:
    return max((abs(v) for v in a.values()), default=0.0)


def lp_eval(a: dict, lam: float, tau: float) -> float:
    return sum(v * lam**lp * tau**tp for (lp, tp), v in a.items())


def hermite_ratio_coeffs(m: int, sigma0: float) -> dict:
    """Laurent coefficients of the order-m z-derivative/vega ratio.

    Expands hermite_vega_ratio(m) exactly in (lam, tau): the Hermite
    argument is linear in (2*lam + sigma0^2*tau), so each Hermite term
    splits binomially into Laurent monomials with tau powers down to
    -(m + 1).
    """
    if m < 0:
        raise DomainError(f"derivative order must be >= 0, got {m}")
    if not sigma0 > 0:
        raise DomainError(f"base volatility must be positive, got {sigma0}")
    out: dict = {}
    sig2 = sigma0 * sigma0
    for l in range(m // 2 + 1):
        outer = (-1) ** l * math.factorial(m) // (
            math.factorial(l) * math.factorial(m - 2 * l)
        )
        base = outer / (sigma0 * (2.0 * sig2) ** (m - l))
        for j in range(m - 2 * l + 1):
            coeff = base * math.comb(m - 2 * l, j) * 2.0**j * sig2 ** (m - 2 * l - j)
            key = (j, -(l + j + 1))
            out[key] = out.get(key, 0.0) + coeff
    return out


def vega_ratio_coeffs(order: int, sigma0: float) -> dict:
    """Laurent coefficients of the sigma-derivative/vega ratio at sigma0."""
    if not sigma0 > 0:
        raise DomainError(f"base volatility must be positive, got {sigma0}")
    if order == 2:
        return {(2, -1): 1.0 / sigma0**3, (0, 1): -sigma0 / 4.0}
    if order == 3:
        return {
            (4, -2): 1.0 / sigma0**6,
            (2, -1): -3.0 / sigma0**4,
            (2, 0): -1.0 / (2.0 * sigma0**2),
            (0, 2): sigma0**2 / 16.0,
            (0, 1): -0.25,
        }
    raise DomainError(f"vega ratio coefficients support orders 2 and 3, got {order}")


@dataclass(frozen=True)
class PriceApprox:
    """Base price plus correction terms; total is their sum."""

    u0: float
    terms: tuple
    total: float

    @property
    def order(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class IvSeries:
    """Implied-vol series: sigma0 plus (lam, tau)-polynomial corrections.

    ``terms[i]`` holds the order-(i+1) correction as a coefficient dict
    {(lam_power, tau_power): value}.
    """

    sigma0: float
    terms: tuple

    @property
    def order(self) -> int:
        return len(self.terms)

    def term(self, n: int) -> dict:
        if not 1 <= n <= len(self.terms):
            raise DomainError(f"series holds orders 1..{len(self.terms)}, got {n}")
        return self.terms[n - 1]

    def evaluate(self, lam: float, tau: float) -> float:
        if not tau >= MIN_TAU:
            raise DomainError(f"maturity must be >= {MIN_TAU}, got {tau}")
        return self.sigma0 + sum(lp_eval(term, lam, tau) for term in self.terms)

    def to_json(self) -> str:
        payload = {
            "sigma0": self.sigma0,
            "terms": [
                {
                    "n": i + 1,
                    "coeffs": [
                        {"lam_pow": lp, "tau_pow": tp, "value": value}
                        for (lp, tp), value in sorted(term.items())
                    ],
                }
                for i, term in enumerate(self.terms)
            ],
        }
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "IvSeries":
        try:
            payload = json.loads(text)
            sigma0 = float(payload["sigma0"])
            terms = []
            for i, entry in enumerate(payload["terms"]):
                if entry["n"] != i + 1:
                    raise ValueError(f"term {i} labeled n={entry['n']}")
                terms.append(
                    {
                        (int(c["lam_pow"]), int(c["tau_pow"])): float(c["value"])
                        for c in entry["coeffs"]
                    }
                )
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"malformed series payload: {exc}") from exc
        return cls(sigma0=sigma0, terms=tuple(terms))


def _check_order(order: int, table: TaylorTable | None = None) -> None:
    if not isinstance(order, int) or not 0 <= order <= MAX_ORDER:
        raise DomainError(f"order must be an integer in 0..{MAX_ORDER}, got {order}")
    if table is not None and table.extent < order:
        raise DomainError(
            f"table extends to order {table.extent}, cannot serve order {order}"
        )


def _check_payoff(payoff: str) -> None:
    if payoff not in PAYOFFS:
        raise ConfigError(f"payoff must be one of {PAYOFFS}, got {payoff!r}")


@functools.lru_cache(maxsize=None)
def _chi_program(n: int) -> dict:
    """The order-n program, parsed on first use; callers must not mutate it."""
    with open(CHI_PROGRAMS, encoding="utf-8") as fh:
        return json.loads(fh.read().splitlines()[n])


def reduced_Ln(table: TaylorTable, n: int, beta) -> ZReduction:
    """reduce_to_z(build_Ln(table, n, beta)), from the compiled order-n program.

    Coefficients inherit the number type of the table and beta, so a
    Fraction table gives the exact reduction.
    """
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"correction order must be in 1..{MAX_ORDER}, got {n}")
    program = _chi_program(n)
    # An absent entry reads as 0.0; an int 0 keeps exact tables exact.
    values = [table.get(*entry) or 0 for entry in program["variables"]]
    products = [
        math.prod(map(values.__getitem__, mono)) for mono in program["monomials"]
    ]
    beta_powers = [beta**p for p in range(program["beta_degree"] + 1)]
    chi: dict = {}
    for m, tau_pow, den, terms in program["weights"]:
        total = sum(num * beta_powers[p] * products[k] for num, p, k in terms)
        if total:
            chi.setdefault(m, {})[(tau_pow,)] = total / den
    return ZReduction(chi={m: TimePoly(terms) for m, terms in chi.items()})


def base_sigma(table: TaylorTable, beta: float) -> float:
    """Flat volatility of the base price: |beta| sqrt(2 a00)."""
    return abs(beta) * math.sqrt(2.0 * table.get("a", 0, 0))


def _correction_dicts(table: TaylorTable, beta: float, order: int) -> list:
    """Vega-relative correction terms U_n as Laurent dicts, n = 1..order."""
    sigma0 = base_sigma(table, beta)
    ratios: dict = {}
    out = []
    for n in range(1, order + 1):
        U: dict = {}
        for m, chi in reduced_Ln(table, n, beta).chi.items():
            if m not in ratios:
                ratios[m] = hermite_ratio_coeffs(m, sigma0)
            for powers, coeff in chi.terms.items():
                tau_pow = powers[0] if powers else 0
                for (lp, tp), value in ratios[m].items():
                    key = (lp, tp + tau_pow)
                    U[key] = U.get(key, 0.0) + float(coeff) * value
        out.append(U)
    return out


def _finalize_term(n: int, raw: dict) -> dict:
    """Drop cancelled Laurent dust; reject genuine structural leftovers.

    A finished correction is polynomial: no negative tau powers and
    lam-degree at most n may survive assembly.
    """
    scale = max(1.0, lp_max_abs(raw))
    out = {}
    for (lp, tp), value in raw.items():
        if lp > n or tp < 0:
            if abs(value) > CANCEL_TOL * scale:
                raise StructuralError(
                    f"order-{n} term keeps lam^{lp} tau^{tp} "
                    f"coefficient {value:.3e} (scale {scale:.3e})"
                )
            continue
        if abs(value) > TRIM_TOL * scale:
            out[(lp, tp)] = value
    return out


def iv_series_engine(point, table: TaylorTable, order: int) -> IvSeries:
    """Implied-vol series assembled mechanically from the Taylor table.

    Each correction U_n = u_n/vega is combined with the lower-order terms
    through the Taylor-remainder recursion in the vol variable:

        sigma_1 = U_1
        sigma_2 = U_2 - 1/2 sigma_1^2 R_2
        sigma_3 = U_3 - (sigma_2 sigma_1 R_2 + sigma_1^3/6 R_3)

    with R_k the sigma-derivative/vega ratios.  Negative tau powers and
    lam-degrees above n arise mid-assembly and must cancel; leftovers
    raise StructuralError.
    """
    _check_order(order, table)
    sigma0 = base_sigma(table, point.beta)
    corrections = _correction_dicts(table, point.beta, order)
    terms = []
    if order >= 1:
        terms.append(_finalize_term(1, corrections[0]))
    if order >= 2:
        r2 = vega_ratio_coeffs(2, sigma0)
        s1 = terms[0]
        raw = dict(corrections[1])
        lp_add(raw, lp_mul(lp_mul(s1, s1), r2), -0.5)
        terms.append(_finalize_term(2, raw))
    if order >= 3:
        r3 = vega_ratio_coeffs(3, sigma0)
        s1, s2 = terms[0], terms[1]
        raw = dict(corrections[2])
        lp_add(raw, lp_mul(lp_mul(s2, s1), r2), -1.0)
        lp_add(raw, lp_mul(lp_mul(s1, s1), lp_mul(s1, r3)), -1.0 / 6.0)
        terms.append(_finalize_term(3, raw))
    return IvSeries(sigma0=sigma0, terms=tuple(terms))


def price_u0(
    point,
    table: TaylorTable,
    payoff: str = "call",
    a00_curve: PiecewiseConstantCurve | None = None,
) -> float:
    """Base price: Black-Scholes at the flat volatility |beta| sqrt(2 a00).

    With ``a00_curve`` the variance uses the time integral of the curve
    over [t, T] instead of the frozen table entry; only this base term
    supports time dependence.
    """
    _check_payoff(payoff)
    tau = point.T - point.t
    if not tau >= MIN_TAU:
        raise DomainError(f"maturity must be >= {MIN_TAU}, got {tau}")
    if a00_curve is None:
        variance = 2.0 * point.beta**2 * table.get("a", 0, 0) * tau
    else:
        variance = 2.0 * point.beta**2 * a00_curve.integral(point.t, point.T)
    if not variance > 0 or not math.isfinite(variance):
        raise DomainError(f"degenerate base variance {variance}")
    inputs = BsInputs(
        sigma=math.sqrt(variance / tau), tau=tau, z=point.z, k=point.k
    )
    if payoff == "call":
        return bs_call_price(inputs)
    return bs_put_price(inputs)


def price_uN(point, table: TaylorTable, order: int, payoff: str = "call") -> PriceApprox:
    """Order-N price: base price plus the reduced-operator corrections.

    Corrections apply the z-weights chi_{n,m} to the Hermite-form
    z-derivative ratios times vega, so the cost stays comparable to a
    Black-Scholes evaluation.  Call and put share the correction terms
    because the parity difference is annihilated by Dz^2 - Dz.
    """
    _check_order(order, table)
    _check_payoff(payoff)
    u0 = price_u0(point, table, payoff)
    tau = point.tau
    inputs = BsInputs(
        sigma=base_sigma(table, point.beta), tau=tau, z=point.z, k=point.k
    )
    vega = bs_vega(inputs)
    terms = []
    for n in range(1, order + 1):
        value = 0.0
        for m, chi in reduced_Ln(table, n, point.beta).at_tau(tau).items():
            value += chi * hermite_vega_ratio(m, inputs)
        terms.append(vega * value)
    return PriceApprox(u0=u0, terms=tuple(terms), total=u0 + math.fsum(terms))


@functools.lru_cache(maxsize=SERIES_CACHE_SIZE)
def _model_series(model, x: float, y: float, beta: float, order: int) -> IvSeries:
    """The engine series of a named model at (x, y); callers must not mutate it."""
    table = model.taylor_table(x, y, order)
    return iv_series_engine(SimpleNamespace(beta=beta), table, order)


def iv_approx(point, model_or_table, order: int, method: str = "engine") -> float:
    """Scalar implied-vol approximation at the point's (lam, tau).

    ``method`` picks the assembly route: "engine" builds the series from
    the Taylor table mechanically; "printed" uses the hand-transcribed
    closed forms, available for the named models up to their published
    order.

    A TaylorTable or CustomTableModel passed in is used as given by both
    routes: its entries are the expansion, so point.x and point.y are not
    consulted for it.  A named model is expanded at (point.x, point.y).

    On the engine route a named model's series (the model is frozen, so
    hashable by value) is assembled once per (model, point.x, point.y,
    point.beta, order); the last SERIES_CACHE_SIZE are kept, so a smile's
    strikes share one assembly.  A TaylorTable, bare or in a
    CustomTableModel, is mutable and unhashable: it is assembled per call.
    """
    if method == "engine":
        if isinstance(model_or_table, TaylorTable):
            series = iv_series_engine(point, model_or_table, order)
        elif isinstance(model_or_table, CustomTableModel):
            series = iv_series_engine(point, model_or_table.table, order)
        else:
            # Before the lookup: 1.0 == 1 would otherwise hit the order-1 series.
            _check_order(order)
            series = _model_series(model_or_table, point.x, point.y, point.beta, order)
    elif method == "printed":
        from .closedform import iv_series_printed

        model = model_or_table
        if isinstance(model, TaylorTable):
            model = CustomTableModel(table=model)
        series = iv_series_printed(model, point, order)
    else:
        raise ConfigError(f"method must be 'engine' or 'printed', got {method!r}")
    return series.evaluate(point.lam, point.tau)
