"""Series approximations for leveraged ETF option prices and implied vols.

The price corrections act on the base Black-Scholes price through the
integrated operators L_n of ``opalgebra``, reduced to z:

    u_n = sum_m chi_{n,m}(tau) Dz^m (Dz^2 - Dz) u_0,

and each chi_{n,m} is a fixed polynomial in tau, the Taylor-table entries
and the leverage ratio beta.  ``build_Ln(n)`` generates those polynomials
with integer coefficients and ``reduce_to_z`` as chi weights over integer
denominators.  This module alone knows their committed form, one order
per line of ``chi_programs.jsonl``: ``chi_programs_text`` writes it and
``reduced_Ln`` evaluates the order-n program, read on first use, for one
table and beta, with that table's number type, as {m: {tau_power: coeff}};
the tests check it against the generator and the file against the writer.
Regenerate the file with

    PYTHONPATH=src python3 -m letfvol.expansion

Conjugated by vega, Dz becomes D = -d/dlam + lam / (sigma0^2 tau) + 1/2, so
U_n = u_n / vega = sum_m chi_{n,m}(tau) D^m (1 / (sigma0 tau)) is a Laurent
polynomial in log-moneyness lam = k - z and maturity tau.  ``price_uN``
evaluates it times vega, and from it every implied-vol correction sigma_n
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

# hermite_vega_ratio: unused here, kept as an attribute the benchmark's
# tracing wraps.
from .blackscholes import (
    BsInputs,
    bs_call_price,
    bs_put_price,
    bs_vega,
    hermite_vega_ratio,
)
from .errors import ConfigError, DomainError, StructuralError
from .models import CevModel, HestonModel, SabrModel, TaylorTable
from .opalgebra import build_Ln, reduce_to_z

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


def vega_ratio_coeffs(k: int, sigma0: float) -> dict:
    """Laurent coefficients of R_k = (d^k u/dsigma^k) / vega at sigma0, k >= 1.

    R_1 = 1 and R_2 = d+ d- / sigma; each step is

        R_{k+1} = dR_k/dsigma + R_k R_2.

    Reading tau as sigma^-2, R_k scales as sigma^(1 - k), so its tau^t
    coefficient carries sigma^(2t + 1 - k) and dR_k/dsigma multiplies it by
    (2t + 1 - k) / sigma0.
    """
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"vega ratio order must be an integer >= 1, got {k}")
    if not sigma0 > 0:
        raise DomainError(f"base volatility must be positive, got {sigma0}")
    r2 = {(2, -1): 1.0 / sigma0**3, (0, 1): -sigma0 / 4.0}
    ratio = {(0, 0): 1.0}
    for j in range(1, k):
        step = lp_mul(ratio, r2)
        lp_add(step, {(lp, tp): v * (2 * tp + 1 - j) / sigma0
                      for (lp, tp), v in ratio.items()})
        ratio = step
    return ratio


@dataclass(frozen=True)
class PriceApprox:
    """Base price plus correction terms; total is their sum."""

    u0: float
    terms: tuple
    total: float


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
        if not -math.inf < lam < math.inf:
            raise DomainError(f"log-moneyness must be finite, got {lam}")
        if not MIN_TAU <= tau < math.inf:
            raise DomainError(f"maturity must be finite and >= {MIN_TAU}, got {tau}")
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
        """Read ``to_json`` output; anything else raises ConfigError.

        Powers must be nonnegative integers, each (lam_pow, tau_pow) at most
        once per term, values finite, and sigma0 finite and positive.
        """
        try:
            payload = json.loads(text)
            sigma0 = float(payload["sigma0"])
            if not 0.0 < sigma0 < math.inf:
                raise ValueError(f"sigma0 must be finite and positive, got {sigma0}")
            terms = []
            for i, entry in enumerate(payload["terms"]):
                if entry["n"] != i + 1:
                    raise ValueError(f"term {i} labeled n={entry['n']}")
                term: dict = {}
                for c in entry["coeffs"]:
                    lp, tp = key = (c["lam_pow"], c["tau_pow"])
                    if type(lp) is not int or type(tp) is not int or lp < 0 or tp < 0:
                        raise ValueError(f"term n={i + 1}: powers {key} must be integers >= 0")
                    if key in term:
                        raise ValueError(f"term n={i + 1} repeats powers {key}")
                    value = float(c["value"])
                    if not math.isfinite(value):
                        raise ValueError(f"term n={i + 1}: value {value} at {key}")
                    term[key] = value
                terms.append(term)
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


def _chi_variables(n: int) -> list:
    """The table entries (name, i, j) with i + j <= n that order-n programs index."""
    return [(name, i, d - i) for name in "abcf" for d in range(n + 1) for i in range(d, -1, -1)]


def chi_programs_text() -> str:
    """Text of CHI_PROGRAMS: a header line, then the chi program of order n on line n.

    Formats ``reduce_to_z(build_Ln(n))`` for n = 1..MAX_ORDER.  Order n
    holds one weight [m, tau_power, den] per power of tau in chi_{n,m}
    (``weights``), and each product of table entries that occurs
    (``products``: indices into ``_chi_variables(n)``, one per unit of
    power) with the terms [w, num, p] it enters.  Weight w is
    sum(num * beta^p * product) / den over its terms, with integer num and
    den; they are listed by descending p, then product.
    """
    lines = [{"about": "chi programs of letfvol.expansion, one order per line, written by its "
              "chi_programs_text(); regenerate with `PYTHONPATH=src python3 -m letfvol.expansion`;"
              " tests/test_chi_programs.py compares the text"}]
    for n in range(1, MAX_ORDER + 1):
        index = {entry: k for k, entry in enumerate(_chi_variables(n))}
        chi = reduce_to_z(build_Ln(n))
        weights, products = [], {}
        for m in sorted(chi):
            for tau_pow, (den, poly) in sorted(chi[m].items()):
                terms = sorted(
                    (-p, tuple(sorted(map(index.__getitem__, entries))), num)
                    for (p, entries), num in poly.items()
                )
                for neg, mono, num in terms:
                    products.setdefault(mono, []).append([len(weights), num, -neg])
                weights.append([m, tau_pow, den])
        lines.append({"n": n, "weights": weights,
                      "products": [[list(mono), products[mono]] for mono in sorted(products)]})
    return "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines)


@functools.lru_cache(maxsize=None)
def _chi_program(n: int) -> tuple:
    """The order-n program, parsed on first use; callers must not mutate it.

    ``products`` holds each product's variable indices, as a list and as a
    set, with the [weight index, num, beta power] of every term it enters.
    """
    with open(CHI_PROGRAMS, encoding="utf-8") as fh:
        program = json.loads(fh.read().splitlines()[n])
    products = [(mono, frozenset(mono), terms) for mono, terms in program["products"]]
    beta_degree = max(p for *_, terms in products for *_, p in terms)
    return _chi_variables(n), beta_degree, program["weights"], products


def reduced_Ln(table: TaylorTable, n: int, beta) -> dict:
    """chi of ``reduce_to_z(build_Ln(n))`` at one table and beta, from the compiled program.

    Returns chi as {m: {tau_power: coeff}}, only nonzero weights kept.
    Coefficients inherit the number type of the table and beta, so a
    Fraction table gives the exact reduction.  A product with a zero
    entry is skipped: model tables leave most products zero.
    """
    if not 1 <= n <= MAX_ORDER:
        raise DomainError(f"correction order must be in 1..{MAX_ORDER}, got {n}")
    variables, beta_degree, weights, products = _chi_program(n)
    # An absent entry reads as 0.0; an int 0 keeps exact tables exact.
    values = [table.get(*entry) or 0 for entry in variables]
    beta_powers = [beta**p for p in range(beta_degree + 1)]
    live = {i for i, value in enumerate(values) if value}
    totals = [0] * len(weights)
    for mono, entries, terms in products:
        if entries <= live:
            product = math.prod(map(values.__getitem__, mono))
            for w, num, p in terms:
                totals[w] += num * beta_powers[p] * product
    chi: dict = {}
    for (m, tau_pow, den), total in zip(weights, totals):
        if total:
            chi.setdefault(m, {})[tau_pow] = total / den
    return chi


def base_sigma(table: TaylorTable, beta: float) -> float:
    """Flat volatility of the base price: |beta| sqrt(2 a00)."""
    return abs(beta) * math.sqrt(2.0 * table.get("a", 0, 0))


def _correction_dicts(table: TaylorTable, beta: float, order: int) -> list:
    """Vega-relative correction terms U_n = u_n / vega as Laurent dicts, n = 1..order.

    With r_m = Dz^m (Dz^2 - Dz) u_0 / vega, U_n = sum_m chi_{n,m}(tau) r_m.
    Since (Dz^2 - Dz) u_0 = vega / (sigma0 tau) and Dz log vega =
    lam / (sigma0^2 tau) + 1/2,

        r_0 = 1 / (sigma0 tau),   r_{m+1} = D r_m,
        D = -d/dlam + lam / (sigma0^2 tau) + 1/2,

    and D commutes with chi(tau), so U_n is summed by Horner's rule in D.

    Raises DomainError when sigma0 is not positive or leaves the float
    range of the order (see the check below).
    """
    sigma0 = base_sigma(table, beta)
    if not sigma0 > 0:
        raise DomainError(f"base volatility must be positive, got {sigma0}")
    chis = [reduced_Ln(table, n, beta) for n in range(1, order + 1)]
    top = max((m for chi in chis for m in chi), default=0)
    # Each coefficient Horner forms is a sum of chi coefficients times
    # coefficients of D^j r_0, j <= top.  The coefficient of D^j r_0 at key
    # (l, t) is q sigma0^(2t+1), with |2t+1| <= 2 top + 1 and q a nonzero
    # dyadic, 2^-top <= |q| <= (top+1)!: a D step multiplies q by an integer
    # or by 1/2, and the sum of |q| by at most j + 3/2.  The check keeps
    # every such q sigma0^(2t+1) a normal float; it does not bound chi.
    if not (2 * top + 1) * abs(math.log2(sigma0)) + math.log2(math.factorial(top + 1)) < 1020:
        raise DomainError(f"base volatility {sigma0} is out of float range for order {order}")
    inv_sigma0, inv_var = 1.0 / sigma0, 1.0 / (sigma0 * sigma0)
    out = []
    for chi in chis:
        U: dict = {}
        for m in range(max(chi, default=-1), -1, -1):
            step: dict = {}
            for (lp, tp), value in U.items():
                if lp:
                    step[lp - 1, tp] = step.get((lp - 1, tp), 0.0) - lp * value
                step[lp + 1, tp - 1] = step.get((lp + 1, tp - 1), 0.0) + value * inv_var
                step[lp, tp] = step.get((lp, tp), 0.0) + 0.5 * value
            for tau_pow, coeff in chi.get(m, {}).items():
                step[0, tau_pow - 1] = step.get((0, tau_pow - 1), 0.0) + float(coeff) * inv_sigma0
            U = step
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
    through the Taylor-remainder recursion in the vol variable (Lorig,
    Pagliarani, Pascucci, arXiv 1306.5447):

        sigma_n = U_n - sum_{k=2..n} R_k/k! C(n, k),
        C(n, k) = sum_{i_1+...+i_k=n} sigma_{i_1}...sigma_{i_k}
                = sum_i sigma_i C(n - i, k - 1),   C(n, 1) = sigma_n,

    with R_k the sigma-derivative/vega ratios.  Negative tau powers and
    lam-degrees above n arise mid-assembly and must cancel; leftovers
    raise StructuralError.
    """
    _check_order(order, table)
    sigma0 = base_sigma(table, point.beta)
    corrections = _correction_dicts(table, point.beta, order)
    ratios = {k: vega_ratio_coeffs(k, sigma0) for k in range(2, order + 1)}
    compositions: dict = {}  # (n, k) -> C(n, k)
    terms: list = []
    for n in range(1, order + 1):
        raw = dict(corrections[n - 1])
        for k in range(2, n + 1):
            total = lp_mul(terms[0], compositions[n - 1, k - 1])
            for i in range(2, n - k + 2):
                lp_add(total, lp_mul(terms[i - 1], compositions[n - i, k - 1]))
            compositions[n, k] = total
            lp_add(raw, lp_mul(total, ratios[k]), -1.0 / math.factorial(k))
        terms.append(_finalize_term(n, raw))
        compositions[n, 1] = terms[-1]
    return IvSeries(sigma0=sigma0, terms=tuple(terms))


def _base_price(point, table: TaylorTable, payoff: str) -> tuple:
    """Black-Scholes inputs at the flat volatility base_sigma(table, beta), and their price."""
    _check_payoff(payoff)
    if not point.tau >= MIN_TAU:
        raise DomainError(f"maturity must be >= {MIN_TAU}, got {point.tau}")
    inputs = BsInputs(base_sigma(table, point.beta), point.tau, point.z, point.k)
    return inputs, (bs_call_price if payoff == "call" else bs_put_price)(inputs)


def price_u0(point, table: TaylorTable, payoff: str = "call") -> float:
    """Base price: Black-Scholes at the flat volatility |beta| sqrt(2 a00)."""
    return _base_price(point, table, payoff)[1]


def price_uN(point, table: TaylorTable, order: int, payoff: str = "call") -> PriceApprox:
    """Order-N price: base price plus the reduced-operator corrections.

    The order-n term is vega times U_n(lam, tau), the correction the
    implied-vol series is built from (``_correction_dicts``), so both
    routes share one definition and the same input checks.  Each call
    assembles U_1..U_N for the table, at about the cost of an engine call.
    Call and put share the correction terms because the parity difference
    is annihilated by Dz^2 - Dz.
    """
    _check_order(order, table)
    inputs, u0 = _base_price(point, table, payoff)
    vega = bs_vega(inputs)
    terms = [vega * lp_eval(U, point.lam, inputs.tau)
             for U in _correction_dicts(table, point.beta, order)]
    return PriceApprox(u0=u0, terms=tuple(terms), total=u0 + math.fsum(terms))


@functools.lru_cache(maxsize=SERIES_CACHE_SIZE)
def _model_series(model, x: float, y: float, beta: float, order: int) -> IvSeries:
    """The engine series of a named model at (x, y); callers must not mutate it."""
    table = model.taylor_table(x, y, order)
    return iv_series_engine(SimpleNamespace(beta=beta), table, order)


def iv_approx(point, model_or_table, order: int) -> float:
    """Scalar implied-vol approximation at the point's (lam, tau).

    A TaylorTable is used as given: its entries are the expansion, so
    point.x and point.y are not consulted for it, and it is assembled per
    call.  A named model (CevModel, HestonModel, SabrModel) is expanded at
    (point.x, point.y); being frozen, it is hashable by value, and its
    series is assembled once per (model, point.x, point.y, point.beta,
    order), with the last SERIES_CACHE_SIZE kept, so a smile's strikes
    share one assembly.  Anything else raises ConfigError.
    """
    if isinstance(model_or_table, TaylorTable):
        series = iv_series_engine(point, model_or_table, order)
    elif isinstance(model_or_table, (CevModel, HestonModel, SabrModel)):
        # Before the lookup: 1.0 == 1 would otherwise hit the order-1 series.
        _check_order(order)
        series = _model_series(model_or_table, point.x, point.y, point.beta, order)
    else:
        raise ConfigError(
            f"expected a TaylorTable or a named model, got {type(model_or_table).__name__}"
        )
    return series.evaluate(point.lam, point.tau)


if __name__ == "__main__":
    with open(CHI_PROGRAMS, "w", encoding="utf-8", newline="") as fh:
        fh.write(chi_programs_text())
