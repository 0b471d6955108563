"""Series approximations for leveraged ETF option prices and implied vols.

The price corrections act on the base Black-Scholes price through the
integrated operators L_n of ``opalgebra``, reduced to z:

    u_n = sum_m chi_{n,m}(tau) Dz^m (Dz^2 - Dz) u_0,

and each chi_{n,m} is a fixed polynomial in tau, the Taylor-table entries
and the leverage ratio beta.  ``build_Ln(n)`` generates those polynomials
with integer coefficients and ``reduce_to_z`` as chi weights over integer
denominators.  This module alone knows their committed form, one order
per line of ``chi_programs.jsonl``, written by ``chi_programs_text``; one
walk of orders 1..N on one trie gives each order's weights for one table
and beta, in its number type (``_chi_totals``); the tests check them
against the generator, the file against the writer.
Regenerate the file with

    PYTHONPATH=src python3 -m letfvol.expansion

Conjugated by vega, Dz becomes D = -d/dlam + lam / (sigma0^2 tau) + 1/2, so
U_n = u_n / vega = sum_m chi_{n,m}(tau) D^m (1 / (sigma0 tau)) is a Laurent
polynomial in log-moneyness lam = k - z and maturity tau.  D^m (1 / (sigma0
tau)) has fixed coefficients times powers of sigma0, so each coefficient
of U_n is a dot product with the chi weights, which ``_correction_dicts``
spreads into the dense U_n lists the table keeps, no dict, along a map
each order's program derives once.  ``price_uN`` evaluates U_n times vega
on them by Horner's rule, along a layout each program also derives once.
From U_n every implied-vol correction sigma_n assembles into a polynomial
in (lam, tau) whose coefficients depend only on the Taylor table and beta,
along a plan each order derives once (``_assembly_plan``): sigma_n at the
keys it keeps is U_n's value there plus fixed products of powers of sigma0
and the lower orders' values.  Evaluation at a concrete (lam, tau) is a
separate, cheap step (one Horner expression over the cells of the
corrections summed over orders up to MAX_ORDER, built with the series), so
one assembly serves a whole smile.

Reuse follows one rule, applied here alone: an immutable input, a
validated named tuple, keeps the last value derived from it, for one key,
in its instance dict, where equality, hashing, repr and ``_replace`` do
not see it.  A table keeps sigma0 and its dense U_n (``_correction_dicts``),
and a table or named model its ``iv_approx`` series, keyed by the type and
value of beta and of the order, so a call whose key matches reuses it
unchecked, and a call that misses checks the order before it assembles.
A call that raises keeps nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

# hermite_vega_ratio: unused here, kept as an attribute the benchmark's
# tracing wraps.
from .blackscholes import (
    BsInputs,
    bs_call_price,
    bs_put_price,
    bs_vega,
    hermite_vega_ratio,
)
from .errors import ConfigError, DomainError, check_number, validated_tuple
from .models import CevModel, HestonModel, SabrModel, TaylorTable
from .opalgebra import build_Ln, reduce_to_z

# Largest correction order carried by the series machinery.
MAX_ORDER = 3
# Maturities below this make the vega division ill-conditioned.
MIN_TAU = 1e-8
# Trimming threshold of a finished correction, relative to max(1, scale).
TRIM_TOL = 1e-14
# Slot of the lam^l tau^t cell of a series in ``IvSeries.evaluate``'s Horner order:
# tau power from MAX_ORDER down, then lam power from its highest down to 0.
_CELL = {(l, t): i for i, (l, t) in enumerate(
    (l, t) for t in range(MAX_ORDER, -1, -1) for l in range(MAX_ORDER - t, -1, -1))}

PAYOFFS = ("call", "put")

CHI_PROGRAMS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "chi_programs.jsonl"
)


class PriceApprox(NamedTuple):
    """Base price plus correction terms; total is their sum."""

    u0: float
    terms: tuple
    total: float


class IvSeries(validated_tuple("IvSeries", [("sigma0", float), ("terms", tuple)])):
    """Implied-vol series: sigma0 plus (lam, tau)-polynomial corrections.

    ``terms[i]`` holds the order-(i+1) correction as a coefficient dict
    {(lam_power, tau_power): value}.  The constructor owns every series
    rule and raises DomainError outside them: sigma0 a number whose float is
    in (0, inf); at most MAX_ORDER terms; each term a mapping, or (key,
    value) pairs with no key twice; keys of an order-n series pairs of ints
    >= 0 of total degree <= n; values finite numbers (``errors.check_number``).
    sigma0 and each value are kept as floats.  The pass
    that checks a term builds the series' own read-only dict of it and adds
    each value into one private cell per lam^l tau^t of total degree <=
    MAX_ORDER, padded at 0.0 beyond the series' order, which ``evaluate``
    reads in one Horner expression.
    """

    def __new__(cls, sigma0: float, terms: tuple):
        sigma0 = float(check_number(sigma0, "sigma0"))
        if not sigma0 > 0:
            raise DomainError(f"sigma0 must be positive, got {sigma0}")
        try:
            n = len(terms)
            if n > MAX_ORDER:
                raise DomainError(f"a series holds at most {MAX_ORDER} terms, got {n}")
            cells = [0.0] * len(_CELL)
            kept = []
            for term in terms:
                own: dict = {}
                pairs = term if type(term) is list else term.items() if isinstance(term, Mapping) else term
                for key, value in pairs:
                    lp, tp = key
                    if not (type(lp) is int and type(tp) is int and 0 <= tp and 0 <= lp <= n - tp):
                        raise DomainError(f"series key {key!r}: need ints >= 0, sum <= {n}")
                    if not (type(value) is float and -math.inf < value < math.inf):
                        value = float(check_number(value, "value at lam^%d tau^%d", lp, tp))
                    own[key] = value
                    cells[_CELL[key]] += value
                if len(own) != len(term):
                    raise DomainError(f"a key appears twice in series term {len(kept) + 1}")
                kept.append(MappingProxyType(own))
        except (TypeError, ValueError) as exc:  # not sized, or not pairs
            raise DomainError(f"series terms must be mappings or pair sequences: {exc}") from exc
        series = tuple.__new__(cls, (sigma0, tuple(kept)))
        series._cells = tuple(cells)
        return series

    @property
    def order(self) -> int:
        return len(self.terms)

    def evaluate(self, lam: float, tau: float) -> float:
        if not type(lam) is type(tau) is float:  # the number rule, skipped for floats
            check_number(lam, "lam")
            check_number(tau, "tau")
        if not -math.inf < lam < math.inf:
            raise DomainError(f"log-moneyness must be finite, got {lam}")
        if not MIN_TAU <= tau < math.inf:
            raise DomainError(f"maturity must be finite and >= {MIN_TAU}, got {tau}")
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = self._cells  # Horner's rule, row by tau power
        value = (((c0 * tau + (c1 * lam + c2)) * tau + ((c3 * lam + c4) * lam + c5)) * tau
                 + (((c6 * lam + c7) * lam + c8) * lam + c9)) + self.sigma0
        if not math.isfinite(value):
            raise DomainError(f"series value overflows at lam={lam}, tau={tau}")
        return value

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

        Only the JSON rules live here: the payload's shape, each term's n an
        int equal to its position from 1, and JSON ints read as floats; the
        constructor's DomainError for a series rule becomes ConfigError."""
        try:
            payload = json.loads(text)
            terms = []
            for i, entry in enumerate(payload["terms"]):
                n = entry["n"]
                if type(n) is not int or n != i + 1:
                    raise ValueError(f"term {i} labeled n={n!r}")
                terms.append([((c["lam_pow"], c["tau_pow"]), _json_number(c["value"]))
                              for c in entry["coeffs"]])
            return cls(_json_number(payload["sigma0"]), terms)
        except (KeyError, TypeError, ValueError, OverflowError, DomainError) as exc:
            raise ConfigError(f"malformed series payload: {exc}") from exc


def _json_number(value):
    # The exact type test leaves a bool, an int subclass, to the constructor.
    return float(value) if type(value) is int else value


def _check_order(order: int, *table: TaylorTable) -> None:
    """The order rule of the series API: an int in 0..MAX_ORDER that the table, if one is
    given, serves; a table that is not a TaylorTable, None included, raises ConfigError."""
    # type(), not isinstance: True is an int equal to 1, and 1.0 equals 1.
    if type(order) is not int or not 0 <= order <= MAX_ORDER:
        raise DomainError(f"order must be an integer in 0..{MAX_ORDER}, got {order}")
    for table in table:  # none or one
        if not isinstance(table, TaylorTable):
            raise ConfigError(f"expected a TaylorTable, got {type(table).__name__}")
        if table.extent < order:
            raise DomainError(f"table extends to order {table.extent}, cannot serve order {order}")


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
def _d_power(m: int) -> tuple:
    """D^m (1 / (sigma0 tau)) as pairs ((l, t), q): its lam^l tau^t coefficient is q sigma0^(2t+1).

    A D step maps q at (l, t) to -l q at (l - 1, t), q at (l + 1, t - 1)
    and q / 2 at (l, t); every q is a dyadic rational, exact in a float.
    """
    power = {(0, -1): 1.0}
    for _ in range(m):
        step: dict = {}
        for (l, t), q in power.items():
            if l:
                step[l - 1, t] = step.get((l - 1, t), 0.0) - l * q
            step[l + 1, t - 1] = step.get((l + 1, t - 1), 0.0) + q
            step[l, t] = step.get((l, t), 0.0) + 0.5 * q
        power = step
    return tuple(power.items())


@functools.lru_cache(maxsize=None)
def _chi_program(n: int) -> tuple:
    """The order-n program, parsed on first use; callers must not mutate it.

    Returns (products, weights, keys, spread, layout): products and weights
    as in the file, but each term's weight index shifted past the weights of
    orders 1..n-1, where a walk of orders 1..N >= n puts it.  Weight w, [m,
    tau_power, den], reaches U_n through D^m: ``spread[w]`` holds (i, q, s)
    for each ((l, t), q) of ``_d_power(m)``, with ``keys[i]`` = (l, t +
    tau_power) and s = -(t + 1), so that sigma0^-(2s+1) = sigma0^(2t+1).
    ``layout``, (low, rows), reads U_n from a list with ``keys[i]``'s value
    in slot i and 0 in slot len(keys): row by tau power from the highest to
    low, each by lam power from its highest to 0, so U_n = tau^low Horner.
    """
    with open(CHI_PROGRAMS, encoding="utf-8") as fh:
        program = json.loads(fh.read().splitlines()[n])
    low = sum(len(_chi_program(i)[1]) for i in range(1, n))
    products = [(mono, [(w + low, num, p) for w, num, p in terms]) for mono, terms in program["products"]]
    keys: dict = {}
    spread = tuple(
        tuple((keys.setdefault((l, t + tau_pow), len(keys)), q, -(t + 1)) for (l, t), q in _d_power(m))
        for m, tau_pow, _ in program["weights"]
    )
    top = {t: max(l for l, u in keys if u == t) for _, t in keys}  # tau power -> top lam power
    rows = tuple(tuple(keys.get((l, t), len(keys)) for l in range(top.get(t, -1), -1, -1))
                 for t in range(max(top), min(top) - 1, -1))
    return products, program["weights"], tuple(keys), spread, (min(top), rows)


@functools.lru_cache(maxsize=None)
def _chi_trie(n: int) -> tuple:
    """The programs of orders 1..n as one walk, built on first use; callers must not mutate it.

    Returns (variables, beta_degree, nodes, bounds).  Node k, nodes[k - 1] =
    (parent node, variable index, terms), extends its parent's product by one
    of ``_chi_variables(n)``, from node 0, the empty product, in preorder, so
    products of any orders share prefixes.  A product's terms sit on its last
    node in its program's order, order i's weights from bounds[i-1] to bounds[i].
    """
    index = {entry: k for k, entry in enumerate(_chi_variables(n))}
    merged, bounds = {}, [0]  # merged: product over the variables -> its terms, order by order
    for i in range(1, n + 1):
        remap = [index[entry] for entry in _chi_variables(i)]
        for mono, terms in _chi_program(i)[0]:
            mono = tuple(mono) if i == n else tuple([remap[var] for var in mono])
            merged.setdefault(mono, []).extend(terms)
        bounds.append(bounds[-1] + len(_chi_program(i)[1]))
    children: dict = {}  # (parent node, variable index) -> node
    nodes: list = []
    for mono in sorted(merged):  # a prefix first, so the nodes fall in preorder
        node = 0
        for var in mono:
            if (node, var) not in children:
                nodes.append((node, var, []))
                children[node, var] = len(nodes)
            node = children[node, var]
        nodes[node - 1][2].extend(merged[mono])
    beta_degree = max(p for terms in merged.values() for _, _, p in terms)
    return [(name, (i, j)) for name, i, j in _chi_variables(n)], beta_degree, nodes, bounds


def _chi_totals(table: TaylorTable, n: int, beta) -> list:
    """The programs of orders 1..n walked at one table and beta in one pass, as one slice per
    order: weight w of order i is totals[i-1][w] / den, in their number type.  Each node costs
    one multiply; a zero entry zeroes its node's subtree, and model tables leave most products
    zero.  A beta power or product outside the float range raises DomainError."""
    variables, beta_degree, nodes, bounds = _chi_trie(n)
    # An absent entry reads as 0; an int 0 keeps exact tables exact.
    entries = table.entries
    values = [entries[name].get(key, 0) for name, key in variables]
    products = [1]
    totals = [0] * bounds[-1]
    try:
        beta_powers = [beta**p for p in range(beta_degree + 1)]
        for parent, var, terms in nodes:
            product = products[parent] * values[var]
            products.append(product)
            if product:
                for w, num, p in terms:
                    totals[w] += num * beta_powers[p] * product
    except OverflowError as exc:  # float **, or an int too large for a float
        raise DomainError(f"chi weights of orders 1..{n} leave the float range at beta={beta}") from exc
    return [totals[low:high] for low, high in zip(bounds, bounds[1:])]


def base_sigma(table: TaylorTable, beta: float) -> float:
    """Flat volatility of the base price: |beta| sqrt(2 a00)."""
    return abs(beta) * math.sqrt(2.0 * table.get("a", 0, 0))


def _correction_dicts(table: TaylorTable, beta: float, order: int) -> tuple:
    """Vega-relative correction terms U_n = u_n / vega, n = 1..order, as the table keeps them.

    With r_m = Dz^m (Dz^2 - Dz) u_0 / vega, U_n = sum_m chi_{n,m}(tau) r_m.
    Since (Dz^2 - Dz) u_0 = vega / (sigma0 tau) and Dz log vega =
    lam / (sigma0^2 tau) + 1/2,

        r_0 = 1 / (sigma0 tau),   r_{m+1} = D r_m,
        D = -d/dlam + lam / (sigma0^2 tau) + 1/2,

    and D commutes with chi(tau).  D^m r_0 has the fixed coefficients
    q sigma0^(2t+1) of ``_d_power(m)``, so each U_n coefficient is a short
    dot product of the chi weights with them, along the map the order's
    program derives once (``spread``): each weight of one walk of orders
    1..order (``_chi_totals``), a float, goes straight into its dense U_n.

    Raises DomainError when sigma0 is not positive or leaves the float
    range of the order and its assembly plans (see the check below).

    Returns the value the table keeps, (key, sigma0, dense), keyed by
    (type(beta), beta) so that 2, 2.0 and Fraction(2) stay apart; dense[n-1]
    pairs U_n, a tuple with its ``keys[i]`` coefficient in slot i and 0.0 in
    the last, with the order's ``layout``.  A call at that beta and an order
    no higher returns it, as U_n does not depend on the order asked for; any
    other call derives afresh and replaces it, unless it raises.
    """
    key = (type(beta), beta)
    stored = table.__dict__.get("_corrections")
    if stored is not None and stored[0] == key and len(stored[2]) >= order:
        return stored
    sigma0 = base_sigma(table, beta)
    if not sigma0 > 0:
        raise DomainError(f"base volatility must be positive, got {sigma0}")
    walks = _chi_totals(table, order, beta) if order else []
    top = max((m for n, totals in enumerate(walks, 1)
               for (m, _, _), total in zip(_chi_program(n)[1], totals) if total), default=0)
    # Each coefficient of U_n is a sum of chi coefficients times
    # coefficients of D^j r_0, j <= top.  The coefficient of D^j r_0 at key
    # (l, t) is q sigma0^(2t+1), with |2t+1| <= 2 top + 1 and q a nonzero
    # dyadic, 2^-top <= |q| <= (top+1)!: a D step multiplies q by an integer
    # or by 1/2, and the sum of |q| by at most j + 3/2.  The check keeps every
    # such q sigma0^(2t+1), and each plan's sigma0^e, a normal float; not chi.
    span = max([2 * top + 1] + [abs(e) for n in range(1, order + 1) for _, _, e, _ in _assembly_plan(n)[2]])
    if not span * abs(math.log2(sigma0)) + math.log2(math.factorial(top + 1)) < 1020:
        raise DomainError(f"base volatility {sigma0} is out of float range for order {order}")
    powers = [sigma0 ** -(2 * s + 1) for s in range(top + 1)]
    dense = []
    for n, totals in enumerate(walks, 1):
        _, weights, keys, spread, layout = _chi_program(n)
        U = [0.0] * (len(keys) + 1)  # the last slot stays 0 for the Horner layout
        for total, (_, _, den), targets in zip(totals, weights, spread):
            if total:
                coeff = float(total / den)
                for i, q, s in targets:
                    U[i] += coeff * (q * powers[s])
        dense.append((tuple(U), layout))
    stored = table.__dict__["_corrections"] = (key, sigma0, tuple(dense))
    return stored


def _vega_ratio(k: int) -> dict:
    """R_k = (d^k u/dsigma^k) / vega at sigma0 = 1, {(lam_power, tau_power): coeff}, k >= 1.

    R_1 = 1, R_2 = d+ d- / sigma = lam^2 / tau - tau / 4 and R_{j+1} = R_j R_2 +
    dR_j/dsigma.  Reading tau as sigma^-2, R_j's tau^t coefficient scales as
    sigma^(2t + 1 - j), so d/dsigma multiplies it by 2t + 1 - j.
    """
    ratio = {(0, 0): 1.0}
    for j in range(1, k):
        step: dict = {}
        for (l, t), c in ratio.items():
            step[l + 2, t - 1] = step.get((l + 2, t - 1), 0.0) + c
            step[l, t + 1] = step.get((l, t + 1), 0.0) + c * -0.25
        for (l, t), c in ratio.items():
            step[l, t] = step.get((l, t), 0.0) + c * (2 * t + 1 - j)
        ratio = {key: c for key, c in step.items() if c}
    return ratio


@functools.lru_cache(maxsize=None)
def _assembly_plan(n: int) -> tuple:
    """How sigma_n assembles, derived once per order: (keys, slots, terms); do not mutate.

    ``keys``: the keys sigma_n keeps, tau power >= 0 and degree <= n, that
    can be nonzero, a U_n key or a term's target; the others are 0.0 on
    every table, so the plan names none.  ``slots[j]``: keys[j]'s slot in
    the table's dense U_n, or its zero slot.  Term (j, c, e, idx) adds
    c sigma0^e prod(values[i] for i in idx) to keys[j], ``values`` the lower
    orders' values along their plans' keys: -R_k/k! C(n, k), k = len(idx),
    each composition of n written out, with R_k's tau^t coefficient read at
    sigma0 = 1, as it scales by sigma0^(2t+1-k).
    """
    program_keys = _chi_program(n)[2]
    lower = [(i, key) for i in range(1, n) for key in _assembly_plan(i)[0]]  # (order, key) per value
    merged: dict = {}  # (key, e, idx) -> sum of R_k's coefficients; factor orders merge
    for k in range(2, n + 1):
        ratio = _vega_ratio(k).items()
        for parts in itertools.product(range(1, n), repeat=k):
            at = [[i for i, (o, _) in enumerate(lower) if o == p] for p in parts]
            for idx in itertools.product(*at) if sum(parts) == n else ():
                lp, tp = map(sum, zip(*(lower[i][1] for i in idx)))
                for (l, t), c in ratio:
                    if t + tp >= 0 and l + lp + t + tp <= n:
                        term = ((l + lp, t + tp), 2 * t + 1 - k, tuple(sorted(idx)))
                        merged[term] = merged.get(term, 0.0) + c
    targets = {key for key, _, _ in merged}
    keys = tuple((l, t) for t in range(n + 1) for l in range(n + 1 - t)
                 if (l, t) in program_keys or (l, t) in targets)
    slots = tuple((*program_keys, key).index(key) for key in keys)  # absent: the zero slot
    terms = tuple((keys.index(key), -c / math.factorial(len(idx)), e, idx)
                  for (key, e, idx), c in merged.items())
    return keys, slots, terms


def iv_series_engine(point, table: TaylorTable, order: int) -> IvSeries:
    """Implied-vol series assembled mechanically from the Taylor table.

    Each correction U_n = u_n/vega is combined with the lower-order terms
    through the Taylor-remainder recursion in the vol variable (Lorig,
    Pagliarani, Pascucci, arXiv 1306.5447):

        sigma_n = U_n - sum_{k=2..n} R_k/k! C(n, k),
        C(n, k) = sum_{i_1+...+i_k=n} sigma_{i_1}...sigma_{i_k},

    with R_k the sigma-derivative/vega ratios.  Keys of tau power < 0 or
    degree > n cancel exactly, and others are 0.0 on every table; neither is
    formed: each order's ``_assembly_plan`` reads the rest from sigma0 and
    the table's dense U_n and adds its terms.  A value at or below
    TRIM_TOL * max(1, its order's largest) is rounding and is dropped.
    """
    _check_order(order, table)
    _, sigma0, dense = _correction_dicts(table, point.beta, order)
    values, terms = [], []  # values: the kept values of sigma_1.., along each plan's keys
    for n, (U, _) in enumerate(dense[:order], 1):
        keys, slots, plan = _assembly_plan(n)
        raw = [U[i] for i in slots]
        for j, c, e, idx in plan:
            c *= sigma0**e
            for i in idx:
                c *= values[i]
            raw[j] += c
        cut = TRIM_TOL * max(1.0, *map(abs, raw))
        raw = [value if abs(value) > cut else 0.0 for value in raw]
        values += raw
        terms.append([(key, value) for key, value in zip(keys, raw) if value])
    return IvSeries(sigma0=sigma0, terms=tuple(terms))


def price_uN(point, table: TaylorTable, order: int, payoff: str = "call") -> PriceApprox:
    """Order-N price: base price plus the reduced-operator corrections.

    The base price u0 is Black-Scholes at the flat volatility
    base_sigma(table, beta), so order 0 is the base price: u0 == total.
    The order-n term is vega times U_n(lam, tau), the correction the
    implied-vol series is built from (``_correction_dicts``), so both
    routes share one definition and the same input checks.  It reads
    sigma0 and each dense U_n from the table's kept (key, sigma0, dense)
    and evaluates U_n by Horner's rule along its order's layout, building
    nothing.  A fresh table, or one that keeps another beta or a lower
    order, first derives them, about the cost of an engine call.
    Call and put share the correction terms because the parity difference
    is annihilated by Dz^2 - Dz.  A term or total outside the float range
    raises DomainError.
    """
    _check_order(order, table)
    if payoff not in PAYOFFS:
        raise ConfigError(f"payoff must be one of {PAYOFFS}, got {payoff!r}")
    if not point.tau >= MIN_TAU:
        raise DomainError(f"maturity must be >= {MIN_TAU}, got {point.tau}")
    _, sigma0, dense = _correction_dicts(table, point.beta, order)
    inputs = BsInputs(sigma0, point.tau, point.z, point.k)
    u0 = (bs_call_price if payoff == "call" else bs_put_price)(inputs)
    vega = bs_vega(inputs)
    lam, tau = point.lam, inputs.tau
    terms = []
    for U, (low, rows) in dense[:order]:
        value = 0.0
        for row in rows:
            acc = 0.0
            for i in row:
                acc = acc * lam + U[i]
            value = value * tau + acc
        terms.append(vega * (value * tau**low))
    try:
        total = u0 + math.fsum(terms) if all(map(math.isfinite, terms)) else math.nan
    except OverflowError:  # fsum's partial sums
        total = math.nan
    if not math.isfinite(total):
        raise DomainError(f"order-{order} corrections leave the float range at lam={lam}, tau={tau}")
    return PriceApprox(u0=u0, terms=tuple(terms), total=total)


def iv_approx(point, model_or_table, order: int) -> float:
    """Scalar implied-vol approximation at the point's (lam, tau).

    A TaylorTable is used as given: its entries are the expansion, so
    point.x and point.y are not consulted for it.  A named model
    (CevModel, HestonModel, SabrModel) is expanded at (point.x, point.y).
    Anything else raises ConfigError.  The table or model keeps the series
    it last assembled, keyed by (type(point.beta), point.beta, type(order),
    order), plus (point.x, point.y) for a model, so a smile's strikes on one
    instance share one assembly; equal instances built apart do not share
    it.  The order rule is checked when the key misses: a hit needs a key
    equal to one that a checked call stored, which 1.0, True or an int
    subclass, all equal to 1, never are.
    """
    t, T, x, y, z, k, beta = point
    key = (type(beta), beta, type(order), order)
    if isinstance(model_or_table, (CevModel, HestonModel, SabrModel)):
        key += (x, y)
    elif not isinstance(model_or_table, TaylorTable):
        _check_order(order)  # a bad order raises first, whatever the input
        raise ConfigError(
            f"expected a TaylorTable or a named model, got {type(model_or_table).__name__}"
        )
    stored = model_or_table.__dict__.get("_series")
    if stored is None or stored[0] != key:
        _check_order(order)
        table = (model_or_table if isinstance(model_or_table, TaylorTable)
                 else model_or_table.taylor_table(x, y, order))
        stored = (key, iv_series_engine(point, table, order))
        model_or_table.__dict__["_series"] = stored
    # point.lam and point.tau, the same floats.
    return stored[1].evaluate(k - z, T - t)


if __name__ == "__main__":
    with open(CHI_PROGRAMS, "w", encoding="utf-8", newline="") as fh:
        fh.write(chi_programs_text())
