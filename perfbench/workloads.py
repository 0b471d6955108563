"""The three benchmark workloads, run against the public API of ``letfvol``.

Importing this module puts the repository's ``src/`` first on ``sys.path``
and imports ``letfvol`` from there.  Every call into the package goes
through a module attribute (``expansion.iv_approx``, ``bs.implied_vol``),
so the wrappers of the traced run see it.

Each ``*_round`` function runs one repetition with fresh draws, records
its timings in ``Stats`` and checks its outputs; an operation that raises
a ``LetfVolError`` or fails a check counts as failed.  Recorded times are
normalized with the reference kernel timed right after them (``speed.py``).
"""

from __future__ import annotations

import math
import statistics
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import letfvol  # noqa: E402
from letfvol import blackscholes as bs  # noqa: E402
from letfvol import expansion, models  # noqa: E402
from letfvol.errors import LetfVolError  # noqa: E402

if Path(letfvol.__file__).resolve().parent != SRC / "letfvol":
    raise ImportError(f"letfvol was imported from {letfvol.__file__}, not from {SRC}")

from speed import Speed  # noqa: E402
from draws import (  # noqa: E402
    QUOTE_D,
    SMILE_D,
    SMILE_ORDERS,
    SMILE_TAU,
    SURFACE_D,
    SURFACE_ORDER,
    SURFACE_PRICE_TAU,
    SURFACE_TAUS,
    draw_quote_taus,
    draw_smile,
    draw_surface,
)

MODEL_CLASSES = {"cev": models.CevModel, "heston": models.HestonModel, "sabr": models.SabrModel}
# Stated price tolerance of bs.implied_vol, relative to the spot e^z.
PRICE_TOL = 1e-12
# iv_approx and the series it builds must agree to this relative error.
ROUTE_TOL = 1e-12


def make_model(draw: dict):
    return MODEL_CLASSES[draw["kind"]](**draw["params"])


def make_point(draw: dict, tau: float, lam: float):
    return models.MarketPoint(
        t=0.0, T=tau, x=draw["x"], y=draw["y"], z=0.0, k=lam, beta=draw["beta"]
    )


def base_vol(draw: dict) -> float:
    """|beta| times the ETF's local vol at the expansion point (no letfvol call)."""
    p, x, y = draw["params"], draw["x"], draw["y"]
    if draw["kind"] == "cev":
        vol = p["delta"] * math.exp((p["gamma"] - 1.0) * x)
    elif draw["kind"] == "heston":
        vol = math.exp(0.5 * y)
    else:
        vol = math.exp(y + (p["gamma"] - 1.0) * x)
    return abs(draw["beta"]) * vol


class Stats:
    """Samples, operation counts and machine-speed samples of one run."""

    def __init__(self):
        self.speed = Speed()
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def add(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def outcome(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)


def _phase(tracer, name):
    return tracer.phase(name) if tracer is not None else nullcontext()


def _untraced(tracer):
    return tracer.suspended() if tracer is not None else nullcontext()


def _rel_close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _round_trip_ok(price: float, tau: float, lam: float) -> tuple:
    """Invert ``price`` and check the inverse reprices within the solver's
    stated tolerance.  Returns (ok, implied vol result)."""
    iv = bs.implied_vol(price, tau, 0.0, lam)
    again = bs.bs_call_price(bs.BsInputs(iv.value, tau, 0.0, lam))
    return abs(again - price) <= PRICE_TOL, iv


# ---------------------------------------------------------------- smile


def _smile_points(draw: dict) -> list:
    sigma0 = base_vol(draw)
    return [make_point(draw, SMILE_TAU, d * sigma0 * math.sqrt(SMILE_TAU)) for d in SMILE_D]


def smile_round(rng, stats: Stats, tracer=None) -> None:
    """One 41-strike smile at each order, each on a fresh table, through
    iv_approx one strike at a time.

    The three smiles advance in lockstep (strike i at order 1, 2, then 3),
    and each smile's wall time is the sum of its strike latencies, each
    normalized by the reference kernel timed after the strike.  Lockstep
    spreads the short order-1 and order-2 smiles over the same stretch of
    time as the order-3 smile, so all three see the same machine load.  A
    cache keyed by table must hold three tables to hit.
    """
    smiles = []
    for order in SMILE_ORDERS:
        draw = draw_smile(rng)
        smiles.append((order, draw, make_model(draw), _smile_points(draw), []))
    perf = time.perf_counter
    elapsed = dict.fromkeys(SMILE_ORDERS, 0.0)
    for i in range(len(SMILE_D)):
        latency = {}
        for order, _, model, points, values in smiles:
            main = order == SMILE_ORDERS[-1]
            with _phase(tracer, "batch") if main else nullcontext():
                t0 = perf()
                try:
                    values.append(expansion.iv_approx(points[i], model, order))
                except LetfVolError as exc:
                    values.append(exc)
                latency[order] = perf() - t0
        factor = stats.speed.tick()
        for order, raw in latency.items():
            elapsed[order] += raw * factor
        stats.add("strike_o3_s", latency[SMILE_ORDERS[-1]] * factor)
    for order, draw, model, points, values in smiles:
        stats.add(f"smile_o{order}_s", elapsed[order])
        _check_smile(draw, model, order, points, values, stats, tracer)
    stats.add("batch_s", elapsed[SMILE_ORDERS[-1]])
    stats.add("side_batch_s", sum(elapsed[order] for order in SMILE_ORDERS[:-1]))


def _check_smile(draw, model, order, points, values, stats, tracer) -> None:
    """Outside the timed region and the spans: the scalar route must match
    the series it assembles, evaluated at the same points."""
    with _untraced(tracer):
        series = expansion.iv_series_engine(
            points[0], model.taylor_table(draw["x"], draw["y"], order), order
        )
        wanted = [series.evaluate(point.lam, point.tau) for point in points]
    for point, value, want in zip(points, values, wanted):
        if isinstance(value, Exception):
            stats.outcome(False, f"smile o{order}: {value!r}")
            continue
        ok = math.isfinite(value) and value > 0.0 and _rel_close(value, want, ROUTE_TOL)
        stats.outcome(ok, f"smile o{order} lam={point.lam}: {value!r} vs series {want!r}")


def smile_first_op(rng) -> None:
    draw = draw_smile(rng)
    expansion.iv_approx(_smile_points(draw)[0], make_model(draw), SMILE_ORDERS[0])


# -------------------------------------------------------------- surface


def _surface_table(draw: dict, eval_latencies: list):
    """Build one order-3 series and evaluate it on the strike x maturity
    grid, appending the latency of each grid point to ``eval_latencies``."""
    model = make_model(draw)
    table = model.taylor_table(draw["x"], draw["y"], SURFACE_ORDER)
    series = expansion.iv_series_engine(make_point(draw, 1.0, 0.0), table, SURFACE_ORDER)
    grid = []
    perf = time.perf_counter
    for tau in SURFACE_TAUS:
        scale = series.sigma0 * math.sqrt(tau)
        for d in SURFACE_D:
            t0 = perf()
            grid.append(series.evaluate(d * scale, tau))
            eval_latencies.append(perf() - t0)
    return table, grid


def _surface_price(draw: dict, table) -> tuple:
    """One order-3 price at the money, inverted: (price, (round-trip ok, iv))."""
    point = make_point(draw, SURFACE_PRICE_TAU, 0.0)
    approx = expansion.price_uN(point, table, SURFACE_ORDER)
    return approx.total, _round_trip_ok(approx.total, point.tau, point.lam)


def surface_round(rng, stats: Stats, tracer=None) -> None:
    """One 18-table surface.  Table by table, the IV part (build + grid) and
    then the price part run; each part's wall time is the sum over tables,
    so both parts are spread over the whole round."""
    perf = time.perf_counter
    iv_elapsed = price_elapsed = 0.0
    eval_latencies: list = []
    for draw in draw_surface(rng):
        tag = f"surface {draw['kind']} beta={draw['beta']}"
        first_eval = len(eval_latencies)
        with _phase(tracer, "batch"):
            t0 = perf()
            try:
                table, grid = _surface_table(draw, eval_latencies)
            except LetfVolError as exc:
                table, grid = exc, None
            iv_dt = perf() - t0
        priced, price_dt = None, 0.0
        if grid is not None:
            t0 = perf()
            try:
                priced = _surface_price(draw, table)
            except LetfVolError as exc:
                priced = exc
            price_dt = perf() - t0
        factor = stats.speed.tick()
        eval_latencies[first_eval:] = [dt * factor for dt in eval_latencies[first_eval:]]
        iv_elapsed += iv_dt * factor
        price_elapsed += price_dt * factor
        if grid is None:
            stats.outcome(False, f"{tag} series: {table!r}")
            continue
        stats.outcome(all(math.isfinite(v) for v in grid), f"{tag}: non-finite IV on grid")
        if isinstance(priced, Exception):
            stats.outcome(False, f"{tag} price: {priced!r}")
        else:
            price, (ok, iv) = priced
            stats.outcome(ok and iv.value > 0.0, f"{tag}: price {price!r} does not round-trip")
    stats.add("batch_s", iv_elapsed)
    stats.add("side_batch_s", price_elapsed)
    stats.add("eval_p99_s", statistics.quantiles(eval_latencies, n=100, method="inclusive")[98])


def surface_first_op(rng) -> None:
    _surface_table(draw_surface(rng)[0], [])


# --------------------------------------------------------------- quotes


def load_quote_series(texts: list) -> list:
    return [expansion.IvSeries.from_json(text) for text in texts]


def _quote(series, lam: float, tau: float) -> tuple:
    """evaluate -> bs_call_price -> implied_vol, with a round-trip check."""
    sigma = series.evaluate(lam, tau)
    price = bs.bs_call_price(bs.BsInputs(sigma, tau, 0.0, lam))
    return _round_trip_ok(price, tau, lam)


def quotes_round(rng, stats: Stats, texts: list, tracer=None) -> None:
    perf = time.perf_counter
    taus = draw_quote_taus(rng)
    t0 = perf()
    series_list = load_quote_series(texts)
    load_dt = perf() - t0
    latencies = []
    failures = []
    with _phase(tracer, "batch"):
        start = perf()
        for series in series_list:
            for tau in taus:
                scale = series.sigma0 * math.sqrt(tau)
                for d in QUOTE_D:
                    q0 = perf()
                    try:
                        ok, _ = _quote(series, d * scale, tau)
                        reason = "no round trip"
                    except LetfVolError as exc:
                        ok, reason = False, repr(exc)
                    latencies.append(perf() - q0)
                    if not ok:
                        failures.append(f"quote tau={tau} d={d}: {reason}")
                    stats.attempted += 1
        elapsed = perf() - start
    factor = stats.speed.tick()
    stats.failed += len(failures)
    stats.reasons.extend(failures[: max(0, 10 - len(stats.reasons))])
    stats.add("side_batch_s", load_dt * factor)
    stats.add("batch_s", elapsed * factor)
    stats.add("quotes", len(latencies))
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    stats.add("quote_p99_s", p99 * factor)


def quotes_first_op(texts: list) -> None:
    series, tau = load_quote_series(texts)[0], 0.25
    _quote(series, QUOTE_D[0] * series.sigma0 * math.sqrt(tau), tau)
