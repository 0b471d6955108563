"""Benchmark of letfvol: the smile, surface and quotes workloads.

    python3 perfbench/run.py --workload smile|surface|quotes --seed N \
        --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
process, one thread.  A run

1. with ``--trace 0``, times the workload's first operation in fresh
   processes (``setup_s``);
2. repeats the workload in rounds, each with fresh seeded draws, until
   ``--seconds`` is used, checking every output;
3. recomputes the canonical coefficient set and compares it with the
   committed one (see ``canonical.py``);
4. prints one line per metric, then, as the last line, a JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the JSON holds the end-to-end metrics of BENCHMARK.json
and with ``--trace 1`` the per-layer metrics.  The traced run alternates
untraced and traced rounds; per-layer values are per traced round, and
``trace.overhead_frac`` compares the mean round time of the two kinds.
See README.md in this directory for what each metric means per workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import draws  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("smile", "surface", "quotes")
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60
PRINTED_REPEATS = 50
# item_tail_s: smile, p75 of the order-3 strikes (41 a round; the highest
# percentile with about ten samples beyond it); surface and quotes, median
# over rounds of the round's p99 (1,512 grid points, 5,904 quotes).
ROUND_P99 = {"surface": "eval_p99_s", "quotes": "quote_p99_s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="letfvol benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def quote_texts() -> list:
    import canonical

    return [(canonical.DATA_DIR / f"{name}.json").read_text() for name in canonical.quote_names()]


def setup_probe(workload: str, seed: int) -> None:
    """Print the time from before ``import letfvol`` to the end of the
    workload's first completed operation, in this fresh process."""
    rng = draws.rng_for(workload, seed, "setup")
    texts = quote_texts() if workload == "quotes" else None
    t0 = time.perf_counter()
    import workloads

    if workload == "smile":
        workloads.smile_first_op(rng)
    elif workload == "surface":
        workloads.surface_first_op(rng)
    else:
        workloads.quotes_first_op(texts)
    print(repr(time.perf_counter() - t0))


def measure_setup(workload: str, seed: int, speed) -> float:
    """Median over fresh processes of the probe time, each normalized by the
    reference kernel timed in this process right after the probe."""
    times = []
    for probe in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed * SETUP_PROBES + probe)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        raw = float(done.stdout.strip().splitlines()[-1])
        times.append(raw * speed.tick())
    return statistics.median(times)


def run_rounds(workload: str, seed: int, seconds: float, stats, tracer) -> dict:
    """Repeat the workload while the next round should end within
    ``seconds`` plus half a round (at least one round; with a tracer, one
    of each kind, odd rounds traced).  Returns the normalized round
    durations by kind."""
    import tracing
    import workloads

    rng = draws.rng_for(workload, seed, "rounds")
    texts = quote_texts() if workload == "quotes" else None
    durations = {"plain": [], "traced": []}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(durations["plain"]) > len(durations["traced"])
        if traced:
            tracing.install(tracer)
        mark = stats.speed.mark()
        t0 = time.perf_counter()
        try:
            active = tracer if traced else None
            if workload == "smile":
                workloads.smile_round(rng, stats, active)
            elif workload == "surface":
                workloads.surface_round(rng, stats, active)
            else:
                workloads.quotes_round(rng, stats, texts, active)
        finally:
            if traced:
                tracer.uninstall()
        raw = time.perf_counter() - t0
        durations["traced" if traced else "plain"].append(raw * stats.speed.factor_since(mark))
        # Start another round only if it should end no later than half a
        # round past the budget (by the normalized round time, which in a
        # slow spell is shorter than the raw one).
        kind = "traced" if tracer is not None and not traced else "plain"
        estimate = statistics.fmean(durations[kind]) if durations[kind] else 0.0
        both_kinds = tracer is None or durations["traced"]
        if both_kinds and time.perf_counter() - start + 0.5 * estimate >= seconds:
            return durations


def printed_side_measurement(seed: int) -> dict:
    """Hand-transcribed series against the engine on the surface pairs the
    closed forms cover: CEV and Heston at order 3, SABR at order 2."""
    import tracing
    import workloads
    from letfvol import closedform, expansion

    pairs = []
    for draw in draws.draw_surface(draws.rng_for("surface", seed, "printed")):
        order = 2 if draw["kind"] == "sabr" else 3
        pairs.append((workloads.make_model(draw), workloads.make_point(draw, 1.0, 0.0), draw, order))
    engine_s = 0.0
    for model, point, draw, order in pairs:
        table = model.taylor_table(draw["x"], draw["y"], order)
        t0 = time.perf_counter()
        expansion.iv_series_engine(point, table, order)
        engine_s += time.perf_counter() - t0
    side = tracing.Tracer()
    side.wrap(closedform, "iv_series_printed", "closedform.iv_series_printed")
    try:
        for _ in range(PRINTED_REPEATS):
            for model, point, _, order in pairs:
                closedform.iv_series_printed(model, point, order)
    finally:
        side.uninstall()
    return {
        "closedform.iv_series_printed.calls": side.calls["closedform.iv_series_printed"] / PRINTED_REPEATS,
        "closedform.iv_series_printed.s": side.total["closedform.iv_series_printed"] / PRINTED_REPEATS,
        "closedform.engine_same_pairs.s": engine_s,
    }


def heston_error(seed: int, stats) -> dict:
    """Largest |IV error| of the order-3 series on one surface's Heston grid
    (all strikes, and at the money only), against the Fourier reference."""
    import heston_ref
    import workloads
    from letfvol import expansion
    from letfvol.errors import LetfVolError

    worst = worst_atm = 0.0
    skipped = 0
    for draw in draws.draw_surface(draws.rng_for("surface", seed, "heston")):
        if draw["kind"] != "heston":
            continue
        params, y, beta = draw["params"], draw["y"], draw["beta"]
        stats.outcome(heston_ref.beta_map_matches(params, y, beta), f"beta map mismatch at beta={beta}")
        model = workloads.make_model(draw)
        series = expansion.iv_series_engine(
            workloads.make_point(draw, 1.0, 0.0), model.taylor_table(draw["x"], y, 3), 3
        )
        for tau in draws.SURFACE_TAUS:
            for d in draws.SURFACE_D:
                lam = d * series.sigma0 * tau**0.5
                try:
                    ref = heston_ref.implied_vol_ref(params, y, beta, tau, 0.0, lam)
                except LetfVolError:
                    skipped += 1  # the reference price could not be inverted
                    continue
                err = abs(series.evaluate(lam, tau) - ref)
                worst = max(worst, err)
                if d == 0.0:
                    worst_atm = max(worst_atm, err)
    if skipped:
        print(f"# heston reference: {skipped} grid points not invertible, skipped")
    return {"heston_iv_err_o3": worst, "heston_iv_err_o3_atm": worst_atm}


def end_to_end(workload: str, stats, setup_s: float, peak_rss_mb: float) -> tuple:
    """(metrics for the JSON line, named report values)."""
    s = stats.samples
    if workload in ROUND_P99:
        tail = statistics.median(s[ROUND_P99[workload]])
    else:
        tail = statistics.quantiles(s["strike_o3_s"], n=4, method="inclusive")[2]
    metrics = {
        "setup_s": (setup_s, "s"),
        "batch_s": (statistics.median(s["batch_s"]), "s"),
        "side_batch_s": (statistics.median(s["side_batch_s"]), "s"),
        "item_tail_s": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    report = {"setup_s": (setup_s, "s")}
    if workload == "smile":
        for order in draws.SMILE_ORDERS:
            report[f"smile_o{order}_s"] = (statistics.median(s[f"smile_o{order}_s"]), "s")
        p90 = statistics.quantiles(s["strike_o3_s"], n=10, method="inclusive")[8]
        report["smile_strike_p90_s"] = (p90, "s")
    elif workload == "surface":
        report["surface_iv_s"] = metrics["batch_s"]
        report["surface_price_s"] = metrics["side_batch_s"]
    else:
        report["quotes_per_s"] = (sum(s["quotes"]) / sum(s["batch_s"]), "1/s")
        report["quote_p99_us"] = (tail * 1e6, "us")
    report["fail_frac"] = (stats.failed / stats.attempted, "ratio")
    report["speed_factor"] = (speed.REF_S / stats.speed.kernel_s(), "ratio")
    report["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, report


def per_layer(tracer, counter, durations: dict, extra: dict, kernel_s: float) -> dict:
    """Per-layer metrics.  Calls and raw (not normalized) times are per
    traced round; term counts are means per call over the canonical set
    (``counter``); ``bench.ref_kernel_s`` is the run's median reference
    kernel time, to normalize the layer times with if needed."""
    rounds = len(durations["traced"])
    m = {}

    def span(name: str, *fields: str) -> None:
        values = {"calls": tracer.calls, "s": tracer.total, "self_s": tracer.self_time}
        for field in fields:
            unit = "count" if field == "calls" else "s"
            m[f"{name}.{field}"] = (values[field][name] / rounds, unit)

    def per_order(key: str, name: str, unit: str) -> None:
        for order in draws.SMILE_ORDERS:
            m[f"{name}.o{order}"] = (counter.mean(f"{key}.o{order}"), unit)

    span("models.taylor_table", "calls", "s")
    span("opalgebra.build_Ln", "calls", "s")
    per_order("build_Ln.monomials", "opalgebra.build_Ln.monomials", "count")
    span("opalgebra.reduce_to_z", "calls", "s")
    per_order("reduce_to_z.useful_ratio", "opalgebra.reduce_to_z.useful_ratio", "ratio")
    span("expansion.iv_approx", "calls", "s")
    span("expansion.iv_series_engine", "calls", "self_s")
    m["expansion.iv_series_engine.laurent_terms"] = (
        counter.mean("iv_series_engine.laurent_terms"), "count")
    span("expansion.price_uN", "calls", "self_s")
    span("expansion.IvSeries.evaluate", "calls", "s")
    span("expansion.IvSeries.from_json", "calls", "s")
    for name in ("heston_iv_err_o3", "heston_iv_err_o3_atm"):
        m[f"expansion.{name}"] = (extra.get(name, 0.0), "vol")
    iv = "blackscholes.implied_vol"
    span(iv, "calls", "self_s")
    m[f"{iv}.iterations_mean"] = (tracer.mean("implied_vol.iterations"), "count")
    m[f"{iv}.iterations_max"] = (tracer.obs_max["implied_vol.iterations"], "count")
    m[f"{iv}.errors"] = (tracer.errors[iv] / rounds, "count")
    span("blackscholes.bs_call_price", "calls", "s")
    span("blackscholes.hermite_vega_ratio", "calls", "s")
    for name in ("closedform.iv_series_printed.calls", "closedform.iv_series_printed.s",
                 "closedform.engine_same_pairs.s"):
        m[name] = (extra.get(name, 0.0), "count" if name.endswith(".calls") else "s")
    plain = statistics.fmean(durations["plain"])
    m["trace.overhead_frac"] = (statistics.fmean(durations["traced"]) / plain - 1.0, "ratio")
    for layer in ("models", "opalgebra", "expansion", "blackscholes", "bench"):
        m[f"{layer}.batch_share"] = (tracer.share("batch", layer), "ratio")
    m["bench.ref_kernel_s"] = (kernel_s, "s")
    return m


def print_table(title: str, values: dict) -> None:
    print(f"# {title}")
    for name, (value, unit) in values.items():
        print(f"{name:48s} {value:.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "letfvol" / "__init__.py").is_file():
        print(f"error: no letfvol package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import canonical
    import tracing
    import workloads

    stats = workloads.Stats()
    setup_s = 0.0 if args.trace else measure_setup(args.workload, args.seed, stats.speed)
    tracer = tracing.Tracer() if args.trace else None
    durations = run_rounds(args.workload, args.seed, args.seconds, stats, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counter = tracing.count_terms(tracing.Tracer()) if args.trace else None
    try:
        gate_failures = dict(canonical.check())
    finally:
        if counter is not None:
            counter.uninstall()
    for name, _, _ in canonical.entries():
        stats.outcome(name not in gate_failures, f"canonical {name}: {gate_failures.get(name)}")

    if args.trace:
        extra = {}
        if args.workload == "surface":
            extra.update(printed_side_measurement(args.seed))
            extra.update(heston_error(args.seed, stats))
        print("# spans over all traced rounds: calls, inclusive s, self s")
        for name in sorted(tracer.calls):
            print(f"{name:48s} {tracer.calls[name]} {tracer.total[name]:.6g} {tracer.self_time[name]:.6g}")
        metrics = per_layer(tracer, counter, durations, extra, stats.speed.kernel_s())
        print_table(f"per-layer metrics, per traced round ({len(durations['traced'])} rounds)", metrics)
    else:
        metrics, report = end_to_end(args.workload, stats, setup_s, peak_rss_mb)
        print_table(f"workload metrics ({len(durations['plain'])} rounds)", report)
        print_table("end-to-end metrics", metrics)
    for reason in stats.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": stats.failed == 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
