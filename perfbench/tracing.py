"""Layer spans for the traced run, recorded from outside the package.

``install`` replaces the public functions of each ``letfvol`` layer, and
the module-level names that one layer calls in another (for example
``letfvol.expansion.build_Ln``), with timing wrappers; ``uninstall``
restores the originals.  Nothing under ``src/`` changes and the untraced
run installs nothing.

Spans are aggregated in memory as they close: per span name the number of
calls, the inclusive time and the self time (inclusive time minus the time
covered by child spans), and per (phase, layer) the self time, where a
phase is a region the benchmark marks, such as its main batch.  Counts
taken from returned objects go through ``observe``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

PURE_Z = (0, 0, 0, 0)


class Tracer:
    def __init__(self):
        self._stack: list = []  # child-time accumulator of each open span
        self._undo: list = []
        self._phase = None
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.errors = defaultdict(int)
        self.phase_wall = defaultdict(float)
        self.phase_layer = defaultdict(float)  # (phase, layer) -> self seconds
        self.obs_sum = defaultdict(float)
        self.obs_n = defaultdict(int)
        self.obs_max = defaultdict(float)

    def observe(self, key: str, value: float) -> None:
        self.obs_sum[key] += value
        self.obs_n[key] += 1
        self.obs_max[key] = max(self.obs_max[key], value)

    def mean(self, key: str) -> float:
        return self.obs_sum[key] / self.obs_n[key] if self.obs_n[key] else 0.0

    @contextmanager
    def phase(self, name: str):
        previous, self._phase = self._phase, name
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phase_wall[name] += time.perf_counter() - t0
            self._phase = previous

    def share(self, phase: str, layer: str) -> float:
        """Self time of ``layer`` inside ``phase`` over the phase's wall time;
        layer "bench" is the benchmark's own code (outside every span)."""
        wall = self.phase_wall[phase]
        if not wall:
            return 0.0
        if layer == "bench":
            inside = sum(v for (p, _), v in self.phase_layer.items() if p == phase)
            return (wall - inside) / wall
        return self.phase_layer[(phase, layer)] / wall

    def _wrap(self, fn, name: str, observe):
        stack, perf = self._stack, time.perf_counter
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                dt = perf() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
                self.phase_layer[(self._phase, layer)] += dt - child
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, observe))
        else:
            replacement = self._wrap(original, name, observe)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original, replacement))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original, _ = self._undo.pop()
            setattr(owner, attr, original)

    @contextmanager
    def suspended(self):
        """Run a block with the original functions (for checks, not spans)."""
        for owner, attr, original, _ in self._undo:
            setattr(owner, attr, original)
        try:
            yield
        finally:
            for owner, attr, _, replacement in self._undo:
                setattr(owner, attr, replacement)


def observe_build_ln(tracer, args, kwargs, op) -> None:
    order = kwargs["n"] if "n" in kwargs else args[1]
    monomials = len(op.terms)
    pure_z = sum(1 for key in op.terms if key[:4] == PURE_Z)
    tracer.observe(f"build_Ln.monomials.o{order}", monomials)
    tracer.observe(f"reduce_to_z.useful_ratio.o{order}", pure_z / monomials if monomials else 0.0)


def observe_engine(tracer, args, kwargs, series) -> None:
    tracer.observe("iv_series_engine.laurent_terms", sum(len(t) for t in series.terms))


def _observe_implied_vol(tracer, args, kwargs, result) -> None:
    tracer.observe("implied_vol.iterations", result.iterations)


def count_terms(tracer: Tracer) -> Tracer:
    """Observe operator and Laurent term counts without the layer spans.

    Counts from the fixed canonical set repeat exactly from run to run;
    counts from random draws do not, because float cancellation now and
    then zeroes an operator term.
    """
    from letfvol import expansion

    tracer.wrap(expansion, "build_Ln", "opalgebra.build_Ln", observe_build_ln)
    tracer.wrap(expansion, "iv_series_engine", "expansion.iv_series_engine", observe_engine)
    return tracer


def install(tracer: Tracer) -> Tracer:
    from letfvol import blackscholes, closedform, expansion, models, opalgebra

    for cls in (models.CevModel, models.HestonModel, models.SabrModel):
        tracer.wrap(cls, "taylor_table", "models.taylor_table")
    for module in (opalgebra, expansion):
        tracer.wrap(module, "build_Ln", "opalgebra.build_Ln")
        tracer.wrap(module, "reduce_to_z", "opalgebra.reduce_to_z")
    tracer.wrap(expansion, "iv_approx", "expansion.iv_approx")
    tracer.wrap(expansion, "iv_series_engine", "expansion.iv_series_engine")
    tracer.wrap(expansion, "price_uN", "expansion.price_uN")
    tracer.wrap(expansion.IvSeries, "evaluate", "expansion.IvSeries.evaluate")
    tracer.wrap(expansion.IvSeries, "from_json", "expansion.IvSeries.from_json")
    for module in (blackscholes, expansion):
        tracer.wrap(module, "bs_call_price", "blackscholes.bs_call_price")
        tracer.wrap(module, "hermite_vega_ratio", "blackscholes.hermite_vega_ratio")
    tracer.wrap(blackscholes, "implied_vol", "blackscholes.implied_vol", _observe_implied_vol)
    tracer.wrap(closedform, "iv_series_printed", "closedform.iv_series_printed")
    return tracer
