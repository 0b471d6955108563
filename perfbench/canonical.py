"""Canonical coefficient set: the correctness gate of the benchmark.

The set is the 18 surface tables (CEV, Heston, SABR x beta in +-1, +-2,
+-3) at orders 1-3 plus the smile table (SABR, beta = -2) at orders 1-3,
all with fixed parameters.  Their ``IvSeries`` coefficients are committed
under ``perfbench/canonical/`` in ``IvSeries.to_json`` form.  Every run
recomputes the set outside the timed region and compares each correction
term to the committed one: the largest coefficient difference of a term
must stay within 1e-12 of that term's largest coefficient, and sigma0
within 1e-12 relative.  The ``quotes`` workload loads the order-3 surface
series from the same files.

Regenerate (only when the expansion is meant to change its numbers):

    python3 perfbench/canonical.py --write
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from draws import BETAS, KINDS, SMILE_BETA

DATA_DIR = Path(__file__).resolve().parent / "canonical"
REL_TOL = 1e-12
ORDERS = (1, 2, 3)

_PARAMS = {
    "cev": ({"delta": 0.25, "gamma": 0.5}, 0.05, 0.0),
    "heston": ({"kappa": 1.5, "theta": 0.04, "delta": 0.3, "rho": -0.6}, 0.0, -3.2188758248682006),
    "sabr": ({"delta": 0.35, "gamma": 0.6, "rho": -0.45}, -0.02, -1.6094379124341003),
}
_SMILE = ({"delta": 0.4, "gamma": 0.7, "rho": -0.3}, 0.03, -1.3862943611198906)


def _beta_tag(beta: float) -> str:
    return f"{'m' if beta < 0 else 'p'}{abs(int(beta))}"


def entries() -> list:
    """(name, draw, order) for every member of the canonical set."""
    out = []
    for kind in KINDS:
        params, x, y = _PARAMS[kind]
        for beta in BETAS:
            draw = {"kind": kind, "params": params, "x": x, "y": y, "beta": beta}
            for order in ORDERS:
                out.append((f"{kind}_{_beta_tag(beta)}_o{order}", draw, order))
    params, x, y = _SMILE
    draw = {"kind": "sabr", "params": params, "x": x, "y": y, "beta": SMILE_BETA}
    for order in ORDERS:
        out.append((f"smile_sabr_{_beta_tag(SMILE_BETA)}_o{order}", draw, order))
    return out


def quote_names() -> list:
    """The 18 order-3 surface series that the quotes workload loads."""
    return [f"{kind}_{_beta_tag(beta)}_o3" for kind in KINDS for beta in BETAS]


def compute(draw: dict, order: int):
    import workloads

    model = workloads.make_model(draw)
    table = model.taylor_table(draw["x"], draw["y"], order)
    point = workloads.make_point(draw, tau=1.0, lam=0.0)
    return workloads.expansion.iv_series_engine(point, table, order)


def mismatch(got, want) -> str | None:
    """Why two series differ beyond the gate's tolerance, or None."""
    if abs(got.sigma0 - want.sigma0) > REL_TOL * abs(want.sigma0):
        return f"sigma0 {got.sigma0!r} != {want.sigma0!r}"
    if got.order != want.order:
        return f"order {got.order} != {want.order}"
    for n, (g, w) in enumerate(zip(got.terms, want.terms), start=1):
        scale = max((abs(v) for v in w.values()), default=0.0)
        for key in set(g) | set(w):
            diff = abs(g.get(key, 0.0) - w.get(key, 0.0))
            if diff > REL_TOL * scale:
                return f"term {n} coefficient {key}: diff {diff:.3e} vs scale {scale:.3e}"
    return None


def check() -> list:
    """Recompute the set; return (name, reason) for every mismatch."""
    import workloads

    failures = []
    for name, draw, order in entries():
        want = workloads.expansion.IvSeries.from_json((DATA_DIR / f"{name}.json").read_text())
        reason = mismatch(compute(draw, order), want)
        if reason:
            failures.append((name, reason))
    return failures


def write() -> None:
    DATA_DIR.mkdir(exist_ok=True)
    for name, draw, order in entries():
        (DATA_DIR / f"{name}.json").write_text(compute(draw, order).to_json() + "\n")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="regenerate the committed files")
    args = parser.parse_args()
    if args.write:
        write()
    bad = check()
    for name, reason in bad:
        print(f"MISMATCH {name}: {reason}")
    print(f"{len(entries()) - len(bad)}/{len(entries())} canonical series match")
    sys.exit(1 if bad else 0)
