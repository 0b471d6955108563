"""Seeded input draws for the benchmark workloads.

Nothing here imports ``letfvol``: the set-up probe draws its inputs before
it starts the clock and imports the package.  A draw is a plain dict

    {"kind": "cev" | "heston" | "sabr", "params": {...}, "x": x, "y": y,
     "beta": beta}

with ``params`` the keyword arguments of the model class.  Every draw keeps
all Taylor-table entries of its model nonzero (rho != 0, gamma < 1), so
every draw costs the operator algebra the same amount of work.
"""

from __future__ import annotations

import math
import random

KINDS = ("cev", "heston", "sabr")
BETAS = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)

# Strike grids are in standard deviations d: lam = d * sigma0 * sqrt(tau).
SMILE_TAU = 0.25
SMILE_BETA = -2.0
SMILE_ORDERS = (1, 2, 3)
SMILE_D = tuple(-2.5 + 0.125 * i for i in range(41))
SURFACE_ORDER = 3
SURFACE_D = tuple(-2.5 + 0.25 * i for i in range(21))
SURFACE_TAUS = (1.0 / 12.0, 0.25, 0.5, 1.0)
SURFACE_PRICE_TAU = 0.25
QUOTE_D = SMILE_D
QUOTE_MATURITIES = 8
QUOTE_TAU_RANGE = (1.0 / 52.0, 1.0)


def rng_for(workload: str, seed: int, stream: str) -> random.Random:
    """Independent, reproducible random stream per (workload, seed, use)."""
    return random.Random(f"{workload}/{seed}/{stream}")


def draw_table(rng: random.Random, kind: str, beta: float) -> dict:
    u = rng.uniform
    if kind == "cev":
        params = {"delta": u(0.15, 0.35), "gamma": u(0.3, 0.8)}
        x, y = u(-0.2, 0.2), 0.0
    elif kind == "heston":
        params = {
            "kappa": u(0.8, 2.5),
            "theta": u(0.02, 0.08),
            "delta": u(0.2, 0.5),
            "rho": u(-0.8, -0.2),
        }
        x, y = u(-0.2, 0.2), math.log(u(0.02, 0.08))
    elif kind == "sabr":
        params = {"delta": u(0.2, 0.5), "gamma": u(0.4, 0.8), "rho": u(-0.7, -0.2)}
        x, y = u(-0.1, 0.1), math.log(u(0.15, 0.3))
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return {"kind": kind, "params": params, "x": x, "y": y, "beta": beta}


def draw_smile(rng: random.Random) -> dict:
    return draw_table(rng, "sabr", SMILE_BETA)


def draw_surface(rng: random.Random) -> list:
    """The 18 tables of one surface: CEV, Heston, SABR x beta in +-1, +-2, +-3."""
    return [draw_table(rng, kind, beta) for kind in KINDS for beta in BETAS]


def draw_quote_taus(rng: random.Random) -> list:
    """One maturity from each of QUOTE_MATURITIES equal slices of the range,
    so every pass spans short and long maturities alike."""
    lo, hi = QUOTE_TAU_RANGE
    width = (hi - lo) / QUOTE_MATURITIES
    return [lo + width * (i + rng.random()) for i in range(QUOTE_MATURITIES)]
