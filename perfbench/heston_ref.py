"""Independent Fourier reference for LETF options on a Heston ETF.

The ETF variance follows dv = kappa (theta - v) dt + delta sqrt(v) dB with
d<W, B> = rho dt.  A beta-leveraged ETF (zero rates) has
d log L = beta sqrt(v) dW - beta^2 v / 2 dt, so its variance w = beta^2 v is
again Heston, with theta -> beta^2 theta, delta -> |beta| delta and
rho -> sign(beta) rho (Leung, Lorig & Pascucci, Section 5).  The call is
priced by the Lewis (2000) formula with the characteristic function in the
"little Heston trap" form of Albrecher et al. (2007), integrated with
``scipy.integrate.quad``.

Apart from ``beta_map_matches`` (a cross-check against ``heston_beta_map``)
the only ``letfvol`` name used is ``implied_vol``, to invert the prices.
"""

from __future__ import annotations

import cmath
import math

from scipy.integrate import quad


def letf_heston_params(params: dict, y: float, beta: float) -> tuple:
    """(kappa, theta, delta, rho, v0) of the LETF's own Heston dynamics."""
    b2 = beta * beta
    return (
        params["kappa"],
        b2 * params["theta"],
        abs(beta) * params["delta"],
        math.copysign(1.0, beta) * params["rho"],
        b2 * math.exp(y),
    )


def heston_cf(u: complex, tau: float, kappa, theta, delta, rho, v0) -> complex:
    """E[exp(i u log(L_T / L_t))] in the little-Heston-trap form."""
    iu = 1j * u
    a = kappa - rho * delta * iu
    d = cmath.sqrt(a * a + delta * delta * (iu + u * u))
    g = (a - d) / (a + d)
    e = cmath.exp(-d * tau)
    c = (kappa * theta / delta**2) * ((a - d) * tau - 2.0 * cmath.log((1.0 - g * e) / (1.0 - g)))
    D = ((a - d) / delta**2) * (1.0 - e) / (1.0 - g * e)
    return cmath.exp(c + D * v0)


def call_price(params: dict, y: float, beta: float, tau: float, z: float, k: float) -> float:
    """Undiscounted LETF call price by the Lewis formula."""
    heston = letf_heston_params(params, y, beta)
    moneyness = z - k

    def integrand(u: float) -> float:
        phi = heston_cf(u - 0.5j, tau, *heston)
        return (cmath.exp(1j * u * moneyness) * phi).real / (u * u + 0.25)

    integral, _ = quad(integrand, 0.0, math.inf, limit=400, epsabs=1e-14, epsrel=1e-12)
    return math.exp(z) - math.exp(0.5 * (z + k)) * integral / math.pi


def implied_vol_ref(params: dict, y: float, beta: float, tau: float, z: float, k: float) -> float:
    from letfvol.blackscholes import implied_vol

    return implied_vol(call_price(params, y, beta, tau, z, k), tau, z, k).value


def beta_map_matches(params: dict, y: float, beta: float) -> bool:
    """Cross-check the mapping above against ``letfvol.models.heston_beta_map``."""
    from letfvol.models import HestonModel, heston_beta_map

    mapped, y_mapped = heston_beta_map(HestonModel(**params), y, beta)
    kappa, theta, delta, rho, v0 = letf_heston_params(params, y, beta)
    got = (mapped.kappa, mapped.theta, mapped.delta, mapped.rho, math.exp(y_mapped))
    return all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, (kappa, theta, delta, rho, v0)))
