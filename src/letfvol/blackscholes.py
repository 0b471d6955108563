"""Black-Scholes prices, greeks ratios, and a robust implied-vol inverter.

Everything here works in log coordinates: ``z`` is the log of the spot,
``k`` the log of the strike, and prices are undiscounted.  One kernel,
``_call``, forms every price and its d+, through ``math.erfc``, which keeps
the left tail to full relative precision.  The put is the call with spot
and strike swapped, P(e^z, e^k) = C(e^k, e^z), so no parity subtraction
turns a worthless put into rounding residue.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import DomainError, NoArbitrageError, SolverError

SQRT2 = math.sqrt(2.0)
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Largest z or k whose exponential is a finite float.
MAX_LOG = math.log(sys.float_info.max)

# Implied-vol solver controls.
IV_MAX_ITER = 100
IV_MAX_VOL = 1e3


@dataclass(frozen=True)
class BsInputs:
    """Inputs for a Black-Scholes evaluation in log coordinates.

    Attributes:
        sigma: volatility, must be positive.
        tau: time to expiry in years, must be positive.
        z: log spot, above -inf and at most MAX_LOG.
        k: log strike, above -inf and at most MAX_LOG.
    """

    sigma: float
    tau: float
    z: float
    k: float

    def __post_init__(self):
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise DomainError(f"sigma must be positive, got {self.sigma}")
        if not (self.tau > 0.0) or not math.isfinite(self.tau):
            raise DomainError(f"tau must be positive, got {self.tau}")
        if not -math.inf < self.z <= MAX_LOG:
            raise DomainError(f"z must be finite and at most {MAX_LOG}, got {self.z}")
        if not -math.inf < self.k <= MAX_LOG:
            raise DomainError(f"k must be finite and at most {MAX_LOG}, got {self.k}")


@dataclass(frozen=True)
class ImpliedVol:
    """Result of an implied-vol inversion."""

    value: float
    iterations: int = 0


def _call(spot: float, strike: float, x: float, s: float) -> tuple:
    """Undiscounted call price and d+, from e^z, e^k, x = z - k and s = sigma sqrt(tau)."""
    # Each leg is halved first: spot * erfc would overflow near e^MAX_LOG.
    a, h = x / s, 0.5 * s
    d_plus = a + h
    erfc = math.erfc
    price = 0.5 * spot * erfc(-d_plus / SQRT2) - 0.5 * strike * erfc((h - a) / SQRT2)
    # Subnormal erfc legs carry no relative precision; their difference can dip below 0.
    return (0.0 if price < 0.0 else price), d_plus


def bs_call_price(inputs: BsInputs) -> float:
    """Undiscounted European call price e^z N(d+) - e^k N(d-)."""
    z, k = inputs.z, inputs.k
    return _call(math.exp(z), math.exp(k), z - k, inputs.sigma * math.sqrt(inputs.tau))[0]


def bs_put_price(inputs: BsInputs) -> float:
    """Undiscounted European put price: the call with spot and strike swapped."""
    z, k = inputs.z, inputs.k
    return _call(math.exp(k), math.exp(z), k - z, inputs.sigma * math.sqrt(inputs.tau))[0]


def bs_vega(inputs: BsInputs) -> float:
    """Derivative of the call (or put) price with respect to sigma: e^z phi(d+) sqrt(tau).

    e^z and phi(d+) share one exponential, which stays finite where e^z alone does not.
    """
    z, root_tau = inputs.z, math.sqrt(inputs.tau)
    d_plus = _call(math.exp(z), math.exp(inputs.k), z - inputs.k, inputs.sigma * root_tau)[1]
    return INV_SQRT_2PI * root_tau * math.exp(z - 0.5 * d_plus * d_plus)


def implied_vol(price: float, tau: float, z: float, k: float) -> ImpliedVol:
    """Invert an undiscounted call price to a Black-Scholes volatility.

    Starts from Manaster and Koehler's sigma = sqrt(2 |z - k| / tau), the
    inflection point of the price in sigma, or at the money from
    sqrt(2 pi) price / (e^z sqrt(tau)).  Takes Halley steps (volga / vega
    = d+ d- / sigma), or Newton steps where Halley's denominator is small.
    The bracket starts as (0, inf) and is narrowed by the sign of each
    price gap; a step that leaves it bisects, or doubles sigma while the
    top is still inf.  The stopping rule is on price: |model - target| at
    most 1e-12 * e^z.

    Raises:
        DomainError: a non-finite input, z or k above MAX_LOG, or tau <= 0.
        NoArbitrageError: price is outside ((e^z - e^k)+, e^z).
        SolverError: the vol exceeds IV_MAX_VOL, or no convergence within
            IV_MAX_ITER price evaluations.
    """
    isfinite = math.isfinite
    if not (isfinite(price) and isfinite(tau) and isfinite(z) and isfinite(k)):
        raise DomainError(f"inputs must be finite, got {(price, tau, z, k)}")
    if z > MAX_LOG or k > MAX_LOG:
        raise DomainError(f"z and k must be at most {MAX_LOG}, got {(z, k)}")
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    spot, strike = math.exp(z), math.exp(k)
    intrinsic = max(spot - strike, 0.0)
    if not (intrinsic < price < spot):
        raise NoArbitrageError(
            f"call price {price} outside arbitrage bounds ({intrinsic}, {spot})"
        )
    tol = 1e-12 * spot
    x, root_tau = z - k, math.sqrt(tau)
    vega_scale = INV_SQRT_2PI * spot * root_tau
    sigma = math.sqrt(2.0 * abs(x) / tau)
    if sigma == 0.0:
        # The floor keeps sigma > 0 where price / e^z underflows.
        sigma = max(price / vega_scale, 1e-300)
    lo, hi = 0.0, math.inf
    for iteration in range(1, IV_MAX_ITER + 1):
        s = sigma * root_tau
        model, d_plus = _call(spot, strike, x, s)
        diff = model - price
        if -tol <= diff <= tol:
            return ImpliedVol(value=sigma, iterations=iteration)
        if diff > 0.0:
            hi = sigma
        elif sigma < IV_MAX_VOL:
            lo = sigma
        else:
            raise SolverError(f"implied vol exceeds {IV_MAX_VOL}; price {price} too close to spot")
        vega = vega_scale * math.exp(-0.5 * d_plus * d_plus)
        step = math.nan
        if vega > 0.0:
            newton = diff / vega
            # Halley's denominator, with volga / vega = d+ d- / sigma.
            halley = 1.0 - 0.5 * newton * d_plus * (d_plus - s) / sigma
            step = sigma - (newton / halley if halley > 0.5 else newton)
        if not lo < step < hi:
            step = 2.0 * sigma if hi == math.inf else 0.5 * (lo + hi)
        sigma = step if step < IV_MAX_VOL else IV_MAX_VOL
    raise SolverError(
        f"implied vol did not converge in {IV_MAX_ITER} iterations; "
        f"bracket [{lo}, {hi}]"
    )


def hermite_poly_value(m: int, w):
    """Value of the degree-m physicists' Hermite polynomial at ``w``.

    Evaluated by the three-term recurrence, which keeps exact (Fraction)
    inputs exact.
    """
    if m < 0:
        raise DomainError(f"Hermite degree must be nonnegative, got {m}")
    h_prev = 1
    if m == 0:
        return h_prev
    h_curr = 2 * w
    for n in range(1, m):
        h_prev, h_curr = h_curr, 2 * w * h_curr - 2 * n * h_prev
    return h_curr


MAX_HERMITE_ORDER = 12


def hermite_vega_ratio(m: int, inputs: BsInputs) -> float:
    """Ratio of the m-th z-derivative of (d2/dz2 - d/dz) applied to the
    call price, to the price's vega.

    The closed form is H_m(w) / (tau * sigma) scaled by (-1/s)^m with
    s = sqrt(2 sigma^2 tau) and w = (z - k - sigma^2 tau / 2) / s, where
    H_m is the physicists' Hermite polynomial.  Index and argument were
    pinned by finite-difference validation; see the test suite.
    """
    if not 0 <= m <= MAX_HERMITE_ORDER:
        raise DomainError(
            f"hermite_vega_ratio supports 0 <= m <= {MAX_HERMITE_ORDER}, got {m}"
        )
    sigma, tau = inputs.sigma, inputs.tau
    s = math.sqrt(2.0 * sigma * sigma * tau)
    w = (inputs.z - inputs.k - 0.5 * sigma * sigma * tau) / s
    return (-1.0 / s) ** m * hermite_poly_value(m, w) / (tau * sigma)
