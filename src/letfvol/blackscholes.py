"""Black-Scholes prices, greeks ratios, and a robust implied-vol inverter.

Everything here works in log coordinates: ``z`` is the log of the spot,
``k`` the log of the strike, and prices are undiscounted.  The normal CDF
goes through ``math.erf`` so results are reproducible to ~1e-16 without
pulling in a stats dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NoArbitrageError, SolverError

SQRT2 = math.sqrt(2.0)

# Implied-vol solver controls.
IV_BRACKET_LO = 1e-6
IV_BRACKET_HI = 5.0
IV_MAX_ITER = 100


def norm_cdf(x: float) -> float:
    """Standard normal CDF."""
    return 0.5 * (1.0 + math.erf(x / SQRT2))


def norm_pdf(x: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class BsInputs:
    """Inputs for a Black-Scholes evaluation in log coordinates.

    Attributes:
        sigma: volatility, must be positive.
        tau: time to expiry in years, must be positive.
        z: log spot.
        k: log strike.
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

    @property
    def total_std(self) -> float:
        return self.sigma * math.sqrt(self.tau)

    def d_plus(self) -> float:
        return (self.z - self.k) / self.total_std + 0.5 * self.total_std

    def d_minus(self) -> float:
        return (self.z - self.k) / self.total_std - 0.5 * self.total_std


@dataclass(frozen=True)
class ImpliedVol:
    """Result of an implied-vol inversion."""

    value: float
    iterations: int = 0


def bs_call_price(inputs: BsInputs) -> float:
    """Undiscounted European call price e^z N(d+) - e^k N(d-)."""
    return math.exp(inputs.z) * norm_cdf(inputs.d_plus()) - math.exp(
        inputs.k
    ) * norm_cdf(inputs.d_minus())


def bs_put_price(inputs: BsInputs) -> float:
    """Undiscounted European put price via parity with the call."""
    return bs_call_price(inputs) - math.exp(inputs.z) + math.exp(inputs.k)


def bs_vega(inputs: BsInputs) -> float:
    """Derivative of the call (or put) price with respect to sigma."""
    return math.exp(inputs.z) * norm_pdf(inputs.d_plus()) * math.sqrt(inputs.tau)


def implied_vol(price: float, tau: float, z: float, k: float) -> ImpliedVol:
    """Invert an undiscounted call price to a Black-Scholes volatility.

    Uses Newton steps safeguarded by a bisection bracket, starting from
    [1e-6, 5].  The stopping rule is on price: |model - target| below
    1e-12 * e^z.

    Raises:
        NoArbitrageError: price is outside ((e^z - e^k)+, e^z).
        SolverError: no convergence within the iteration budget.
    """
    if tau <= 0.0:
        raise DomainError(f"tau must be positive, got {tau}")
    spot = math.exp(z)
    intrinsic = max(spot - math.exp(k), 0.0)
    if not (intrinsic < price < spot):
        raise NoArbitrageError(
            f"call price {price} outside arbitrage bounds ({intrinsic}, {spot})"
        )
    tol = 1e-12 * spot

    lo, hi = IV_BRACKET_LO, IV_BRACKET_HI
    f_lo = bs_call_price(BsInputs(lo, tau, z, k)) - price
    if f_lo > 0.0:
        # Target sits below the smallest bracketed price; the bound check
        # above means this can only happen within the price tolerance.
        return ImpliedVol(value=lo, iterations=0)
    f_hi = bs_call_price(BsInputs(hi, tau, z, k)) - price
    while f_hi < 0.0:
        # Price achievable only above the default bracket; widen it.
        hi *= 2.0
        if hi > 1e3:
            raise SolverError(f"implied vol exceeds {hi}; price {price} too close to spot")
        f_hi = bs_call_price(BsInputs(hi, tau, z, k)) - price

    sigma = 0.5 * (lo + hi)
    for iteration in range(1, IV_MAX_ITER + 1):
        trial = BsInputs(sigma, tau, z, k)
        diff = bs_call_price(trial) - price
        if abs(diff) <= tol:
            return ImpliedVol(value=sigma, iterations=iteration)
        if diff > 0.0:
            hi = sigma
        else:
            lo = sigma
        vega = bs_vega(trial)
        if vega > 1e-300:
            step = sigma - diff / vega
        else:
            step = math.nan
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
        sigma = step
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
