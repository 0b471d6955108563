"""Series approximations of LETF option prices and implied vols under
local-stochastic volatility, with a Black-Scholes implied-vol inverter."""

__version__ = "0.1.0"
