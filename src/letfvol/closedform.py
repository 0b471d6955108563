"""Hand-transcribed implied-vol series for the named models.

These closed forms were worked out once by hand for each named model and
are kept as an independent check on the mechanical assembly in
``expansion``: both routes must produce identical coefficients wherever a
closed form exists.  Availability: CEV and Heston through order 3, SABR
through order 2.  The general local-stochastic-vol forms, written against a
Taylor table, serve only as a test oracle and live with the tests.
"""

from __future__ import annotations

import math

from .errors import ConfigError
from .expansion import IvSeries, _check_order
from .models import CevModel, HestonModel, SabrModel

PRINTED_MAX_ORDER = {CevModel: 3, HestonModel: 3, SabrModel: 2}


def _clean(term: dict) -> dict:
    return {key: value for key, value in term.items() if value != 0.0}


def _add(dst: dict, src: dict) -> None:
    for key, value in src.items():
        dst[key] = dst.get(key, 0.0) + value


def _cev_sigma_terms(sigma0: float, gamma: float, beta: float, order: int) -> list:
    g = gamma - 1.0
    terms = []
    if order >= 1:
        terms.append(
            {
                (0, 1): (beta - 1.0) * g * sigma0**3 / (4.0 * beta**2),
                (1, 0): g * sigma0 / (2.0 * beta),
            }
        )
    if order >= 2:
        terms.append(
            {
                (0, 1): g**2 * sigma0**3 / (24.0 * beta**2),
                (0, 2): (2.0 * beta * (6.0 * beta - 13.0) + 13.0)
                * g**2
                * sigma0**5
                / (96.0 * beta**4),
                (1, 1): 7.0 * (beta - 1.0) * g**2 * sigma0**3 / (24.0 * beta**3),
                (2, 0): g**2 * sigma0 / (12.0 * beta**2),
            }
        )
    if order >= 3:
        terms.append(
            {
                (0, 2): 5.0 * (beta - 1.0) * g**3 * sigma0**5 / (32.0 * beta**4),
                (0, 3): (beta - 1.0)
                * (26.0 * beta**2 - 70.0 * beta + 35.0)
                * g**3
                * sigma0**7
                / (384.0 * beta**6),
                (1, 1): g**3 * sigma0**3 / (16.0 * beta**3),
                (1, 2): 5.0
                * (2.0 * beta * (4.0 * beta - 9.0) + 9.0)
                * g**3
                * sigma0**5
                / (192.0 * beta**5),
                (2, 1): 7.0 * (beta - 1.0) * g**3 * sigma0**3 / (48.0 * beta**4),
            }
        )
    return terms


def _heston_sigma_terms(model: HestonModel, sigma0: float, beta: float, order: int) -> list:
    kap, th, dl, rho = model.kappa, model.theta, model.delta, model.rho
    E = dl**2 - 2.0 * th * kap
    R = beta * dl * rho - 2.0 * kap
    terms = []
    if order >= 1:
        terms.append(
            {
                (0, 1): (sigma0**2 * R - beta**2 * E) / (8.0 * sigma0),
                (1, 0): beta * dl * rho / (4.0 * sigma0),
            }
        )
    if order >= 2:
        terms.append(
            {
                (0, 1): beta**2 * dl**2 * (rho**2 + 8.0) / (96.0 * sigma0),
                (0, 2): (
                    -3.0 * beta**4 * E**2
                    - 2.0 * beta**2 * sigma0**2 * E * R
                    + 4.0
                    * sigma0**4
                    * (beta * dl * (beta * dl * (2.0 * rho**2 - 1.0) - 5.0 * kap * rho) + 5.0 * kap**2)
                )
                / (384.0 * sigma0**3),
                (1, 1): beta
                * dl
                * rho
                * (5.0 * beta**2 * E + sigma0**2 * (2.0 * kap - beta * dl * rho))
                / (96.0 * sigma0**3),
                (2, 0): beta**2 * dl**2 * (2.0 - 5.0 * rho**2) / (48.0 * sigma0**3),
            }
        )
    if order >= 3:
        terms.append(
            {
                (0, 2): beta**2
                * dl**2
                * (beta**2 * (5.0 * rho**2 + 4.0) * E + 3.0 * rho**2 * sigma0**2 * R)
                / (768.0 * sigma0**3),
                (0, 3): (
                    -3.0 * beta**6 * E**3
                    + beta**4 * sigma0**2 * E**2 * R
                    + 4.0 * beta**2 * kap * sigma0**4 * E * (beta * dl * rho - kap)
                    + 2.0
                    * sigma0**6
                    * R
                    * (beta * dl * (beta * dl * (5.0 * rho**2 - 6.0) - 6.0 * kap * rho) + 6.0 * kap**2)
                )
                / (3072.0 * sigma0**5),
                (1, 1): -(beta**3) * dl**3 * rho * (9.0 * rho**2 + 8.0) / (384.0 * sigma0**3),
                (1, 2): beta
                * dl
                * rho
                * (
                    21.0 * beta**4 * E**2
                    - 10.0 * beta**2 * sigma0**2 * E * R
                    + 4.0
                    * sigma0**4
                    * (beta * dl * (beta * (dl - 2.0 * dl * rho**2) + 3.0 * kap * rho) - 3.0 * kap**2)
                )
                / (1536.0 * sigma0**5),
                (2, 1): -(beta**2)
                * dl**2
                * (
                    beta**2 * (23.0 * rho**2 - 8.0) * E
                    + (7.0 * rho**2 - 2.0) * sigma0**2 * (2.0 * kap - beta * dl * rho)
                )
                / (384.0 * sigma0**5),
                (3, 0): beta**3 * dl**3 * rho * (8.0 * rho**2 - 5.0) / (96.0 * sigma0**5),
            }
        )
    return terms


def _sabr_sigma_terms(model: SabrModel, sigma0: float, beta: float, order: int) -> list:
    # The pure-gamma parts are CEV's forms at the same sigma0; add the delta parts.
    g = model.gamma - 1.0
    dl, rho = model.delta, model.rho
    sgn = math.copysign(1.0, beta)
    ab = abs(beta)
    terms = _cev_sigma_terms(sigma0, model.gamma, beta, order)
    if order >= 1:
        s01 = {
            (0, 1): -0.25 * dl * sigma0 * (dl - rho * sigma0 * sgn),
            (1, 0): 0.5 * dl * rho * sgn,
        }
        _add(terms[0], s01)
    if order >= 2:
        s11 = {
            (0, 1): g * dl * rho * sigma0**2 / (4.0 * ab),
            (0, 2): g
            * dl
            * sigma0**3
            * (beta * (10.0 * beta - 11.0) * rho * sigma0 - 9.0 * (beta - 1.0) * dl * ab)
            / (48.0 * ab**3),
            (1, 1): g
            * dl
            * sigma0
            * beta
            * (5.0 * (2.0 * beta - 1.0) * rho * sigma0 - 3.0 * dl * ab)
            / (24.0 * ab**3),
        }
        s02 = {
            (0, 1): dl**2 * (8.0 - 3.0 * rho**2) * sigma0 / 24.0,
            (0, 2): dl**2
            * sigma0
            * (5.0 * dl**2 + 4.0 * (3.0 * rho**2 - 1.0) * sigma0**2 - 14.0 * dl * rho * sigma0 / sgn)
            / 96.0,
            (1, 1): -(dl**2) * rho * (dl - 3.0 * rho * sigma0 * sgn) / (24.0 * sgn),
            (2, 0): dl**2 * (2.0 - 3.0 * rho**2) / (12.0 * sigma0),
        }
        _add(terms[1], s11)
        _add(terms[1], s02)
    return terms


def iv_series_printed(model, point, order: int) -> IvSeries:
    """Implied-vol series from the hand-transcribed closed forms.

    ``model`` is a named model (CEV, Heston or SABR), expanded at
    (point.x, point.y); any other type, a TaylorTable included, raises
    ConfigError.  Supported orders are listed in PRINTED_MAX_ORDER; a SABR
    request at order 3 is rejected because no third-order closed form is
    available for it, only the engine route covers that case.
    """
    cap = PRINTED_MAX_ORDER.get(type(model))
    if cap is None:
        raise ConfigError(f"no closed forms for {type(model).__name__}")
    _check_order(order)
    if order > cap:
        raise ConfigError(
            f"no order-{order} closed form is available for {type(model).__name__} "
            f"(largest is {cap}); use the engine instead"
        )
    beta = point.beta
    if isinstance(model, CevModel):
        sigma0 = abs(beta) * math.sqrt(
            math.exp(2.0 * point.x * (model.gamma - 1.0)) * model.delta**2
        )
        terms = _cev_sigma_terms(sigma0, model.gamma, beta, order)
    elif isinstance(model, HestonModel):
        sigma0 = abs(beta) * math.sqrt(math.exp(point.y))
        terms = _heston_sigma_terms(model, sigma0, beta, order)
    else:
        sigma0 = abs(beta) * math.sqrt(
            math.exp(2.0 * point.y + 2.0 * point.x * (model.gamma - 1.0))
        )
        terms = _sabr_sigma_terms(model, sigma0, beta, order)
    return IvSeries(sigma0=sigma0, terms=tuple(_clean(term) for term in terms))
