"""The package's error taxonomy, its one number rule and its value-object base.

Library code raises the most specific class that applies rather than bare
ValueError, so callers can tell bad input from a solver or pipeline fault.
"""

import math
import numbers
from types import MappingProxyType
from typing import NamedTuple


class LetfVolError(Exception):
    """Base class for all package errors."""


class ConfigError(LetfVolError):
    """Bad caller input that is not a mathematical domain error: an unknown
    payoff, a malformed series payload, an expansion input that is neither
    a named model nor a TaylorTable, a table that is not a TaylorTable, a
    Heston map given another model, or a model or order with no closed
    form."""


class DomainError(LetfVolError):
    """Inputs outside the mathematical domain (non-positive vol, tau <= 0, ...)."""


class NoArbitrageError(LetfVolError):
    """A price violates static no-arbitrage bounds and cannot be inverted."""


class SolverError(LetfVolError):
    """An iterative solver failed to converge to the requested tolerance."""


class StructuralError(LetfVolError):
    """An internal algebraic invariant was violated; indicates a pipeline bug.
    Raised only by ``TaylorTable.get``, for an unknown family or an entry beyond the extent."""


def check_number(value, name: str, *where):
    """The one number rule: ``value`` if it is a real number, not a bool, whose
    float is finite, else DomainError naming ``name % where``."""
    if type(value) is float and -math.inf < value < math.inf:
        return value
    try:
        if type(value) is not bool and isinstance(value, numbers.Real) and math.isfinite(value):
            return value
    except OverflowError:  # an int or Fraction beyond the float range
        pass
    raise DomainError(f"{name % where} must be a finite real number, got {value!r}")


def _plain(value):
    """``value`` with each read-only view in it, nested in tuples too, as a dict."""
    if type(value) is MappingProxyType:
        return {key: _plain(item) for key, item in value.items()}
    return tuple(map(_plain, value)) if type(value) is tuple else value


def validated_tuple(name: str, fields: list) -> type:
    """Base of a validated value object, a ``typing.NamedTuple`` whose
    subclass checks its fields in ``__new__`` and raises DomainError.

    The inherited ``_make``, which ``_replace`` calls, skips ``__new__``;
    this one calls it, as copies and pickles of every protocol do, from the
    fields with views as dicts and without the instance dict: every
    construction route checks.
    """
    base = NamedTuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    base.__reduce__ = lambda self: (type(self), tuple(map(_plain, self)))
    return base
