"""Error taxonomy shared across the package, and the base of its value objects.

Library code raises the most specific class that applies rather than bare
ValueError, so callers can tell bad input from a solver or pipeline fault.
"""

from typing import NamedTuple


class LetfVolError(Exception):
    """Base class for all package errors."""


class ConfigError(LetfVolError):
    """Bad caller input that is not a mathematical domain error: an unknown
    payoff, a malformed series payload, an expansion input that is neither
    a named model nor a TaylorTable, or a model or order with no closed
    form."""


class DomainError(LetfVolError):
    """Inputs outside the mathematical domain (non-positive vol, tau <= 0, ...)."""


class NoArbitrageError(LetfVolError):
    """A price violates static no-arbitrage bounds and cannot be inverted."""


class SolverError(LetfVolError):
    """An iterative solver failed to converge to the requested tolerance."""


class StructuralError(LetfVolError):
    """An internal algebraic invariant was violated; indicates a pipeline bug."""


def _make(cls, iterable):
    return cls(*iterable)


def validated_tuple(name: str, fields: list) -> type:
    """Base of a validated value object, a ``typing.NamedTuple`` whose
    subclass checks its fields in ``__new__`` and raises DomainError.

    The inherited ``_make``, which ``_replace`` calls, builds the tuple
    without ``__new__``; this one calls the subclass, so every
    construction route checks.
    """
    base = NamedTuple(name, fields)
    base._make = classmethod(_make)
    return base
