"""Error taxonomy shared across the package.

Library code raises the most specific class that applies rather than bare
ValueError, so callers can tell bad input from a solver or pipeline fault.
"""


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
