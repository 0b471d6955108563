"""Error taxonomy shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies rather than bare ValueError.
"""


class LetfVolError(Exception):
    """Base class for all package errors."""


class ConfigError(LetfVolError):
    """Bad user input: parameter files, CLI flags, or malformed run settings."""


class DomainError(LetfVolError):
    """Inputs outside the mathematical domain (non-positive vol, tau <= 0, ...)."""


class NoArbitrageError(LetfVolError):
    """A price violates static no-arbitrage bounds and cannot be inverted."""


class SolverError(LetfVolError):
    """An iterative solver failed to converge to the requested tolerance."""


class StructuralError(LetfVolError):
    """An internal algebraic invariant was violated; indicates a pipeline bug."""
