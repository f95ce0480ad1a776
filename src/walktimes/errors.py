"""Exception types shared across the package.

The CLI maps these onto exit codes: format and structure problems and
queries the walk cannot take are data errors (exit 2), violated
numerical identities and failed convergence are invariant errors
(exit 3).
"""

from __future__ import annotations


class WalkTimesError(Exception):
    """Base class for all package errors."""


class GraphFormatError(WalkTimesError):
    """Malformed input file. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphStructureError(WalkTimesError):
    """Graph violates a structural precondition (degree, connectivity, ...)."""


class DanglingEdgeError(GraphStructureError):
    """Edges whose endpoint can only step straight back."""

    def __init__(self, edges):
        self.edges = list(edges)
        shown = ", ".join(f"{i}->{j}" for i, j in self.edges[:8])
        more = "" if len(self.edges) <= 8 else f" (+{len(self.edges) - 8} more)"
        super().__init__(f"dangling edges present: {shown}{more}")


class ChainError(WalkTimesError):
    """Transition data violates a chain precondition."""


class ReducibleChainError(ChainError):
    """Chain is not irreducible. Carries the strongly connected components."""

    def __init__(self, components, what: str = "chain"):
        self.components = [list(c) for c in components]
        sizes = ", ".join(str(len(c)) for c in self.components[:10])
        super().__init__(
            f"{what} is reducible: {len(self.components)} strongly "
            f"connected components of sizes {sizes}"
        )


class ConvergenceError(WalkTimesError):
    """A solver failed: an iteration ran out of its budget, or a direct
    solve failed its validation."""


class QueryError(WalkTimesError, ValueError):
    """A query names a node, state set or trial count the walk cannot take."""


class SizeCapError(WalkTimesError):
    """Requested computation exceeds a configured memory guard."""


class InvariantViolation(WalkTimesError):
    """A numerical identity that must hold failed its tolerance."""
