"""Exception types shared across the library.

Every error that can cross the library boundary lives here so that callers
(and the command line front end) can map failures to exit codes without
importing solver internals.
"""

from __future__ import annotations


class AemflowError(Exception):
    """Base class for all library specific errors."""


class Infeasible(AemflowError):
    """No flow satisfies the requested lower/upper bounds.

    Raised by the bounded max-flow engine when the lower bounds cannot be
    routed, and by solvers when a candidate parameter value forces edge
    minimums too high for the surrounding capacities.
    """

    def __init__(self, message: str = "no feasible flow", *, context: object = None):
        super().__init__(message)
        self.context = context


class BudgetExceeded(AemflowError):
    """An enumeration oracle would exceed its candidate budget."""

    def __init__(self, message: str, *, candidates: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.candidates = candidates
        self.budget = budget


class UnsupportedDeviation(AemflowError):
    """A solver was handed a deviation function outside its supported class."""


class ParseError(AemflowError):
    """An input file is malformed; carries the 1-based line number."""

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(AemflowError):
    """A structurally well-formed input violates a model invariant."""


class InternalError(AemflowError):
    """A solver invariant failed: a defect in aemflow, not in the input."""


def require(condition: object, message: str) -> None:
    """Raise InternalError with ``message`` unless ``condition`` holds.

    Unlike ``assert``, the check survives ``python -O``.
    """
    if not condition:
        raise InternalError(message)
