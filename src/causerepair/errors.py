"""Exception types shared across the package."""


class CauseRepairError(Exception):
    """Base class for errors raised by this package."""


class ParseError(CauseRepairError):
    """Malformed input text (instance, program, or priority file)."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


class SemanticError(CauseRepairError):
    """Well-formed input that violates a semantic precondition.

    Examples: arity conflicts, unsafe rules, facts that are absent or
    exogenous where an endogenous one is required, invalid priority
    relations, malformed thresholds.
    """


class CapExceededError(CauseRepairError):
    """An enumeration would exceed the configured cap: in the sets that
    one component of its family keeps, or in the product of those sets,
    counted before that product is built."""

    def __init__(self, cap, message=None):
        super().__init__(message or f"enumeration cap of {cap} exceeded")
        self.cap = cap


class BoundExceededError(CauseRepairError):
    """A brute-force oracle was asked to scan an instance above its bound."""
