"""Exception types shared across the package.

Everything user-facing derives from KulsError.  InvariantViolation and
ConsistencyFailure signal internal checks that should never fire on a
correct build; the CLI maps them to exit code 2, all other KulsErrors
to exit code 1, and a MemoryError to exit code 1 as BudgetExceeded.
"""
from __future__ import annotations

__all__ = [
    "KulsError",
    "BadField",
    "DslSyntaxError",
    "UnknownName",
    "NonComposablePath",
    "NonParallelRelation",
    "NonAdmissibleRelation",
    "BadParameters",
    "DimensionMismatch",
    "DegreeBoundExceeded",
    "InfiniteDimensional",
    "NotNilpotent",
    "ConsistencyFailure",
    "NotSymmetric",
    "Degenerate",
    "CharacteristicMismatch",
    "BudgetExceeded",
    "InvariantViolation",
]


class KulsError(Exception):
    """Base class for all errors raised by this package."""


class BadField(KulsError):
    """Field parameters are invalid (p not prime, size out of range, reducible modulus)."""


class LocatedError(KulsError):
    """An input error carrying a source position (1-based line and column)."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message if not line else f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DslSyntaxError(LocatedError):
    """Tokenizer or grammar failure; `expected` names what the parser wanted."""

    def __init__(self, message: str, line: int, col: int, expected: str = ""):
        super().__init__(message, line, col)
        self.expected = expected


class UnknownName(LocatedError):
    """A name used in a relation or element is not a declared arrow or vertex."""


class NonComposablePath(LocatedError):
    """Consecutive arrows in a path do not share target/source."""


class NonParallelRelation(LocatedError):
    """Terms of one relation do not all run between the same pair of vertices."""


class NonAdmissibleRelation(LocatedError):
    """A relation term is shorter than two arrows."""


class BadParameters(KulsError):
    """Family parameters are outside the documented range."""


class DimensionMismatch(KulsError):
    """Operands live in different ambient spaces or over different fields."""


class DegreeBoundExceeded(KulsError):
    """Completion produced a rule or S-polynomial beyond the degree bound."""


class InfiniteDimensional(KulsError):
    """The quotient algebra has infinitely many normal words."""


class NotNilpotent(KulsError):
    """The words of length >= 1 do not span rad A (the presentation is not admissible)."""


class ConsistencyFailure(KulsError):
    """A structure-constant self-check failed after completion (internal)."""


class NotSymmetric(KulsError):
    """The bilinear form is not symmetric; `witness` is an offending basis pair."""

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class Degenerate(KulsError):
    """The bilinear form has a radical; `kernel_vector` witnesses it when known."""

    def __init__(self, message: str, kernel_vector=None):
        super().__init__(message)
        self.kernel_vector = kernel_vector


class CharacteristicMismatch(KulsError):
    """Two algebras live over fields of different characteristic."""


class BudgetExceeded(KulsError):
    """A brute-force enumeration would exceed its element budget."""


class InvariantViolation(KulsError):
    """A verified mathematical invariant failed at runtime (internal)."""
