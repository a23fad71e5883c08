"""Exception hierarchy.

``ChanformsError`` is the base for every error raised by this package.
``InvalidMapError`` groups violations of the two structural constraints a
process matrix must satisfy (hermiticity preservation and trace
preservation); the CLI maps this family to its own exit code.
``DocumentError`` groups all input-document parse failures.
"""

from __future__ import annotations


class ChanformsError(Exception):
    """Base class for all errors raised by chanforms."""


class InvalidMatrixError(ChanformsError, ValueError):
    """Matrix, vector or basis has the wrong shape, size or entries.

    Also a ``ValueError``, so callers that catch ``ValueError`` keep working.
    """


class NotHermitianError(ChanformsError):
    """Matrix expected to be Hermitian deviates beyond tolerance."""


class NoConvergenceError(ChanformsError):
    """Eigensolver failed to converge (solver failure, not bad input)."""


class OutsideBallError(ChanformsError):
    """Bloch vector has norm greater than 1 beyond tolerance."""


class WrongDimensionError(ChanformsError):
    """Operation requires a specific Hilbert-space dimension."""


class DimensionMismatchError(ChanformsError):
    """Operands have incompatible dimensions."""


class InvalidStateError(ChanformsError):
    """Matrix is not a valid density matrix."""


class InvalidMapError(ChanformsError):
    """Process matrix violates a structural map constraint."""


class NotHermiticityPreservingError(InvalidMapError):
    """A-form violates the hermiticity-preservation constraint."""


class NotTracePreservingError(InvalidMapError):
    """A-form violates the trace-preservation (column-sum) constraint."""


class NotCompletelyPositiveError(ChanformsError):
    """Kraus form requested for a map with a negative canonical eigenvalue."""


class IncompleteKrausError(ChanformsError):
    """Kraus operators do not satisfy the completeness relation."""


class UnsupportedCombinationError(ChanformsError):
    """Basis label is not available at the requested dimension."""


class NotUnitAxisError(ChanformsError):
    """Rotation axis is not a unit vector."""


class ProbabilityRangeError(ChanformsError):
    """Channel probability parameter lies outside [0, 1]."""


class RankRangeError(ChanformsError):
    """Requested Kraus rank lies outside [1, n^2]."""


class SeedRangeError(ChanformsError):
    """Random-generator seed is not a non-negative integer."""


class DocumentError(ChanformsError):
    """Base class for channel-document parse failures."""


class DocumentSyntaxError(DocumentError):
    """Input is not syntactically valid JSON."""


class UnknownFieldError(DocumentError):
    """Document contains a field the schema does not define."""


class MissingFieldError(DocumentError):
    """Document lacks a required field."""


class BadMatrixShapeError(DocumentError):
    """Serialized matrix has the wrong shape or ragged rows."""


class NonFiniteEntryError(DocumentError):
    """Serialized matrix contains NaN or infinite entries."""
