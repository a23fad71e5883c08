"""Dense complex linear algebra and the density-matrix domain type.

Conventions used throughout the package:

* Matrices are dense ``numpy`` arrays of dtype ``complex128``, row-major.
* A density matrix on an n-dimensional Hilbert space is Hermitian, has
  unit trace, and is positive semidefinite (all within a tolerance,
  default ``DEFAULT_TOL``).
* Row vectorization stacks matrix rows: the vector of ``rho`` is
  ``rho.reshape(-1)``, with ``rho[r, s]`` at ``r*n + s``.  This ordering
  is fixed; every superoperator in the package assumes it.
* Eigendecompositions of Hermitian matrices are returned with
  eigenvalues sorted descending and eigenvectors stored as the *rows*
  of a matrix, row k paired with eigenvalue k.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import (
    InvalidMatrixError,
    InvalidStateError,
    NoConvergenceError,
    NotHermitianError,
    OutsideBallError,
    WrongDimensionError,
)

DEFAULT_TOL = 1e-9

SIGMA_1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_3 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (np.eye(2, dtype=complex), SIGMA_1, SIGMA_2, SIGMA_3)


def as_complex_matrix(entries, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``entries`` to a finite 2-D complex array (a defensive copy).

    Raises ``InvalidMatrixError`` (a ``ValueError``) on non-2-D input, a
    shape mismatch against the optional ``rows``/``cols``, or any NaN/Inf
    entry.
    """
    m = np.array(entries, dtype=complex)
    if m.ndim != 2:
        raise InvalidMatrixError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise InvalidMatrixError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise InvalidMatrixError(f"expected {cols} columns, got {m.shape[1]}")
    if not np.isfinite(m).all():
        raise InvalidMatrixError("matrix contains non-finite entries")
    return m


def max_abs(m: np.ndarray) -> float:
    """Entrywise max-norm; 0.0 for empty input."""
    return float(np.abs(m).max()) if m.size else 0.0


def hermiticity_residual(m: np.ndarray) -> float:
    """Max-norm deviation of ``m`` from its own conjugate transpose."""
    return max_abs(m - m.conj().T)


def _min_eigenvalue(m: np.ndarray) -> float:
    """Minimum eigenvalue of the Hermitian part (m + m^dag)/2 of a square matrix.

    At n = 2 it is the closed form (a+d)/2 - hypot((a-d)/2, |b|), with a, d
    the real parts of the diagonal and b = (m01 + conj m10)/2; it agrees
    with LAPACK to a few ulps of max|m| without LAPACK's per-call cost.
    Each term is halved before it is added, so a, d and b stay finite; an
    |b| beyond the double range raises ``OverflowError``.
    """
    if m.shape == (2, 2):
        (m00, m01), (m10, m11) = m.tolist()
        a, d = m00.real / 2, m11.real / 2
        b = m01 / 2 + m10.conjugate() / 2
        return a + d - math.hypot(a - d, abs(b))
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])  # ascending order


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _new(cls, **fields):
    """A frozen dataclass ``cls`` holding ``fields`` as given, without the
    copies and checks of its ``__post_init__``: for arrays a function has
    just computed and frozen, or measurements it has in hand."""
    obj = object.__new__(cls)
    for name in fields:
        object.__setattr__(obj, name, fields[name])
    return obj


class _MeasuredHermitian:
    """Base of validated forms that keep a square, read-only complex
    ``matrix`` and the ``hermiticity_residual`` measured on it;
    :func:`hermitian_eigendecompose` takes both as they are."""

    __slots__ = ()


@dataclass(frozen=True, eq=False)
class BlochVector:
    """Real 3-vector parameterizing a qubit state rho = (I + p.sigma)/2.

    Must lie inside the closed unit ball (up to ``DEFAULT_TOL``).
    """

    p1: float
    p2: float
    p3: float

    def __post_init__(self) -> None:
        for v in (self.p1, self.p2, self.p3):
            if not math.isfinite(v):
                raise OutsideBallError("Bloch components must be finite")
        if self.norm > 1.0 + DEFAULT_TOL:
            raise OutsideBallError(
                f"Bloch vector norm {self.norm:.6g} exceeds 1 (tol {DEFAULT_TOL:g})"
            )

    @property
    def norm(self) -> float:
        return math.hypot(self.p1, self.p2, self.p3)

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.p3])


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated quantum state: Hermitian, unit-trace, positive semidefinite.

    ``tol`` bounds the accepted violation of each property at
    construction time.  The wrapped array is made read-only.
    """

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float) -> None:
        try:
            m = as_complex_matrix(self.matrix)
        except ValueError as exc:
            raise InvalidStateError(str(exc)) from exc
        if m.shape[0] != m.shape[1]:
            raise InvalidStateError(f"density matrix must be square, got {m.shape}")
        herm = hermiticity_residual(m)
        if herm > tol:
            raise InvalidStateError(f"not Hermitian: residual {herm:.3g} > tol {tol:g}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > tol:
            raise InvalidStateError(f"trace {tr:.6g} differs from 1 beyond tol {tol:g}")
        try:
            min_eig = _min_eigenvalue(m)
        except OverflowError as exc:  # an off-diagonal modulus beyond the double range
            raise InvalidStateError(f"entries too large for the eigenvalue check: {exc}") from None
        if min_eig < -tol:
            raise InvalidStateError(
                f"not positive semidefinite: min eigenvalue {min_eig:.3g} < -{tol:g}"
            )
        object.__setattr__(self, "matrix", _freeze(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Spectral data of a Hermitian matrix.

    ``eigenvalues`` are real and sorted descending; row k of
    ``eigenvectors`` is the unit-norm eigenvector for eigenvalue k, so
    ``M @ eigenvectors[k] == eigenvalues[k] * eigenvectors[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _freeze(np.array(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "eigenvectors", _freeze(np.array(self.eigenvectors, dtype=complex)))


def hermitian_eigendecompose(
    m: np.ndarray | _MeasuredHermitian, tol: float = DEFAULT_TOL
) -> EigenDecomposition:
    """Eigendecompose a Hermitian matrix.

    Rejects input whose deviation from Hermiticity exceeds ``tol``
    (``NotHermitianError``) and a spectrum beyond the double range
    (``InvalidMatrixError``); solver failure raises ``NoConvergenceError``.
    Eigenvalues come out descending; ties keep the solver's order.

    ``m`` may also be a validated form (``CoefficientMatrix``, ``BForm``):
    its stored residual is compared with ``tol`` and its read-only
    matrix is used without a copy or a second measurement.
    """
    if isinstance(m, _MeasuredHermitian):
        residual, m = m.hermiticity_residual, m.matrix
    else:
        m = as_complex_matrix(m)
        if m.shape[0] != m.shape[1]:
            raise NotHermitianError(f"matrix must be square, got {m.shape}")
        residual = hermiticity_residual(m)
    if residual > tol:
        raise NotHermitianError(f"asymmetry {residual:.3g} exceeds tol {tol:g}")
    h = m / 2  # halved before adding, so the Hermitian part of a finite m is finite
    try:
        w, v = np.linalg.eigh(h + h.conj().T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    order = np.argsort(-w, kind="stable")
    w = w[order]  # descending with NaN last, so an inf or a NaN shows at an end
    if w.size and not (w[0] < math.inf and w[-1] > -math.inf):
        raise InvalidMatrixError("eigenvalues beyond the double range; the input's entries are too large")
    return _new(EigenDecomposition, eigenvalues=_freeze(w), eigenvectors=_freeze(v[:, order].T))


def bloch_to_density(p: BlochVector, tol: float = DEFAULT_TOL) -> DensityMatrix:
    """Qubit state (I + p.sigma)/2 for a Bloch vector inside the unit ball."""
    if p.norm > 1.0 + tol:
        raise OutsideBallError(f"Bloch vector norm {p.norm:.6g} exceeds 1")
    m = 0.5 * np.array(
        [[1 + p.p3, p.p1 - 1j * p.p2], [p.p1 + 1j * p.p2, 1 - p.p3]], dtype=complex
    )
    return DensityMatrix(m, tol=max(tol, DEFAULT_TOL))


def bloch_components(m: np.ndarray) -> list[float]:
    """The real parts of Tr[m sigma_k], k = 1, 2, 3, of a 2x2 matrix."""
    return [float(np.trace(m @ s).real) for s in (SIGMA_1, SIGMA_2, SIGMA_3)]


def density_to_bloch(rho: DensityMatrix) -> BlochVector:
    """Bloch components p_k = Tr[rho sigma_k] of a qubit state."""
    if rho.dim != 2:
        raise WrongDimensionError(f"Bloch vector requires dim 2, got {rho.dim}")
    return BlochVector(*bloch_components(rho.matrix))
