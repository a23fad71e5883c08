"""Process-matrix representations of quantum dynamical maps.

A linear map on density matrices has two n^2 x n^2 matrix
representations connected by an index realignment:

* **A-form** (process matrix): acts on row-vectorized states,
  ``vec(rho_out) = A @ vec(rho_in)``.  Row index ``r'*n + s'``, column
  index ``r*n + s``.  A physical map preserves hermiticity
  (``conj(A[r's'; rs]) == A[s'r'; sr]``) and trace
  (``sum_r' A[r'r'; rs] == delta_rs``); generally A is not Hermitian.
* **B-form** (dynamical matrix): the realignment
  ``B[r'r; s's] = A[r's'; rs]``.  Hermitian with trace n for any
  physical A; positive semidefinite exactly when the map is completely
  positive.

Expanding A in a tensor basis ``T_mu (x) conj(T_nu)`` built from a
trace-orthonormal operator set ``{T_mu}`` yields a Hermitian
**coefficient matrix** ``a[mu, nu] = Tr[A (T_mu^dag (x) T_nu^T)]`` that
is isospectral with B.  Diagonalizing it gives the **canonical
decomposition** ``A = sum_k lam_k (C_k (x) conj(C_k))`` with
trace-orthonormal canonical operators ``C_k``; the map acts as
``rho -> sum_k lam_k C_k rho C_k^dag``.  For completely positive maps
``E_k = sqrt(lam_k) C_k`` are Kraus operators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Callable, Iterable

import numpy as np

from .errors import (
    DimensionMismatchError,
    IncompleteKrausError,
    InvalidMatrixError,
    NotCompletelyPositiveError,
    NotHermiticityPreservingError,
    NotTracePreservingError,
    UnsupportedCombinationError,
)
from .linalg import (
    DEFAULT_TOL,
    PAULIS,
    DensityMatrix,
    _freeze,
    _MeasuredHermitian,
    _min_eigenvalue,
    _new,
    as_complex_matrix,
    hermitian_eigendecompose,
    hermiticity_residual,
    max_abs,
)


class BasisLabel(str, Enum):
    """Supported trace-orthonormal operator bases."""

    PAULI_OVER_SQRT2 = "pauli"  # {sigma_mu / sqrt(2)}, qubits only
    MATRIX_UNITS = "units"  # {|j><k|}, any dimension


class CpClassification(str, Enum):
    COMPLETELY_POSITIVE = "completely_positive"
    NOT_COMPLETELY_POSITIVE = "not_completely_positive"


def _side_dim(matrix: np.ndarray, what: str) -> int:
    """Hilbert-space dimension n for an n^2 x n^2 matrix."""
    side = matrix.shape[0]
    if matrix.shape[0] != matrix.shape[1]:
        raise InvalidMatrixError(f"{what} must be square, got {matrix.shape}")
    n = math.isqrt(side)
    if n * n != side or n < 1:
        raise InvalidMatrixError(f"{what} side {side} is not a perfect square")
    return n


def _reshuffle(matrix: np.ndarray, n: int) -> np.ndarray:
    """Index realignment out[(a,b),(c,d)] = in[(a,c),(b,d)]; an involution."""
    return matrix.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The n x n identity, built once per n and read-only."""
    return _freeze(np.eye(n))


def _operator_sum(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_{j,k} weights[j,k] O_j (x) conj(O_k) for a (k, n, n) stack of operators.

    With the row-vectorized operators as the rows of V, V^T W conj(V) is
    the sum's B-form; one realignment gives the A matrix.
    """
    k, n, _ = ops.shape
    v = ops.reshape(k, n * n)
    return _reshuffle(v.T @ weights @ v.conj(), n)


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """n^2 trace-orthonormal n x n operators, Tr[T_mu^dag T_nu] = delta."""

    dim: int
    label: BasisLabel
    elements: np.ndarray  # shape (n^2, n, n)
    tol: InitVar[float] = DEFAULT_TOL

    def __post_init__(self, tol: float) -> None:
        el = np.array(self.elements, dtype=complex)  # defensive copy
        n = self.dim
        if el.shape != (n * n, n, n):
            raise InvalidMatrixError(f"expected {n * n} elements of shape ({n},{n}), got {el.shape}")
        v = el.reshape(n * n, n * n)
        gram = v.conj() @ v.T
        if max_abs(gram - _identity(n * n)) > tol:
            raise InvalidMatrixError("basis elements are not trace-orthonormal")
        object.__setattr__(self, "elements", _freeze(el))


def standard_basis(n: int, label: BasisLabel | str = BasisLabel.MATRIX_UNITS) -> OperatorBasis:
    """Build a standard operator basis.

    ``PAULI_OVER_SQRT2`` is only defined for n = 2
    (``UnsupportedCombinationError`` otherwise); ``MATRIX_UNITS``
    enumerates |j><k| in row-major order mu = j*n + k for any n >= 2.
    Each basis is built and checked once and then shared, whether the
    label is given as a member, as its wire value or left out; it is
    frozen and its elements are read-only.
    """
    return _standard_basis(n, BasisLabel(label))


@functools.cache
def _standard_basis(n: int, label: BasisLabel) -> OperatorBasis:
    if n < 2:
        raise InvalidMatrixError(f"dimension must be at least 2, got {n}")
    if label is BasisLabel.PAULI_OVER_SQRT2:
        if n != 2:
            raise UnsupportedCombinationError("the Pauli basis is only available for n = 2")
        elements = np.stack(PAULIS) / np.sqrt(2)
    else:
        elements = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    return OperatorBasis(dim=n, label=label, elements=elements)


def default_basis(n: int) -> OperatorBasis:
    """Pauli basis for qubits, matrix units otherwise."""
    if n == 2:
        return _standard_basis(2, BasisLabel.PAULI_OVER_SQRT2)
    return _standard_basis(n, BasisLabel.MATRIX_UNITS)


def _is_unit_basis(basis: OperatorBasis) -> bool:
    """True for the shared ``standard_basis(n)`` object itself, never for
    another basis that merely carries the ``units`` label."""
    if basis.label is not BasisLabel.MATRIX_UNITS or basis.dim < 2:
        return False
    return basis is _standard_basis(basis.dim, BasisLabel.MATRIX_UNITS)


@dataclass(frozen=True, eq=False)
class AForm:
    """Process matrix acting on row-vectorized density matrices.

    Construction validates the two physical-map constraints within
    ``tol``: hermiticity preservation and trace preservation.  The
    residuals it measured are kept: ``hermiticity_residual`` is the
    max-norm of ``conj(A[r's'; rs]) - A[s'r'; sr]`` and
    ``trace_residual`` the max-norm of ``sum_r' A[r'r'; rs] - delta_rs``.
    """

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    dim: int = field(init=False)
    hermiticity_residual: float = field(init=False)
    trace_residual: float = field(init=False)

    def __post_init__(self, tol: float) -> None:
        m = as_complex_matrix(self.matrix)
        n = _side_dim(m, "A-form")
        a4 = m.reshape(n, n, n, n)
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "hermiticity_residual", max_abs(np.conj(a4) - a4.transpose(1, 0, 3, 2)))
        object.__setattr__(self, "trace_residual", max_abs(a4.trace(axis1=0, axis2=1) - _identity(n)))
        self._check(tol)

    def _check(self, tol: float) -> AForm:
        """Raise what construction at ``tol`` would raise, from the kept residuals."""
        if self.hermiticity_residual > tol:
            raise NotHermiticityPreservingError(
                f"hermiticity-preservation residual {self.hermiticity_residual:.3g} exceeds tol {tol:g}"
            )
        if self.trace_residual > tol:
            raise NotTracePreservingError(
                f"trace-preservation residual {self.trace_residual:.3g} exceeds tol {tol:g}"
            )
        return self


@dataclass(frozen=True, eq=False)
class BForm(_MeasuredHermitian):
    """Realigned dynamical matrix: Hermitian with trace n.

    Construction keeps what it measured: ``hermiticity_residual`` is the
    max-norm of ``B - B^dag`` and ``trace`` the real part of Tr[B].
    """

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    dim: int = field(init=False)
    hermiticity_residual: float = field(init=False)
    trace: float = field(init=False)

    def __post_init__(self, tol: float) -> None:
        m = as_complex_matrix(self.matrix)
        self._keep(_freeze(m), _side_dim(m, "B-form"), hermiticity_residual(m), tol)

    def _keep(self, m: np.ndarray, n: int, herm: float, tol: float) -> BForm:
        """Check ``herm``, the residual of ``m``, and the trace of ``m`` against
        ``tol``, then keep them with ``m``."""
        if herm > tol:
            raise NotHermiticityPreservingError(
                f"B-form hermiticity residual {herm:.3g} exceeds tol {tol:g}"
            )
        tr = complex(np.trace(m))
        if abs(tr - n) > tol * n:
            raise NotTracePreservingError(f"B-form trace {tr:.6g} differs from n={n}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "hermiticity_residual", herm)
        object.__setattr__(self, "trace", tr.real)
        return self


@dataclass(frozen=True, eq=False)
class CoefficientMatrix(_MeasuredHermitian):
    """Hermitian matrix of expansion coefficients of an A-form in a basis.

    Construction keeps what it measured: ``hermiticity_residual`` is the
    max-norm of ``a - a^dag``.
    """

    basis: OperatorBasis
    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    hermiticity_residual: float = field(init=False)

    def __post_init__(self, tol: float) -> None:
        m = as_complex_matrix(self.matrix, self.basis.dim ** 2, self.basis.dim ** 2)
        self._keep(_freeze(m), hermiticity_residual(m), tol)

    def _keep(self, m: np.ndarray, herm: float, tol: float) -> CoefficientMatrix:
        """Check ``herm``, the residual of ``m``, against ``tol``, then keep both."""
        if herm > tol:
            raise NotHermiticityPreservingError(
                f"coefficient matrix residual {herm:.3g} exceeds tol {tol:g}; "
                "source map does not preserve hermiticity"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "hermiticity_residual", herm)
        return self

    @property
    def dim(self) -> int:
        return self.basis.dim


@dataclass(frozen=True, eq=False)
class CanonicalDecomposition:
    """Eigenvalues and trace-orthonormal canonical operators of a map.

    Reconstruction identity: ``A == sum_k eigenvalues[k] *
    kron(canonical_ops[k], conj(canonical_ops[k]))``.  Eigenvalues are
    descending; each operator's global phase is fixed by making its
    largest-magnitude entry real and positive.
    """

    basis: OperatorBasis
    eigenvalues: np.ndarray
    canonical_ops: np.ndarray  # shape (n^2, n, n), row k paired with eigenvalue k

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", _freeze(np.array(self.eigenvalues, dtype=float)))
        object.__setattr__(self, "canonical_ops", _freeze(np.array(self.canonical_ops, dtype=complex)))

    @property
    def dim(self) -> int:
        return self.basis.dim

    def rank(self, tol: float = DEFAULT_TOL) -> int:
        """Number of eigenvalues with magnitude above ``tol``."""
        return int(np.sum(np.abs(self.eigenvalues) > tol))


def _operator_stack(operators) -> np.ndarray:
    """One finite (k, n, n) complex copy of a sequence of n x n matrices; any other
    input takes the per-operator checks, which raise the error naming the fault."""
    try:
        ops = np.array(operators, dtype=complex)
    except (TypeError, ValueError, OverflowError):  # ragged, mixed sizes or not numbers
        ops = np.empty(0)
    if ops.ndim != 3 or not len(ops) or ops.shape[1] != ops.shape[2]:
        ops = tuple(as_complex_matrix(op) for op in operators)
        if not ops:
            raise IncompleteKrausError("a Kraus set needs at least one operator")
        n = ops[0].shape[0]
        for op in ops:
            if op.shape != (n, n):
                raise DimensionMismatchError(f"Kraus operators must all be {n}x{n}, got {op.shape}")
        return np.stack(ops)
    if not np.isfinite(ops).all():
        raise InvalidMatrixError("matrix contains non-finite entries")
    return ops


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Operators of a completely positive map, sum_k E_k^dag E_k = I.

    Built from any sequence of n x n matrices, ``operators`` is one read-only
    ``(k, n, n)`` array like ``canonical_ops``: iterating or indexing it gives
    the operators one by one, and ``len`` counts them.  Construction keeps
    what it measured: ``completeness_residual`` is the max-norm of
    ``sum_k E_k^dag E_k - I``.
    """

    operators: np.ndarray  # shape (k, n, n)
    tol: InitVar[float] = DEFAULT_TOL
    completeness_residual: float = field(init=False)

    def __post_init__(self, tol: float) -> None:
        ops = _operator_stack(self.operators)
        v = ops.reshape(len(ops) * ops.shape[1], ops.shape[2])  # sum_k E_k^dag E_k == V^dag V
        object.__setattr__(self, "operators", _freeze(ops))
        object.__setattr__(self, "completeness_residual", max_abs(v.conj().T @ v - _identity(v.shape[1])))
        self._check(tol)

    def _check(self, tol: float) -> KrausSet:
        """Raise what construction at ``tol`` would raise, from the kept residual."""
        if self.completeness_residual > tol:
            raise IncompleteKrausError(
                f"completeness residual {self.completeness_residual:.3g} exceeds tol {tol:g}"
            )
        return self

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def __len__(self) -> int:
        return len(self.operators)


@dataclass(frozen=True, eq=False)
class CpVerdict:
    """Outcome of the complete-positivity eigenvalue test."""

    classification: CpClassification
    eigenvalues: np.ndarray
    min_eigenvalue: float
    tol: float

    @property
    def is_cp(self) -> bool:
        return self.classification is CpClassification.COMPLETELY_POSITIVE


@dataclass(frozen=True, eq=False)
class MapOutput:
    """Result of applying a map to a state.

    The output of a physical-looking but not completely positive map can
    fail positivity, so the result carries a flag instead of being
    forced into a validated :class:`DensityMatrix`.
    """

    matrix: np.ndarray
    min_eigenvalue: float
    positive: bool

    def to_density(self, tol: float = DEFAULT_TOL) -> DensityMatrix:
        return DensityMatrix(self.matrix, tol=tol)


def coefficient_matrix(a: AForm, basis: OperatorBasis, tol: float = DEFAULT_TOL) -> CoefficientMatrix:
    """Expansion coefficients a[mu, nu] = Tr[A (T_mu^dag (x) T_nu^T)].

    In a general basis it is computed directly from the trace formula
    (not via realignment), a route to the spectrum independent of the
    B-form.  In the matrix-unit basis ``standard_basis(n)`` the formula
    reduces to the realigned A, Choi's dynamical matrix B, so that basis
    returns ``_reshuffle(A)`` (bit for bit what the contraction gives)
    with A's hermiticity residual, which is B's (see ``realign_a_to_b``).
    """
    n = a.dim
    if basis.dim != n:
        raise DimensionMismatchError(f"dimension mismatch: {n} vs {basis.dim}")
    # Residual hermiticity noise scales with the n^2 terms summed per entry.
    if _is_unit_basis(basis):
        cm = _new(CoefficientMatrix, basis=basis)
        return cm._keep(_freeze(_reshuffle(a.matrix, n)), a.hermiticity_residual, tol * n * n)
    a4 = a.matrix.reshape(n, n, n, n)
    t = basis.elements
    # a[mu,nu] = sum A[(r's'),(rs)] conj(T_mu[r',r]) T_nu[s',s], factored
    # to keep the contraction cost at O(n^6) per basis element pair.
    partial = np.einsum("abcd,mac->mbd", a4, t.conj())
    coeffs = np.einsum("mbd,nbd->mn", partial, t)
    return CoefficientMatrix(basis=basis, matrix=coeffs, tol=tol * n * n)


def expand_coefficients(cm: CoefficientMatrix) -> np.ndarray:
    """Rebuild the A matrix as sum_{mu,nu} a[mu,nu] T_mu (x) conj(T_nu)."""
    return _operator_sum(cm.basis.elements, cm.matrix)


def realign_a_to_b(a: AForm, tol: float = DEFAULT_TOL) -> BForm:
    """Realign a process matrix into its dynamical matrix (exact permutation).

    B - B^dag is a permutation of conj(A[r's'; rs]) - A[s'r'; sr] up to
    conjugation, which leaves every magnitude's bits alone, so A's kept
    hermiticity residual is B's and is not measured again.
    """
    n = a.dim
    return _new(BForm)._keep(_freeze(_reshuffle(a.matrix, n)), n, a.hermiticity_residual, tol)


def realign_b_to_a(b: BForm, tol: float = DEFAULT_TOL) -> AForm:
    """Inverse realignment; the same index permutation applied again."""
    return AForm(_reshuffle(b.matrix, b.dim), tol=tol)


def canonical_decompose(a: AForm, basis: OperatorBasis, tol: float = DEFAULT_TOL) -> CanonicalDecomposition:
    """Diagonalize the coefficient matrix of ``a`` in ``basis``.

    Row k of the eigenvector matrix weights the basis directly:
    ``C_k = sum_mu v_k[mu] T_mu``.  Within a degenerate eigenvalue
    cluster the operators are reported in solver order and are unique
    only up to unitary remixing; eigenvalues, the reconstructed A, and
    the channel action are invariant under that freedom.
    """
    cm = coefficient_matrix(a, basis, tol)
    n = a.dim
    eig = hermitian_eigendecompose(cm, tol * n * n)
    if _is_unit_basis(basis):
        # C_k[i, j] = v_k[i*n + j]; + 0.0 turns -0.0 into +0.0 as the sum did.
        ops = eig.eigenvectors.reshape(n * n, n, n) + 0.0
    else:
        ops = np.einsum("km,mij->kij", eig.eigenvectors, basis.elements)
    # Each C_k has unit norm, so its largest-magnitude entry is never 0.
    flat = ops.reshape(len(ops), -1)
    pivots = flat[np.arange(len(flat)), np.abs(flat).argmax(1)]
    ops *= (pivots.conj() / np.hypot(pivots.real, pivots.imag))[:, None, None]
    return _new(CanonicalDecomposition, basis=basis, eigenvalues=eig.eigenvalues, canonical_ops=_freeze(ops))


def canonical_to_a(c: CanonicalDecomposition, tol: float = DEFAULT_TOL) -> AForm:
    """Reassemble the process matrix sum_k lam_k C_k (x) conj(C_k)."""
    return AForm(_operator_sum(c.canonical_ops, np.diag(c.eigenvalues)), tol=tol)


def _kraus_tol(tol: float, n: int) -> float:
    """Completeness slack of Kraus sets cut from n^2 eigenvalues: each dropped one leaves ~tol."""
    return tol * (n * n + 1)


def extract_kraus(c: CanonicalDecomposition, tol: float = DEFAULT_TOL) -> KrausSet:
    """Kraus operators sqrt(lam_k) C_k of a completely positive map.

    Eigenvalues at or below ``tol`` are dropped (rank deficiency is
    generic); an eigenvalue below ``-tol`` means no Kraus form exists
    and raises ``NotCompletelyPositiveError``.
    """
    w = c.eigenvalues
    min_eig = float(w.min()) if w.size else 0.0
    if min_eig < -tol:
        raise NotCompletelyPositiveError(
            f"map is not completely positive: min eigenvalue {min_eig:.6g} < -{tol:g}"
        )
    keep = w > tol
    kept = np.sqrt(w[keep])[:, None, None] * c.canonical_ops[keep]
    return KrausSet(kept, tol=_kraus_tol(tol, c.dim))


def _map_output(n: int, rho: DensityMatrix, tol: float, act: Callable[..., np.ndarray], *operands) -> MapOutput:
    """The step all three application routes share: check that ``rho`` is n x n, apply ``act`` and
    flag positivity; a minimum eigenvalue that is not a finite double raises ``InvalidMatrixError``."""
    m = rho.matrix
    if m.shape[0] != n:
        raise DimensionMismatchError(f"dimension mismatch: {n} vs {m.shape[0]}")
    out = act(m, *operands)
    try:
        min_eig = _min_eigenvalue(out)
    except OverflowError:  # an off-diagonal modulus beyond the double range
        min_eig = math.nan
    if not math.isfinite(min_eig):
        raise InvalidMatrixError("map output beyond the double range; the input's entries are too large")
    return MapOutput(matrix=out, min_eigenvalue=min_eig, positive=min_eig >= -tol)


def _operator_action(m: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_k L_k m R_k^dag for (k, n, n) stacks L and R, as one batched product."""
    return np.add.reduce(left @ m @ right.conj().transpose(0, 2, 1))


def apply_a(a: AForm, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> MapOutput:
    """Apply the map through its A-form: unvectorize(A @ vectorize(rho))."""
    return _map_output(a.dim, rho, tol, lambda m: (a.matrix @ m.reshape(-1)).reshape(m.shape))


def apply_canonical(c: CanonicalDecomposition, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> MapOutput:
    """Apply the map as sum_k lam_k C_k rho C_k^dag: the Kraus product, weighted by lam_k."""
    ops = c.canonical_ops
    return _map_output(ops.shape[1], rho, tol, _operator_action, c.eigenvalues[:, None, None] * ops, ops)


def apply_kraus(kraus: KrausSet, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> MapOutput:
    """Apply the operator sum rho -> sum_k E_k rho E_k^dag."""
    ops = kraus.operators
    return _map_output(ops.shape[1], rho, tol, _operator_action, ops, ops)


def kraus_to_a(ops: KrausSet | Iterable[np.ndarray], tol: float = DEFAULT_TOL) -> AForm:
    """Process matrix sum_k E_k (x) conj(E_k) of an operator-sum map.

    Accepts a validated :class:`KrausSet`, whose kept completeness
    residual is compared with ``tol``, or a raw operator sequence, which is
    validated here.  Either raises ``IncompleteKrausError`` when the
    completeness sum deviates from the identity beyond ``tol``.
    """
    ops = ops._check(tol) if isinstance(ops, KrausSet) else KrausSet(ops, tol=tol)
    # The trace-preservation residual of the result equals the Kraus
    # completeness residual, so the same tolerance applies.
    return AForm(_operator_sum(ops.operators, _identity(len(ops))), tol=tol)


def _classify(eigenvalues: np.ndarray, tol: float) -> CpVerdict:
    """CP exactly when no canonical eigenvalue lies below ``-tol``."""
    min_eig = float(eigenvalues.min())
    cls = (
        CpClassification.COMPLETELY_POSITIVE
        if min_eig >= -tol
        else CpClassification.NOT_COMPLETELY_POSITIVE
    )
    return CpVerdict(classification=cls, eigenvalues=eigenvalues, min_eigenvalue=min_eig, tol=tol)


def cp_verdict(a: AForm, basis: OperatorBasis, tol: float = DEFAULT_TOL) -> CpVerdict:
    """Classify a map as CP or NCP by the sign of its canonical spectrum."""
    return _classify(canonical_decompose(a, basis, tol).eigenvalues, tol)
