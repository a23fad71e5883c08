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
import operator
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import Iterable

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
    _complex_array,
    _MeasuredHermitian,
    _min_eigenvalue,
    _new,
    _require_finite,
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


@functools.cache
def _flat_identity(n: int) -> np.ndarray:
    """The n x n identity row-vectorized, built once per n and read-only."""
    return _freeze(np.eye(n).reshape(-1))


@functools.cache
def _arange(k: int) -> np.ndarray:
    """0, 1, ..., k - 1, built once per k and read-only."""
    return _freeze(np.arange(k))


def _operator_sum(ops: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_{j,k} weights[j,k] O_j (x) conj(O_k) for a (k, n, n) stack of operators.

    With the row-vectorized operators as the rows of V, V^T W conj(V) is
    the sum's B-form; one realignment gives the A matrix.
    """
    k, n, _ = ops.shape
    v = ops.reshape(k, n * n)
    return _reshuffle(v.T @ weights @ v.conj(), n)  # @, not .dot: see canonical_to_a


@dataclass(frozen=True, eq=False)
class OperatorBasis:
    """n^2 trace-orthonormal n x n operators, Tr[T_mu^dag T_nu] = delta; ``_units`` marks
    the matrix units |j><k| in row-major order (row-vectorized, V = I) whatever the label.
    The basis-change operands V (the row-vectorized elements as rows), conj(V) and V^T are
    built once and kept, read-only.  ``dim`` is kept as an ``int`` and ``label`` as a
    ``BasisLabel`` member, either given as its wire value; a dimension that is not a
    positive integer, or a label that names no basis, raises ``InvalidMatrixError``."""

    dim: int
    label: BasisLabel
    elements: np.ndarray  # shape (n^2, n, n)
    tol: InitVar[float] = DEFAULT_TOL
    _units: bool = field(init=False, repr=False)
    _v: np.ndarray = field(init=False, repr=False)
    _v_conj: np.ndarray = field(init=False, repr=False)
    _v_t: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, tol: float) -> None:
        n, label = _dim_and_label(self.dim, self.label)
        if n < 1:
            raise InvalidMatrixError(f"dimension must be at least 1, got {n}")
        el = _freeze(_complex_array(self.elements, "basis elements"))  # defensive copy
        if el.shape != (n * n, n, n):
            raise InvalidMatrixError(f"expected {n * n} elements of shape ({n},{n}), got {el.shape}")
        if not np.isfinite(el).all():
            raise InvalidMatrixError("basis elements contain non-finite entries")
        v = el.reshape(n * n, n * n)
        v_conj = _freeze(v.conj())
        eye = _identity(n * n)
        if not max_abs(v_conj @ v.T - eye) <= tol:  # NaN-safe: a NaN tol or residual fails it
            raise InvalidMatrixError("basis elements are not trace-orthonormal")
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "elements", el)
        object.__setattr__(self, "_units", np.array_equal(v, eye))
        object.__setattr__(self, "_v", v)
        object.__setattr__(self, "_v_conj", v_conj)
        object.__setattr__(self, "_v_t", v.T)


def standard_basis(n: int, label: BasisLabel | str = BasisLabel.MATRIX_UNITS) -> OperatorBasis:
    """Build a standard operator basis.

    ``PAULI_OVER_SQRT2`` is only defined for n = 2
    (``UnsupportedCombinationError`` otherwise); ``MATRIX_UNITS``
    enumerates |j><k| in row-major order mu = j*n + k for any n >= 2.
    Each basis is built and checked once and then shared, whether the
    label is given as a member, as its wire value or left out; it is
    frozen and its elements are read-only.  A dimension that is not an
    integer, or a label that names no basis, raises ``InvalidMatrixError``
    (a ``ValueError``).
    """
    return _standard_basis(*_dim_and_label(n, label))


def _dim_and_label(n, label) -> tuple[int, BasisLabel]:
    """``n`` as an ``int`` and ``label`` as a ``BasisLabel`` member, or ``InvalidMatrixError``."""
    try:
        return operator.index(n), BasisLabel(label)
    except TypeError:
        raise InvalidMatrixError(f"dimension must be an integer, got {n!r}") from None
    except ValueError:
        labels = ", ".join(b.value for b in BasisLabel)
        raise InvalidMatrixError(f"unknown basis label {label!r}; expected one of {labels}") from None


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


class _kept:
    """A value built on first use and kept: ``functools.cached_property`` without its lock.

    A non-data descriptor: the first read calls the method and stores the result in the
    instance ``__dict__`` under the method's name, where every later read finds it without
    reaching the descriptor; a first use that raises stores nothing.  On the class it is
    itself.  Python 3.11's ``cached_property`` takes one class-wide lock around every first
    use, which 3.12 dropped; each value kept here is a pure function of an immutable form,
    so two threads racing on a first use store equal values, and no lock is needed.
    """

    def __init__(self, build):
        self._build = build
        self._name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self._name] = self._build(obj)
        return value


class _Measured:
    """The protocol of the four validated forms: ``AForm``, ``BForm``,
    ``CoefficientMatrix`` and ``KrausSet``.

    Each has one measuring step, ``_measure``, which keeps an array and
    what was measured on it, and one ``_check(tol)``, which raises what
    construction at ``tol`` would raise from the kept values alone.  The
    public constructor copies the input and scans it for non-finite entries,
    then measures and checks; the library's own products go to ``_measure``
    and ``_check`` directly, without the copy or the scan, on a bare
    ``object.__new__(cls)`` (``_new`` with no fields, without its frame).

    ``_check`` walks the class's ``_limits`` table in order.  Each row names
    a kept residual, the kept array it was measured on, the error it raises
    beyond ``tol`` and its message, formatted with the residual and ``tol``.
    The comparisons are NaN-safe: an array with a non-finite entry has a NaN
    or infinite residual, so only then is the array scanned, to raise the
    constructor's ``InvalidMatrixError``; a residual that is not at most
    ``tol`` raises the row's error.  A passing check makes no call: it reads
    the kept values from the instance ``__dict__`` and formats no message.
    """

    _limits: tuple[tuple[str, str, type[Exception], str], ...] = ()

    def _check(self, tol: float):
        kept = self.__dict__
        for residual, array, error, message in self._limits:
            r = kept[residual]
            if not r < math.inf:
                _require_finite(kept[array])
            if not r <= tol:
                raise error(message.format(r, tol))
        return self


@dataclass(frozen=True, eq=False)
class AForm(_Measured):
    """Process matrix acting on row-vectorized density matrices.

    Construction validates the two physical-map constraints within
    ``tol``: hermiticity preservation and trace preservation.  The
    residuals it measured are kept: ``hermiticity_residual`` is the
    max-norm of ``conj(A[r's'; rs]) - A[s'r'; sr]`` and
    ``trace_residual`` the max-norm of ``sum_r' A[r'r'; rs] - delta_rs``.
    Its B-form, the realignment R(A) with its trace, is built and measured
    on first use and kept, read-only, so ``realign_a_to_b`` and the
    coefficient matrix share one reshuffle and B's trace is taken once.
    The library's own products (``canonical_to_a``, a Kraus set's or a
    B-form's A-form) are measured and checked without the copy or the scan;
    a map that fails both checks raises the hermiticity error.
    """

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    dim: int = field(init=False)
    hermiticity_residual: float = field(init=False)
    trace_residual: float = field(init=False)
    _limits = (("hermiticity_residual", "matrix", NotHermiticityPreservingError,
                "hermiticity-preservation residual {:.3g} exceeds tol {:g}"),
               ("trace_residual", "matrix", NotTracePreservingError,
                "trace-preservation residual {:.3g} exceeds tol {:g}"))

    def __post_init__(self, tol: float) -> None:
        self._measure(as_complex_matrix(self.matrix))._check(tol)

    def _measure(self, m: np.ndarray) -> AForm:
        """Keep ``m``, read-only, with its side and its two residuals."""
        n = _side_dim(m, "A-form")
        a4 = m.reshape(n, n, n, n)
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "hermiticity_residual", max_abs(np.conj(a4) - a4.transpose(1, 0, 3, 2)))
        # The rows (r', r') of m, summed in one reduction: vec(sum_r' A[r'r'; rs]).
        traced = np.add.reduce(m[:: n + 1], 0)  # axis positional: a reduce parses keywords slowly
        object.__setattr__(self, "trace_residual", max_abs(traced - _flat_identity(n)))
        return self

    @_kept
    def _b_form(self) -> BForm:
        """The B-form R(A)[(r',r),(s',s)] = A[(r',s'),(r,s)], measured but unchecked; its
        hermiticity residual is A's (see ``realign_a_to_b``)."""
        return object.__new__(BForm)._measure(_reshuffle(self.matrix, self.dim), self.dim, self.hermiticity_residual)


@dataclass(frozen=True, eq=False)
class BForm(_Measured, _MeasuredHermitian):
    """Realigned dynamical matrix: Hermitian with trace n.

    Construction keeps what it measured: ``hermiticity_residual`` is the
    max-norm of ``B - B^dag`` and ``trace`` the real part of Tr[B].  After
    its one table row, ``_check`` compares the trace with n, within tol * n.
    """

    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    dim: int = field(init=False)
    hermiticity_residual: float = field(init=False)
    trace: float = field(init=False)
    _complex_trace: complex = field(init=False, repr=False)
    _limits = (("hermiticity_residual", "matrix", NotHermiticityPreservingError,
                "B-form hermiticity residual {:.3g} exceeds tol {:g}"),)

    def __post_init__(self, tol: float) -> None:
        m = as_complex_matrix(self.matrix)
        self._measure(m, _side_dim(m, "B-form"), hermiticity_residual(m))._check(tol)

    def _measure(self, m: np.ndarray, n: int, herm: float) -> BForm:
        """Keep ``m``, read-only, its side ``n``, ``herm``, the residual of ``m``, and the trace of ``m``."""
        tr = complex(np.trace(m))
        object.__setattr__(self, "matrix", _freeze(m))
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "hermiticity_residual", herm)
        object.__setattr__(self, "trace", tr.real)
        object.__setattr__(self, "_complex_trace", tr)
        return self

    def _check(self, tol: float) -> BForm:
        """The table's row, then |Tr B - n| against tol * n.  Both are compared first, so a passing
        check makes no call; on a failure the row runs, and raises if it fails, before the trace."""
        tr, n = self._complex_trace, self.dim
        if abs(tr - n) > tol * n or not self.hermiticity_residual <= tol:
            _Measured._check(self, tol)
            raise NotTracePreservingError(f"B-form trace {tr:.6g} differs from n={n}")
        return self


@dataclass(frozen=True, eq=False)
class CoefficientMatrix(_Measured, _MeasuredHermitian):
    """Hermitian matrix of expansion coefficients of an A-form in a basis.

    Construction keeps what it measured: ``hermiticity_residual`` is the
    max-norm of ``a - a^dag``.  ``coefficient_matrix`` measures its own
    product (or, in the matrix units, B with A's residual) and checks it
    without the copy or the scan.
    """

    basis: OperatorBasis
    matrix: np.ndarray
    tol: InitVar[float] = DEFAULT_TOL
    hermiticity_residual: float = field(init=False)
    _limits = (("hermiticity_residual", "matrix", NotHermiticityPreservingError,
                "coefficient matrix residual {:.3g} exceeds tol {:g}; source map does not preserve hermiticity"),)

    def __post_init__(self, tol: float) -> None:
        m = as_complex_matrix(self.matrix, self.basis.dim ** 2, self.basis.dim ** 2)
        self._measure(_freeze(m), hermiticity_residual(m))._check(tol)

    def _measure(self, m: np.ndarray, herm: float) -> CoefficientMatrix:
        """Keep ``m``, which comes read-only, and ``herm``, the residual of ``m``."""
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
    largest-magnitude entry real and positive.  The operands of
    ``apply_canonical``, the rows of the lam_k C_k in (i, k) order and the
    column of the C_k^dag, each one read-only 2-D array, are built on first
    use and kept.

    The constructor takes k finite real eigenvalues and a finite
    ``(k, n, n)`` stack of operators, n = ``basis.dim``, for any k from 0
    to n^2; anything else raises ``InvalidMatrixError`` or
    ``DimensionMismatchError``.
    """

    basis: OperatorBasis
    eigenvalues: np.ndarray
    canonical_ops: np.ndarray  # shape (k, n, n), row k paired with eigenvalue k

    def __post_init__(self) -> None:
        try:
            w = np.asarray(self.eigenvalues)
            ops = _complex_array(self.canonical_ops, "canonical operators")
        except (TypeError, ValueError, OverflowError):  # ragged, mixed sizes or not numbers
            raise InvalidMatrixError("eigenvalues and canonical operators must be arrays of numbers") from None
        if w.ndim != 1 or w.dtype.kind not in "biuf":
            raise InvalidMatrixError(f"eigenvalues must be a sequence of reals, got {w.dtype} of shape {w.shape}")
        n = self.basis.dim
        if ops.ndim != 3 or ops.shape[1:] != (n, n) or len(ops) != len(w) or len(ops) > n * n:
            raise DimensionMismatchError(
                f"expected one {n}x{n} operator per eigenvalue, at most {n * n}, for the dim-{n} basis;"
                f" got {len(w)} eigenvalues and operators of shape {ops.shape}"
            )
        w = np.array(w, dtype=float)
        _require_finite(w)
        _require_finite(ops)
        object.__setattr__(self, "eigenvalues", _freeze(w))
        object.__setattr__(self, "canonical_ops", _freeze(ops))

    @property
    def dim(self) -> int:
        return self.basis.dim

    @_kept
    def _weighted(self) -> np.ndarray:
        return _interleaved(self.eigenvalues[:, None, None] * self.canonical_ops)

    @_kept
    def _adjoint(self) -> np.ndarray:
        return _adjoints(self.canonical_ops)


def _interleaved(ops: np.ndarray) -> np.ndarray:
    """The rows of a (k, n, n) stack of operators O_k in (i, k) order, row i k + j being row i of
    O_j: one read-only, C-contiguous (n k, n) array, the left operand ``_operator_action`` takes
    as it is."""
    k, n, _ = ops.shape
    return _freeze(ops.transpose(1, 0, 2).reshape(n * k, n))


def _adjoints(ops: np.ndarray) -> np.ndarray:
    """The column [O_1^dag; ...; O_k^dag] of a (k, n, n) stack of operators O_k: one read-only,
    C-contiguous (k n, n) array, the right operand ``_operator_action`` takes as it is."""
    k, n, _ = ops.shape
    return _freeze(np.conjugate(ops.transpose(0, 2, 1), order="C").reshape(k * n, n))


def _operator_stack(operators) -> np.ndarray:
    """One finite (k, n, n) complex copy of a sequence of n x n matrices; any other
    input takes the per-operator checks, which raise the error naming the fault."""
    try:
        ops = _complex_array(operators, "Kraus operators")
    except ValueError:  # ragged, mixed sizes or not numbers
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
    _require_finite(ops)
    return ops


@dataclass(frozen=True, eq=False)
class KrausSet(_Measured):
    """Operators of a completely positive map, sum_k E_k^dag E_k = I.

    Built from any sequence of n x n matrices, ``operators`` is one read-only
    ``(k, n, n)`` array like ``canonical_ops``: iterating or indexing it gives
    the operators one by one, and ``len`` counts them.  Construction keeps
    what it measured: ``completeness_residual`` is the max-norm of
    ``sum_k E_k^dag E_k - I``.  Its A-form is built and measured on first
    use and kept, so ``kraus_to_a`` of one set returns one ``AForm``; the
    operands of ``apply_kraus``, the rows of the E_k in (i, k) order and
    the column of the E_k^dag, each one read-only 2-D array, are kept the
    same way.

    ``extract_kraus`` and ``analyze`` measure and check their own cut of the
    canonical operators without the copy or the scan.
    """

    operators: np.ndarray  # shape (k, n, n)
    tol: InitVar[float] = DEFAULT_TOL
    completeness_residual: float = field(init=False)
    _limits = (("completeness_residual", "operators", IncompleteKrausError,
                "completeness residual {:.3g} exceeds tol {:g}"),)

    def __post_init__(self, tol: float) -> None:
        self._measure(_operator_stack(self.operators))._check(tol)

    def _measure(self, ops: np.ndarray) -> KrausSet:
        """Keep the (k, n, n) stack ``ops``, read-only, with its completeness residual."""
        k, n, _ = ops.shape
        v = ops.reshape(k * n, n)  # sum_k E_k^dag E_k == V^dag V
        object.__setattr__(self, "operators", _freeze(ops))
        object.__setattr__(self, "completeness_residual", max_abs(v.conj().T.dot(v) - _identity(n)))
        return self

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def __len__(self) -> int:
        return len(self.operators)

    @_kept
    def _a_form(self) -> AForm:
        """sum_k E_k (x) conj(E_k), the realignment of V^T conj(V) with the row-vectorized E_k
        as the rows of V, measured but unchecked; a non-finite sum raises and is not kept."""
        k, n, _ = self.operators.shape
        v = self.operators.reshape(k, n * n)
        # @, not .dot: see canonical_to_a.
        return object.__new__(AForm)._measure(_reshuffle(v.T @ v.conj(), n))._check(math.inf)

    @_kept
    def _stacked(self) -> np.ndarray:
        return _interleaved(self.operators)

    @_kept
    def _adjoint(self) -> np.ndarray:
        return _adjoints(self.operators)


@dataclass(frozen=True, eq=False)
class CpVerdict:
    """Outcome of the complete-positivity eigenvalue test."""

    classification: CpClassification
    min_eigenvalue: float

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


def _scaled_tol(tol: float, n: int, kraus: bool = False) -> float:
    """The slack of a value summed over n^2 terms that each carry ~tol: tol * n^2 for a
    coefficient matrix, its eigensolve and the spectral check; tol * (n^2 + 1) for the
    completeness of a Kraus set, where each of up to n^2 dropped eigenvalues leaves ~tol."""
    return tol * (n * n + 1) if kraus else tol * n * n


def coefficient_matrix(a: AForm, basis: OperatorBasis, tol: float = DEFAULT_TOL) -> CoefficientMatrix:
    """Expansion coefficients a[mu, nu] = Tr[A (T_mu^dag (x) T_nu^T)].

    With the row-vectorized T_mu as the rows of V, the trace formula is
    the basis change conj(V) R(A) V^T of the realigned A, R(A) = B, so
    the matrix is unitarily similar to B (the inverse of
    ``expand_coefficients``).  In the matrix units V = I, and the
    product is skipped: the result is R(A) with A's hermiticity residual,
    which is B's (see ``realign_a_to_b``).
    """
    n = a.dim
    if basis.dim != n:
        raise DimensionMismatchError(f"dimension mismatch: {n} vs {basis.dim}")
    r, slack = a._b_form.matrix, _scaled_tol(tol, n)
    if basis._units:
        return _new(CoefficientMatrix, basis=basis)._measure(r, a.hermiticity_residual)._check(slack)
    m = _freeze(basis._v_conj.dot(r).dot(basis._v_t))
    return _new(CoefficientMatrix, basis=basis)._measure(m, hermiticity_residual(m))._check(slack)


def expand_coefficients(cm: CoefficientMatrix) -> np.ndarray:
    """Rebuild the A matrix as sum_{mu,nu} a[mu,nu] T_mu (x) conj(T_nu)."""
    return _operator_sum(cm.basis.elements, cm.matrix)


def realign_a_to_b(a: AForm, tol: float = DEFAULT_TOL) -> BForm:
    """Realign a process matrix into its dynamical matrix (exact permutation).

    B - B^dag is a permutation of conj(A[r's'; rs]) - A[s'r'; sr] up to
    conjugation, which leaves every magnitude's bits alone, so A's kept
    hermiticity residual is B's and is not measured again.  A keeps its
    B-form, built and measured once, and this returns it after checking
    the kept residual and trace at ``tol``, in the constructor's order and
    with its messages.  B's matrix is the coefficient matrix's in the
    matrix units.
    """
    return a._b_form._check(tol)


def realign_b_to_a(b: BForm, tol: float = DEFAULT_TOL) -> AForm:
    """Inverse realignment; the same index permutation applied again."""
    return object.__new__(AForm)._measure(_reshuffle(b.matrix, b.dim))._check(tol)


def canonical_decompose(a: AForm, basis: OperatorBasis, tol: float = DEFAULT_TOL) -> CanonicalDecomposition:
    """Diagonalize the coefficient matrix of ``a`` in ``basis``.

    Row k of the eigenvector matrix E weights the basis, C_k = sum_mu
    E[k, mu] T_mu, so the row-vectorized C_k are the rows of E V (E in the
    matrix units).  Within a degenerate eigenvalue cluster the operators
    are in solver order, unique only up to unitary remixing; eigenvalues,
    the reconstructed A, and the channel action are invariant under that.
    """
    cm = coefficient_matrix(a, basis, tol)
    n = a.dim
    eig = hermitian_eigendecompose(cm, _scaled_tol(tol, n))
    e = eig.eigenvectors if basis._units else eig.eigenvectors.dot(basis._v)
    flat = e + 0.0  # row k is vec(C_k); + 0.0 turns -0.0 into +0.0
    # Each C_k has unit norm, so its largest-magnitude entry is never 0.
    pivots = flat[_arange(n * n), np.abs(flat).argmax(1)]
    # hypot, not np.abs: np.abs of a complex array is not bit-equal to it, and the C_k follow its bits.
    flat *= (pivots.conj() / np.hypot(pivots.real, pivots.imag))[:, None]
    ops = _freeze(flat.reshape(n * n, n, n))
    return _new(CanonicalDecomposition, basis=basis, eigenvalues=eig.eigenvalues, canonical_ops=ops)


def canonical_to_a(c: CanonicalDecomposition, tol: float = DEFAULT_TOL) -> AForm:
    """Reassemble the process matrix sum_k lam_k C_k (x) conj(C_k): with the row-vectorized
    C_k as the rows of V, the realignment of (V^T lam) conj(V), lam scaling V^T's columns."""
    k, n, _ = c.canonical_ops.shape
    v = c.canonical_ops.reshape(k, n * n)
    # @, not .dot: at k = 1 this is an outer product, which .dot rounds differently at odd n.
    return object.__new__(AForm)._measure(_reshuffle((v.T * c.eigenvalues) @ v.conj(), n))._check(tol)


def extract_kraus(c: CanonicalDecomposition, tol: float = DEFAULT_TOL) -> KrausSet:
    """Kraus operators sqrt(lam_k) C_k of a completely positive map.

    Eigenvalues at or below ``tol`` are dropped (rank deficiency is
    generic); an eigenvalue below ``-tol`` means no Kraus form exists
    and raises ``NotCompletelyPositiveError``.
    """
    w = c.eigenvalues  # a caller-built decomposition may list them in any order
    verdict = _classify(float(w.min()) if w.size else 0.0, tol)
    if not verdict.is_cp:
        raise NotCompletelyPositiveError(
            f"map is not completely positive: min eigenvalue {verdict.min_eigenvalue:.6g} < -{tol:g}"
        )
    return _cut_kraus(c, tol)


def _cut_kraus(c: CanonicalDecomposition, tol: float) -> KrausSet:
    """``extract_kraus`` for a map its caller has already classified as CP."""
    w = c.eigenvalues
    keep = w > tol
    kept = np.sqrt(w[keep])[:, None, None] * c.canonical_ops[keep]
    if not len(kept):
        raise IncompleteKrausError("a Kraus set needs at least one operator")
    return object.__new__(KrausSet)._measure(kept)._check(_scaled_tol(tol, c.dim, kraus=True))


def _map_output(out: np.ndarray, tol: float) -> MapOutput:
    """The last step of all three application routes: ``out`` with its minimum eigenvalue (the
    closed form at n = 2) and whether that is at least ``-tol``.  Each route checks the state's
    dimension and runs its own kernel first; an output beyond the double range (a minimum
    eigenvalue that is not a finite double, or a NaN or infinite entry) raises
    ``InvalidMatrixError``."""
    try:
        min_eig = _min_eigenvalue(out)
    except OverflowError:  # a diagonal entry (any entry at n >= 3) or an off-diagonal modulus beyond range
        min_eig = math.nan
    if not math.isfinite(min_eig):
        raise InvalidMatrixError("map output beyond the double range; the input's entries are too large")
    result = object.__new__(MapOutput)  # _new's fields, without its frame: see linalg._new
    result.__dict__.update(matrix=out, min_eigenvalue=min_eig, positive=min_eig >= -tol)
    return result


def _operator_action(m: np.ndarray, left: np.ndarray, right_adjoint: np.ndarray) -> np.ndarray:
    """sum_k L_k m R_k^dag for the kept operands of ``_interleaved`` (the L_k) and ``_adjoints``
    (the column [R_1^dag; ...; R_k^dag]).

    Two 2-D products with nothing copied between them: the L_k's rows in
    (i, k) order times m, an (n k, n) . (n, n) product whose row i k + j is
    row i of L_j m, bit for bit as a batched product would give it; its
    (n, k n) reshape, a view, is the row [L_1 m ... L_k m], and that times
    the column of the R_k^dag, an (n, k n) . (k n, n) product, sums over k
    inside one product instead of a batched product and a reduction.
    Both are ``ndarray.dot``: the BLAS kernel of ``@`` and the same bits,
    without the dispatch of ``np.dot`` or ``@``.
    """
    kn, n = left.shape
    return left.dot(m).reshape(n, kn).dot(right_adjoint)


def _dimension_mismatch(n: int, m: np.ndarray) -> DimensionMismatchError:
    return DimensionMismatchError(f"dimension mismatch: {n} vs {m.shape[0]}")


def apply_a(a: AForm, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> MapOutput:
    """Apply the map through its A-form: unvectorize(A @ vectorize(rho))."""
    m, n = rho.matrix, a.dim
    if m.shape[0] != n:
        raise _dimension_mismatch(n, m)
    return _map_output(a.matrix.dot(m.reshape(-1)).reshape(n, n), tol)


def apply_canonical(c: CanonicalDecomposition, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> MapOutput:
    """Apply the map as sum_k lam_k C_k rho C_k^dag: the Kraus product, weighted by lam_k."""
    m, n = rho.matrix, c.canonical_ops.shape[1]
    if m.shape[0] != n:
        raise _dimension_mismatch(n, m)
    return _map_output(_operator_action(m, c._weighted, c._adjoint), tol)


def apply_kraus(kraus: KrausSet, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> MapOutput:
    """Apply the operator sum rho -> sum_k E_k rho E_k^dag."""
    m, n = rho.matrix, kraus.operators.shape[1]
    if m.shape[0] != n:
        raise _dimension_mismatch(n, m)
    return _map_output(_operator_action(m, kraus._stacked, kraus._adjoint), tol)


def kraus_to_a(ops: KrausSet | Iterable[np.ndarray], tol: float = DEFAULT_TOL) -> AForm:
    """Process matrix sum_k E_k (x) conj(E_k) of an operator-sum map.

    Accepts a validated :class:`KrausSet`, whose kept completeness
    residual is compared with ``tol``, or a raw operator sequence, which is
    validated here as a new set on every call.  Either raises
    ``IncompleteKrausError`` when the completeness sum deviates from the
    identity beyond ``tol``.  A set keeps its A-form, computed on first use,
    so one set gives one ``AForm``, whose kept residuals each call checks.
    """
    ops = ops._check(tol) if isinstance(ops, KrausSet) else KrausSet(ops, tol=tol)
    # The trace-preservation residual of the result equals the Kraus
    # completeness residual, so the same tolerance applies.
    return ops._a_form._check(tol)


def _classify(min_eig: float, tol: float) -> CpVerdict:
    """CP exactly when the least canonical eigenvalue, ``min_eig``, is at least ``-tol``."""
    cls = (
        CpClassification.COMPLETELY_POSITIVE
        if min_eig >= -tol
        else CpClassification.NOT_COMPLETELY_POSITIVE
    )
    return _new(CpVerdict, classification=cls, min_eigenvalue=min_eig)


def cp_verdict(a: AForm, basis: OperatorBasis, tol: float = DEFAULT_TOL) -> CpVerdict:
    """Classify a map as CP or NCP by the sign of its canonical spectrum."""
    return _classify(float(canonical_decompose(a, basis, tol).eigenvalues[-1]), tol)  # descending
