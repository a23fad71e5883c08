import dataclasses
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanforms import (
    BlochVector,
    ChanformsError,
    ChannelSpec,
    DensityMatrix,
    InvalidMatrixError,
    InvalidStateError,
    NoConvergenceError,
    NotHermitianError,
    OutsideBallError,
    WrongDimensionError,
    apply_a,
    bloch_to_density,
    build_pin_a,
    build_transpose_a,
    channel_a,
    density_to_bloch,
    hermitian_eigendecompose,
    kraus_to_a,
    random_cp_channel,
    realign_a_to_b,
)
from chanforms import linalg
from chanforms.forms import (
    AForm,
    BForm,
    CanonicalDecomposition,
    CoefficientMatrix,
    KrausSet,
    OperatorBasis,
    standard_basis,
)
from chanforms.linalg import _min_eigenvalue, _new, as_complex_matrix, bloch_components, hermiticity_residual
from conftest import random_density, random_hermitian


def reconstruct(eig) -> np.ndarray:
    """The source matrix rebuilt as sum_k lambda_k v_k v_k^dagger."""
    w, v = eig.eigenvalues, eig.eigenvectors
    return (v.T * w) @ v.conj()


def char_poly_roots(m: np.ndarray) -> np.ndarray:
    """Eigenvalue oracle: characteristic polynomial via Newton's identities
    on power-sum traces, then a companion-matrix root finder (np.roots).

    Shares no code path with the Hermitian eigensolver under test.
    """
    n = m.shape[0]
    power_sums = [float(np.trace(np.linalg.matrix_power(m, k)).real) for k in range(1, n + 1)]
    # e_k from Newton's identities: k e_k = sum_{i=1..k} (-1)^{i-1} e_{k-i} p_i
    e = [1.0]
    for k in range(1, n + 1):
        acc = 0.0
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * power_sums[i - 1]
        e.append(acc / k)
    coeffs = [(-1) ** k * e[k] for k in range(n + 1)]
    return np.sort(np.roots(coeffs).real)


class TestAsComplexMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_part_rejected(self, bad, part):
        m = np.zeros((2, 3), dtype=complex)
        m[1, 2] = complex(bad, 0.0) if part == "real" else complex(0.0, bad)
        assert np.isfinite(getattr(m, "imag" if part == "real" else "real")).all()
        with pytest.raises(ValueError, match=r"^matrix contains non-finite entries$"):
            as_complex_matrix(m)

    @pytest.mark.parametrize(
        "entries, kwargs, message",
        [
            (np.zeros(3), {}, "expected a 2-D matrix, got ndim=1"),
            (np.zeros((2, 3)), {"rows": 3}, "expected 3 rows, got 2"),
            (np.zeros((2, 3)), {"cols": 2}, "expected 2 columns, got 3"),
            ([[1.0, np.nan]], {}, "matrix contains non-finite entries"),
        ],
    )
    def test_errors_are_chanforms_value_errors(self, entries, kwargs, message):
        with pytest.raises(InvalidMatrixError, match=f"^{message}$") as info:
            as_complex_matrix(entries, **kwargs)
        assert isinstance(info.value, ChanformsError) and isinstance(info.value, ValueError)


NOT_NUMBERS = "matrix entries must be numbers within the double range, in rows of one length"
# The identity map's A-form, diag(1, 0, 0, 1) plus its corners, written as text: numpy would read it.
IDENTITY_A_TEXT = [["1" if i in (0, 3) and j in (0, 3) else "0" for j in range(4)] for i in range(4)]


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: AForm("abc"), InvalidMatrixError, NOT_NUMBERS),
        (lambda: BForm("x"), InvalidMatrixError, NOT_NUMBERS),
        (lambda: OperatorBasis(2, "units", "abc"), InvalidMatrixError, NOT_NUMBERS.replace("matrix entries", "basis elements")),
        (lambda: hermitian_eigendecompose("x"), InvalidMatrixError, NOT_NUMBERS),
        (lambda: AForm([[object()]]), InvalidMatrixError, NOT_NUMBERS),
        (lambda: KrausSet([[[object(), 0], [0, 1]]]), InvalidMatrixError, NOT_NUMBERS),
        (lambda: DensityMatrix([[object(), 0], [0, 1]]), InvalidStateError, NOT_NUMBERS),
        (lambda: AForm([[10**400]]), InvalidMatrixError, NOT_NUMBERS),
        (lambda: AForm(IDENTITY_A_TEXT), InvalidMatrixError, NOT_NUMBERS),
        (lambda: DensityMatrix([[b"1", b"0"], [b"0", b"0"]]), InvalidStateError, NOT_NUMBERS),
        (lambda: KrausSet([[["1", "0"], ["0", "1"]]]), InvalidMatrixError, NOT_NUMBERS),
        (lambda: OperatorBasis(2, "units", np.eye(4).reshape(4, 2, 2).astype(str)), InvalidMatrixError,
         NOT_NUMBERS.replace("matrix entries", "basis elements")),
        (lambda: AForm(np.array([[1, "0"]], dtype=object)), InvalidMatrixError, NOT_NUMBERS),
        (lambda: DensityMatrix([bytearray(b"\x01\x00"), bytearray(b"\x00\x00")]), InvalidStateError, NOT_NUMBERS),
        (lambda: DensityMatrix([memoryview(b"\x01\x00"), memoryview(b"\x00\x00")]), InvalidStateError, NOT_NUMBERS),
        (lambda: DensityMatrix([[1, 0], bytearray(b"\x00\x00")]), InvalidStateError, NOT_NUMBERS),
        (lambda: AForm([bytearray(b"\x01\x00\x00\x01" if i in (0, 3) else b"\x00" * 4) for i in range(4)]),
         InvalidMatrixError, NOT_NUMBERS),
        (lambda: AForm(memoryview(np.eye(4).reshape(-1)).cast("B").cast("d", (4, 4))), InvalidMatrixError, NOT_NUMBERS),
        (lambda: KrausSet([[bytearray(b"\x01\x00"), bytearray(b"\x00\x01")]]), InvalidMatrixError, NOT_NUMBERS),
        (lambda: KrausSet([[memoryview(b"\x01\x00"), memoryview(b"\x00\x01")]]), InvalidMatrixError, NOT_NUMBERS),
        (lambda: CanonicalDecomposition(standard_basis(2), [2.0], [[["1", "0"], ["0", "1"]]]), InvalidMatrixError,
         "eigenvalues and canonical operators must be arrays of numbers"),
    ],
    ids=["a_string", "b_string", "basis_string", "eigh_string", "a_object", "kraus_object", "state_object", "a_huge_int",
         "a_text", "state_bytes", "kraus_text", "basis_text", "a_object_text", "state_bytearray_rows",
         "state_memoryview_rows", "state_one_bytearray_row", "a_bytearray_rows", "a_memoryview", "kraus_bytearray_rows",
         "kraus_memoryview_rows", "canonical_text"],
)
def test_a_matrix_that_is_not_numbers_raises_a_chanforms_error(build, error, message):
    """numpy's own TypeError, ValueError or OverflowError on the copy leaves as the entry point's typed error; a
    bytes-like row, which numpy would read as its byte values (a bytearray row of b"\\x01\\x00" as [1, 0]), is
    refused as a bytes row is."""
    with pytest.raises(error, match=f"^{message}$") as info:
        build()
    assert isinstance(info.value, ChanformsError)


def min_eigenvalue_reference(m: np.ndarray) -> float:
    """The minimum eigenvalue as ``_map_output`` and ``DensityMatrix`` took it from LAPACK before."""
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def exact_min_eigenvalue(m: np.ndarray) -> Decimal:
    """The 2x2 Hermitian part's minimum eigenvalue in 50-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, d = Decimal(m[0, 0].real), Decimal(m[1, 1].real)
        br = (Decimal(m[0, 1].real) + Decimal(m[1, 0].real)) / 2
        bi = (Decimal(m[0, 1].imag) - Decimal(m[1, 0].imag)) / 2
        return (a + d) / 2 - (((a - d) / 2) ** 2 + br * br + bi * bi).sqrt()


@st.composite
def two_by_two(draw):
    """2x2 complex matrices of five shapes, scaled by 10^-300 .. 10^300."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["general", "hermitian", "diagonal", "degenerate", "b_zero"]))
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    if shape == "hermitian":
        m = m + m.conj().T
    elif shape == "diagonal":
        m = np.diag(np.diag(m))
    elif shape == "degenerate":
        m = m[0, 0] * np.eye(2)
    elif shape == "b_zero":
        m[0, 1] = -np.conj(m[1, 0])  # non-Hermitian, Hermitian part diagonal
    return m * 10.0 ** draw(st.integers(-300, 300))


class TestMinEigenvalue:
    EPS = np.finfo(float).eps

    @settings(max_examples=400, deadline=None)
    @given(two_by_two())
    def test_closed_form_matches_lapack_and_exact(self, m):
        scale = self.EPS * np.abs(m).max()
        got = _min_eigenvalue(m)
        assert isinstance(got, float)
        # The closed form is within 4 eps max|m| of the exact value; LAPACK's
        # own error reaches about 5 eps max|m|, so the two differ by < 8.
        assert abs(Decimal(got) - exact_min_eigenvalue(m)) <= 4 * Decimal(scale)
        assert abs(got - min_eigenvalue_reference(m)) <= 8 * scale

    def test_exact_cases(self):
        assert _min_eigenvalue(np.diag([0.25, -0.5]).astype(complex)) == -0.5
        assert _min_eigenvalue(np.eye(2, dtype=complex) / 2) == 0.5
        assert _min_eigenvalue(np.array([[0, 2], [0, 0]], dtype=complex)) == -1.0

    def test_finite_output_near_the_double_limit(self):
        # The identity map with A[1,0] = A[2,0] = 1e308 sends |0><0| to
        # [[1, 1e308], [1e308, 0]], whose minimum eigenvalue is about -1e308.
        a = np.eye(4, dtype=complex)
        a[1, 0] = a[2, 0] = 1e308
        out = apply_a(channel_a(ChannelSpec.raw_a(a)), bloch_to_density(BlochVector(0, 0, 1)))
        assert np.array_equal(out.matrix, [[1, 1e308], [1e308, 0]])
        assert out.min_eigenvalue == pytest.approx(-1e308) and not out.positive
        for m in (out.matrix, np.array([[1e308, 1e308], [-1e308, -1e308]], dtype=complex)):
            got = _min_eigenvalue(m)
            assert abs(Decimal(got) - exact_min_eigenvalue(m)) <= 4 * Decimal(self.EPS * np.abs(m).max())

    @pytest.mark.parametrize("n", [1, 3, 4])
    def test_other_sizes_use_lapack(self, rng, n):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert _min_eigenvalue(m) == min_eigenvalue_reference(m)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)])
    def test_a_non_finite_entry_raises_overflow_at_n_3(self, entry):
        """LAPACK's branch scans first: eigvalsh gave 0.0 for diag(nan, 1, 1), and numpy warned on
        diag(inf, 1, 1) while halving it."""
        m = np.eye(3, dtype=complex)
        m[0, 0] = entry
        with pytest.raises(OverflowError, match="^matrix entry beyond the double range$"):
            _min_eigenvalue(m)

    @pytest.mark.parametrize("i", [0, 1])
    @pytest.mark.parametrize("entry", [complex(0.5, np.nan), complex(0.5, np.inf), np.nan, -np.inf])
    def test_a_non_finite_diagonal_entry_raises_overflow_at_n_2(self, i, entry):
        """The closed form reads only the diagonal's real parts, so it checks the whole entries first:
        a NaN or infinite imaginary part once gave the minimum eigenvalue of the real parts."""
        m = np.eye(2, dtype=complex) / 2
        m[i, i] = entry
        with pytest.raises(OverflowError, match="^diagonal entry beyond the double range$"):
            _min_eigenvalue(m)

    def test_a_finite_matrix_near_the_double_limit_has_a_finite_hermitian_part_at_n_3(self):
        """m is halved before it is added to its adjoint, as at n = 2, so 1e308 + 1e308 never forms."""
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = m[1, 0] = 1e308
        assert _min_eigenvalue(m) == pytest.approx(-1e308)


class TestHermitianEigendecompose:
    def test_projection_coefficient_spectrum(self):
        m = np.diag([3.0, 1.0, 1.0, -1.0]).astype(complex) / 2
        eig = hermitian_eigendecompose(m)
        assert np.allclose(eig.eigenvalues, [1.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_identity(self):
        eig = hermitian_eigendecompose(np.eye(2, dtype=complex))
        assert np.allclose(eig.eigenvalues, [1.0, 1.0])
        gram = eig.eigenvectors @ eig.eigenvectors.conj().T
        assert np.abs(gram - np.eye(2)).max() < 1e-12

    def test_matches_companion_matrix_oracle(self, rng):
        for _ in range(20):
            m = random_hermitian(rng, 4)
            eig = hermitian_eigendecompose(m)
            assert np.allclose(np.sort(eig.eigenvalues), char_poly_roots(m), atol=1e-8)

    def test_rows_are_eigenvectors(self, rng):
        m = random_hermitian(rng, 5)
        eig = hermitian_eigendecompose(m)
        for lam, vec in zip(eig.eigenvalues, eig.eigenvectors):
            assert np.abs(m @ vec - lam * vec).max() < 1e-10

    def test_rows_orthonormal(self, rng):
        m = random_hermitian(rng, 6)
        eig = hermitian_eigendecompose(m)
        gram = eig.eigenvectors @ eig.eigenvectors.conj().T
        assert np.abs(gram - np.eye(6)).max() < 1e-12

    def test_descending_order(self, rng):
        eig = hermitian_eigendecompose(random_hermitian(rng, 8))
        assert np.all(np.diff(eig.eigenvalues) <= 0)

    def test_reconstruction(self, rng):
        m = random_hermitian(rng, 4)
        eig = hermitian_eigendecompose(m)
        bound = 10 * 1e-9 * np.abs(m).max()
        assert np.abs(reconstruct(eig) - m).max() <= bound

    def test_trace_preserved(self, rng):
        for n in (2, 3, 4, 7):
            m = random_hermitian(rng, n)
            eig = hermitian_eigendecompose(m)
            assert abs(eig.eigenvalues.sum() - np.trace(m).real) < 1e-10

    def test_idempotent_on_spectrum(self, rng):
        m = random_hermitian(rng, 4)
        first = hermitian_eigendecompose(m)
        second = hermitian_eigendecompose(reconstruct(first))
        assert np.abs(first.eigenvalues - second.eigenvalues).max() < 1e-10

    def test_rejects_non_hermitian(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            hermitian_eigendecompose(m)

    def test_rejects_non_square(self):
        with pytest.raises(NotHermitianError):
            hermitian_eigendecompose(np.zeros((2, 3), dtype=complex))

    def test_a_nan_tol_is_refused(self):
        """A NaN ``tol`` passes no asymmetry, the zero of a Hermitian matrix or a validated form's kept one included."""
        for m in ([[1, 5], [0, 1]], np.eye(2), realign_a_to_b(build_transpose_a())):
            with pytest.raises(NotHermitianError, match=r"^asymmetry [0-9.]+ exceeds tol nan$"):
                hermitian_eigendecompose(m, tol=np.nan)

    @staticmethod
    def eigh_reference(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The solve through ``np.linalg.eigh``, as the library made it before it called eigh's gufunc."""
        h = m / 2
        w, v = np.linalg.eigh(h + h.conj().T)
        order = (-w).argsort(kind="stable")
        return w[order], v.T[order]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bits_equal_numpy_eigh(self, n):
        """The gufunc is the one ``np.linalg.eigh`` calls, so every bit of both outputs is eigh's: on seeded
        matrices, on the transpose's B (spectrum 1, 1, 1, -1) as an array and as a form, and on entries with
        signed zeros.  This guards the direct call should numpy ever move it."""
        rng = np.random.default_rng([31, n])
        cases = [random_hermitian(rng, n) for _ in range(20)]
        cases.append(np.diag(np.where(np.arange(n) % 2, -0.0, 0.0)) + 1j * np.diag(np.full(n, -0.0)))
        cases.append(np.vectorize(complex)(np.round(random_hermitian(rng, n)), -0.0))
        if n == 4:
            b = realign_a_to_b(build_transpose_a())
            cases += [b.matrix, b]
        for m in cases:
            got = hermitian_eigendecompose(m)
            w, v = self.eigh_reference(m.matrix if isinstance(m, BForm) else np.asarray(m, dtype=complex))
            assert got.eigenvalues.tobytes() == w.tobytes() and got.eigenvalues.dtype == w.dtype
            assert got.eigenvectors.tobytes() == v.tobytes() and got.eigenvectors.dtype == v.dtype

    def test_a_solver_that_does_not_converge_raises_no_convergence(self, monkeypatch):
        """LAPACK's failure to converge sets the invalid flag inside the gufunc; the ``errstate`` the solve runs
        under turns it into ``NoConvergenceError``, whatever the caller's own ``errstate`` says."""
        solve = linalg._eigh_lo

        def diverging(a, signature):
            np.zeros(1) / 0.0  # 0/0 sets the invalid flag, as a solve that did not converge does
            return solve(a, signature=signature)

        monkeypatch.setattr(linalg, "_eigh_lo", diverging)
        for outer in ({"all": "ignore"}, {"all": "raise"}, {"over": "raise"}):
            with np.errstate(**outer):
                before = np.geterr()
                with pytest.raises(NoConvergenceError, match="^Eigenvalues did not converge$") as info:
                    hermitian_eigendecompose(np.eye(2))
                assert np.geterr() == before  # the caller's setting is back
            assert isinstance(info.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("form", ["coefficient", "b_form"])
    def test_validated_form_uses_its_stored_residual(self, rng, form):
        m = random_hermitian(rng, 4)
        m[0, 1] += 1e-10  # a residual of 1e-10, accepted at construction
        if form == "coefficient":
            validated = CoefficientMatrix(basis=standard_basis(2), matrix=m, tol=1e-9)
        else:
            m -= (np.trace(m) - 2) * np.eye(4) / 4
            validated = BForm(m, tol=1e-9)
        residual = hermiticity_residual(m)
        assert validated.hermiticity_residual == residual > 0
        got, ref = hermitian_eigendecompose(validated, 1e-9), hermitian_eigendecompose(m, 1e-9)
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)
        assert np.array_equal(got.eigenvectors, ref.eigenvectors)
        with pytest.raises(NotHermitianError, match=f"^asymmetry {residual:.3g} exceeds tol 5e-11$"):
            hermitian_eigendecompose(validated, 5e-11)


class TestBlochConversions:
    def test_maximally_mixed(self):
        rho = bloch_to_density(BlochVector(0, 0, 0))
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_pure_up(self):
        rho = bloch_to_density(BlochVector(0, 0, 1))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_pure_plus(self):
        rho = bloch_to_density(BlochVector(1, 0, 0))
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5))

    def test_back_maximally_mixed(self):
        p = density_to_bloch(DensityMatrix(np.eye(2, dtype=complex) / 2))
        assert p.norm < 1e-12

    def test_back_pure_down(self):
        p = density_to_bloch(DensityMatrix(np.diag([0.0, 1.0]).astype(complex)))
        assert np.allclose([p.p1, p.p2, p.p3], [0, 0, -1])

    def test_back_sigma2_eigenstate(self):
        rho = DensityMatrix(0.5 * np.array([[1, -1j], [1j, 1]]))
        p = density_to_bloch(rho)
        assert np.allclose([p.p1, p.p2, p.p3], [0, 1, 0])

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
            st.floats(-1, 1, allow_nan=False),
        ).filter(lambda t: t[0] ** 2 + t[1] ** 2 + t[2] ** 2 <= 1.0)
    )
    def test_mutual_inverses_on_ball(self, p):
        vec = BlochVector(*p)
        back = density_to_bloch(bloch_to_density(vec))
        assert np.abs(np.subtract([back.p1, back.p2, back.p3], [vec.p1, vec.p2, vec.p3])).max() < 1e-12

    def test_outside_ball_rejected(self):
        with pytest.raises(OutsideBallError):
            BlochVector(1.0, 1.0, 0.0)

    def test_components_of_a_matrix_that_is_not_a_state(self):
        assert bloch_components(np.array([[1, 1], [1, 0]], dtype=complex)) == [2.0, 0.0, 1.0]

    def test_wrong_dimension_rejected(self):
        rho3 = DensityMatrix(np.eye(3, dtype=complex) / 3)
        with pytest.raises(WrongDimensionError):
            density_to_bloch(rho3)


class TestDensityMatrixValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.eye(2, dtype=complex))

    def test_negative_rejected(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_negative_rejected_through_the_closed_form(self):
        m = np.array([[0.5, 1.0], [1.0, 0.5]], dtype=complex)  # eigenvalues 1.5, -0.5
        with pytest.raises(InvalidStateError, match=r"^not positive semidefinite: min eigenvalue -0.5 < -1e-09$"):
            DensityMatrix(m)

    @pytest.mark.parametrize("n", [2, 3])
    def test_off_diagonal_entries_near_the_double_limit_fail_positivity_at_every_n(self, n):
        """At n = 3 LAPACK saw an infinite Hermitian part and raised ``LinAlgError``."""
        m = np.zeros((n, n), dtype=complex)
        m[0, 0] = m[1, 1] = 0.5
        m[0, 1] = m[1, 0] = 1e308
        with pytest.raises(InvalidStateError, match=r"^not positive semidefinite: min eigenvalue -1e\+308 < -1e-09$"):
            DensityMatrix(m)

    def test_entries_beyond_the_double_range_rejected(self):
        # The Hermitian part's off-diagonal entry has modulus 1.5e308 * sqrt(2), beyond range.
        m = [[1, 1.5e308 * (1 + 1j)], [1.5e308 * (1 - 1j), 0]]
        with pytest.raises(InvalidStateError, match=r"^entries too large for the eigenvalue check: absolute"):
            DensityMatrix(m)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.eye(2, dtype=complex) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    @pytest.mark.parametrize("m, residual", [([[2, 1], [0, -5]], 1), ([[0.5, 0], [0, 0.5]], 0)], ids=["not_a_state", "a_state"])
    def test_a_nan_tol_is_refused(self, m, residual):
        """Each check passes only a value at most ``tol``, so a NaN ``tol`` fails the first, even on a state:
        [[2, 1], [0, -5]], not Hermitian, of trace -3 and indefinite, was built as a state."""
        with pytest.raises(InvalidStateError, match=f"^not Hermitian: residual {residual} > tol nan$"):
            DensityMatrix(m, tol=np.nan)


class TestRowVectorize:
    """The vector of a matrix rho is rho.reshape(-1), component r*n + s being
    rho[r, s]: the pin map's A-form holds its fixed state's vector in columns
    0 and 3, and an A-form maps the vector of a state to that of its image."""

    @staticmethod
    def pinned_column(p0: BlochVector) -> np.ndarray:
        a = build_pin_a(p0).matrix
        assert np.array_equal(a[:, 0], a[:, 3])
        assert np.allclose(a[:, 0], bloch_to_density(p0).matrix.reshape(-1), atol=1e-15)
        return a[:, 0]

    def test_maximally_mixed(self):
        assert np.allclose(self.pinned_column(BlochVector(0, 0, 0)), [0.5, 0, 0, 0.5])

    def test_pure_up_column(self):
        assert np.allclose(self.pinned_column(BlochVector(0, 0, 1)), [1, 0, 0, 0])

    def test_pure_plus_column(self):
        assert np.allclose(self.pinned_column(BlochVector(1, 0, 0)), [0.5, 0.5, 0.5, 0.5])

    def test_index_layout(self, rng):
        kraus = random_cp_channel(3, 2, seed=11)
        rho = DensityMatrix(random_density(rng, 3))
        out = apply_a(kraus_to_a(kraus), rho).matrix
        vec = kraus_to_a(kraus).matrix @ rho.matrix.reshape(-1)
        for r in range(3):
            for s in range(3):
                assert vec[r * 3 + s] == out[r, s]
        assert np.abs(out - sum(e @ rho.matrix @ e.conj().T for e in kraus.operators)).max() < 1e-12


class TestNew:
    """``_new`` keeps the given fields as they are, with no ``__post_init__``, and the result stays frozen."""

    def test_runs_no_post_init_and_stays_frozen(self):
        m = np.array([[1, 5], [0, 0]], dtype=complex)  # not Hermitian: the constructor would raise
        rho = _new(DensityMatrix, matrix=m)
        assert rho.matrix is m and vars(rho) == {"matrix": m} and rho.matrix.flags.writeable
        b = _new(BForm, dim=2)
        assert vars(b) == {"dim": 2}
        for obj, name in ((rho, "matrix"), (b, "dim"), (b, "trace")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 0)
        assert vars(b) == {"dim": 2}

    def test_takes_only_classes_with_an_instance_dict(self):
        @dataclasses.dataclass(frozen=True, slots=True)
        class Slotted:
            x: int

        with pytest.raises(AttributeError):
            _new(Slotted, x=1)
