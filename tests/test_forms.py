import dataclasses
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanforms import (
    PAULIS,
    AForm,
    BasisLabel,
    BForm,
    ChanformsError,
    BlochVector,
    CanonicalDecomposition,
    ChannelKind,
    ChannelSpec,
    CoefficientMatrix,
    DensityMatrix,
    DimensionMismatchError,
    IncompleteKrausError,
    InvalidMatrixError,
    KrausSet,
    NotCompletelyPositiveError,
    OperatorBasis,
    NotHermiticityPreservingError,
    NotTracePreservingError,
    RankRangeError,
    SeedRangeError,
    UnsupportedCombinationError,
    WrongDimensionError,
    analyze,
    apply_a,
    apply_canonical,
    apply_kraus,
    bloch_to_density,
    build_pin_a,
    build_transpose_a,
    build_unitary_a,
    canonical_decompose,
    canonical_to_a,
    channel_a,
    coefficient_matrix,
    cp_verdict,
    default_basis,
    density_to_bloch,
    expand_coefficients,
    extract_kraus,
    kraus_to_a,
    random_cp_channel,
    random_ncp_a,
    realign_a_to_b,
    realign_b_to_a,
    rotation_unitary,
    standard_basis,
)
from chanforms import analysis, forms
from chanforms.forms import _cut_kraus, _operator_action, _reshuffle, _scaled_tol, _standard_basis
from chanforms.linalg import _new, as_complex_matrix, hermitian_eigendecompose, hermiticity_residual, max_abs
from conftest import random_density

_, SIGMA_1, _, SIGMA_3 = PAULIS
PAULI = standard_basis(2, BasisLabel.PAULI_OVER_SQRT2)
UNITS2 = standard_basis(2, BasisLabel.MATRIX_UNITS)


def projection_a() -> AForm:
    return AForm(0.5 * np.array(
        [[1, 0, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [1, 0, 0, 1]], dtype=complex
    ))


class TestStandardBasis:
    def test_pauli_elements(self):
        for mu, sigma in enumerate(PAULIS):
            assert np.array_equal(PAULI.elements[mu], sigma / np.sqrt(2))

    def test_pauli_requires_dim_two(self):
        with pytest.raises(UnsupportedCombinationError):
            standard_basis(3, BasisLabel.PAULI_OVER_SQRT2)

    @pytest.mark.parametrize("n", [2, 3])
    def test_matrix_units_orthonormal(self, n):
        basis = standard_basis(n, BasisLabel.MATRIX_UNITS)
        assert basis.elements.shape == (n * n, n, n)
        gram = np.einsum("mij,nij->mn", basis.elements.conj(), basis.elements)
        assert np.array_equal(gram, np.eye(n * n))

    def test_matrix_unit_layout(self):
        basis = standard_basis(2, BasisLabel.MATRIX_UNITS)
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1
        assert np.array_equal(basis.elements[1], e01)

    @pytest.mark.parametrize(
        "n, label", [(2, BasisLabel.PAULI_OVER_SQRT2), (2, BasisLabel.MATRIX_UNITS), (3, BasisLabel.MATRIX_UNITS)]
    )
    def test_built_once_and_shared_read_only(self, n, label):
        basis = standard_basis(n, label)
        assert standard_basis(n, label) is basis
        assert not basis.elements.flags.writeable
        with pytest.raises(ValueError):
            basis.elements[0, 0, 0] = 7.0

    @pytest.mark.parametrize(
        "dim, label, message",
        [
            (2.0, BasisLabel.MATRIX_UNITS, "^dimension must be an integer, got 2.0$"),
            ("2", BasisLabel.MATRIX_UNITS, "^dimension must be an integer, got '2'$"),
            (0, BasisLabel.MATRIX_UNITS, "^dimension must be at least 1, got 0$"),
            (2, "foo", "^unknown basis label 'foo'; expected one of pauli, units$"),
        ],
        ids=["float_dim", "str_dim", "zero_dim", "unknown_label"],
    )
    def test_the_constructor_checks_dim_and_label(self, dim, label, message):
        elements = np.zeros((0, 0, 0)) if dim == 0 else np.eye(4).reshape(4, 2, 2)
        with pytest.raises(InvalidMatrixError, match=message):
            OperatorBasis(dim=dim, label=label, elements=elements)

    def test_the_constructor_keeps_an_int_and_a_member(self):
        basis = OperatorBasis(dim=np.int64(2), label="units", elements=np.eye(4).reshape(4, 2, 2))
        assert type(basis.dim) is int and basis.dim == 2
        assert basis.label is BasisLabel.MATRIX_UNITS and basis._units

    def test_errors_are_raised_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="at least 2"):
                standard_basis(1)
            with pytest.raises(UnsupportedCombinationError):
                standard_basis(3, BasisLabel.PAULI_OVER_SQRT2)
        assert standard_basis(2).dim == 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_one_object_however_the_label_is_given(self, n):
        basis = standard_basis(n)
        assert standard_basis(n, "units") is basis
        assert standard_basis(n, BasisLabel.MATRIX_UNITS) is basis
        if n >= 3:
            assert default_basis(n) is basis
        else:
            assert default_basis(2) is standard_basis(2, "pauli") is PAULI

    def test_errors_are_not_cached(self):
        before = _standard_basis.cache_info().currsize
        for _ in range(2):
            with pytest.raises(InvalidMatrixError, match="^dimension must be at least 2, got 1$") as info:
                standard_basis(1, "units")
            assert isinstance(info.value, ChanformsError)
            with pytest.raises(UnsupportedCombinationError):
                standard_basis(3, "pauli")
            with pytest.raises(ValueError):
                standard_basis(3, "weyl")
        assert _standard_basis.cache_info().currsize == before


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: standard_basis(2, "foo"), InvalidMatrixError, "unknown basis label 'foo'; expected one of pauli, units"),
        (lambda: standard_basis(2.0), InvalidMatrixError, "dimension must be an integer, got 2.0"),
        (lambda: random_ncp_a(1, 0), WrongDimensionError, "an NCP map needs dimension at least 2, got 1"),
        (lambda: random_cp_channel(2, 1, -1), SeedRangeError, "seed must be a non-negative integer, got -1"),
        (lambda: random_cp_channel(2.0, 1, 1), WrongDimensionError, "dimension must be a positive integer, got 2.0"),
        (lambda: random_cp_channel(2, 1.5, 1), RankRangeError, r"rank must lie in \[1, 4\], got 1.5"),
    ],
    ids=["unknown_label", "float_dim", "ncp_at_n1", "negative_seed", "float_n", "float_rank"],
)
def test_public_entry_points_raise_chanforms_errors(call, error, message):
    # Raised up front, with no numpy error or warning first; an unknown label stays a ValueError.
    for _ in range(2):  # a cached basis does not change the outcome
        with pytest.raises(error, match=f"^{message}$") as info:
            call()
        assert isinstance(info.value, ChanformsError)
    if error is InvalidMatrixError:
        assert isinstance(info.value, ValueError)


def gram_reference(elements) -> np.ndarray:
    """The Gram matrix as an einsum, as the basis check computed it before."""
    return np.einsum("mij,nij->mn", elements.conj(), elements)


class TestOperatorBasisValidation:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1), st.floats(1e-9, 1e-3))
    def test_gram_check_keeps_its_tolerance(self, n, seed, eps):
        rng = np.random.default_rng(seed)
        el = random_basis(rng, n).elements + eps * rng.standard_normal((n * n, n, n))
        residual = max_abs(gram_reference(el) - np.eye(n * n))
        OperatorBasis(dim=n, label=BasisLabel.MATRIX_UNITS, elements=el, tol=residual + 1e-14)
        with pytest.raises(ValueError, match="^basis elements are not trace-orthonormal$"):
            OperatorBasis(dim=n, label=BasisLabel.MATRIX_UNITS, elements=el, tol=residual - 1e-14)

    def test_a_nan_tol_is_refused(self):
        """The Gram check passes only a residual at most ``tol``: twice the matrix units, not orthonormal, were
        accepted at a NaN ``tol``, and the units themselves are refused at it."""
        for scale in (2, 1):
            with pytest.raises(InvalidMatrixError, match="^basis elements are not trace-orthonormal$"):
                OperatorBasis(2, "units", scale * UNITS2.elements, tol=np.nan)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)], ids=str)
    def test_rejects_non_finite_elements_without_a_warning(self, bad):
        el = PAULI.elements.copy()
        el[0, 0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidMatrixError, match="^basis elements contain non-finite entries$"):
                OperatorBasis(dim=2, label=BasisLabel.PAULI_OVER_SQRT2, elements=el)


class TestAFormValidation:
    def test_rejects_hermiticity_violation(self):
        m = np.eye(4, dtype=complex)
        # breaks conj(A[r's';rs]) == A[s'r';sr] while keeping column sums
        m[0, 1] = m[0, 2] = 0.5j
        m[3, 1] = m[3, 2] = -0.5j
        with pytest.raises(NotHermiticityPreservingError):
            AForm(m)

    def test_rejects_trace_violation(self):
        with pytest.raises(NotTracePreservingError):
            AForm(np.eye(4, dtype=complex) * 0.5)

    def test_rejects_non_square_side(self):
        with pytest.raises(ValueError):
            AForm(np.eye(5, dtype=complex))
        with pytest.raises(InvalidMatrixError, match="^A-form side 5 is not a perfect square$"):
            AForm(np.eye(5, dtype=complex))
        with pytest.raises(InvalidMatrixError, match=r"^B-form must be square, got \(4, 5\)$"):
            BForm(np.zeros((4, 5), dtype=complex))


class TestCoefficientMatrix:
    def test_transpose_map(self):
        # The nonunit eigenvalue sits in the sigma_2 slot: transposition
        # conjugates the state, which negates the sigma_2 component.
        cm = coefficient_matrix(build_transpose_a(), PAULI)
        assert np.abs(cm.matrix - np.diag([1, 1, -1, 1])).max() < 1e-12

    def test_identity_channel(self):
        cm = coefficient_matrix(AForm(np.eye(4, dtype=complex)), PAULI)
        assert np.abs(cm.matrix - np.diag([2, 0, 0, 0])).max() < 1e-12

    def test_equatorial_projection(self):
        cm = coefficient_matrix(projection_a(), PAULI)
        assert np.abs(cm.matrix - 0.5 * np.diag([3, 1, 1, -1])).max() < 1e-12

    def test_expansion_reproduces_a(self, rng):
        for rank in (1, 2, 4):
            a = kraus_to_a(random_cp_channel(2, rank, seed=rank))
            for basis in (PAULI, UNITS2):
                cm = coefficient_matrix(a, basis)
                assert np.abs(expand_coefficients(cm) - a.matrix).max() < 1e-12

    def test_matrix_units_coefficients_equal_b_form(self):
        # vec of a matrix unit is a standard basis vector, so the
        # coefficient matrix in that basis is the dynamical matrix itself.
        a = projection_a()
        cm = coefficient_matrix(a, UNITS2)
        assert np.abs(cm.matrix - realign_a_to_b(a).matrix).max() < 1e-14

    def test_dimension_mismatch(self):
        basis3 = standard_basis(3, BasisLabel.MATRIX_UNITS)
        with pytest.raises(DimensionMismatchError):
            coefficient_matrix(build_transpose_a(), basis3)

    def test_trace_equals_dim(self, rng):
        a = kraus_to_a(random_cp_channel(3, 2, seed=5))
        basis = standard_basis(3, BasisLabel.MATRIX_UNITS)
        assert abs(np.trace(coefficient_matrix(a, basis).matrix).real - 3) < 1e-10


class TestRealignment:
    def test_transpose_self_realigned(self):
        a = build_transpose_a()
        assert np.array_equal(realign_a_to_b(a).matrix, a.matrix)

    def test_pin_realigns_to_fixed_state_tensor_identity(self):
        p0 = BlochVector(0.6, 0.0, 0.0)
        b = realign_a_to_b(build_pin_a(p0))
        rho0 = bloch_to_density(p0).matrix
        assert np.abs(b.matrix - np.kron(rho0, np.eye(2))).max() < 1e-15

    def test_projection_b_form(self):
        b = realign_a_to_b(projection_a())
        expected = 0.5 * np.array(
            [[1, 0, 0, 2], [0, 1, 0, 0], [0, 0, 1, 0], [2, 0, 0, 1]], dtype=complex
        )
        assert np.array_equal(b.matrix, expected)

    def test_involution_on_random_channels(self):
        for seed in range(50):
            rank = seed % 4 + 1
            a = kraus_to_a(random_cp_channel(2, rank, seed=seed))
            round_trip = realign_b_to_a(realign_a_to_b(a))
            assert np.array_equal(round_trip.matrix, a.matrix)

    def test_b_to_a_pin(self):
        p0 = BlochVector(0, 0, 1)
        rho0 = bloch_to_density(p0).matrix
        b = BForm(np.kron(rho0, np.eye(2)))
        assert np.abs(realign_b_to_a(b).matrix - build_pin_a(p0).matrix).max() < 1e-15

    def test_b_form_trace_is_dim(self, rng):
        a = kraus_to_a(random_cp_channel(3, 3, seed=11))
        b = realign_a_to_b(a)
        assert abs(np.trace(b.matrix).real - 3) < 1e-10


class TestCanonicalDecomposition:
    def test_unitary_channel_rank_one(self):
        axis, angle = (0.36, 0.48, 0.8), 1.1
        decomp = canonical_decompose(build_unitary_a(axis, angle), PAULI)
        assert abs(decomp.eigenvalues[0] - 2.0) < 1e-12
        assert np.abs(decomp.eigenvalues[1:]).max() < 1e-12
        u = rotation_unitary(axis, angle)
        c0 = decomp.canonical_ops[0]
        overlap = abs(np.trace(c0.conj().T @ (u / np.sqrt(2))))
        assert abs(overlap - 1.0) < 1e-12  # equal up to global phase

    def test_transpose_spectrum_and_span(self):
        decomp = canonical_decompose(build_transpose_a(), PAULI)
        assert np.allclose(decomp.eigenvalues, [1, 1, 1, -1], atol=1e-12)
        # the -1 operator is the sigma_2 direction up to phase
        c_neg = decomp.canonical_ops[-1]
        overlap = abs(np.trace(c_neg.conj().T @ (PAULIS[2] / np.sqrt(2))))
        assert abs(overlap - 1.0) < 1e-10

    def test_reconstruction_of_random_channels(self):
        for seed in range(10):
            a = kraus_to_a(random_cp_channel(2, seed % 4 + 1, seed=seed))
            decomp = canonical_decompose(a, PAULI)
            assert np.abs(canonical_to_a(decomp).matrix - a.matrix).max() < 1e-9

    def test_trace_preservation_identity(self):
        a = kraus_to_a(random_cp_channel(2, 3, seed=9))
        decomp = canonical_decompose(a, PAULI)
        total = np.einsum(
            "k,kji,kjl->il",
            decomp.eigenvalues,
            decomp.canonical_ops.conj(),
            decomp.canonical_ops,
        )
        assert np.abs(total - np.eye(2)).max() < 1e-10

    def test_canonical_ops_orthonormal(self):
        decomp = canonical_decompose(kraus_to_a(random_cp_channel(2, 4, seed=3)), PAULI)
        gram = np.einsum("kij,lij->kl", decomp.canonical_ops.conj(), decomp.canonical_ops)
        assert np.abs(gram - np.eye(4)).max() < 1e-10

    def test_eigenvalues_match_coefficient_matrix(self):
        a = random_ncp_a(2, seed=21)
        decomp = canonical_decompose(a, PAULI)
        w = np.linalg.eigvalsh(coefficient_matrix(a, PAULI).matrix)
        assert np.abs(np.sort(decomp.eigenvalues) - w).max() < 1e-10

    def test_phase_fixing_deterministic(self):
        a = kraus_to_a(random_cp_channel(2, 2, seed=13))
        d1 = canonical_decompose(a, PAULI)
        d2 = canonical_decompose(a, PAULI)
        assert np.array_equal(d1.canonical_ops, d2.canonical_ops)
        for op in d1.canonical_ops:
            pivot = op.flat[np.argmax(np.abs(op))]
            assert pivot.imag == pytest.approx(0.0, abs=1e-12)
            assert pivot.real > 0

    @pytest.mark.parametrize(
        "eigenvalues, ops, error",
        [
            ([1.0, 1.0], np.zeros((4, 2, 2)), DimensionMismatchError),
            ([1.0], np.eye(3)[None], DimensionMismatchError),
            ([1.0] * 5, np.zeros((5, 2, 2)), DimensionMismatchError),
            ([1.0], np.eye(2), DimensionMismatchError),
            ([1.0], [[[1, np.inf], [0, 1]]], InvalidMatrixError),
            ([np.nan], np.eye(2)[None], InvalidMatrixError),
            ([1j], np.eye(2)[None], InvalidMatrixError),
            ([[1.0]], np.eye(2)[None], InvalidMatrixError),
            ([1.0, 2.0], [np.eye(2), np.eye(3)], InvalidMatrixError),
        ],
        ids=["count", "operator_size", "beyond_n2", "not_a_stack", "inf_entry", "nan_eigenvalue",
             "complex_eigenvalue", "eigenvalue_matrix", "ragged"],
    )
    def test_malformed_payloads_are_rejected(self, eigenvalues, ops, error):
        # Rejected when built, with no numpy error or warning from a later use.
        with pytest.raises(error):
            CanonicalDecomposition(PAULI, eigenvalues, ops)

    @pytest.mark.parametrize("k", [0, 1, 3, 4])
    def test_any_count_up_to_n2_is_accepted(self, k):
        decomp = canonical_decompose(kraus_to_a(random_cp_channel(2, 4, seed=3)), PAULI)
        c = CanonicalDecomposition(PAULI, decomp.eigenvalues[:k], decomp.canonical_ops[:k])
        assert c.canonical_ops.shape == (k, 2, 2) and len(c.eigenvalues) == k
        assert canonical_to_a(c, np.inf).dim == 2


class TestExtractKraus:
    def test_bit_flip_three_quarters(self):
        ops = (np.sqrt(0.75) * np.eye(2, dtype=complex), np.sqrt(0.25) * SIGMA_1)
        decomp = canonical_decompose(kraus_to_a(ops), PAULI)
        kraus = extract_kraus(decomp)
        assert len(kraus) == 2
        for expected in ops:
            norm = np.linalg.norm(expected)
            best = max(
                abs(np.trace(expected.conj().T @ got)) / (norm * np.linalg.norm(got))
                for got in kraus.operators
            )
            assert abs(best - 1.0) < 1e-10
        total = sum(op.conj().T @ op for op in kraus.operators)
        assert np.abs(total - np.eye(2)).max() < 1e-10

    def test_transpose_has_no_kraus_form(self):
        decomp = canonical_decompose(build_transpose_a(), PAULI)
        with pytest.raises(NotCompletelyPositiveError):
            extract_kraus(decomp)

    def test_identity_channel(self):
        decomp = canonical_decompose(AForm(np.eye(4, dtype=complex)), PAULI)
        kraus = extract_kraus(decomp)
        assert len(kraus) == 1
        assert np.abs(kraus.operators[0] - np.eye(2)).max() < 1e-12

    def test_transpose_message_names_min_eigenvalue_and_tol(self):
        decomp = canonical_decompose(build_transpose_a(), PAULI)
        message = r"^map is not completely positive: min eigenvalue -1 < -1e-09$"
        with pytest.raises(NotCompletelyPositiveError, match=message):
            extract_kraus(decomp)

    def test_empty_spectrum_is_an_incomplete_kraus_set(self):
        decomp = CanonicalDecomposition(basis=PAULI, eigenvalues=[], canonical_ops=np.empty((0, 2, 2)))
        with pytest.raises(IncompleteKrausError, match="at least one operator"):
            extract_kraus(decomp)


class TestApply:
    def test_pin_sends_everything_to_fixed_state(self, rng):
        p0 = BlochVector(0.1, -0.2, 0.3)
        a = build_pin_a(p0)
        rho0 = bloch_to_density(p0).matrix
        for _ in range(20):
            rho = DensityMatrix(random_density(rng))
            out = apply_a(a, rho)
            assert np.abs(out.matrix - rho0).max() < 1e-12
            assert out.positive

    def test_transpose_negates_sigma2(self):
        out = apply_a(build_transpose_a(), bloch_to_density(BlochVector(0, 1, 0)))
        got = density_to_bloch(DensityMatrix(out.matrix))
        assert np.allclose([got.p1, got.p2, got.p3], [0, -1, 0])

    def test_projection_zeroes_third_component(self, rng):
        a = projection_a()
        for _ in range(10):
            p = rng.uniform(-1, 1, size=3)
            p *= rng.uniform(0, 1) / max(np.linalg.norm(p), 1e-12)
            out = apply_a(a, bloch_to_density(BlochVector(*p)))
            got = density_to_bloch(DensityMatrix(out.matrix))
            assert np.abs(np.array([got.p1, got.p2, got.p3]) - [p[0], p[1], 0.0]).max() < 1e-12

    def test_canonical_route_identity(self, rng):
        decomp = canonical_decompose(AForm(np.eye(4, dtype=complex)), PAULI)
        rho = DensityMatrix(random_density(rng))
        out = apply_canonical(decomp, rho)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_canonical_route_phase_flip_oracle(self):
        p = 0.3
        ops = (np.sqrt(p) * np.eye(2, dtype=complex), np.sqrt(1 - p) * SIGMA_3)
        decomp = canonical_decompose(kraus_to_a(ops), PAULI)
        rho = bloch_to_density(BlochVector(1, 0, 0))
        # independent oracle: p*rho + (1-p)*sigma3 rho sigma3
        expected = p * rho.matrix + (1 - p) * SIGMA_3 @ rho.matrix @ SIGMA_3
        out = apply_canonical(decomp, rho)
        assert np.abs(out.matrix - expected).max() < 1e-12
        got = density_to_bloch(DensityMatrix(out.matrix))
        assert np.allclose([got.p1, got.p2, got.p3], [-0.4, 0, 0], atol=1e-12)

    def test_canonical_route_bit_flip_half(self):
        ops = (np.sqrt(0.5) * np.eye(2, dtype=complex), np.sqrt(0.5) * SIGMA_1)
        decomp = canonical_decompose(kraus_to_a(ops), PAULI)
        out = apply_canonical(decomp, bloch_to_density(BlochVector(0, 0, 1)))
        expected = 0.5 * np.eye(2)  # 0.5*rho + 0.5*sigma1 rho sigma1 at p=(0,0,1)
        assert np.abs(out.matrix - expected).max() < 1e-12

    def test_three_routes_agree(self, rng):
        for seed in range(10):
            kraus = random_cp_channel(2, seed % 4 + 1, seed=seed + 100)
            a = kraus_to_a(kraus)
            decomp = canonical_decompose(a, PAULI)
            rho = DensityMatrix(random_density(rng))
            via_a = apply_a(a, rho).matrix
            via_canonical = apply_canonical(decomp, rho).matrix
            via_kraus = apply_kraus(kraus, rho).matrix
            assert np.abs(via_a - via_canonical).max() < 1e-9
            assert np.abs(via_a - via_kraus).max() < 1e-9

    def test_dimension_mismatch(self, rng):
        rho3 = DensityMatrix(random_density(rng, 3))
        a = build_transpose_a()
        decomp = canonical_decompose(a, PAULI)
        kraus = random_cp_channel(2, 3, seed=7)
        for route, form in ((apply_a, a), (apply_canonical, decomp), (apply_kraus, kraus)):
            with pytest.raises(DimensionMismatchError, match="^dimension mismatch: 2 vs 3$"):
                route(form, rho3)

    def test_output_beyond_the_double_range_raises_a_typed_error(self):
        # The identity map with A[1,0] = z, A[2,0] = conj(z), z = 1.5e308(1+i), is a valid
        # A-form; it sends |0><0| to [[1, z], [conj z, 0]], whose minimum eigenvalue is
        # beyond the double range.  Its trace-orthonormal canonical eigenvalues lie beyond it too
        # (+-|z|), so the canonical route takes the same action written with finite
        # weights: rho + |z|/2 [C_+ rho C_+^dag - C_- rho C_-^dag], C_+- = |0><0| +- w |1><0|,
        # w = conj(z)/|z|.  No Kraus form exists; the Kraus route gets E = c (|0><0| + |0><1|)
        # with c^2 = 1e308, which sends |+><+| to 2 c^2 |0><0|: numpy's product overflows
        # (its warnings are silenced here) and the output step raises.
        z = 1.5e308 * (1 + 1j)
        a = np.eye(4, dtype=complex)
        a[1, 0], a[2, 0] = z, z.conjugate()
        rho = bloch_to_density(BlochVector(0, 0, 1))
        w = (1 - 1j) / np.sqrt(2)
        ops = np.array([np.eye(2), [[1, 0], [w, 0]], [[1, 0], [-w, 0]]], dtype=complex)
        half = abs(z / 2)  # |z| itself is beyond the double range
        decomp = CanonicalDecomposition(PAULI, [1.0, half, -half], ops)
        message = "^map output beyond the double range; the input's entries are too large$"
        with pytest.raises(InvalidMatrixError, match=message):
            apply_a(AForm(a), rho)
        with pytest.raises(InvalidMatrixError, match=message):
            apply_canonical(decomp, rho)
        with np.errstate(all="ignore"), pytest.raises(InvalidMatrixError, match=message):
            apply_kraus(KrausSet([[[1e154, 1e154], [0, 0]]], tol=np.inf), bloch_to_density(BlochVector(1, 0, 0)))
        for basis in (PAULI, UNITS2):  # the spectrum itself is beyond the double range
            with pytest.raises(InvalidMatrixError, match="^eigenvalues beyond the double range"):
                canonical_decompose(AForm(a), basis)

    def test_non_positive_output_flagged(self):
        # Bloch map (p1,p2,p3) -> (0,0,1.5*p3): trace- and hermiticity-
        # preserving but not positive, so a pole state leaves the ball.
        stretch = AForm(np.array(
            [
                [1.25, 0, 0, -0.25],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
                [-0.25, 0, 0, 1.25],
            ],
            dtype=complex,
        ))
        out = apply_a(stretch, bloch_to_density(BlochVector(0, 0, 1)))
        assert not out.positive
        assert out.min_eigenvalue == pytest.approx(-0.25, abs=1e-12)


class TestKrausToA:
    def test_bit_flip_matrix(self):
        p = 0.75
        ops = (np.sqrt(p) * np.eye(2, dtype=complex), np.sqrt(1 - p) * SIGMA_1)
        a = kraus_to_a(ops)
        expected = np.array(
            [
                [p, 0, 0, 1 - p],
                [0, p, 1 - p, 0],
                [0, 1 - p, p, 0],
                [1 - p, 0, 0, p],
            ]
        )
        assert np.abs(a.matrix - expected).max() < 1e-15

    def test_identity(self):
        assert np.array_equal(kraus_to_a([np.eye(2, dtype=complex)]).matrix, np.eye(4))

    def test_phase_flip_unhalved(self):
        p = 0.3
        ops = (np.sqrt(p) * np.eye(2, dtype=complex), np.sqrt(1 - p) * SIGMA_3)
        a = kraus_to_a(ops)
        assert np.abs(a.matrix - np.diag([1, 2 * p - 1, 2 * p - 1, 1])).max() < 1e-15

    def test_incomplete_set_rejected(self):
        with pytest.raises(IncompleteKrausError):
            kraus_to_a([0.5 * np.eye(2, dtype=complex)])

    def test_validity_propagation(self):
        for seed in range(10):
            a = kraus_to_a(random_cp_channel(2, seed % 4 + 1, seed=seed))
            n = a.dim
            a4 = a.matrix.reshape(n, n, n, n)
            herm = np.abs(np.conj(a4) - a4.transpose(1, 0, 3, 2)).max()
            tp = np.abs(np.einsum("iikl->kl", a4) - np.eye(n)).max()
            assert herm < 1e-10 and tp < 1e-10

    def test_matrix_unit_column_oracle(self):
        # Assemble A column by column by pushing each matrix unit through
        # the operator sum; linearity makes this reproduce the A matrix.
        kraus = random_cp_channel(2, 3, seed=77)
        a = kraus_to_a(kraus)
        assembled = np.zeros((4, 4), dtype=complex)
        for r in range(2):
            for s in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[r, s] = 1.0
                image = sum(op @ unit @ op.conj().T for op in kraus.operators)
                assembled[:, 2 * r + s] = image.reshape(-1)
        assert np.abs(assembled - a.matrix).max() < 1e-12


class TestCpVerdict:
    def test_transpose(self):
        verdict = cp_verdict(build_transpose_a(), PAULI)
        assert not verdict.is_cp
        assert verdict.min_eigenvalue == pytest.approx(-1.0, abs=1e-10)

    def test_projection(self):
        verdict = cp_verdict(projection_a(), PAULI)
        assert not verdict.is_cp
        assert verdict.min_eigenvalue == pytest.approx(-0.5, abs=1e-10)

    @pytest.mark.parametrize("direction", [(0, 0, 1), (0.6, 0.8, 0), (0.5, 0.5, 0.7071067811865476)])
    @pytest.mark.parametrize("radius", [0.0, 0.5, 1.0])
    def test_pin_is_cp_with_paired_spectrum(self, direction, radius):
        p0 = BlochVector(*(radius * np.asarray(direction, dtype=float)))
        verdict = cp_verdict(build_pin_a(p0), PAULI)
        assert verdict.is_cp
        expected = np.sort([(1 + radius) / 2] * 2 + [(1 - radius) / 2] * 2)[::-1]
        spectrum = canonical_decompose(build_pin_a(p0), PAULI).eigenvalues
        assert np.abs(np.sort(spectrum)[::-1] - expected).max() < 1e-10


class TestSpectralIdentity:
    @pytest.mark.parametrize("basis", [PAULI, UNITS2], ids=["pauli", "units"])
    def test_cp_and_ncp_channels(self, basis):
        for seed in range(20):
            if seed % 2:
                a = kraus_to_a(random_cp_channel(2, seed % 4 + 1, seed=seed))
            else:
                a = random_ncp_a(2, seed=seed)
            coeff_spec = np.sort(canonical_decompose(a, basis).eigenvalues)
            b_spec = np.linalg.eigvalsh(realign_a_to_b(a).matrix)
            assert np.abs(coeff_spec - b_spec).max() < 1e-9

    def test_basis_independence(self):
        a = random_ncp_a(2, seed=4)
        w_pauli = np.sort(canonical_decompose(a, PAULI).eigenvalues)
        w_units = np.sort(canonical_decompose(a, UNITS2).eigenvalues)
        assert np.abs(w_pauli - w_units).max() < 1e-9

    def test_round_trip_kraus(self):
        for seed in range(8):
            a = kraus_to_a(random_cp_channel(2, seed % 4 + 1, seed=seed + 40))
            kraus = extract_kraus(canonical_decompose(a, PAULI))
            assert np.abs(kraus_to_a(kraus).matrix - a.matrix).max() < 1e-8


class TestTraceIdentity:
    def test_coefficient_and_b_traces_equal_dim(self):
        cases = [kraus_to_a(random_cp_channel(2, r, seed=60 + r)) for r in (1, 2, 3, 4)]
        cases += [random_ncp_a(2, seed=s) for s in (61, 62)]
        for a in cases:
            for basis in (PAULI, UNITS2):
                assert abs(np.trace(coefficient_matrix(a, basis).matrix).real - 2) < 1e-9
            assert abs(np.trace(realign_a_to_b(a).matrix).real - 2) < 1e-9


class TestQutritPipeline:
    def test_decompose_extract_apply(self, rng):
        basis3 = standard_basis(3, BasisLabel.MATRIX_UNITS)
        a = kraus_to_a(random_cp_channel(3, 2, seed=31))
        decomp = canonical_decompose(a, basis3)
        assert np.abs(canonical_to_a(decomp).matrix - a.matrix).max() < 1e-9
        kraus = extract_kraus(decomp)
        rho = DensityMatrix(random_density(rng, 3))
        via_a = apply_a(a, rho).matrix
        assert np.abs(apply_kraus(kraus, rho).matrix - via_a).max() < 1e-9
        assert np.abs(apply_canonical(decomp, rho).matrix - via_a).max() < 1e-9


class TestKrausSetValidation:
    def test_mixed_shapes_rejected(self):
        with pytest.raises(DimensionMismatchError):
            KrausSet((np.eye(2, dtype=complex), np.eye(3, dtype=complex)))

    def test_empty_rejected(self):
        with pytest.raises(IncompleteKrausError):
            KrausSet(())

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 4]), st.integers(1, 16), st.integers(0, 2**32 - 1), st.floats(1e-9, 1e-3)
    )
    def test_completeness_residual_matches_sum_of_products(self, n, rank, seed, delta):
        """Tolerances just either side of the old sum's residual pin the new one within 1e-14."""
        ops = [op * np.sqrt(1 + delta) for op in random_cp_channel(n, min(rank, n * n), seed).operators]
        residual = max_abs(sum(op.conj().T @ op for op in ops) - np.eye(n))
        KrausSet(tuple(ops), tol=residual + 1e-14)
        with pytest.raises(IncompleteKrausError, match="^completeness residual .* exceeds tol"):
            KrausSet(tuple(ops), tol=residual - 1e-14)


# The operator-sum assembly as it was before the realigned-product kernel,
# kept as the references the kernel must reproduce.


def kron_loop_reference(weights, ops) -> np.ndarray:
    n = ops[0].shape[0]
    acc = np.zeros((n * n, n * n), dtype=complex)
    for lam, op in zip(weights, ops):
        acc += lam * np.kron(op, op.conj())
    return acc


def einsum_reference(coeffs, t) -> np.ndarray:
    n = t.shape[1]
    return np.einsum("mn,mac,nbd->abcd", coeffs, t, t.conj()).reshape(n * n, n * n)


@st.composite
def operator_sums(draw, signed: bool):
    """(weights, ops): k in [1, n^2] operators with sum_k w_k O_k^dag O_k = I.

    Unsigned sums have unit weights (a Kraus set).  Signed sums have a
    negative last weight whenever k > 1, so they describe maps that are
    not completely positive.
    """
    n = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, n * n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ops = rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n))
    weights = np.ones(k)
    if signed:
        weights = rng.uniform(0.1, 1.0, k) * rng.choice([-1.0, 1.0], k)
        weights[0] = 1.0
        if k > 1:
            weights[-1] = -abs(weights[-1])
        # A unitary first operator and a capped negative part keep the
        # weighted sum S >= I/2, so S^(-1/2) normalizes it.
        ops[0] = np.linalg.qr(ops[0])[0]
        neg = weights < 0
        if neg.any():
            top = np.linalg.eigvalsh(np.einsum("k,kji,kjl->il", -weights[neg], ops[neg].conj(), ops[neg])).max()
            weights[neg] *= min(1.0, 0.5 / top)
    w, v = np.linalg.eigh(np.einsum("k,kji,kjl->il", weights, ops.conj(), ops))
    ops = ops @ (v / np.sqrt(w)) @ v.conj().T
    return weights, ops


def random_basis(rng: np.random.Generator, n: int) -> OperatorBasis:
    """The rows of a random unitary, as n^2 trace-orthonormal operators (the label is unused)."""
    g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    elements = np.linalg.qr(g)[0].T.reshape(n * n, n, n)
    return OperatorBasis(dim=n, label=BasisLabel.MATRIX_UNITS, elements=elements)


# The residuals as analyze computed them before AForm and BForm kept what
# they measured; the stored values must equal these exactly.


def a_residuals_reference(matrix, n) -> tuple[float, float]:
    a4 = matrix.reshape(n, n, n, n)
    herm = max_abs(np.conj(a4) - a4.transpose(1, 0, 3, 2))
    tp = max_abs(np.einsum("iikl->kl", a4) - np.eye(n))
    return herm, tp


def b_measurements_reference(matrix) -> tuple[float, float]:
    return hermiticity_residual(matrix), float(np.trace(matrix).real)


class TestStoredResiduals:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3, 4]),
        st.booleans(),
        st.integers(0, 2**31 - 1),
        st.sampled_from([0.0, 1e-13, 1e-11]),
    )
    def test_equal_old_expressions(self, n, cp, seed, noise):
        rng = np.random.default_rng(seed)
        if cp:
            a = kraus_to_a(random_cp_channel(n, int(rng.integers(1, n * n + 1)), seed))
        else:
            a = random_ncp_a(n, seed)
        # Noise below the default tol makes the residuals nonzero.
        g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        a = AForm(a.matrix + noise * g)
        b = realign_a_to_b(a)
        assert (a.hermiticity_residual, a.trace_residual) == a_residuals_reference(a.matrix, n)
        assert (b.hermiticity_residual, b.trace) == b_measurements_reference(b.matrix)
        report = analyze(ChannelSpec.raw_a(a.matrix))
        assert (report.a_hermiticity_residual, report.a_trace_residual) == a_residuals_reference(a.matrix, n)
        assert (report.a_hermiticity_residual, report.b_trace) == b_measurements_reference(b.matrix)
        assert report.verdict.is_cp == cp


class TestOperatorSumKernel:
    @settings(max_examples=60, deadline=None)
    @given(operator_sums(signed=False))
    def test_kraus_to_a_matches_kron_loop(self, case):
        weights, ops = case
        got = kraus_to_a(list(ops)).matrix
        assert np.abs(got - kron_loop_reference(weights, ops)).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(operator_sums(signed=True))
    def test_canonical_to_a_matches_kron_loop(self, case):
        weights, ops = case
        n = ops.shape[1]
        c = CanonicalDecomposition(basis=standard_basis(n), eigenvalues=weights, canonical_ops=ops)
        got = canonical_to_a(c).matrix
        assert np.abs(got - kron_loop_reference(weights, ops)).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([2, 3, 4]), st.integers(0, 2**32 - 1))
    def test_expand_coefficients_matches_einsum(self, n, seed):
        rng = np.random.default_rng(seed)
        basis = random_basis(rng, n)
        coeffs = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
        # The expansion needs no hermiticity, so the check is off to
        # give it a general middle matrix.
        cm = CoefficientMatrix(basis=basis, matrix=coeffs, tol=np.inf)
        got = expand_coefficients(cm)
        assert np.abs(got - einsum_reference(coeffs, basis.elements)).max() < 1e-12

    @pytest.mark.parametrize("n", [3, 4])
    def test_expand_coefficients_reproduces_a(self, n):
        a = random_ncp_a(n, seed=n)
        for basis in (standard_basis(n), random_basis(np.random.default_rng(n), n)):
            assert np.abs(expand_coefficients(coefficient_matrix(a, basis)) - a.matrix).max() < 1e-12


# The coefficient matrix as the trace formula, an einsum independent of the
# kernel; and the kernel's own products, conj(V) R(A) V^T and E V with the
# row-vectorized basis V, with the phase rule as the per-operator loop.


def coefficient_reference(a: AForm, t: np.ndarray) -> np.ndarray:
    n = a.dim
    partial = np.einsum("abcd,mac->mbd", a.matrix.reshape(n, n, n, n), t.conj())
    return np.einsum("mbd,nbd->mn", partial, t)


def product_reference(a: AForm, t: np.ndarray) -> np.ndarray:
    n = a.dim
    v = t.reshape(n * n, n * n)
    return v.conj() @ _reshuffle(a.matrix, n) @ v.T


def canonical_reference(a: AForm, t: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    n = a.dim
    eig = hermitian_eigendecompose(product_reference(a, t), tol * n * n)
    ops = (eig.eigenvectors @ t.reshape(n * n, n * n)).reshape(n * n, n, n) + 0.0
    return eig.eigenvalues, phase_rule_reference(ops)


def phase_rule_reference(ops: np.ndarray) -> np.ndarray:
    """The per-operator loop that fixed each operator's phase before the rule
    became one array step: the largest-magnitude entry made real and positive."""
    pivots = np.abs(ops).reshape(len(ops), -1).argmax(axis=1)
    for op, at in zip(ops, pivots):
        pivot = op.flat[at]
        if abs(pivot) > 0.0:
            op *= pivot.conjugate() / abs(pivot)
    return ops


def bit_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal values and equal sign bits, so -0.0 and +0.0 differ."""
    x, y = np.ascontiguousarray(x, dtype=complex), np.ascontiguousarray(y, dtype=complex)
    return x.shape == y.shape and np.array_equal(x.view(float), y.view(float)) and np.array_equal(
        np.signbit(x.view(float)), np.signbit(y.view(float))
    )


class TestUnitBasisShortcut:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.booleans(), st.integers(0, 2**31 - 1))
    def test_equals_the_contraction_bit_for_bit(self, n, cp, seed):
        rng = np.random.default_rng(seed)
        if cp:
            a = kraus_to_a(random_cp_channel(n, int(rng.integers(1, n * n + 1)), seed))
        else:
            a = random_ncp_a(n, seed)
        basis = standard_basis(n)
        cm = coefficient_matrix(a, basis)
        assert bit_equal(cm.matrix, coefficient_reference(a, basis.elements))
        assert bit_equal(cm.matrix, _reshuffle(a.matrix, n))
        decomp = canonical_decompose(a, basis)
        w, ops = canonical_reference(a, basis.elements)
        assert np.array_equal(decomp.eigenvalues, w)
        assert bit_equal(decomp.canonical_ops, ops)

    @pytest.mark.parametrize("n", [2, 3])
    def test_signed_zeros_of_the_identity_map(self, n):
        # Mostly zero entries, some of them -0.0 after the phase rule.
        a = AForm(np.eye(n * n, dtype=complex))
        w, ops = canonical_reference(a, standard_basis(n).elements)
        decomp = canonical_decompose(a, standard_basis(n))
        assert bit_equal(decomp.canonical_ops, ops)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.booleans(), st.integers(0, 2**31 - 1))
    def test_elides_the_product_with_the_identity(self, n, cp, seed):
        # The shortcut is the kernel's own product with V = I, skipped: the
        # same matrix units with the flag cleared take the product route.
        rng = np.random.default_rng(seed)
        if cp:
            a = kraus_to_a(random_cp_channel(n, int(rng.integers(1, n * n + 1)), seed))
        else:
            a = random_ncp_a(n, seed)
        units = standard_basis(n)
        general = OperatorBasis(dim=n, label=BasisLabel.MATRIX_UNITS, elements=units.elements)
        object.__setattr__(general, "_units", False)
        assert bit_equal(coefficient_matrix(a, units).matrix, coefficient_matrix(a, general).matrix)
        fast, slow = canonical_decompose(a, units), canonical_decompose(a, general)
        assert np.array_equal(fast.eigenvalues, slow.eigenvalues)
        assert bit_equal(fast.canonical_ops, slow.canonical_ops)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_keyed_on_the_elements_not_the_label(self, n):
        rng = np.random.default_rng(n)
        a = random_ncp_a(n, seed=n)
        basis = random_basis(rng, n)  # labelled units, but not the matrix units
        copy = OperatorBasis(dim=n, label=BasisLabel.MATRIX_UNITS, elements=standard_basis(n).elements)
        assert basis.label is copy.label is BasisLabel.MATRIX_UNITS
        assert not basis._units and copy._units and standard_basis(n, "units")._units
        cm = coefficient_matrix(a, basis)
        assert bit_equal(cm.matrix, product_reference(a, basis.elements))
        assert np.abs(cm.matrix - coefficient_reference(a, basis.elements)).max() < 1e-12
        assert np.abs(cm.matrix - _reshuffle(a.matrix, n)).max() > 1e-3
        decomp = canonical_decompose(a, basis)
        w, ops = canonical_reference(a, basis.elements)
        assert np.array_equal(decomp.eigenvalues, w)
        assert bit_equal(decomp.canonical_ops, ops)
        assert bit_equal(coefficient_matrix(a, copy).matrix, _reshuffle(a.matrix, n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_an_a_form_realigns_once(self, n, monkeypatch):
        a = random_ncp_a(n, seed=n)
        want = _reshuffle(a.matrix, n)
        calls = []
        monkeypatch.setattr(forms, "_reshuffle", lambda m, k: calls.append(k) or want)
        b = realign_a_to_b(a)
        assert b.matrix is coefficient_matrix(a, standard_basis(n)).matrix
        assert bit_equal(b.matrix, want) and not b.matrix.flags.writeable
        coefficient_matrix(a, random_basis(np.random.default_rng(n), n))
        analysis.choi_consistency(a)
        assert calls == [n]

    def test_other_labels_build_no_unit_basis(self, monkeypatch):
        # A Pauli-labelled basis takes its route without building (and
        # caching) the matrix units of its size.
        def fail(*args):
            raise AssertionError(f"_standard_basis{args} built for a non-units basis")

        monkeypatch.setattr(forms, "_standard_basis", fail)
        cm = coefficient_matrix(kraus_to_a(random_cp_channel(2, 2, seed=3)), PAULI)
        assert cm.basis is PAULI


class TestPhaseRule:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 5), st.booleans(), st.integers(0, 2**31 - 1), st.data())
    def test_equals_the_per_operator_loop_bit_for_bit(self, n, cp, seed, data):
        # The array step and the loop agree to the bit, signed zeros included,
        # in both bases, for CP maps of every Kraus rank and for NCP maps.
        if cp:
            a = kraus_to_a(random_cp_channel(n, data.draw(st.integers(1, n * n)), seed))
        else:
            a = random_ncp_a(n, seed)
        for basis in (standard_basis(n), PAULI) if n == 2 else (standard_basis(n),):
            w, ops = canonical_reference(a, basis.elements)
            decomp = canonical_decompose(a, basis)
            assert np.array_equal(decomp.eigenvalues, w)
            assert bit_equal(decomp.canonical_ops, ops)

    @pytest.mark.parametrize(
        "spec",
        [
            ChannelSpec.unitary((0.6, 0.0, 0.8), 0.9),
            ChannelSpec.pin(BlochVector(0.3, -0.2, 0.5)),
            ChannelSpec.transpose(),
            ChannelSpec.equatorial_projection(),
            ChannelSpec.bit_flip(0.75),
            ChannelSpec.phase_flip(0.25),
        ],
        ids=lambda spec: spec.kind.value,
    )
    def test_named_channels(self, spec):
        a = channel_a(spec)
        for basis in (standard_basis(2), PAULI):
            assert bit_equal(canonical_decompose(a, basis).canonical_ops, canonical_reference(a, basis.elements)[1])


# The Kraus set as a tuple of separately checked operators, and the
# application routes, as they were before the Kraus set became one stacked
# array; the new code must give the same operators, errors and bits.


def kraus_reference(operators, tol: float = 1e-9) -> tuple[np.ndarray, ...]:
    ops = tuple(as_complex_matrix(op) for op in operators)
    if not ops:
        raise IncompleteKrausError("a Kraus set needs at least one operator")
    n = ops[0].shape[0]
    for op in ops:
        if op.shape != (n, n):
            raise DimensionMismatchError(f"Kraus operators must all be {n}x{n}, got {op.shape}")
    v = np.concatenate(ops)
    residual = max_abs(v.conj().T @ v - np.eye(n))
    if residual > tol:
        raise IncompleteKrausError(f"completeness residual {residual:.3g} exceeds tol {tol:g}")
    return ops


def extract_kraus_reference(c: CanonicalDecomposition, tol: float = 1e-9) -> list[np.ndarray]:
    return [np.sqrt(lam) * op for lam, op in zip(c.eigenvalues, c.canonical_ops) if lam > tol]


def apply_a_reference(a: AForm, rho: DensityMatrix) -> np.ndarray:
    return (a.matrix @ rho.matrix.reshape(-1)).reshape(rho.matrix.shape).copy()


def apply_canonical_reference(c: CanonicalDecomposition, rho: DensityMatrix) -> np.ndarray:
    return np.einsum("k,kij,jl,kml->im", c.eigenvalues, c.canonical_ops, rho.matrix, c.canonical_ops.conj())


def apply_kraus_reference(ops, rho: DensityMatrix) -> np.ndarray:
    return sum(op @ rho.matrix @ op.conj().T for op in ops)


def operator_action_reference(left, m: np.ndarray, right) -> np.ndarray:
    """sum_k L_k m R_k^dag as [L_1 m ... L_k m] @ [R_1^dag; ...; R_k^dag], one 2-D product."""
    return np.hstack([x @ m for x in left]) @ np.vstack([r.conj().T for r in right])


def outcome(build, operators):
    """("ok", result) or (error class, message)."""
    try:
        return "ok", build(operators)
    except Exception as exc:
        return type(exc), str(exc)


FAULTS = ["none", "incomplete", "nan", "inf", "-inf", "huge", "ragged", "flat", "cube", "all_3d",
          "bigger", "smaller", "nonsquare_one", "nonsquare_all"]


@st.composite
def operator_sequences(draw):
    """Kraus-like sequences, complete or carrying one fault, as lists, arrays or one stack."""
    n = draw(st.sampled_from([0, 2, 3, 4]))
    k = draw(st.integers(0, n * n + 1 if n else 3))
    fault = draw(st.sampled_from(FAULTS))
    form = draw(st.sampled_from(["lists", "arrays", "stack"]))
    ops = []
    if k and not n:  # 0 x 0 operators: a complete set with nothing to fault
        ops = [np.zeros((0, 0), dtype=complex)] * k
    elif k:
        # A complete set of min(k, n^2) operators; a zero operator keeps it complete.
        ops = list(random_cp_channel(n, min(k, n * n), draw(st.integers(0, 2**31 - 1))).operators)
        ops += [np.zeros((n, n), dtype=complex)] * (k - len(ops))
        j = draw(st.integers(0, k - 1))
        if fault == "incomplete":
            scale = np.sqrt(1 + draw(st.floats(1e-6, 1.0)))
            ops = [op * scale for op in ops]
        elif fault in ("nan", "inf", "-inf"):
            ops[j] = ops[j].copy()
            ops[j][draw(st.integers(0, n - 1)), 0] = complex(float(fault), 0.0)
        elif fault == "flat":
            ops[j] = ops[j].reshape(-1)
        elif fault == "cube":
            ops[j] = ops[j][None]
        elif fault == "all_3d":  # every operator n x n x 2, so a stack is (k, n, n, 2)
            ops = [np.stack([op, op], -1) for op in ops]
        elif fault == "bigger":
            ops[j] = np.eye(n + 1, dtype=complex)
        elif fault == "smaller":
            ops[j] = ops[j][:-1, :-1]
        elif fault == "nonsquare_one":
            ops[j] = ops[j][:, :-1]
        elif fault == "nonsquare_all":
            ops = [op[:-1, :] for op in ops]
    if form == "lists":
        ops = [op.tolist() for op in ops]
    elif form == "stack":
        try:
            ops = np.array(ops, dtype=complex)
        except ValueError:  # mixed shapes stay a list of arrays
            pass
    if fault in ("ragged", "huge") and k and n:
        ops = list(ops)
        rows = np.asarray(ops[j]).tolist()
        if fault == "ragged":
            ops[j] = rows[:-1] + [rows[-1][:-1]]
        else:  # an integer beyond double range
            ops[j] = [[10**400] + rows[0][1:]] + rows[1:]
    return ops


class TestStackedKrausSet:
    @settings(max_examples=400, deadline=None)
    @given(operator_sequences())
    def test_accepts_and_rejects_like_the_tuple_constructor(self, ops):
        got = outcome(lambda x: KrausSet(x).operators, ops)
        want = outcome(kraus_reference, ops)
        assert got[0] == want[0]
        if got[0] != "ok":
            assert got[1] == want[1]
            return
        stack = got[1]
        assert isinstance(stack, np.ndarray) and not stack.flags.writeable
        assert bit_equal(stack, np.stack(want[1]))

    @pytest.mark.parametrize(
        "ops",
        [
            [[[1, 0], [0]], [[10**400, 0], [0, 1]]],
            [[[10**400, 0], [0, 1]], [[1, 0], [0]]],
            [np.eye(2), [[10**400, 0], [0, 1]], np.eye(3)],
            [[[float("nan"), 0], [0, 1]], [[10**400, 0], [0, 1]]],
        ],
        ids=["ragged_then_huge", "huge_then_ragged", "huge_between_sizes", "nan_then_huge"],
    )
    def test_first_fault_in_operator_order_wins(self, ops):
        got, want = outcome(KrausSet, ops), outcome(kraus_reference, ops)
        assert got[0] is want[0] and got[1] == want[1]

    def test_sequence_behaviour_is_kept(self):
        ops = random_cp_channel(3, 4, seed=11).operators
        kraus = KrausSet(list(ops))
        assert kraus.operators.shape == (4, 3, 3) and kraus.dim == 3 and len(kraus) == 4
        listed = list(kraus.operators)  # iteration gives the operators one by one
        assert len(listed) == 4 and all(np.array_equal(x, y) for x, y in zip(listed, ops))
        assert np.array_equal(kraus.operators[-1], ops[3])
        # A generator is read once, through the per-operator checks.
        assert np.array_equal(KrausSet(op for op in ops).operators, ops)
        assert np.array_equal(kraus_to_a(op for op in ops).matrix, kraus_to_a(kraus).matrix)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**31 - 1), st.booleans())
    def test_extract_kraus_equals_the_list_comprehension(self, n, seed, units):
        rng = np.random.default_rng(seed)
        a = kraus_to_a(random_cp_channel(n, int(rng.integers(1, n * n + 1)), seed))
        basis = PAULI if n == 2 and not units else standard_basis(n)
        decomp = canonical_decompose(a, basis)
        assert bit_equal(extract_kraus(decomp).operators, np.stack(extract_kraus_reference(decomp)))

    @pytest.mark.parametrize("basis", [PAULI, UNITS2], ids=["pauli", "units"])
    @pytest.mark.parametrize("p", [0.0, 0.25, 1.0])
    def test_extract_kraus_signed_zeros_of_named_channels(self, basis, p):
        for spec in (ChannelSpec.bit_flip(p), ChannelSpec.phase_flip(p), ChannelSpec.pin(BlochVector(0, 0, 1))):
            decomp = canonical_decompose(channel_a(spec), basis)
            assert bit_equal(extract_kraus(decomp).operators, np.stack(extract_kraus_reference(decomp)))

    @pytest.mark.parametrize("n", range(2, 17))
    def test_trace_residual_equals_the_einsum(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-12, 1.0, 1e3):
            m = scale * (rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n)))
            a = AForm(m, tol=1e9)
            assert a.trace_residual == a_residuals_reference(a.matrix, n)[1]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**31 - 1), st.booleans())
    def test_application_routes_match_the_old_code(self, n, seed, cp):
        rng = np.random.default_rng(seed)
        if cp:
            a = kraus_to_a(random_cp_channel(n, int(rng.integers(1, n * n + 1)), seed))
        else:
            a = random_ncp_a(n, seed)
        decomp = canonical_decompose(a, default_basis(n))
        rho = DensityMatrix(random_density(rng, n))
        assert bit_equal(apply_a(a, rho).matrix, apply_a_reference(a, rho))
        # Each operator-sum route is within tol*n^2 of the old einsum and sum, and bit for bit
        # the row of the L_k rho times the column of the O_k^dag: L_k = lam_k C_k and O_k = C_k
        # for the canonical route, L_k = O_k = E_k for Kraus.
        via_canonical = apply_canonical(decomp, rho).matrix
        assert max_abs(via_canonical - apply_canonical_reference(decomp, rho)) <= 1e-9 * n * n
        ops = decomp.canonical_ops
        weighted = [lam * op for lam, op in zip(decomp.eigenvalues, ops)]
        assert bit_equal(via_canonical, operator_action_reference(weighted, rho.matrix, ops))
        if cp:
            kraus = extract_kraus(decomp)
            via_kraus = apply_kraus(kraus, rho).matrix
            assert max_abs(via_kraus - apply_kraus_reference(kraus.operators, rho)) <= 1e-9 * n * n
            assert bit_equal(via_kraus, operator_action_reference(kraus.operators, rho.matrix, kraus.operators))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_per_n_constants_are_shared_and_read_only(self, n):
        eye, flat_eye = forms._identity(n), forms._flat_identity(n)
        assert eye is forms._identity(n) and flat_eye is forms._flat_identity(n)
        assert np.array_equal(eye, np.eye(n)) and np.array_equal(flat_eye, np.eye(n).reshape(-1))
        for const in (eye, flat_eye):
            with pytest.raises(ValueError):
                const[(0,) * const.ndim] = 2.0


# The B-form and the unit-basis coefficient matrix as they were built before
# they carried A's kept hermiticity residual: the reshuffled A copied and
# measured again by the public constructors.  Kept as the references.


def b_form_reference(a: AForm, tol: float = 1e-9) -> BForm:
    return BForm(_reshuffle(a.matrix, a.dim), tol=tol)


def unit_coefficient_reference(a: AForm, tol: float = 1e-9) -> CoefficientMatrix:
    n = a.dim
    return CoefficientMatrix(basis=standard_basis(n), matrix=_reshuffle(a.matrix, n), tol=tol * n * n)


def tol_just_below(residual: float, n: int = 1) -> float:
    """The largest tol whose ``tol * n * n`` is below ``residual`` (negative for 0)."""
    tol = residual / (n * n)
    while tol * n * n >= residual:
        tol = np.nextafter(tol, -1.0)
    return tol


def noisy_map(n: int, cp: bool, seed: int, noise: float) -> AForm:
    """A random CP or NCP map plus complex noise that breaks hermiticity preservation."""
    rng = np.random.default_rng(seed)
    if cp:
        a = kraus_to_a(random_cp_channel(n, int(rng.integers(1, n * n + 1)), seed))
    else:
        a = random_ncp_a(n, seed)
    g = rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n))
    return AForm(a.matrix + noise * g)


class TestCarriedMeasurements:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 6),
        st.booleans(),
        st.integers(0, 2**31 - 1),
        st.one_of(st.just(0.0), st.floats(1e-16, 1e-11)),
    )
    def test_equal_the_measuring_path(self, n, cp, seed, noise):
        a = noisy_map(n, cp, seed, noise)
        b, b_ref = realign_a_to_b(a), b_form_reference(a)
        assert bit_equal(b.matrix, b_ref.matrix)
        assert (b.dim, b.hermiticity_residual, b.trace) == (b_ref.dim, b_ref.hermiticity_residual, b_ref.trace)
        cm, cm_ref = coefficient_matrix(a, standard_basis(n)), unit_coefficient_reference(a)
        assert bit_equal(cm.matrix, cm_ref.matrix)
        assert cm.hermiticity_residual == cm_ref.hermiticity_residual
        assert cm.basis is cm_ref.basis

        # Just below the residual both paths raise alike; at it, the
        # hermiticity check passes on both (the trace check may still fail).
        herm = b_ref.hermiticity_residual
        tol = tol_just_below(herm)
        got, want = outcome(lambda t: realign_a_to_b(a, t), tol), outcome(lambda t: b_form_reference(a, t), tol)
        assert got[0] is want[0] is NotHermiticityPreservingError and got[1] == want[1]
        got, want = outcome(lambda t: realign_a_to_b(a, t), herm), outcome(lambda t: b_form_reference(a, t), herm)
        assert got[0] in ("ok", NotTracePreservingError) and got[0] == want[0]
        assert got[0] == "ok" or got[1] == want[1]
        tol = tol_just_below(herm, n)  # the coefficient matrix is checked at tol * n * n
        got = outcome(lambda t: coefficient_matrix(a, standard_basis(n), t), tol)
        want = outcome(lambda t: unit_coefficient_reference(a, t), tol)
        assert got[0] is want[0] is NotHermiticityPreservingError and got[1] == want[1]

    @pytest.mark.parametrize("n", [2, 3])
    def test_b_trace_check_is_kept(self, n):
        a = AForm(kraus_to_a(random_cp_channel(n, 2, seed=n)).matrix * (1 + 1e-6), tol=1e-3)
        got, want = outcome(realign_a_to_b, a), outcome(b_form_reference, a)
        assert got[0] is want[0] is NotTracePreservingError and got[1] == want[1]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_raw_a_spec_checks_at_the_callers_tol(self, n):
        a = noisy_map(n, False, n, 1e-11)
        a = AForm(a.matrix * (1 + 1e-10))  # trace residual above the hermiticity residual
        spec = ChannelSpec.raw_a(a.matrix)
        herm, tp = a.hermiticity_residual, a.trace_residual
        assert 0 < herm < tp
        for tol in (tol_just_below(herm), herm, tol_just_below(tp), tp, 1e-9):
            got = outcome(lambda t: channel_a(spec, t), tol)
            want = outcome(lambda t: AForm(spec.matrix, t), tol)  # how channel_a validated before
            assert got[0] == want[0]
            if got[0] == "ok":
                assert bit_equal(got[1].matrix, want[1].matrix)
                assert (got[1].hermiticity_residual, got[1].trace_residual) == (herm, tp)
            else:
                assert got[1] == want[1]

    @pytest.mark.parametrize("n", [2, 3])
    def test_raw_kraus_spec_checks_at_the_callers_tol(self, n):
        ops = random_cp_channel(n, n, seed=n).operators * (1 + 1e-11)
        spec = ChannelSpec.raw_kraus(ops)
        residual = kraus_reference_residual(spec.operators)
        assert residual > 0
        for tol in (tol_just_below(residual), residual, 1e-9):
            got = outcome(lambda t: channel_a(spec, t), tol)
            want = outcome(lambda t: kraus_to_a(spec.operators, t), tol)  # how channel_a validated before
            assert got[0] == want[0]
            if got[0] == "ok":
                assert bit_equal(got[1].matrix, want[1].matrix)
            else:
                assert got[0] is IncompleteKrausError and got[1] == want[1]

    def test_kraus_set_checked_at_a_tighter_tol_is_incomplete(self):
        ops = random_cp_channel(2, 2, seed=4).operators * (1 + 1e-6)
        kraus = KrausSet(ops, tol=1e-3)
        got = outcome(lambda k: kraus_to_a(k, 1e-9), kraus)
        want = outcome(lambda o: KrausSet(o, tol=1e-9), ops)
        assert got[0] is want[0] is IncompleteKrausError and got[1] == want[1]
        assert kraus.completeness_residual == kraus_reference_residual(ops)

    @pytest.mark.parametrize("n", [2, 3])
    def test_results_are_read_only(self, n):
        a = kraus_to_a(random_cp_channel(n, 2, seed=n))
        decomp = canonical_decompose(a, default_basis(n))
        eig = hermitian_eigendecompose(coefficient_matrix(a, default_basis(n)))
        spec = ChannelSpec.raw_kraus(random_cp_channel(n, 2, seed=n).operators)
        arrays = [
            realign_a_to_b(a).matrix,
            coefficient_matrix(a, standard_basis(n)).matrix,
            eig.eigenvalues,
            eig.eigenvectors,
            decomp.eigenvalues,
            decomp.canonical_ops,
            extract_kraus(decomp).operators,
            channel_a(ChannelSpec.raw_a(a.matrix)).matrix,
            channel_a(spec).matrix,
        ]
        for arr in arrays:
            assert not arr.flags.writeable

    def test_raw_specs_built_without_their_constructors_are_validated(self):
        # Every kind built by its classmethod, by the dataclass constructor and
        # by dataclasses.replace keeps one measured form: the same A-form and
        # dim, and the same outcome at each residual and just below it.
        examples = kind_examples()
        assert [spec.kind for spec in examples] == list(ChannelKind)
        for spec in examples:
            bare = ChannelSpec(**{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec) if f.init})
            specs = (spec, bare, dataclasses.replace(spec))
            a = channel_a(spec)
            for other in specs:
                assert other.dim == spec.dim == a.dim
                assert bit_equal(channel_a(other).matrix, a.matrix)
            if spec.kind is ChannelKind.RAW_KRAUS:
                residuals = [kraus_reference_residual(spec.operators)]
            else:
                residuals = [a.hermiticity_residual, a.trace_residual]
            for tol in [t for r in residuals for t in (tol_just_below(r), r)]:
                got = [outcome(lambda x: channel_a(x, tol), x) for x in specs]
                for result in got[1:]:
                    assert result[0] == got[0][0], (spec.kind, tol)
                    if result[0] == "ok":
                        assert bit_equal(result[1].matrix, got[0][1].matrix)
                    else:
                        assert result[1] == got[0][1]
                if tol == tol_just_below(max(residuals)):
                    assert issubclass(got[0][0], ChanformsError)
        with pytest.raises(NotTracePreservingError):
            channel_a(ChannelSpec(kind=ChannelKind.RAW_A, matrix=0.5 * np.eye(4)))

    @pytest.mark.parametrize(
        "field, payload",
        [
            ("matrix", np.eye(3)),
            ("matrix", np.where(np.eye(4) == 1, np.nan, 0.0)),
            ("operators", [np.eye(2), np.zeros((3, 3))]),
        ],
        ids=["matrix_3x3", "nan_entry", "mixed_sizes"],
    )
    def test_bare_raw_specs_reject_a_malformed_payload_at_construction(self, field, payload):
        kind = ChannelKind.RAW_A if field == "matrix" else ChannelKind.RAW_KRAUS
        make = ChannelSpec.raw_a if field == "matrix" else ChannelSpec.raw_kraus
        got = outcome(lambda p: ChannelSpec(kind=kind, **{field: p}), payload)
        want = outcome(make, payload)
        assert got[0] is want[0] and issubclass(got[0], ChanformsError)
        assert got[1] == want[1]

    def test_specs_do_not_follow_the_callers_input(self):
        a = kraus_to_a(random_cp_channel(3, 2, seed=8))
        matrix, ops = a.matrix.copy(), list(random_cp_channel(3, 2, seed=9).operators.copy())
        specs = [ChannelSpec.raw_a(matrix), ChannelSpec.raw_kraus(ops)]
        before = [channel_a(spec).matrix.copy() for spec in specs]
        matrix[0, 0] = 7.0
        ops[0][0, 0] = 7.0
        for spec, want in zip(specs, before):
            assert bit_equal(channel_a(spec).matrix, want)


def kind_examples() -> list[ChannelSpec]:
    """One spec of each kind by its classmethod; the raw ones carry small residuals."""
    axis = np.array([0.3, -0.5, 0.7])
    raw = AForm(noisy_map(3, True, 3, 1e-11).matrix * (1 + 1e-10))
    return [
        ChannelSpec.unitary(axis / np.linalg.norm(axis), 1.234),
        ChannelSpec.pin(BlochVector(0.3, -0.2, 0.5)),
        ChannelSpec.transpose(),
        ChannelSpec.equatorial_projection(),
        ChannelSpec.bit_flip(0.3),
        ChannelSpec.phase_flip(0.7),
        ChannelSpec.raw_a(raw.matrix),
        ChannelSpec.raw_kraus(random_cp_channel(3, 2, seed=6).operators * (1 + 1e-11)),
    ]


def kraus_reference_residual(ops) -> float:
    v = np.concatenate(list(ops))
    return max_abs(v.conj().T @ v - np.eye(v.shape[1]))


def kraus_to_a_reference(ops, tol: float = 1e-9) -> AForm:
    """``kraus_to_a`` as it was before a Kraus set kept its A-form: the identity-weighted
    operator sum, built, copied and measured anew on every call and checked at ``tol``."""
    kraus = ops._check(tol) if isinstance(ops, KrausSet) else KrausSet(ops, tol=tol)
    return AForm(forms._operator_sum(kraus.operators, np.eye(len(kraus))), tol=tol)


def named_kraus_sets() -> list[list[np.ndarray]]:
    """Sparse Kraus sets whose A-forms hold many signed zeros."""
    sets = []
    for p in (0.0, 0.3, 1.0):
        for j, k in ((0, 1), (0, 3), (1, 2)):
            ops = [np.sqrt(p) * PAULIS[j], np.sqrt(1 - p) * PAULIS[k]]
            sets += [ops, [-op for op in ops], [1j * op for op in ops]]
    for g in (0.0, 0.4):
        e0 = np.array([[1, -0.0], [complex(-0.0, -0.0), np.sqrt(1 - g)]], dtype=complex)
        e1 = np.array([[-0.0, np.sqrt(g)], [0, -0.0]], dtype=complex)
        sets.append([e0, e1])
    return sets


class TestKeptKrausAForm:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_equals_the_identity_weighted_sum_bit_for_bit(self, n, seed):
        kraus = random_cp_channel(n, int(np.random.default_rng(seed).integers(1, n * n + 1)), seed)
        want = kraus_to_a_reference(kraus)
        for got in (kraus_to_a(kraus), kraus_to_a(list(kraus.operators))):
            assert bit_equal(got.matrix, want.matrix)
            assert (got.hermiticity_residual, got.trace_residual) == (want.hermiticity_residual, want.trace_residual)

    @pytest.mark.parametrize("ops", named_kraus_sets())
    def test_signed_zeros_of_sparse_sets(self, ops):
        assert bit_equal(kraus_to_a(ops).matrix, kraus_to_a_reference(ops).matrix)

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_raw_kraus_spec_builds_and_realigns_once(self, n, monkeypatch):
        spec = ChannelSpec.raw_kraus(random_cp_channel(n, n, seed=n).operators)
        calls = []
        reshuffle = forms._reshuffle
        monkeypatch.setattr(forms, "_reshuffle", lambda m, k: calls.append(k) or reshuffle(m, k))
        a = channel_a(spec)
        for tol in (1e-9, 1e-3):
            assert channel_a(spec, tol) is a
            assert analyze(spec, tol=tol).a_trace_residual == a.trace_residual
            assert realign_a_to_b(a, tol).matrix is coefficient_matrix(a, standard_basis(n), tol).matrix
            analysis.choi_consistency(a, tol)
        assert calls == [n, n]  # the operator sum's realignment, then A's

    def test_each_call_checks_its_own_tol(self):
        spec = ChannelSpec.raw_kraus(random_cp_channel(2, 2, seed=4).operators * (1 + 1e-11))
        residual = kraus_reference_residual(spec.operators)
        a = channel_a(spec, 1e-9)
        assert residual > 1e-20
        for tol in (1e-20, tol_just_below(residual), residual, 1e-9, 1e-20):
            got = outcome(lambda t: channel_a(spec, t), tol)
            want = outcome(lambda t: kraus_to_a_reference(spec.operators, t), tol)
            assert got[0] == want[0]
            if got[0] == "ok":
                assert got[1] is a
            else:
                assert got[1] == want[1]
        with pytest.raises(IncompleteKrausError, match=f"^completeness residual {residual:.3g} exceeds tol 1e-20$"):
            channel_a(spec, 1e-20)

    def test_an_operator_list_is_validated_on_every_call(self):
        good = list(random_cp_channel(2, 2, seed=5).operators)
        first = kraus_to_a(good)
        bad = [2 * good[0], good[1]]
        with pytest.raises(IncompleteKrausError):
            kraus_to_a(bad)
        again = kraus_to_a(good)
        assert again is not first and bit_equal(again.matrix, first.matrix)
        with pytest.raises(IncompleteKrausError):
            kraus_to_a(bad)

    def test_an_overflowing_set_raises_on_every_call(self):
        # Its completeness sum overflows too, so only an infinite tol lets it be built;
        # the operator sum overflows on each use, and a build that raised keeps nothing.
        ops = [[[1e155, 1e155], [0, 0]]]
        with np.errstate(all="ignore"):
            kraus = KrausSet(ops, tol=np.inf)
            spec = ChannelSpec(kind=ChannelKind.RAW_KRAUS, operators=ops)
            for _ in range(2):
                with pytest.raises(InvalidMatrixError, match="^matrix contains non-finite entries$"):
                    kraus_to_a(kraus, np.inf)
                with pytest.raises(InvalidMatrixError, match="^matrix contains non-finite entries$"):
                    channel_a(spec, np.inf)
        assert "_a_form" not in vars(kraus) and isinstance(vars(KrausSet)["_a_form"], forms._kept)


def canonical_to_a_reference(c: CanonicalDecomposition, tol: float = 1e-9) -> AForm:
    """``canonical_to_a`` as it was before it scaled V^T's columns: the operator sum
    weighted by the full matrix diag(lam)."""
    k, n, _ = c.canonical_ops.shape
    v = c.canonical_ops.reshape(k, n * n)
    return AForm(_reshuffle(v.T @ np.diag(c.eigenvalues) @ v.conj(), n), tol=tol)


def sample_decompositions(n: int, seed: int) -> list[CanonicalDecomposition]:
    rng = np.random.default_rng(seed)
    cp = kraus_to_a(random_cp_channel(n, int(rng.integers(1, n * n + 1)), seed))
    return [canonical_decompose(a, basis) for a in (cp, random_ncp_a(n, seed)) for basis in {default_basis(n), standard_basis(n)}]


class TestKeptValues:
    """The six values a form builds on first use, through ``forms._kept``."""

    KEPT = [(AForm, "_b_form"), (KrausSet, "_a_form"), (KrausSet, "_stacked"), (KrausSet, "_adjoint"),
            (CanonicalDecomposition, "_weighted"), (CanonicalDecomposition, "_adjoint")]

    @staticmethod
    def instances(cls):
        """Two fresh instances of ``cls`` with nothing kept yet."""
        kraus = [random_cp_channel(2, 2, seed=seed) for seed in (1, 2)]
        if cls is KrausSet:
            return [KrausSet(k.operators) for k in kraus]
        if cls is AForm:
            return [AForm(kraus_to_a(k).matrix) for k in kraus]
        return [canonical_decompose(kraus_to_a(k), PAULI) for k in kraus]

    @pytest.mark.parametrize("cls, name", KEPT, ids=[f"{c.__name__}.{n}" for c, n in KEPT])
    def test_built_once_per_instance_and_kept_in_its_dict(self, cls, name, monkeypatch):
        kept = vars(cls)[name]
        assert getattr(cls, name) is kept and isinstance(kept, forms._kept)  # the class attribute is the descriptor
        built = []
        build = kept._build
        monkeypatch.setattr(kept, "_build", lambda obj: built.append(obj) or build(obj))
        objs = self.instances(cls)
        assert not any(name in vars(obj) for obj in objs)
        for obj in objs + objs:
            value = getattr(obj, name)
            assert vars(obj)[name] is value is getattr(obj, name)
        assert built == objs

    def test_threads_racing_on_first_uses_read_equal_values(self):
        """Without a lock, threads that race on a first use may each build the value; every read gives the
        same bits, and the value kept is one of them."""
        forms_under_race = [obj for cls in (AForm, KrausSet, CanonicalDecomposition) for obj in self.instances(cls)]
        reads = {(id(obj), name): [] for obj in forms_under_race for cls, name in self.KEPT if isinstance(obj, cls)}
        start = threading.Barrier(8)

        def read_all():
            start.wait(timeout=30)
            for obj in forms_under_race:
                for cls, name in self.KEPT:
                    if isinstance(obj, cls):
                        reads[id(obj), name].append(getattr(obj, name))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read_all) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for obj in forms_under_race:
            for cls, name in self.KEPT:
                if isinstance(obj, cls):
                    values = reads[id(obj), name]
                    assert len(values) == 8 and any(v is vars(obj)[name] for v in values)
                    arrays = [v.matrix if isinstance(v, (AForm, BForm)) else v for v in values]
                    assert all(bit_equal(x, arrays[0]) for x in arrays)


class TestKeptOperands:
    """Each route's operands are built once per object, kept and read-only."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_stacks_are_built_once_and_read_only(self, n):
        """Each route's two operands are one read-only, C-contiguous 2-D array, kept from the first
        application on: the left one holds the rows of its (k, n, n) stack in (i, k) order, row i k + j
        being row i of operator j, and the right one is the column of the adjoints."""
        decomp = sample_decompositions(n, seed=n)[0]
        kraus = extract_kraus(decomp)
        ops = decomp.canonical_ops
        names = [(decomp, "_weighted"), (decomp, "_adjoint"), (kraus, "_stacked"), (kraus, "_adjoint")]
        assert not any(name in vars(form) for form, name in names)
        rho = DensityMatrix(np.eye(n) / n)
        apply_canonical(decomp, rho)
        apply_kraus(kraus, rho)
        kept = [vars(form)[name] for form, name in names]
        apply_canonical(decomp, rho)
        apply_kraus(kraus, rho)
        assert all(x is vars(form)[name] for x, (form, name) in zip(kept, names))

        def rows_in_i_k_order(stack):
            return stack.transpose(1, 0, 2).reshape(n * len(stack), n)

        def column_of_adjoints(stack):
            return np.stack([op.conj().T for op in stack]).reshape(len(stack) * n, n)

        wants = [
            rows_in_i_k_order(decomp.eigenvalues[:, None, None] * ops),
            column_of_adjoints(ops),
            rows_in_i_k_order(kraus.operators),
            column_of_adjoints(kraus.operators),
        ]
        for got, want in zip(kept, wants):
            assert bit_equal(got, want)
            assert got.flags.c_contiguous  # so _operator_action takes it with no copy
            with pytest.raises(ValueError):
                got[0, 0] = 1.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_operator_action_is_one_row_times_one_column(self, n):
        rng = np.random.default_rng(n)
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for k in range(1, n * n + 1):
            left, right = (rng.standard_normal((k, n, n)) + 1j * rng.standard_normal((k, n, n)) for _ in "lr")
            got = _operator_action(m, left.transpose(1, 0, 2).reshape(n * k, n), forms._adjoints(right))
            assert bit_equal(got, operator_action_reference(left, m, right)), (n, k)

    @pytest.mark.parametrize("state_dim", [2, 4])
    def test_a_state_of_another_dimension_raises_in_every_route(self, state_dim):
        """All three routes check the state before their kernel, with one message, and build no operand."""
        decomp = sample_decompositions(3, seed=3)[0]
        kraus = extract_kraus(decomp)
        a = canonical_to_a(decomp)
        rho = DensityMatrix(np.eye(state_dim) / state_dim)
        for route, form in ((apply_a, a), (apply_canonical, decomp), (apply_kraus, kraus)):
            with pytest.raises(DimensionMismatchError, match=f"^dimension mismatch: 3 vs {state_dim}$"):
                route(form, rho)
        assert not {"_weighted", "_adjoint", "_stacked"} & (set(vars(decomp)) | set(vars(kraus)))

    @pytest.mark.parametrize("n", [2, 3])
    def test_an_infinite_output_diagonal_raises_in_every_route(self, n):
        """E = 1e154 (|0><0| + |0><1|) sends |+><+| to 2e308 |0><0|: the product overflows to an
        infinite diagonal entry in every route (numpy's warnings are silenced), and the output
        step raises, through the closed form at n = 2 and LAPACK's branch at n = 3
        (test_output_beyond_the_double_range_raises_a_typed_error has the finite outputs whose
        off-diagonal modulus is beyond the double range)."""
        op = np.zeros((n, n))
        op[0, :2] = 1
        kraus = KrausSet([1e154 * op], tol=np.inf)
        decomp = CanonicalDecomposition(default_basis(n), [1e308], [op])
        plus = np.zeros((n, n))
        plus[:2, :2] = 0.5
        rho = DensityMatrix(plus)
        message = "^map output beyond the double range; the input's entries are too large$"
        with np.errstate(all="ignore"):
            for route, form in ((apply_a, kraus_to_a(kraus, np.inf)), (apply_canonical, decomp), (apply_kraus, kraus)):
                with pytest.raises(InvalidMatrixError, match=message):
                    route(form, rho)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "where, entry",
        [
            ((0, 0), np.nan),
            ((0, 0), np.inf),
            ((0, 0), complex(np.inf, np.nan)),
            ((0, 0), complex(0.5, np.nan)),
            ((0, 0), complex(0.5, np.inf)),
            ((0, 1), np.nan),
            ((0, 1), np.inf),
        ],
        ids=[
            "nan_diagonal",
            "inf_diagonal",
            "inf_nan_diagonal",
            "nan_imag_diagonal",
            "inf_imag_diagonal",
            "nan_off_diagonal",
            "inf_off_diagonal",
        ],
    )
    def test_a_non_finite_output_raises_at_every_n(self, n, where, entry):
        """The output step all three routes share raises on a NaN or an infinite entry at n = 2 and
        at n >= 3 alike; at n = 3 LAPACK's branch once returned 0.0 for diag(nan, 1, 1), and at
        n = 2 the closed form, which reads only the diagonal's real parts, once returned 0.5 for a
        NaN or infinite imaginary part."""
        out = np.eye(n, dtype=complex) / n
        out[where] = entry
        with pytest.raises(InvalidMatrixError, match="^map output beyond the double range; "):
            forms._map_output(out, 1e-9)

    @pytest.mark.parametrize("label", ["pauli", "units"])
    def test_a_basis_keeps_its_basis_change(self, label):
        basis = standard_basis(2, label)
        v = basis.elements.reshape(4, 4)
        assert bit_equal(basis._v, v) and bit_equal(basis._v_conj, v.conj()) and bit_equal(basis._v_t, v.T)
        for kept in (basis._v, basis._v_conj, basis._v_t):
            with pytest.raises(ValueError):
                kept[0, 0] = 2.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_realign_returns_the_kept_b_form(self, n, monkeypatch):
        a = kraus_to_a(random_cp_channel(n, n, seed=n))
        trace = np.trace
        calls = []
        monkeypatch.setattr(forms.np, "trace", lambda m: calls.append(m.shape) or trace(m))
        b = realign_a_to_b(a, 1e-3)
        assert realign_a_to_b(a) is b and realign_a_to_b(a, 1e-12) is b
        assert b.matrix is coefficient_matrix(a, standard_basis(n)).matrix
        assert calls == [(n * n, n * n)]  # B's trace, taken once
        fresh = BForm(_reshuffle(a.matrix, n))
        assert (b.dim, b.hermiticity_residual, b.trace) == (fresh.dim, fresh.hermiticity_residual, fresh.trace)
        assert bit_equal(b.matrix, fresh.matrix)

    @pytest.mark.parametrize("fault", ["hermiticity", "trace"])
    def test_a_tight_tol_after_a_loose_one_raises_what_the_constructor_raises(self, fault):
        m = build_pin_a(BlochVector(0.3, -0.2, 0.5)).matrix.copy()
        if fault == "hermiticity":
            m[1, 0] += 1e-5  # A's and B's hermiticity residual
        else:
            m[0, 0] += 1e-5  # B's trace, and A's trace residual
        a = AForm(m, tol=1e-3)
        for tol in (1e-3, 1e-6, 1e-3, 1e-9):
            got = outcome(lambda t: realign_a_to_b(a, t), tol)
            want = outcome(lambda t: BForm(_reshuffle(m, 2), tol=t), tol)
            assert got[0] == want[0]
            if got[0] != "ok":
                assert got[1] == want[1]
        error = NotHermiticityPreservingError if fault == "hermiticity" else NotTracePreservingError
        message = "B-form hermiticity residual 1e-05 exceeds tol 1e-06" if fault == "hermiticity" else r"B-form trace 2\.00001\+0j differs from n=2"
        with pytest.raises(error, match=f"^{message}$"):
            realign_a_to_b(a, 1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_canonical_to_a_is_within_ulps_of_the_diag_rule(self, n, seed):
        for decomp in sample_decompositions(n, seed):
            got, want = canonical_to_a(decomp, 1.0).matrix, canonical_to_a_reference(decomp, 1.0).matrix
            assert max_abs(got - want) <= 4 * np.finfo(float).eps * max_abs(want)


EYE2 = np.eye(2, dtype=complex)
HALF = abs(1.5e308 * (1 + 1j) / 2)  # the canonical weights of test_output_beyond_the_double_range
W = (1 - 1j) / np.sqrt(2)


class TestLibraryBuiltForms:
    """Forms the library builds from its own products skip the public constructors' copy
    and finite scan; a product beyond the double range still raises what they raise on it.
    numpy warns of the overflow in the product itself, so its warnings are silenced here."""

    @pytest.mark.parametrize(
        "weights, ops, error",
        [
            ([1.7e308, 1.7e308], [EYE2, EYE2], InvalidMatrixError),
            ([1.0, HALF, -HALF], [EYE2, [[1, 0], [W, 0]], [[1, 0], [-W, 0]]], NotTracePreservingError),
        ],
        ids=["non_finite", "trace_residual"],
    )
    def test_canonical_to_a(self, weights, ops, error):
        c = CanonicalDecomposition(PAULI, weights, ops)
        v = c.canonical_ops.reshape(len(weights), 4)
        with np.errstate(all="ignore"):
            got = outcome(canonical_to_a, c)
            want = outcome(lambda v: AForm(_reshuffle((v.T * c.eigenvalues) @ v.conj(), 2)), v)
        assert want[0] is error and got == want

    @pytest.mark.parametrize(
        "weights, ops, error",
        [
            ([1e300], [[[1e200, 0], [0, 0]]], InvalidMatrixError),
            ([1.7e308], [EYE2], IncompleteKrausError),
        ],
        ids=["non_finite", "completeness_residual"],
    )
    def test_cut_kraus(self, weights, ops, error):
        c = CanonicalDecomposition(PAULI, weights, ops)
        with np.errstate(all="ignore"):
            kept = np.sqrt(c.eigenvalues)[:, None, None] * c.canonical_ops
            want = outcome(lambda ops: KrausSet(ops, tol=_scaled_tol(1e-9, 2, kraus=True)), kept)
            for cut in (extract_kraus, lambda c: _cut_kraus(c, 1e-9)):
                assert outcome(cut, c) == want
        assert want[0] is error

    def test_pauli_coefficient_matrix(self):
        m = np.eye(4, dtype=complex)
        m[0, 3] = m[3, 0] = m[1, 2] = m[2, 1] = 1.7e308
        a = AForm(m, tol=np.inf)
        with np.errstate(all="ignore"):
            got = outcome(lambda a: coefficient_matrix(a, PAULI), a)
            product = PAULI._v_conj @ _reshuffle(m, 2) @ PAULI._v_t
            want = outcome(lambda p: CoefficientMatrix(PAULI, p, tol=_scaled_tol(1e-9, 2)), product)
        assert want[0] is InvalidMatrixError and got == want


def with_entries(base, entries) -> np.ndarray:
    m = np.array(base, dtype=complex)
    for index, value in entries.items():
        m[index] = value
    return m


I4 = np.eye(4)
A_HERMITICITY_ONLY = with_entries(I4, {(0, 1): 0.5, (3, 1): -0.5})  # column (0,1) still sums to 0
A_TRACE_ONLY = 1.5 * I4  # Hermiticity-preserving, each (r, r) column sums to 1.5
A_BOTH = with_entries(I4, {(0, 1): 0.5})
WITH_NAN = with_entries(I4, {(0, 0): np.nan})
B_HERMITICITY_ONLY = with_entries(I4 / 2, {(0, 1): 0.5})
B_BOTH = with_entries(I4, {(0, 1): 0.5})
HERM_A = "hermiticity-preservation residual 0.5 exceeds tol 1e-09"
HERM_CM = "coefficient matrix residual 0.5 exceeds tol 1e-09; source map does not preserve hermiticity"
NON_FINITE = "matrix contains non-finite entries"


def measured(cls, m):
    """``m`` kept and measured the library's way, without the public constructor's copy or scan."""
    m = np.array(m, dtype=complex)
    if cls is BForm:
        return _new(BForm)._measure(m, 2, hermiticity_residual(m))
    if cls is CoefficientMatrix:
        return _new(CoefficientMatrix, basis=UNITS2)._measure(m, hermiticity_residual(m))
    return _new(cls)._measure(m)


def constructed(cls, m, tol):
    if cls is CoefficientMatrix:
        return CoefficientMatrix(UNITS2, m, tol=tol)
    return cls(m, tol=tol)


class TestCheckTable:
    """Each form's checks raise the same class and message, in the same order, whether the public
    constructor runs them or the library's measure-then-check route does."""

    @pytest.mark.parametrize(
        "cls, m, error, message",
        [
            (AForm, A_HERMITICITY_ONLY, NotHermiticityPreservingError, HERM_A),
            (AForm, A_TRACE_ONLY, NotTracePreservingError, "trace-preservation residual 0.5 exceeds tol 1e-09"),
            (AForm, A_BOTH, NotHermiticityPreservingError, HERM_A),
            (AForm, WITH_NAN, InvalidMatrixError, NON_FINITE),
            (BForm, B_HERMITICITY_ONLY, NotHermiticityPreservingError, "B-form hermiticity residual 0.5 exceeds tol 1e-09"),
            (BForm, I4, NotTracePreservingError, "B-form trace 4+0j differs from n=2"),
            (BForm, B_BOTH, NotHermiticityPreservingError, "B-form hermiticity residual 0.5 exceeds tol 1e-09"),
            (BForm, WITH_NAN, InvalidMatrixError, NON_FINITE),
            (CoefficientMatrix, B_HERMITICITY_ONLY, NotHermiticityPreservingError, HERM_CM),
            (CoefficientMatrix, WITH_NAN, InvalidMatrixError, NON_FINITE),
            (KrausSet, [1.5 * EYE2], IncompleteKrausError, "completeness residual 1.25 exceeds tol 1e-09"),
            (KrausSet, [with_entries(EYE2, {(0, 0): np.nan})], InvalidMatrixError, NON_FINITE),
        ],
        ids=["a_hermiticity", "a_trace", "a_both", "a_nan", "b_hermiticity", "b_trace", "b_both", "b_nan",
             "cm_hermiticity", "cm_nan", "kraus_completeness", "kraus_nan"],
    )
    def test_constructor_and_measured_route_raise_alike(self, cls, m, error, message):
        want = outcome(lambda m: constructed(cls, m, 1e-9), m)
        assert want == (error, message)
        assert outcome(lambda m: measured(cls, m)._check(1e-9), m) == want
        assert outcome(lambda m: constructed(cls, m, np.inf), m)[0] == (error if error is InvalidMatrixError else "ok")

    @pytest.mark.parametrize(
        "cls, m, message",
        [
            (AForm, I4, "hermiticity-preservation residual 0 exceeds tol nan"),
            (BForm, I4 / 2, "B-form hermiticity residual 0 exceeds tol nan"),
            (CoefficientMatrix, I4 / 2, "coefficient matrix residual 0 exceeds tol nan; "
                                        "source map does not preserve hermiticity"),
        ],
        ids=["a", "b", "cm"],
    )
    def test_a_nan_tol_passes_no_form(self, cls, m, message):
        for build in (lambda m: constructed(cls, m, np.nan), lambda m: measured(cls, m)._check(np.nan)):
            assert outcome(build, m) == (NotHermiticityPreservingError, message)
        assert outcome(lambda ops: KrausSet(ops, tol=np.nan), [EYE2]) == (
            IncompleteKrausError, "completeness residual 0 exceeds tol nan")
