import dataclasses

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
    UnsupportedCombinationError,
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
from chanforms.forms import _is_unit_basis, _reshuffle, _standard_basis
from chanforms.linalg import as_complex_matrix, hermitian_eigendecompose, hermiticity_residual, max_abs
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
        assert np.allclose(density_to_bloch(out.to_density()).as_array(), [0, -1, 0])

    def test_projection_zeroes_third_component(self, rng):
        a = projection_a()
        for _ in range(10):
            p = rng.uniform(-1, 1, size=3)
            p *= rng.uniform(0, 1) / max(np.linalg.norm(p), 1e-12)
            out = apply_a(a, bloch_to_density(BlochVector(*p)))
            got = density_to_bloch(out.to_density()).as_array()
            assert np.abs(got - [p[0], p[1], 0.0]).max() < 1e-12

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
        assert np.allclose(
            density_to_bloch(out.to_density()).as_array(), [-0.4, 0, 0], atol=1e-12
        )

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
        assert np.abs(np.sort(verdict.eigenvalues)[::-1] - expected).max() < 1e-10


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
        assert (report.b_hermiticity_residual, report.b_trace) == b_measurements_reference(b.matrix)
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


# The coefficient matrix and canonical operators as canonical_decompose
# computed them in every basis before the matrix-unit basis skipped the
# contractions; in standard_basis(n) the results must equal these bit for bit.


def coefficient_reference(a: AForm, t: np.ndarray) -> np.ndarray:
    n = a.dim
    partial = np.einsum("abcd,mac->mbd", a.matrix.reshape(n, n, n, n), t.conj())
    return np.einsum("mbd,nbd->mn", partial, t)


def canonical_reference(a: AForm, t: np.ndarray, tol: float = 1e-9) -> tuple[np.ndarray, np.ndarray]:
    n = a.dim
    eig = hermitian_eigendecompose(coefficient_reference(a, t), tol * n * n)
    return eig.eigenvalues, phase_rule_reference(np.einsum("km,mij->kij", eig.eigenvectors, t))


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
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_keyed_on_the_object_not_the_label(self, n):
        rng = np.random.default_rng(n)
        a = random_ncp_a(n, seed=n)
        basis = random_basis(rng, n)  # labelled units, but not the matrix units
        copy = OperatorBasis(dim=n, label=BasisLabel.MATRIX_UNITS, elements=standard_basis(n).elements)
        assert basis.label is copy.label is BasisLabel.MATRIX_UNITS
        assert not _is_unit_basis(basis) and not _is_unit_basis(copy)
        assert _is_unit_basis(standard_basis(n, "units"))
        cm = coefficient_matrix(a, basis)
        assert bit_equal(cm.matrix, coefficient_reference(a, basis.elements))
        assert np.abs(cm.matrix - _reshuffle(a.matrix, n)).max() > 1e-3
        decomp = canonical_decompose(a, basis)
        w, ops = canonical_reference(a, basis.elements)
        assert np.array_equal(decomp.eigenvalues, w)
        assert bit_equal(decomp.canonical_ops, ops)

    def test_other_labels_build_no_unit_basis(self, monkeypatch):
        # A Pauli-labelled basis is rejected on its label, without building
        # (and caching) the matrix units of its size.
        def fail(*args):
            raise AssertionError(f"_standard_basis{args} built for a non-units basis")

        monkeypatch.setattr(forms, "_standard_basis", fail)
        assert not _is_unit_basis(PAULI)
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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_trace_residual_equals_the_einsum(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-12, 1.0, 1e3):
            m = scale * (rng.standard_normal((n * n, n * n)) + 1j * rng.standard_normal((n * n, n * n)))
            a = AForm(m, tol=1e9)
            assert a.trace_residual == a_residuals_reference(a.matrix, n)[1]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 2**31 - 1), st.booleans())
    def test_application_routes_match_the_old_code(self, n, seed, cp):
        rng = np.random.default_rng(seed)
        if cp:
            a = kraus_to_a(random_cp_channel(n, int(rng.integers(1, n * n + 1)), seed))
        else:
            a = random_ncp_a(n, seed)
        decomp = canonical_decompose(a, default_basis(n))
        rho = DensityMatrix(random_density(rng, n))
        assert bit_equal(apply_a(a, rho).matrix, apply_a_reference(a, rho))
        # The canonical route is the Kraus product weighted by lam_k: within tol*n^2 of the
        # old einsum, and bit for bit that product.
        via_canonical = apply_canonical(decomp, rho).matrix
        assert max_abs(via_canonical - apply_canonical_reference(decomp, rho)) <= 1e-9 * n * n
        ops = decomp.canonical_ops
        weighted = np.stack([(lam * op) @ rho.matrix @ op.conj().T for lam, op in zip(decomp.eigenvalues, ops)])
        assert bit_equal(via_canonical, weighted.sum(axis=0))
        if cp:
            kraus = extract_kraus(decomp)
            assert bit_equal(apply_kraus(kraus, rho).matrix, apply_kraus_reference(kraus.operators, rho))

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_per_n_constants_are_shared_and_read_only(self, n):
        eye, omega = forms._identity(n), analysis._omega4(n)
        assert eye is forms._identity(n) and omega is analysis._omega4(n)
        assert np.array_equal(eye, np.eye(n))
        state = np.eye(n).reshape(-1) / np.sqrt(n)  # sum_k |kk> / sqrt(n)
        assert np.array_equal(omega, np.outer(state, state).reshape(n, n, n, n))
        for const in (eye, omega):
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
        a = kraus_to_a(random_cp_channel(2, 2, seed=5))
        ops = random_cp_channel(2, 2, seed=6).operators
        pairs = [
            (ChannelSpec.raw_a(a.matrix), ChannelSpec(kind=ChannelKind.RAW_A, matrix=a.matrix)),
            (ChannelSpec.raw_kraus(ops), dataclasses.replace(ChannelSpec.raw_kraus(ops))),
        ]
        for kept, bare in pairs:
            assert bare.dim == kept.dim == 2
            assert bit_equal(channel_a(bare).matrix, channel_a(kept).matrix)
        with pytest.raises(NotTracePreservingError):
            channel_a(ChannelSpec(kind=ChannelKind.RAW_A, matrix=0.5 * np.eye(4)))

    def test_specs_do_not_follow_the_callers_input(self):
        a = kraus_to_a(random_cp_channel(3, 2, seed=8))
        matrix, ops = a.matrix.copy(), list(random_cp_channel(3, 2, seed=9).operators.copy())
        specs = [ChannelSpec.raw_a(matrix), ChannelSpec.raw_kraus(ops)]
        before = [channel_a(spec).matrix.copy() for spec in specs]
        matrix[0, 0] = 7.0
        ops[0][0, 0] = 7.0
        for spec, want in zip(specs, before):
            assert bit_equal(channel_a(spec).matrix, want)


def kraus_reference_residual(ops) -> float:
    v = np.concatenate(list(ops))
    return max_abs(v.conj().T @ v - np.eye(v.shape[1]))
