import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chanforms.analysis
import chanforms.forms
from chanforms import (
    PAULIS,
    AForm,
    BasisLabel,
    BlochVector,
    ChannelSpec,
    InvalidMatrixError,
    analyze,
    bloch_to_density,
    build_pin_a,
    choi_consistency,
    choi_state,
    channel_a,
    hermitian_eigendecompose,
    kraus_to_a,
    random_cp_channel,
    random_ncp_a,
    realign_a_to_b,
    standard_basis,
)
from chanforms.cli import report_document
from chanforms.serialize import dumps

PAULI = standard_basis(2, BasisLabel.PAULI_OVER_SQRT2)


def maximally_entangled_state(n: int) -> np.ndarray:
    """Density matrix of sum_k |kk> / sqrt(n) on the doubled space."""
    omega = np.eye(n).reshape(-1) / np.sqrt(n)
    return np.outer(omega, omega)


class TestAnalyze:
    def test_transpose_report(self):
        report = analyze(ChannelSpec.transpose())
        assert not report.verdict.is_cp
        assert np.allclose(np.sort(report.canonical.eigenvalues), [-1, 1, 1, 1], atol=1e-12)
        assert np.allclose(np.sort(report.b_spectrum), [-1, 1, 1, 1], atol=1e-12)
        assert report.spectral_match < 1e-12
        assert report.kraus is None
        assert report.kraus_absent_reason
        assert report.a_hermiticity_residual == report.a_trace_residual == 0.0

    def test_bit_flip_report(self):
        report = analyze(ChannelSpec.bit_flip(0.75))
        assert report.verdict.is_cp
        assert np.allclose(report.canonical.eigenvalues, [1.5, 0.5, 0, 0], atol=1e-12)
        assert report.kraus is not None and len(report.kraus) == 2

    def test_pin_report_spectrum(self):
        report = analyze(ChannelSpec.pin(BlochVector(0, 0, 0.5)))
        assert np.allclose(
            np.sort(report.canonical.eigenvalues)[::-1], [0.75, 0.75, 0.25, 0.25], atol=1e-12
        )

    def test_deterministic_byte_identical(self):
        spec = ChannelSpec.unitary((0.6, 0.0, 0.8), 0.9)
        first = dumps(report_document(analyze(spec)))
        second = dumps(report_document(analyze(spec)))
        assert first == second

    @pytest.mark.parametrize("spec", [ChannelSpec.bit_flip(0.75), ChannelSpec.transpose()], ids=["cp", "ncp"])
    def test_report_and_verdict_hold_every_field_and_stay_frozen(self, spec):
        """Both are built without their generated ``__init__``; each still holds exactly its declared
        fields and refuses assignment."""
        report = analyze(spec)
        for obj in (report, report.verdict):
            names = [f.name for f in dataclasses.fields(obj)]
            assert sorted(vars(obj)) == sorted(names)
            for name in names:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, name, None)

    def test_report_fields_consistent(self):
        report = analyze(ChannelSpec.phase_flip(0.25))
        assert (report.kraus is not None) == report.verdict.is_cp
        assert report.b_trace == pytest.approx(2.0, abs=1e-12)
        assert report.canonical.basis.label is BasisLabel.PAULI_OVER_SQRT2


def _sample_maps(n: int) -> list[AForm]:
    """CP maps of Kraus rank 1 and n, and one map that is not CP."""
    return [kraus_to_a(random_cp_channel(n, r, seed=7 * n + r)) for r in (1, n)] + [random_ncp_a(n, seed=n)]


@pytest.fixture
def eigensolve_calls(monkeypatch):
    """A list that gains one entry per ``hermitian_eigendecompose`` call made
    through ``forms``, the one module ``analyze`` reaches it by (and through
    ``analysis``, should it import the solver again)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return hermitian_eigendecompose(*args, **kwargs)

    monkeypatch.setattr(chanforms.forms, "hermitian_eigendecompose", counted)
    monkeypatch.setattr(chanforms.analysis, "hermitian_eigendecompose", counted, raising=False)
    return calls


def pair_residual(report, b: np.ndarray) -> float:
    """max|B V_c - V_c diag(lam)| with the row-vectorized canonical operators as the columns of V_c."""
    v = np.stack([op.reshape(-1) for op in report.canonical.canonical_ops], axis=1)
    return float(np.abs(b @ v - v @ np.diag(report.canonical.eigenvalues)).max())


class TestEigensolves:
    """``analyze`` solves once in every basis: B is solved through the coefficient matrix only."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_unit_basis_solves_once(self, n, eigensolve_calls):
        basis = standard_basis(n)
        for a in _sample_maps(n):
            del eigensolve_calls[:]
            report = analyze(ChannelSpec.raw_a(a.matrix), basis)
            assert len(eigensolve_calls) == 1
            assert report.b_spectrum.tobytes() == report.canonical.eigenvalues.tobytes()
            assert report.spectral_match == 0.0
            # What a second solve of B alone gives, bit for bit.
            b_alone = hermitian_eigendecompose(realign_a_to_b(a), 1e-9 * n * n).eigenvalues
            assert b_alone.tobytes() == report.b_spectrum.tobytes()

    def test_pauli_basis_solves_once(self, eigensolve_calls):
        for a in _sample_maps(2):
            del eigensolve_calls[:]
            report = analyze(ChannelSpec.raw_a(a.matrix), PAULI)
            assert len(eigensolve_calls) == 1
            assert report.b_spectrum is report.canonical.eigenvalues
            b = realign_a_to_b(a).matrix
            assert report.spectral_match == pytest.approx(pair_residual(report, b), rel=0, abs=1e-15)
            assert report.spectral_match <= report.tol * 4
            # B solved on its own, the route this check replaced, gives the same spectrum.
            assert np.abs(hermitian_eigendecompose(b).eigenvalues - report.b_spectrum).max() <= 1e-14

    def test_other_basis_with_the_units_label_solves_once(self, eigensolve_calls):
        # The elements choose the check, not the label: a random basis labelled
        # units checks its pairs against B, and a copy of the matrix units does not.
        units = standard_basis(3)
        g = np.random.default_rng(3).standard_normal((9, 9, 2)).view(complex)[..., 0]
        other = type(units)(dim=3, label=units.label, elements=np.linalg.qr(g)[0].T.reshape(9, 3, 3))
        copy = type(units)(dim=3, label=units.label, elements=units.elements)
        a = _sample_maps(3)[1]
        report = analyze(ChannelSpec.raw_a(a.matrix), other)
        assert len(eigensolve_calls) == 1
        assert 0.0 < report.spectral_match <= report.tol * 9
        del eigensolve_calls[:]
        report = analyze(ChannelSpec.raw_a(a.matrix), copy)
        assert len(eigensolve_calls) == 1
        assert report.spectral_match == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.booleans())
    def test_pauli_pair_residual_is_at_rounding_level(self, seed, cp):
        """At most 2 n^2 eps ||B||_F for random CP and NCP qubit maps (a probe of 3,000
        such maps peaked at 4.7 eps ||B||_F)."""
        rng = np.random.default_rng(seed)
        a = kraus_to_a(random_cp_channel(2, int(rng.integers(1, 5)), seed)) if cp else random_ncp_a(2, seed)
        report = analyze(ChannelSpec.raw_a(a.matrix), PAULI)
        b = realign_a_to_b(a).matrix
        assert report.spectral_match <= 2 * 4 * np.finfo(float).eps * np.linalg.norm(b)
        assert report.verdict.is_cp == cp

    def test_a_corrupted_pair_raises(self, monkeypatch):
        """Swapping the operators of two distinct eigenvalues leaves each a pair of
        nothing in B: for ``bit_flip(0.75)`` the residual is their gap, 1, times the
        operators' largest entry, 1/sqrt(2)."""
        decompose = chanforms.analysis.canonical_decompose

        def swapped(*args):
            d = decompose(*args)
            ops = d.canonical_ops[[1, 0, 2, 3]]
            return type(d)(basis=d.basis, eigenvalues=d.eigenvalues, canonical_ops=ops)

        monkeypatch.setattr(chanforms.analysis, "canonical_decompose", swapped)
        with pytest.raises(InvalidMatrixError, match=r"^canonical pairs are not eigenpairs of B: residual 0.707, beyond tol\*n\^2 = 4e-09$"):
            analyze(ChannelSpec.bit_flip(0.75), PAULI)

    def test_spectral_mismatch_beyond_tol_n_squared_raises(self):
        """The valid identity with A[1,0] = A[2,0] = 1e308: the trace formula loses the
        eigenvalue 1 to rounding, so in Pauli the canonical pairs miss B by about 5e292.
        In matrix units the coefficient matrix is B, and there is nothing to compare."""
        a = np.eye(4)
        a[1, 0] = a[2, 0] = 1e308
        spec = ChannelSpec.raw_a(a)
        with pytest.raises(
            InvalidMatrixError,
            match=r"^canonical pairs are not eigenpairs of B: residual 4.99e\+292, beyond tol\*n\^2 = 4e-09$",
        ):
            analyze(spec, PAULI)
        report = analyze(spec, standard_basis(2))
        assert report.spectral_match == 0.0 and not report.verdict.is_cp

    def test_a_residual_that_is_not_a_number_raises(self, monkeypatch):
        monkeypatch.setattr(chanforms.analysis, "max_abs", lambda m: float("nan"))
        with pytest.raises(InvalidMatrixError, match=r"^canonical pairs are not eigenpairs of B: residual nan,"):
            analyze(ChannelSpec.bit_flip(0.75), PAULI)


PAULI_ROWS = np.stack([sigma.reshape(-1) for sigma in PAULIS])  # row mu is vec(sigma_mu)


def unital_qubit_a(t: np.ndarray) -> np.ndarray:
    """A = 1/2 sum_{mu,nu} M[mu,nu] vec(sigma_mu) vec(sigma_nu)^dag with M = 1 (+) T: the
    unital qubit map that sends the Bloch vector r to T r."""
    m = np.zeros((4, 4))
    m[0, 0], m[1:, 1:] = 1.0, t
    return 0.5 * PAULI_ROWS.T @ m @ PAULI_ROWS.conj()


def bloch_matrix(a: AForm) -> np.ndarray:
    """M[mu,nu] = 1/2 vec(sigma_mu)^dag A vec(sigma_nu), the inverse of ``unital_qubit_a``."""
    return 0.5 * PAULI_ROWS.conj() @ a.matrix @ PAULI_ROWS.T


def fujiwara_algoet_margin(lam) -> float:
    """min(|1 + l3| - |l1 + l2|, |1 - l3| - |l1 - l2|) for signed singular values l of T:
    a unital qubit map is CP exactly when it is >= 0 (Fujiwara & Algoet 1999)."""
    l1, l2, l3 = lam
    return min(abs(1 + l3) - abs(l1 + l2), abs(1 - l3) - abs(l1 - l2))


def rotation(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """The SO(3) rotation Rz(alpha) Ry(beta) Rz(gamma)."""
    def rz(x):
        return np.array([[np.cos(x), -np.sin(x), 0], [np.sin(x), np.cos(x), 0], [0, 0, 1]])

    ry = np.array([[np.cos(beta), 0, np.sin(beta)], [0, 1, 0], [-np.sin(beta), 0, np.cos(beta)]])
    return rz(alpha) @ ry @ rz(gamma)


_angles = st.tuples(*[st.floats(0, 2 * np.pi)] * 3)


class TestBlochCondition:
    """``analyze``'s verdict on unital qubit maps against a closed-form CP condition that
    shares no code with the canonical spectrum."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.tuples(*[st.floats(-1, 1)] * 3), _angles, _angles)
    def test_verdict_matches_the_fujiwara_algoet_condition(self, lam, angles1, angles2):
        margin = fujiwara_algoet_margin(lam)
        assume(abs(margin) > 1e-6)  # nearer the boundary the verdict rests on rounding
        t = rotation(*angles1) @ np.diag(lam) @ rotation(*angles2)
        report = analyze(ChannelSpec.raw_a(unital_qubit_a(t)))
        assert report.verdict.is_cp == (margin >= 0), (lam, report.verdict.min_eigenvalue)

    @pytest.mark.parametrize(
        "spec, cp",
        [
            (ChannelSpec.transpose(), False),
            (ChannelSpec.equatorial_projection(), False),
            (ChannelSpec.bit_flip(0.3), True),
        ],
        ids=["transpose", "equatorial_projection", "bit_flip"],
    )
    def test_named_channels(self, spec, cp):
        m = bloch_matrix(channel_a(spec))
        assert np.abs(m.imag).max() < 1e-12
        assert np.abs(m[0] - [1, 0, 0, 0]).max() < 1e-12 and np.abs(m[:, 0] - [1, 0, 0, 0]).max() < 1e-12
        t = m[1:, 1:].real
        lam = np.linalg.svd(t, compute_uv=False)
        if np.linalg.det(t) < 0:  # two proper rotations carry T to diag(lam) only with a sign
            lam[-1] = -lam[-1]
        assert bool(fujiwara_algoet_margin(lam) >= 0) is cp
        assert analyze(spec).verdict.is_cp is cp


class TestChoiConsistency:
    def test_identity_channel(self):
        a = AForm(np.eye(4, dtype=complex))
        assert choi_consistency(a) < 1e-12
        assert np.abs(choi_state(a) - maximally_entangled_state(2)).max() < 1e-12

    def test_pin_choi_state(self):
        p0 = BlochVector(0.3, 0.1, -0.5)
        a = build_pin_a(p0)
        rho0 = bloch_to_density(p0).matrix
        assert np.abs(choi_state(a) - np.kron(rho0, np.eye(2)) / 2).max() < 1e-12

    def test_random_cp_channels(self):
        for seed in range(20):
            a = kraus_to_a(random_cp_channel(2, seed % 4 + 1, seed=seed))
            assert choi_consistency(a) < 1e-9

    def test_holds_for_ncp_maps(self):
        for seed in range(5):
            assert choi_consistency(random_ncp_a(2, seed=seed)) < 1e-9

    def test_qutrit(self):
        a = kraus_to_a(random_cp_channel(3, 2, seed=3))
        assert choi_consistency(a) < 1e-9

    @pytest.mark.parametrize("n", range(2, 9))
    def test_the_product_equals_the_einsum_bit_for_bit(self, n):
        """A's entries reordered and scaled by (1/sqrt(n))^2 give the old einsum's state, zero signs
        included, and the same residual, on seeded CP maps of every Kraus rank class and on NCP maps;
        at n = 2 also on the named A-forms, whose exact zeros are where a zero's sign could move."""
        maps = [kraus_to_a(random_cp_channel(n, r, seed=31 * n + r)) for r in (1, 2, n, n * n)]
        maps += [random_ncp_a(n, seed=seed) for seed in (n, n + 100)]
        if n == 2:
            named = [ChannelSpec.transpose(), ChannelSpec.equatorial_projection(), ChannelSpec.bit_flip(0.3)]
            named += [ChannelSpec.phase_flip(0.5), ChannelSpec.unitary((0, 0, 1), 0.0)]  # the last is the identity
            maps += [channel_a(spec) for spec in named]
        for a in maps:
            state = choi_state(a)
            expected = choi_state_reference(a)
            assert state.dtype == expected.dtype and state.shape == expected.shape
            assert state.tobytes() == expected.tobytes()
            assert choi_consistency(a) == float(np.abs(expected - realign_a_to_b(a).matrix / n).max())


def choi_state_reference(a: AForm) -> np.ndarray:
    """The extension image as it was computed before, one einsum against the (n, n, n, n) projector."""
    n = a.dim
    omega = np.zeros(n * n, dtype=complex)
    omega[:: n + 1] = 1.0 / np.sqrt(n)
    omega4 = np.outer(omega, omega.conj()).reshape(n, n, n, n)  # ((r, b), (s, d))
    return np.einsum("acrs,rbsd->abcd", a.matrix.reshape(n, n, n, n), omega4).reshape(n * n, n * n)
