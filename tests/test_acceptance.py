"""Acceptance suite: one test per release criterion.

Each criterion prints a ``[acceptance] <n>: PASS/FAIL`` line; run

    pytest tests/test_acceptance.py -v -s

to see the per-criterion lines alongside the pytest verdicts.
"""

import json
import pathlib
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from chanforms import (
    PAULIS,
    AForm,
    BasisLabel,
    BlochVector,
    DensityMatrix,
    apply_a,
    apply_canonical,
    apply_kraus,
    bloch_to_density,
    build_bit_flip_a,
    build_equatorial_projection_a,
    build_phase_flip_a,
    build_pin_a,
    build_transpose_a,
    build_unitary_a,
    canonical_decompose,
    choi_consistency,
    coefficient_matrix,
    cp_verdict,
    extract_kraus,
    hermitian_eigendecompose,
    kraus_to_a,
    random_cp_channel,
    random_ncp_a,
    realign_a_to_b,
    standard_basis,
)
from chanforms.serialize import parse_report_document
from conftest import random_density, run_cli

PAULI = standard_basis(2, BasisLabel.PAULI_OVER_SQRT2)
UNITS = standard_basis(2, BasisLabel.MATRIX_UNITS)
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def sorted_desc(values) -> np.ndarray:
    return np.sort(np.asarray(values, dtype=float))[::-1]


def flip_kraus(p: float, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The flip channel's operator pair {sqrt(p) I, sqrt(1-p) sigma}."""
    return (np.sqrt(p) * PAULIS[0], np.sqrt(1 - p) * sigma)


@lru_cache(maxsize=1)
def mixed_channel_population() -> tuple[AForm, ...]:
    """200 random channels: 150 CP at Kraus ranks 1-4 plus 50 NCP maps
    whose dynamical spectra were shifted negative."""
    channels = [
        kraus_to_a(random_cp_channel(2, rank=i % 4 + 1, seed=i)) for i in range(150)
    ]
    channels += [random_ncp_a(2, seed=i) for i in range(50)]
    return tuple(channels)


def test_criterion_1_transpose_map():
    with criterion("1 transpose coefficient matrix, verdict, B == A"):
        a = build_transpose_a()
        cm = coefficient_matrix(a, PAULI).matrix
        # Diagonal with entries {-1, 1, 1, 1}; evaluating the defining
        # trace formula places the -1 in the sigma_2 slot (transposition
        # negates the sigma_2 component), so entrywise the diagonal reads
        # (1, 1, -1, 1).  The spectrum is the advertised {-1, 1, 1, 1}.
        assert np.abs(cm - np.diag([1.0, 1.0, -1.0, 1.0])).max() < 1e-12
        assert np.abs(np.sort(np.diag(cm).real) - [-1.0, 1.0, 1.0, 1.0]).max() < 1e-12
        verdict = cp_verdict(a, PAULI)
        assert not verdict.is_cp
        spectrum = canonical_decompose(a, PAULI).eigenvalues
        assert np.abs(sorted_desc(spectrum) - [1, 1, 1, -1]).max() < 1e-12
        b = realign_a_to_b(a)
        assert np.abs(b.matrix - a.matrix).max() < 1e-12


def test_criterion_2_equatorial_projection_spectra():
    with criterion("2 equatorial projection spectra"):
        a = build_equatorial_projection_a()
        coeff_spec = sorted_desc(canonical_decompose(a, PAULI).eigenvalues)
        assert np.abs(coeff_spec - [1.5, 0.5, 0.5, -0.5]).max() < 1e-10
        b_spec = sorted_desc(hermitian_eigendecompose(realign_a_to_b(a).matrix).eigenvalues)
        assert np.abs(b_spec - [1.5, 0.5, 0.5, -0.5]).max() < 1e-10


def test_criterion_3_pin_map_sweep():
    with criterion("3 pin map eigenvalue sweep and B structure"):
        rng = np.random.default_rng(303)
        directions = rng.standard_normal((10, 3))
        directions /= np.linalg.norm(directions, axis=1)[:, None]
        for radius in (0.0, 0.25, 0.5, 0.75, 1.0):
            for direction in directions:
                p0 = BlochVector(*(radius * direction))
                a = build_pin_a(p0)
                spec = sorted_desc(canonical_decompose(a, PAULI).eigenvalues)
                expected = sorted_desc(
                    [(1 + radius) / 2, (1 + radius) / 2, (1 - radius) / 2, (1 - radius) / 2]
                )
                assert np.abs(spec - expected).max() < 1e-10
                rho0 = bloch_to_density(p0).matrix
                b = realign_a_to_b(a)
                assert np.abs(b.matrix - np.kron(rho0, np.eye(2))).max() < 1e-12


def test_criterion_4_unitary_channels():
    with criterion("4 unitary channels: rank-1 with the rotation eigenvector"):
        rng = np.random.default_rng(404)
        for _ in range(25):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(0, 2 * np.pi)
            a = build_unitary_a(axis, angle)
            eig = hermitian_eigendecompose(coefficient_matrix(a, PAULI).matrix)
            assert abs(eig.eigenvalues[0] - 2.0) < 1e-10
            assert np.abs(eig.eigenvalues[1:]).max() < 1e-10
            x = np.concatenate([[np.cos(angle / 2)], 1j * np.sin(angle / 2) * axis])
            x /= np.linalg.norm(x)
            overlap = abs(np.vdot(eig.eigenvectors[0], x))
            assert overlap > 1 - 1e-9


def test_criterion_5_flip_channel_spectra_and_kraus():
    with criterion("5 bit/phase flip spectra and Kraus pairs"):
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            expected_spec = sorted_desc([2 * p, 2 * (1 - p), 0.0, 0.0])
            for build, pair in (
                (build_bit_flip_a, PAULIS[1]),
                (build_phase_flip_a, PAULIS[3]),
            ):
                a = build(p)
                decomp = canonical_decompose(a, PAULI)
                assert np.abs(sorted_desc(decomp.eigenvalues) - expected_spec).max() < 1e-10
                kraus = extract_kraus(decomp)
                total = sum(op.conj().T @ op for op in kraus.operators)
                assert np.abs(total - np.eye(2)).max() < 1e-10
                if 0.0 < p < 1.0:
                    assert len(kraus) == 2
                    for expected in flip_kraus(p, pair):
                        norm = np.linalg.norm(expected)
                        best = max(
                            abs(np.trace(expected.conj().T @ got))
                            / (norm * np.linalg.norm(got))
                            for got in kraus.operators
                        )
                        assert abs(best - 1.0) < 1e-9  # equal up to a global phase


def test_criterion_6_spectral_equivalence_property():
    with criterion("6 spectral equivalence over 200 channels, both bases"):
        for a in mixed_channel_population():
            b_spec = np.sort(hermitian_eigendecompose(realign_a_to_b(a).matrix).eigenvalues)
            for basis in (PAULI, UNITS):
                coeff_spec = np.sort(canonical_decompose(a, basis).eigenvalues)
                assert np.abs(coeff_spec - b_spec).max() < 1e-9


def test_criterion_7_canonical_reconstruction_property():
    with criterion("7 canonical reconstruction and trace preservation"):
        for a in mixed_channel_population():
            decomp = canonical_decompose(a, PAULI)
            rebuilt = np.zeros((4, 4), dtype=complex)
            completeness = np.zeros((2, 2), dtype=complex)
            for lam, op in zip(decomp.eigenvalues, decomp.canonical_ops):
                rebuilt += lam * np.kron(op, op.conj())
                completeness += lam * op.conj().T @ op
            assert np.abs(rebuilt - a.matrix).max() < 1e-9
            assert np.abs(completeness - np.eye(2)).max() < 1e-9


def test_criterion_8_operator_sum_equivalence():
    with criterion("8 apply_a == apply_canonical == Kraus application"):
        rng = np.random.default_rng(808)
        for i in range(100):
            kraus = random_cp_channel(2, rank=i % 4 + 1, seed=5000 + i)
            a = kraus_to_a(kraus)
            decomp = canonical_decompose(a, PAULI)
            rho = DensityMatrix(random_density(rng))
            via_a = apply_a(a, rho).matrix
            via_canonical = apply_canonical(decomp, rho).matrix
            via_kraus = apply_kraus(kraus, rho).matrix
            assert np.abs(via_a - via_canonical).max() < 1e-9
            assert np.abs(via_a - via_kraus).max() < 1e-9


def test_criterion_9_choi_consistency():
    with criterion("9 extension image equals B/n for 50 channels"):
        channels = [
            kraus_to_a(random_cp_channel(2, rank=i % 4 + 1, seed=9000 + i)) for i in range(25)
        ]
        channels += [random_ncp_a(2, seed=9100 + i) for i in range(25)]
        for a in channels:
            assert choi_consistency(a) < 1e-9


GOLDEN_EXITS = {
    "unitary": 0,
    "pin": 0,
    "transpose": 3,
    "equatorial_projection": 3,
    "bit_flip": 0,
    "phase_flip": 0,
}


def test_criterion_10_cli_contract():
    with criterion("10 CLI golden outputs and exit codes 0/1/2/3"):
        for name, expected_exit in GOLDEN_EXITS.items():
            doc = GOLDEN_DIR / f"{name}.doc.json"
            expected = (GOLDEN_DIR / f"{name}.out.json").read_text()
            result = run_cli(["analyze", str(doc), "--output", "machine"])
            assert result.returncode == expected_exit, name
            assert result.stdout == expected, f"golden mismatch for {name}"
            parse_report_document(result.stdout)  # round-trip stability
        # exit 0 and 3 are covered above; force 1 and 2 explicitly
        bad_map = json.dumps(
            {
                "format_version": "1",
                "channel": {
                    "kind": "raw_a",
                    "matrix": [[[0.5 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)],
                },
            }
        )
        assert run_cli(["analyze", "-"], stdin_text=bad_map).returncode == 1
        assert run_cli(["analyze", "-"], stdin_text="{broken").returncode == 2


def test_criterion_11_phase_flip_prefactor_discrepancy():
    with criterion("11 phase flip operator-sum form is unhalved"):
        # A halved phase-flip matrix appears in print but cannot be the
        # operator-sum expansion: its columns sum to 1/2 (so it is not
        # trace preserving) and it is inconsistent with the coefficient
        # spectrum {2p, 2(1-p)} of trace 2.  The Kraus route is binding.
        for p in (0.0, 0.3, 0.5, 0.8, 1.0):
            a = kraus_to_a(flip_kraus(p, PAULIS[3]))
            expected = np.diag([1.0, 2 * p - 1.0, 2 * p - 1.0, 1.0])
            assert np.abs(a.matrix - expected).max() < 1e-12
            b = realign_a_to_b(a)
            assert abs(np.trace(b.matrix).real - 2.0) < 1e-12
            spec = sorted_desc(canonical_decompose(a, PAULI).eigenvalues)
            assert np.abs(spec - sorted_desc([2 * p, 2 * (1 - p), 0, 0])).max() < 1e-10
