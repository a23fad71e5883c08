import numpy as np
import pytest

from chanforms import (
    AForm,
    BasisLabel,
    BlochVector,
    ChannelSpec,
    analyze,
    bloch_to_density,
    build_pin_a,
    choi_consistency,
    choi_state,
    kraus_to_a,
    maximally_entangled_state,
    random_cp_channel,
    random_ncp_a,
    standard_basis,
)
from chanforms.cli import report_wire
from chanforms.serialize import dumps

PAULI = standard_basis(2, BasisLabel.PAULI_OVER_SQRT2)


class TestAnalyze:
    def test_transpose_report(self):
        report = analyze(ChannelSpec.transpose())
        assert not report.verdict.is_cp
        assert np.allclose(np.sort(report.coefficient_spectrum), [-1, 1, 1, 1], atol=1e-12)
        assert np.allclose(np.sort(report.b_spectrum), [-1, 1, 1, 1], atol=1e-12)
        assert report.spectral_match < 1e-12
        assert report.kraus is None
        assert report.kraus_absent_reason
        assert report.a_form_valid

    def test_bit_flip_report(self):
        report = analyze(ChannelSpec.bit_flip(0.75))
        assert report.verdict.is_cp
        assert np.allclose(report.coefficient_spectrum, [1.5, 0.5, 0, 0], atol=1e-12)
        assert report.kraus is not None and len(report.kraus) == 2

    def test_pin_report_spectrum(self):
        report = analyze(ChannelSpec.pin(BlochVector(0, 0, 0.5)))
        assert np.allclose(
            np.sort(report.coefficient_spectrum)[::-1], [0.75, 0.75, 0.25, 0.25], atol=1e-12
        )

    def test_deterministic_byte_identical(self):
        spec = ChannelSpec.unitary((0.6, 0.0, 0.8), 0.9)
        first = dumps(report_wire(analyze(spec), seed=0, samples=100))
        second = dumps(report_wire(analyze(spec), seed=0, samples=100))
        assert first == second

    def test_report_fields_consistent(self):
        report = analyze(ChannelSpec.phase_flip(0.25))
        assert (report.kraus is not None) == report.verdict.is_cp
        assert report.b_trace == pytest.approx(2.0, abs=1e-12)
        assert report.basis is BasisLabel.PAULI_OVER_SQRT2


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
