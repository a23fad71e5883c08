import json
from pathlib import Path

import numpy as np
import pytest

from chanforms import (
    BadMatrixShapeError,
    NotUnitAxisError,
    OutsideBallError,
    ProbabilityRangeError,
    BasisLabel,
    ChannelKind,
    ChannelSpec,
    DocumentSyntaxError,
    MissingFieldError,
    NonFiniteEntryError,
    NotTracePreservingError,
    UnknownFieldError,
    build_bit_flip_a,
)
from chanforms.serialize import (
    channel_document_wire,
    dumps,
    matrix_to_wire,
    parse_channel_document,
    parse_matrix,
    parse_report_document,
    parse_representation_document,
    parse_state_document,
    parse_zoo_document,
)

GOLDEN = Path(__file__).parent / "golden"


class TestParseChannelDocument:
    def test_transpose(self):
        doc = parse_channel_document('{"format_version":"1","channel":{"kind":"transpose"}}')
        assert doc.channel.kind is ChannelKind.TRANSPOSE
        assert doc.options.seed == 0

    def test_bit_flip(self):
        doc = parse_channel_document(
            '{"format_version":"1","channel":{"kind":"bit_flip","p":0.75}}'
        )
        assert doc.channel.kind is ChannelKind.BIT_FLIP
        assert doc.channel.p == 0.75

    def test_options(self):
        doc = parse_channel_document(
            '{"format_version":"1","channel":{"kind":"transpose"},'
            '"options":{"basis":"units","tol":1e-8,"seed":3,"samples":7}}'
        )
        assert doc.options.basis is BasisLabel.MATRIX_UNITS
        assert doc.options.tol == 1e-8
        assert doc.options.seed == 3
        assert doc.options.samples == 7

    def test_non_square_raw_matrix_rejected(self):
        rows = [[[1.0, 0.0]] * 4] * 3
        wire = dumps({"format_version": "1", "channel": {"kind": "raw_a", "matrix": rows}})
        with pytest.raises(BadMatrixShapeError):
            parse_channel_document(wire)

    def test_unknown_top_level_field(self):
        with pytest.raises(UnknownFieldError):
            parse_channel_document(
                '{"format_version":"1","channel":{"kind":"transpose"},"extra":1}'
            )

    def test_unknown_channel_field(self):
        with pytest.raises(UnknownFieldError):
            parse_channel_document(
                '{"format_version":"1","channel":{"kind":"transpose","p":0.5}}'
            )

    def test_unknown_kind(self):
        with pytest.raises(UnknownFieldError):
            parse_channel_document(
                '{"format_version":"1","channel":{"kind":"amplitude_damping","p":0.5}}'
            )

    def test_missing_required_field(self):
        with pytest.raises(MissingFieldError):
            parse_channel_document('{"format_version":"1","channel":{"kind":"bit_flip"}}')

    def test_missing_channel(self):
        with pytest.raises(MissingFieldError):
            parse_channel_document('{"format_version":"1"}')

    def test_unknown_version(self):
        with pytest.raises(UnknownFieldError):
            parse_channel_document('{"format_version":"2","channel":{"kind":"transpose"}}')

    def test_syntax_error_has_location(self):
        with pytest.raises(DocumentSyntaxError, match="line"):
            parse_channel_document('{"format_version":"1",')

    def test_nonfinite_entry_rejected(self):
        # 1e999 overflows to infinity when JSON parses it
        text = (
            '{"format_version":"1","channel":{"kind":"raw_kraus",'
            '"operators":[[[[1e999,0],[0,0]],[[0,0],[1,0]]]]}}'
        )
        with pytest.raises(NonFiniteEntryError):
            parse_channel_document(text)

    def test_nonfinite_probability_rejected(self):
        with pytest.raises(NonFiniteEntryError):
            parse_channel_document(
                '{"format_version":"1","channel":{"kind":"bit_flip","p":NaN}}'
            )

    def test_bool_is_not_a_number(self):
        with pytest.raises(BadMatrixShapeError):
            parse_channel_document(
                '{"format_version":"1","channel":{"kind":"bit_flip","p":true}}'
            )

    def test_raw_a_must_satisfy_map_constraints(self):
        bad = np.eye(4, dtype=complex) * 0.5
        wire = dumps(
            {"format_version": "1", "channel": {"kind": "raw_a", "matrix": matrix_to_wire(bad)}}
        )
        with pytest.raises(NotTracePreservingError):
            parse_channel_document(wire)

    def test_raw_a_loose_document_tolerance_wins(self):
        slightly_off = np.eye(4, dtype=complex)
        slightly_off[0, 0] = 1 + 1e-6
        wire = dumps(
            {
                "format_version": "1",
                "channel": {"kind": "raw_a", "matrix": matrix_to_wire(slightly_off)},
                "options": {"tol": 1e-3},
            }
        )
        doc = parse_channel_document(wire)
        assert doc.channel.kind is ChannelKind.RAW_A
        with pytest.raises(NotTracePreservingError):
            parse_channel_document(wire, tol_override=1e-9)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "spec",
        [
            ChannelSpec.transpose(),
            ChannelSpec.bit_flip(0.25),
            ChannelSpec.unitary((0.0, 0.6, 0.8), 1.5),
            ChannelSpec.raw_a(build_bit_flip_a(0.4).matrix),
        ],
        ids=["transpose", "bit_flip", "unitary", "raw_a"],
    )
    def test_wire_reparses_to_same_channel(self, spec):
        text = dumps(channel_document_wire(spec))
        doc = parse_channel_document(text)
        assert doc.channel.kind is spec.kind
        assert text == dumps(channel_document_wire(doc.channel))

    def test_matrix_wire_round_trip(self):
        m = np.array([[1 + 2j, 0], [-0.5j, 3]], dtype=complex)
        assert np.array_equal(parse_matrix(matrix_to_wire(m), "m"), m)


class TestStateDocuments:
    def test_bloch_state(self):
        rho = parse_state_document('{"bloch":[0,0,1]}', tol=1e-9)
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_density_state(self):
        text = dumps({"density": matrix_to_wire(np.eye(2) / 2)})
        rho = parse_state_document(text, tol=1e-9)
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_requires_exactly_one_payload(self):
        with pytest.raises(MissingFieldError):
            parse_state_document('{"bloch":[0,0,1],"density":[[[0.5,0]]]}', tol=1e-9)
        with pytest.raises(MissingFieldError):
            parse_state_document("{}", tol=1e-9)

    def test_unknown_field(self):
        with pytest.raises(UnknownFieldError):
            parse_state_document('{"bloch":[0,0,1],"note":"x"}', tol=1e-9)


class TestRepresentationDocuments:
    def test_b_form_round_trip(self):
        m = np.kron(np.diag([0.5, 0.5]), np.eye(2)).astype(complex)
        text = dumps(
            {
                "format_version": "1",
                "representation": "b_form",
                "dim": 2,
                "matrix": matrix_to_wire(m),
            }
        )
        parsed = parse_representation_document(text)
        assert parsed["representation"] == "b_form"
        assert np.array_equal(parsed["matrix"], m)

    def test_canonical_shape_checked(self):
        text = dumps(
            {
                "format_version": "1",
                "representation": "canonical",
                "dim": 2,
                "basis": "pauli",
                "eigenvalues": [2.0],
                "operators": [],
            }
        )
        with pytest.raises(BadMatrixShapeError):
            parse_representation_document(text)

    def test_unknown_representation(self):
        with pytest.raises(UnknownFieldError):
            parse_representation_document(
                '{"format_version":"1","representation":"chi","dim":2}'
            )


class TestReportDocuments:
    """A report's channel block follows the per-kind rules of a channel document."""

    @pytest.mark.parametrize(
        "golden, field, value, error",
        [
            ("bit_flip", "p", 7, ProbabilityRangeError),
            ("phase_flip", "p", -1, ProbabilityRangeError),
            ("unitary", "axis", [7, 0, 1], NotUnitAxisError),
            ("pin", "p0", [0, 0, 7], OutsideBallError),
            ("transpose", "kind", ["transpose"], UnknownFieldError),
            ("pin", "kind", {"kind": "pin"}, UnknownFieldError),
        ],
    )
    def test_channel_block_rejected(self, golden, field, value, error):
        doc = json.loads((GOLDEN / f"{golden}.out.json").read_text())
        doc["report"]["channel"][field] = value
        with pytest.raises(error):
            parse_report_document(json.dumps(doc))

    def test_zoo_kind_must_be_a_string(self):
        text = '{"format_version":"1","channels":[{"kind":["pin"],"summary":"x"}]}'
        with pytest.raises(UnknownFieldError):
            parse_zoo_document(text)
