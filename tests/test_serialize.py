import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanforms import (
    BadMatrixShapeError,
    NotUnitAxisError,
    OutsideBallError,
    ProbabilityRangeError,
    BasisLabel,
    ChannelKind,
    ChannelSpec,
    DocumentSyntaxError,
    IncompleteKrausError,
    MissingFieldError,
    NonFiniteEntryError,
    NotTracePreservingError,
    UnknownFieldError,
    KrausSet,
    analyze,
    build_bit_flip_a,
    channel_a,
    kraus_to_a,
    random_cp_channel,
    random_ncp_a,
)
from chanforms.cli import report_document, report_wire
from chanforms.forms import _kraus_tol
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
        assert doc.basis is None

    def test_bit_flip(self):
        doc = parse_channel_document(
            '{"format_version":"1","channel":{"kind":"bit_flip","p":0.75}}'
        )
        assert doc.channel.kind is ChannelKind.BIT_FLIP
        assert doc.channel.p == 0.75

    def test_options(self):
        doc = parse_channel_document(
            '{"format_version":"1","channel":{"kind":"transpose"},'
            '"options":{"basis":"units","tol":1e-8}}'
        )
        assert doc.basis is BasisLabel.MATRIX_UNITS
        assert doc.tol == 1e-8

    @pytest.mark.parametrize(
        "options, override, expected",
        [("", None, 1e-9), (',"options":{"tol":1e-6}', None, 1e-6), (',"options":{"tol":1e-6}', 1e-3, 1e-3)],
    )
    def test_effective_tolerance(self, options, override, expected):
        text = '{"format_version":"1","channel":{"kind":"transpose"}' + options + "}"
        assert parse_channel_document(text, tol_override=override).tol == expected

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

    @pytest.mark.parametrize("field", ["seed", "samples"])
    def test_removed_options_rejected(self, field):
        with pytest.raises(UnknownFieldError, match=f"^document.options: unknown field '{field}'$"):
            parse_channel_document(
                f'{{"format_version":"1","channel":{{"kind":"transpose"}},"options":{{"{field}":3}}}}'
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

    def test_integer_past_the_digit_limit_is_non_finite(self):
        # json.loads raises a plain ValueError for an integer literal of more than 4,300 digits.
        digits = "1" * 5000
        with pytest.raises(NonFiniteEntryError, match="^document: non-finite value: "):
            parse_channel_document(f'{{"format_version":"1","channel":{{"kind":"bit_flip","p":{digits}}}}}')
        with pytest.raises(NonFiniteEntryError, match="^state: non-finite value: "):
            parse_state_document(f'{{"bloch":[0,0,{digits}]}}', tol=1e-9)

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

    @pytest.mark.parametrize(
        "channel, error, message",
        [
            ({"kind": "bit_flip", "p": 7}, ProbabilityRangeError, "probability 7.0 outside [0, 1]"),
            ({"kind": "pin", "p0": [2, 0, 0]}, OutsideBallError, "Bloch vector norm 2 exceeds 1 (tol 1e-09)"),
            (
                {"kind": "unitary", "axis": [1, 1, 0], "angle": 0.5},
                NotUnitAxisError,
                "axis norm 1.41421 differs from 1 beyond tol 1e-09",
            ),
            (
                {"kind": "raw_kraus", "operators": [matrix_to_wire(np.diag([1.0, 0.0]))]},
                IncompleteKrausError,
                "completeness residual 1 exceeds tol 1e-09",
            ),
        ],
        ids=["bit_flip", "pin", "unitary", "raw_kraus"],
    )
    def test_channel_rule_errors_name_the_json_path(self, channel, error, message):
        with pytest.raises(error) as info:
            parse_channel_document(json.dumps({"format_version": "1", "channel": channel}))
        assert type(info.value) is error
        assert str(info.value) == f"document.channel: {message}"

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


def dumps_reference(obj: dict) -> str:
    """The encoder call ``dumps`` made before it kept one encoder without the cycle check."""
    return json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"


class TestDumps:
    @pytest.mark.parametrize("golden", sorted(p.name for p in GOLDEN.glob("*.out.json")))
    def test_golden_reports_equal_the_reference(self, golden):
        doc = parse_channel_document((GOLDEN / golden.replace(".out.", ".doc.")).read_text())
        wire = report_document(analyze(doc.channel, tol=doc.tol))
        assert dumps(wire) == dumps_reference(wire) == (GOLDEN / golden).read_text()

    def test_large_raw_kraus_report_equals_the_reference(self):
        spec = ChannelSpec.raw_kraus(random_cp_channel(8, 8, seed=3).operators)
        wire = report_document(analyze(spec))
        assert dumps(wire) == dumps_reference(wire)

    def test_report_wire_is_the_report_document(self):
        """``report_wire`` stays as a name and ignores its seed and samples."""
        report = analyze(ChannelSpec.bit_flip(0.75))
        assert report_wire(report, 7, 9) == report_document(report)

    def test_format_md_lists_the_report_keys(self):
        """FORMAT.md's ``analyze --output machine`` layout line names exactly the keys
        ``report_document`` writes; the channel block, written ``{...}``, is opaque."""
        text = (Path(__file__).resolve().parent.parent / "FORMAT.md").read_text()
        (line,) = re.findall(r'^\{"format_version":"1","report":.*$', text, re.M)
        documented = set(re.findall(r'"(\w+)":', line))

        def keys(obj):
            for key, value in obj.items():
                yield key
                if isinstance(value, dict) and key != "channel":
                    yield from keys(value)

        written = set(keys(report_document(analyze(ChannelSpec.bit_flip(0.75)))))
        assert documented == written

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError):
            dumps({"x": [[float("nan"), 0.0]]})


# Complex parts at the edges of the double range: signed zeros,
# subnormals and magnitudes near the largest double.
_PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def complex_stacks(draw):
    """A (k, r, c) stack of complex matrices."""
    k, r, c = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    parts = draw(st.lists(_PARTS, min_size=2 * k * r * c, max_size=2 * k * r * c))
    return np.array(parts, dtype=float).view(complex).reshape(k, r, c)


def per_entry_wire(m) -> list:
    """The entry-by-entry encoder, kept as the reference for ``matrix_to_wire``."""
    return [[[float(complex(z).real), float(complex(z).imag)] for z in row] for row in np.asarray(m)]


BIG_INT = "1" + "0" * 400  # an integer literal beyond double range


class TestMatrixCodec:
    @settings(max_examples=100, deadline=None)
    @given(complex_stacks())
    def test_round_trip_is_bit_exact(self, m):
        wire = json.loads(dumps(matrix_to_wire(m)))
        parsed = np.array([parse_matrix(op, f"m[{i}]") for i, op in enumerate(wire)])
        assert np.array_equal(parsed.view(float), m.view(float))
        assert np.array_equal(np.signbit(parsed.view(float)), np.signbit(m.view(float)))

    @settings(max_examples=100, deadline=None)
    @given(complex_stacks())
    def test_encoder_matches_per_entry_reference(self, m):
        assert dumps(matrix_to_wire(m)) == dumps([per_entry_wire(op) for op in m])
        assert dumps(matrix_to_wire(m[0])) == dumps(per_entry_wire(m[0]))

    def test_real_and_integer_matrices_encode_as_floats(self):
        identity = "[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[1.0,0.0]]]\n"
        assert dumps(matrix_to_wire(np.eye(2, dtype=int))) == identity
        assert dumps(matrix_to_wire(np.eye(2))) == identity

    def test_integer_literals_parse_as_doubles(self):
        m = parse_matrix(json.loads("[[[1,0],[0,-2]],[[0,0],[3,0]]]"), "m")
        assert m.dtype == complex
        assert np.array_equal(m, np.array([[1, -2j], [0, 3]]))

    def test_tuples_are_not_rows(self):
        with pytest.raises(BadMatrixShapeError, match=r"^m\[0\]: expected a non-empty row array$"):
            parse_matrix([((1.0, 0.0),)], "m")

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("[[[true,0],[0,0]],[[0,0],[1,0]]]", BadMatrixShapeError, "m[0][0]: expected a number"),
            ('[[["1.5",0],[0,0]],[[0,0],[1,0]]]', BadMatrixShapeError, "m[0][0]: expected a number"),
            ("[[[1,null],[0,0]],[[0,0],[1,0]]]", BadMatrixShapeError, "m[0][0]: expected a number"),
            ("[[[1,0],[0,0]],[[0,0]]]", BadMatrixShapeError, "m[1]: ragged row (1 vs 2)"),
            (
                "[[[1,0],[0,0]],[[0,0],[1,0,0]]]",
                BadMatrixShapeError,
                "m[1][1]: complex entries must be [re, im] pairs",
            ),
            ("[[[1,0],[0,0]],[]]", BadMatrixShapeError, "m[1]: expected a non-empty row array"),
            ("[]", BadMatrixShapeError, "m: expected a non-empty array of rows"),
            ("[[[1,0],[0,0]],[[0,Infinity],[1,0]]]", NonFiniteEntryError, "m[1][0]: non-finite value"),
            (f"[[[1,0],[0,0]],[[0,0],[{BIG_INT},0]]]", NonFiniteEntryError, "m[1][1]: non-finite value"),
        ],
        ids=["bool", "string", "null", "ragged", "triple", "empty_row", "empty", "infinity", "huge_int"],
    )
    def test_bad_entry(self, text, error, message):
        with pytest.raises(error) as info:
            parse_matrix(json.loads(text), "m")
        assert type(info.value) is error
        assert str(info.value) == message


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

    def test_canonical_needs_dim_squared_entries(self):
        op = matrix_to_wire(np.eye(2) / np.sqrt(2))
        text = dumps(
            {
                "format_version": "1",
                "representation": "canonical",
                "dim": 2,
                "basis": "pauli",
                "eigenvalues": [2.0],
                "operators": [op],
            }
        )
        with pytest.raises(BadMatrixShapeError, match=r"^representation\.eigenvalues: "):
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

    @pytest.mark.parametrize(
        "golden, field, value, error, message",
        [
            ("bit_flip", "p", 7, ProbabilityRangeError, "probability 7.0 outside [0, 1]"),
            ("pin", "p0", [2, 0, 0], OutsideBallError, "Bloch vector norm 2 exceeds 1 (tol 1e-09)"),
            ("unitary", "axis", [1, 1, 0], NotUnitAxisError, "axis norm 1.41421 differs from 1 beyond tol 1e-09"),
        ],
        ids=["bit_flip", "pin", "unitary"],
    )
    def test_channel_rule_errors_name_the_channel_block(self, golden, field, value, error, message):
        doc = json.loads((GOLDEN / f"{golden}.out.json").read_text())
        doc["report"]["channel"][field] = value
        with pytest.raises(error) as info:
            parse_report_document(json.dumps(doc))
        assert type(info.value) is error
        assert str(info.value) == f"report.report.channel: {message}"

    @pytest.mark.parametrize(
        "channel",
        [{"kind": "bit_flip", "dim": 3, "p": 0.75}, {"kind": "raw_a", "dim": 3}],
        ids=["bit_flip", "raw_a"],
    )
    def test_dim_must_fit_kind_and_spectra(self, channel):
        doc = json.loads((GOLDEN / "bit_flip.out.json").read_text())
        report = doc["report"]
        report["channel"] = channel
        op = matrix_to_wire(np.eye(3) / np.sqrt(3))
        report["canonical"]["operators"] = [op] * len(report["canonical"]["operators"])
        with pytest.raises(BadMatrixShapeError, match=r"^report\.report\.channel\.dim: "):
            parse_report_document(json.dumps(doc))

    @pytest.mark.parametrize("spectrum", ["b_spectrum"])
    def test_spectra_have_dim_squared_entries(self, spectrum):
        doc = json.loads((GOLDEN / "bit_flip.out.json").read_text())
        doc["report"][spectrum].pop()
        with pytest.raises(BadMatrixShapeError, match=r"^report\.report\.channel\.dim: "):
            parse_report_document(json.dumps(doc))

    def test_canonical_needs_dim_squared_entries(self):
        doc = json.loads((GOLDEN / "bit_flip.out.json").read_text())
        doc["report"]["canonical"]["eigenvalues"].pop()
        with pytest.raises(BadMatrixShapeError, match=r"^report\.report\.canonical\.eigenvalues: "):
            parse_report_document(json.dumps(doc))

    @pytest.mark.parametrize("change", ["drop", "add"])
    def test_operators_cover_the_support(self, change):
        # bit_flip(0.75) has eigenvalues [1.5, 0.5, 0, 0]: a support of two.
        doc = json.loads((GOLDEN / "bit_flip.out.json").read_text())
        canonical = doc["report"]["canonical"]
        assert len(canonical["operators"]) == 2 and canonical["null_dimension"] == 2
        if change == "drop":
            canonical["operators"].pop()
            canonical["null_dimension"] += 1
        else:
            canonical["operators"].append(canonical["operators"][0])
            canonical["null_dimension"] -= 1
        with pytest.raises(
            BadMatrixShapeError,
            match=r"^report\.report\.canonical\.operators: a support of \|eigenvalue\| > 1e-09 needs 2 entries, got ",
        ):
            parse_report_document(json.dumps(doc))

    def test_support_follows_options_tol(self):
        doc = json.loads((GOLDEN / "bit_flip.out.json").read_text())
        doc["report"]["options"]["tol"] = 1.0  # only 1.5 stays above it
        with pytest.raises(BadMatrixShapeError, match=r"^report\.report\.canonical\.operators: .* needs 1 entries, got 2$"):
            parse_report_document(json.dumps(doc))

    @pytest.mark.parametrize("tol", [0, -1e-9])
    def test_options_tol_must_be_positive(self, tol):
        # The count rules read options.tol; at 0 the bit_flip golden's counts would still fit.
        doc = json.loads((GOLDEN / "bit_flip.out.json").read_text())
        doc["report"]["options"]["tol"] = tol
        with pytest.raises(BadMatrixShapeError, match=r"^report\.report\.options\.tol: tolerance must be positive$"):
            parse_report_document(json.dumps(doc))

    @pytest.mark.parametrize(
        "block, field, value",
        [
            (None, "coefficient_spectrum", [1.5, 0.5, 0.0, 0.0]),
            ("a_form", "valid", True),
            ("b_form", "hermiticity_residual", 0.0),
            ("verdict", "tol", 1e-9),
            ("options", "seed", 0),
            ("options", "samples", 100),
            ("options", "basis", "pauli"),
            (None, "kraus_absent_reason", None),
        ],
        ids=[
            "coefficient_spectrum",
            "a_form.valid",
            "b_form.hermiticity_residual",
            "verdict.tol",
            "options.seed",
            "options.samples",
            "options.basis",
            "kraus_absent_reason",
        ],
    )
    def test_redundant_fields_are_rejected(self, block, field, value):
        """The coefficient spectrum (the canonical eigenvalues), B's hermiticity residual
        (A's), the verdict's tolerance (``options.tol``) and the basis (``canonical.basis``)
        are stated once elsewhere; A's validity is always true, the seed and sample count
        describe no computation, and ``kraus: null`` alone marks a map with no Kraus form.
        A report may not carry them."""
        doc = json.loads((GOLDEN / "bit_flip.out.json").read_text())
        parent = doc["report"] if block is None else doc["report"][block]
        parent[field] = value
        path = "report.report" if block is None else f"report.report.{block}"
        with pytest.raises(UnknownFieldError) as info:
            parse_report_document(json.dumps(doc))
        assert str(info.value) == f"{path}: unknown field {field!r}"

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_null_dimension_completes_dim_squared(self, delta):
        doc = json.loads((GOLDEN / "bit_flip.out.json").read_text())
        doc["report"]["canonical"]["null_dimension"] += delta
        with pytest.raises(
            BadMatrixShapeError,
            match=rf"^report\.report\.canonical\.null_dimension: dim 2 with 2 operators needs 2, got {2 + delta}$",
        ):
            parse_report_document(json.dumps(doc))

    @pytest.mark.parametrize("rank", [1, 3, 4])
    def test_kraus_rank_counts_eigenvalues_above_tol(self, rank):
        doc = json.loads((GOLDEN / "bit_flip.out.json").read_text())
        doc["report"]["kraus"]["rank"] = rank
        with pytest.raises(
            BadMatrixShapeError,
            match=rf"^report\.report\.kraus\.rank: 2 eigenvalues exceed tol 1e-09, got rank {rank}$",
        ):
            parse_report_document(json.dumps(doc))

    def test_kraus_block_on_ncp_verdict_rejected(self):
        # transpose has eigenvalues [1, 1, 1, -1]: three above tol, so the rank itself fits.
        doc = json.loads((GOLDEN / "transpose.out.json").read_text())
        doc["report"]["kraus"] = {"rank": 3}
        with pytest.raises(MissingFieldError, match=r"^report\.report\.kraus: .* got a Kraus set for not_completely_positive$"):
            parse_report_document(json.dumps(doc))

    @pytest.mark.parametrize(
        "golden, classification",
        [("bit_flip", "not_completely_positive"), ("transpose", "completely_positive")],
        ids=["kraus_kept_on_ncp", "kraus_null_on_cp"],
    )
    def test_kraus_is_null_exactly_when_not_cp(self, golden, classification):
        doc = json.loads((GOLDEN / f"{golden}.out.json").read_text())
        doc["report"]["verdict"]["classification"] = classification
        with pytest.raises(MissingFieldError, match=r"^report\.report\.kraus: "):
            parse_report_document(json.dumps(doc))

    def test_zoo_kind_must_be_a_string(self):
        text = '{"format_version":"1","channels":[{"kind":["pin"],"summary":"x"}]}'
        with pytest.raises(UnknownFieldError):
            parse_zoo_document(text)


def _report_cases():
    """The six goldens, and CP maps of Kraus rank 1, n and n^2 and one NCP map as raw_a at n = 3..6."""
    for golden in sorted(GOLDEN.glob("*.out.json")):
        yield pytest.param(golden.name, id=golden.name.split(".")[0])
    for n in range(3, 7):
        for rank in sorted({1, n, n * n}):
            yield pytest.param((n, rank), id=f"cp-n{n}-rank{rank}")
        yield pytest.param((n, None), id=f"ncp-n{n}")


def _spec_and_report(case) -> tuple[ChannelSpec, str]:
    if isinstance(case, str):
        doc = parse_channel_document((GOLDEN / case.replace(".out.", ".doc.")).read_text())
        return doc.channel, (GOLDEN / case).read_text()
    n, rank = case
    a = random_ncp_a(n, seed=n) if rank is None else kraus_to_a(random_cp_channel(n, rank, seed=10 * n + rank))
    spec = ChannelSpec.raw_a(a.matrix)
    return spec, dumps(report_document(analyze(spec)))


class TestTrimmedReport:
    """A report lists only the canonical operators of its support and names the
    Kraus set by rank; the parsed report alone still gives the map back."""

    @pytest.mark.parametrize("case", list(_report_cases()))
    def test_parsed_report_reconstructs_the_map(self, case):
        spec, text = _spec_and_report(case)
        rep = parse_report_document(text)
        n, tol = rep["channel"]["dim"], rep["options"]["tol"]
        a = channel_a(spec, tol).matrix
        lam = np.array(rep["canonical"]["eigenvalues"])
        ops = np.array(rep["canonical"]["operators"])
        support = lam[np.abs(lam) > tol]
        assert len(ops) == len(support) and rep["canonical"]["null_dimension"] == n * n - len(ops)
        rebuilt = sum(w * np.kron(c, c.conj()) for w, c in zip(support, ops))
        assert np.abs(rebuilt - a).max() <= tol * n * n

        if rep["kraus"] is None:
            assert rep["verdict"]["classification"] == "not_completely_positive"
            return
        r = rep["kraus"]["rank"]
        kraus = KrausSet(np.sqrt(lam[:r])[:, None, None] * ops[:r], tol=_kraus_tol(tol, n))
        assert np.abs(kraus_to_a(kraus, _kraus_tol(tol, n)).matrix - a).max() <= tol * n * n
