import copy
import io
import json
import os
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanforms import build_bit_flip_a, build_unitary_a, cli
from chanforms.serialize import (
    dumps,
    matrix_to_wire,
    parse_channel_document,
    parse_output_document,
    parse_report_document,
    parse_representation_document,
    parse_zoo_document,
)
from conftest import run_cli

TRANSPOSE_DOC = '{"format_version":"1","channel":{"kind":"transpose"}}'
BIT_FLIP_DOC = '{"format_version":"1","channel":{"kind":"bit_flip","p":0.75}}'
PROJECTION_DOC = '{"format_version":"1","channel":{"kind":"equatorial_projection"}}'
PIN_DOC = '{"format_version":"1","channel":{"kind":"pin","p0":[0,0,1]}}'
GOLDEN = Path(__file__).parent / "golden"


def invalid_map_doc() -> str:
    bad = np.eye(4, dtype=complex) * 0.5  # columns sum to 1/2, not 1
    return dumps({"format_version": "1", "channel": {"kind": "raw_a", "matrix": matrix_to_wire(bad)}})


class TestExitCodes:
    def test_cp_analyze_exits_zero(self):
        result = run_cli(["analyze", "-"], stdin_text=BIT_FLIP_DOC)
        assert result.returncode == 0

    def test_ncp_analyze_exits_three(self):
        result = run_cli(["analyze", "-"], stdin_text=TRANSPOSE_DOC)
        assert result.returncode == 3

    def test_invalid_map_exits_one(self):
        result = run_cli(["analyze", "-"], stdin_text=invalid_map_doc())
        assert result.returncode == 1
        assert "trace-preservation" in result.stderr

    @pytest.mark.parametrize(
        "channel, message",
        [
            ({"kind": "bit_flip", "p": 7}, "probability 7.0 outside [0, 1]"),
            ({"kind": "pin", "p0": [2, 0, 0]}, "Bloch vector norm 2 exceeds 1 (tol 1e-09)"),
            (
                {"kind": "unitary", "axis": [1, 1, 0], "angle": 0.5},
                "axis norm 1.41421 differs from 1 beyond tol 1e-09",
            ),
            (
                {"kind": "raw_kraus", "operators": [matrix_to_wire(np.diag([1.0, 0.0]))]},
                "completeness residual 1 exceeds tol 1e-09",
            ),
        ],
        ids=["bit_flip", "pin", "unitary", "raw_kraus"],
    )
    def test_channel_rule_errors_name_the_json_path(self, channel, message):
        doc = json.dumps({"format_version": "1", "channel": channel})
        result = run_cli(["analyze", "-", "--output", "machine"], stdin_text=doc)
        assert result.returncode == 2
        assert result.stderr == f"error: document.channel: {message}\n"

    def test_parse_error_exits_two(self):
        result = run_cli(["analyze", "-"], stdin_text="{not json")
        assert result.returncode == 2

    def test_unknown_field_exits_two(self):
        doc = '{"format_version":"1","channel":{"kind":"transpose"},"oops":1}'
        result = run_cli(["analyze", "-"], stdin_text=doc)
        assert result.returncode == 2
        assert "oops" in result.stderr

    def test_usage_error_exits_two(self):
        result = run_cli(["analyze"])  # missing document argument
        assert result.returncode == 2

    def test_missing_file_exits_two(self, tmp_path):
        result = run_cli(["analyze", str(tmp_path / "absent.json")])
        assert result.returncode == 2

    def test_kraus_conversion_of_ncp_map_exits_three(self):
        result = run_cli(["convert", "-", "--to", "kraus"], stdin_text=PROJECTION_DOC)
        assert result.returncode == 3
        assert "not completely positive" in result.stderr

    def test_convert_succeeds_on_ncp_map_for_other_targets(self):
        result = run_cli(["convert", "-", "--to", "b_form"], stdin_text=TRANSPOSE_DOC)
        assert result.returncode == 0

    def test_a_form_conversion_exit_does_not_depend_on_output_mode(self):
        # The unitary's A-form carries a hermiticity residual of ~4e-20, above this tol.
        argv = ["convert", str(GOLDEN / "unitary.doc.json"), "--to", "a_form", "--tol", "1e-20"]
        human, machine = run_cli(argv), run_cli([*argv, "--output", "machine"])
        assert human.returncode == machine.returncode == 1
        assert human.stdout == machine.stdout == ""
        assert human.stderr == machine.stderr
        assert "hermiticity-preservation residual" in machine.stderr

    @pytest.mark.parametrize(
        "channel, path",
        [
            ({"kind": "raw_a", "matrix": [[[1, 0]]]}, "document.channel.matrix"),
            ({"kind": "raw_kraus", "operators": [[[[1, 0]]]]}, "document.channel.operators[0]"),
        ],
        ids=["raw_a", "raw_kraus"],
    )
    def test_one_dimensional_raw_document_exits_two(self, channel, path):
        doc = dumps({"format_version": "1", "channel": channel})
        result = run_cli(["analyze", "-"], stdin_text=doc)
        assert result.returncode == 2
        assert "internal error" not in result.stderr
        assert path in result.stderr

    @pytest.mark.parametrize(
        "argv, channel, message",
        [
            (["analyze", "-"], {"kind": "pin", "p0": [1e308, 0.0, 0.5]}, "Bloch vector norm 1e+308 exceeds 1"),
            (
                ["apply", "-", "--state", '{"bloch":[1e200,0,0]}'],
                {"kind": "transpose"},
                "Bloch vector norm 1e+200 exceeds 1",
            ),
            (["analyze", "-"], {"kind": "unitary", "axis": [1e200, 0, 0], "angle": 1.0}, "axis norm 1e+200"),
        ],
        ids=["pin_p0", "apply_state", "unitary_axis"],
    )
    def test_huge_finite_vector_components_exit_two(self, argv, channel, message):
        # Squaring a component above ~1.3e154 overflows; the norm must not.
        result = run_cli(argv, stdin_text=dumps({"format_version": "1", "channel": channel}))
        assert result.returncode == 2
        assert "internal error" not in result.stderr and "Warning" not in result.stderr
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]

    def test_apply_returns_zero_regardless_of_verdict(self):
        result = run_cli(
            ["apply", "-", "--state", '{"bloch":[0,1,0]}'], stdin_text=TRANSPOSE_DOC
        )
        assert result.returncode == 0


class TestAnalyzeOutput:
    def test_human_report_mentions_spectrum_and_verdict(self):
        result = run_cli(["analyze", "-"], stdin_text=TRANSPOSE_DOC)
        assert "B spectrum: [1, 1, 1, -1]" in result.stdout
        assert "coefficient spectrum:" not in result.stdout
        assert "NOT completely positive" in result.stdout

    def test_machine_report_is_json(self):
        result = run_cli(["analyze", "-", "--output", "machine"], stdin_text=BIT_FLIP_DOC)
        payload = json.loads(result.stdout)
        report = payload["report"]
        assert report["verdict"]["classification"] == "completely_positive"
        assert report["kraus"] == {"rank": 2}
        assert report["canonical"]["eigenvalues"][0] == pytest.approx(1.5)

    def test_machine_output_byte_identical(self):
        args = ["analyze", "-", "--output", "machine"]
        first = run_cli(args, stdin_text=BIT_FLIP_DOC)
        second = run_cli(args, stdin_text=BIT_FLIP_DOC)
        assert first.stdout == second.stdout

    def test_basis_flag(self):
        result = run_cli(
            ["analyze", "-", "--output", "machine", "--basis", "units"],
            stdin_text=BIT_FLIP_DOC,
        )
        payload = json.loads(result.stdout)
        assert payload["report"]["canonical"]["basis"] == "units"
        # the spectrum is basis independent
        assert payload["report"]["canonical"]["eigenvalues"][0] == pytest.approx(1.5)


class TestApply:
    def test_projection_flattens_bloch_vector(self):
        result = run_cli(
            ["apply", "-", "--state", '{"bloch":[0.2,-0.3,0.9]}', "--output", "machine"],
            stdin_text=PROJECTION_DOC,
        )
        out = json.loads(result.stdout)["output"]
        assert np.allclose(out["bloch"], [0.2, -0.3, 0.0], atol=1e-12)
        assert out["positive"]

    def test_pin_fixes_output(self):
        result = run_cli(
            ["apply", "-", "--state", '{"bloch":[0.3,0.3,-0.8]}', "--output", "machine"],
            stdin_text=PIN_DOC,
        )
        out = json.loads(result.stdout)["output"]
        assert np.allclose(out["bloch"], [0, 0, 1], atol=1e-12)

    def test_transpose_negates_sigma2_human(self):
        result = run_cli(
            ["apply", "-", "--state", '{"bloch":[0,1,0]}'], stdin_text=TRANSPOSE_DOC
        )
        assert "bloch: (0, -1, 0)" in result.stdout

    def test_nonpositive_output_flagged(self):
        stretch = np.array(
            [[1.25, 0, 0, -0.25], [0, 0, 0, 0], [0, 0, 0, 0], [-0.25, 0, 0, 1.25]],
            dtype=complex,
        )
        doc = dumps(
            {"format_version": "1", "channel": {"kind": "raw_a", "matrix": matrix_to_wire(stretch)}}
        )
        result = run_cli(
            ["apply", "-", "--state", '{"bloch":[0,0,1]}', "--output", "machine"],
            stdin_text=doc,
        )
        out = json.loads(result.stdout)["output"]
        assert not out["positive"]
        assert out["min_eigenvalue"] == pytest.approx(-0.25, abs=1e-12)

    def test_state_from_file(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text('{"bloch":[0,0,1]}')
        result = run_cli(["apply", "-", "--state", str(state)], stdin_text=PIN_DOC)
        assert result.returncode == 0

    def test_invalid_state_exits_two(self):
        result = run_cli(
            ["apply", "-", "--state", '{"bloch":[2,0,0]}'], stdin_text=PIN_DOC
        )
        assert result.returncode == 2


class TestConvert:
    def test_pin_b_form_is_fixed_state_tensor_identity(self):
        result = run_cli(
            ["convert", "-", "--to", "b_form", "--output", "machine"], stdin_text=PIN_DOC
        )
        payload = json.loads(result.stdout)
        m = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
        assert np.allclose(m, np.kron(np.diag([1.0, 0.0]), np.eye(2)), atol=1e-12)

    def test_unitary_canonical_is_rank_one(self):
        doc = '{"format_version":"1","channel":{"kind":"unitary","axis":[0,0,1],"angle":3.141592653589793}}'
        result = run_cli(
            ["convert", "-", "--to", "canonical", "--output", "machine"], stdin_text=doc
        )
        payload = json.loads(result.stdout)
        assert payload["eigenvalues"][0] == pytest.approx(2.0, abs=1e-12)
        assert np.abs(payload["eigenvalues"][1:]).max() < 1e-12

    def test_a_form_output_feeds_back_into_analyze(self):
        converted = run_cli(
            ["convert", "-", "--to", "a_form", "--output", "machine"], stdin_text=BIT_FLIP_DOC
        )
        doc = parse_channel_document(converted.stdout)
        assert doc.channel.kind.value == "raw_a"
        reanalyzed = run_cli(["analyze", "-", "--output", "machine"], stdin_text=converted.stdout)
        assert reanalyzed.returncode == 0
        spectrum = json.loads(reanalyzed.stdout)["report"]["canonical"]["eigenvalues"]
        assert spectrum[0] == pytest.approx(1.5)

    def test_kraus_output_feeds_back_into_analyze(self):
        converted = run_cli(
            ["convert", "-", "--to", "kraus", "--output", "machine"], stdin_text=BIT_FLIP_DOC
        )
        assert converted.returncode == 0
        reanalyzed = run_cli(["analyze", "-", "--output", "machine"], stdin_text=converted.stdout)
        assert reanalyzed.returncode == 0

    def test_coefficient_output(self):
        result = run_cli(
            ["convert", "-", "--to", "coefficient", "--output", "machine"],
            stdin_text=TRANSPOSE_DOC,
        )
        payload = json.loads(result.stdout)
        m = np.array([[complex(re, im) for re, im in row] for row in payload["matrix"]])
        assert np.allclose(m, np.diag([1, 1, -1, 1]), atol=1e-12)


class TestZoo:
    def test_lists_named_channels(self):
        result = run_cli(["zoo"])
        assert result.returncode == 0
        for kind in ("unitary", "pin", "transpose", "equatorial_projection", "bit_flip", "phase_flip"):
            assert kind in result.stdout

    def test_machine_output(self):
        result = run_cli(["zoo", "--output", "machine"])
        payload = json.loads(result.stdout)
        assert len(payload["channels"]) == 6


class TestMachineOutputReparses:
    """Every machine-mode emission re-parses under the strict parser family."""

    def test_analyze_cp_report(self):
        result = run_cli(["analyze", "-", "--output", "machine"], stdin_text=BIT_FLIP_DOC)
        parsed = parse_report_document(result.stdout)
        assert parsed["verdict"]["classification"] == "completely_positive"
        assert parsed["kraus"] is not None

    def test_analyze_ncp_report(self):
        result = run_cli(["analyze", "-", "--output", "machine"], stdin_text=TRANSPOSE_DOC)
        parsed = parse_report_document(result.stdout)
        assert parsed["kraus"] is None

    def test_analyze_unitary_report_with_parameters(self):
        doc = '{"format_version":"1","channel":{"kind":"unitary","axis":[0,0,1],"angle":0.5}}'
        result = run_cli(["analyze", "-", "--output", "machine"], stdin_text=doc)
        parsed = parse_report_document(result.stdout)
        assert parsed["channel"]["axis"] == [0, 0, 1]

    def test_apply_output(self):
        result = run_cli(
            ["apply", "-", "--state", '{"bloch":[0,0,1]}', "--output", "machine"],
            stdin_text=PIN_DOC,
        )
        parsed = parse_output_document(result.stdout)
        assert parsed["positive"] is True
        assert np.allclose(parsed["bloch"], [0, 0, 1], atol=1e-12)

    @pytest.mark.parametrize("target", ["b_form", "coefficient", "canonical"])
    def test_convert_representations(self, target):
        result = run_cli(
            ["convert", "-", "--to", target, "--output", "machine"], stdin_text=BIT_FLIP_DOC
        )
        parsed = parse_representation_document(result.stdout)
        assert parsed["representation"] == target

    @pytest.mark.parametrize("target", ["a_form", "kraus"])
    def test_convert_channel_documents(self, target):
        result = run_cli(
            ["convert", "-", "--to", target, "--output", "machine"], stdin_text=BIT_FLIP_DOC
        )
        doc = parse_channel_document(result.stdout)
        assert doc.channel.kind.value == ("raw_a" if target == "a_form" else "raw_kraus")

    def test_zoo_listing(self):
        result = run_cli(["zoo", "--output", "machine"])
        entries = parse_zoo_document(result.stdout)
        assert {e["kind"] for e in entries} == {
            "unitary", "pin", "transpose", "equatorial_projection", "bit_flip", "phase_flip",
        }


class TestToleranceResolution:
    def doc_with_small_violation(self) -> str:
        slightly_off = np.eye(4, dtype=complex)
        slightly_off[0, 0] = 1 + 1e-6
        return dumps(
            {
                "format_version": "1",
                "channel": {"kind": "raw_a", "matrix": matrix_to_wire(slightly_off)},
            }
        )

    def test_env_var_sets_default_tolerance(self):
        env = {**os.environ, "CHANFORMS_TOL": "1e-3"}
        result = run_cli(["analyze", "-"], stdin_text=self.doc_with_small_violation(), env=env)
        assert result.returncode == 0

    def test_flag_beats_env_var(self):
        env = {**os.environ, "CHANFORMS_TOL": "1e-3"}
        result = run_cli(
            ["analyze", "-", "--tol", "1e-9"],
            stdin_text=self.doc_with_small_violation(),
            env=env,
        )
        assert result.returncode == 1  # strict flag tolerance rejects the map

    def test_document_tol_beats_env(self):
        env = {**os.environ, "CHANFORMS_TOL": "1e-12"}
        doc = parse_channel_document(self.doc_with_small_violation(), tol_override=1e-3)
        wire = dumps(
            {
                "format_version": "1",
                "channel": {"kind": "raw_a", "matrix": matrix_to_wire(doc.channel.matrix)},
                "options": {"tol": 1e-3},
            }
        )
        result = run_cli(["analyze", "-"], stdin_text=wire, env=env)
        assert result.returncode == 0

    def test_bad_env_value_exits_two(self):
        env = {**os.environ, "CHANFORMS_TOL": "not-a-number"}
        result = run_cli(["analyze", "-"], stdin_text=TRANSPOSE_DOC, env=env)
        assert result.returncode == 2

    def test_bad_env_value_exits_two_even_with_flag(self):
        env = {**os.environ, "CHANFORMS_TOL": "not-a-number"}
        result = run_cli(["analyze", "-", "--tol", "1e-9"], stdin_text=TRANSPOSE_DOC, env=env)
        assert result.returncode == 2
        assert "CHANFORMS_TOL: not a number" in result.stderr

    def test_non_numeric_tol_flag_exits_two(self):
        result = run_cli(["analyze", "-", "--tol", "x"], stdin_text=TRANSPOSE_DOC)
        assert result.returncode == 2
        assert "argument --tol: not a number: 'x'" in result.stderr
        assert "_tol_flag" not in result.stderr

    def test_nonpositive_tol_flag_exits_two(self):
        result = run_cli(["analyze", "-", "--tol", "-1e-9"], stdin_text=TRANSPOSE_DOC)
        assert result.returncode == 2

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_nonfinite_tol_flag_exits_two(self, tol):
        result = run_cli(["analyze", "-", "--tol", tol], stdin_text=BIT_FLIP_DOC)
        assert result.returncode == 2
        assert "tolerance must be finite" in result.stderr

    def test_nonfinite_env_tol_exits_two(self):
        env = {**os.environ, "CHANFORMS_TOL": "inf"}
        result = run_cli(["analyze", "-"], stdin_text=BIT_FLIP_DOC, env=env)
        assert result.returncode == 2
        assert "tolerance must be finite" in result.stderr

    def test_nonpositive_env_tol_exits_two(self):
        env = {**os.environ, "CHANFORMS_TOL": "0"}
        result = run_cli(["analyze", "-"], stdin_text=BIT_FLIP_DOC, env=env)
        assert result.returncode == 2
        assert "tolerance must be positive" in result.stderr

    def test_negative_seed_flag_exits_two(self):
        result = run_cli(["analyze", "-", "--seed", "-3"], stdin_text=TRANSPOSE_DOC)
        assert result.returncode == 2
        assert "unrecognized arguments: --seed" in result.stderr


def main_in_process(capsys, argv):
    """``cli.main`` in this process; returns (exit code, stdout, stderr)."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BIG_INT = "1" + "0" * 400  # an integer literal beyond double range
LONG_INT = "1" * 5000  # beyond Python's 4,300-digit limit for reading an integer literal
DEEP = "[" * 100_000 + "]" * 100_000


class TestInProcess:
    """Faults that once reached the catch-all, and the reuse of one parser."""

    @pytest.fixture
    def bit_flip_path(self, tmp_path):
        path = tmp_path / "bit_flip.json"
        path.write_text(BIT_FLIP_DOC)
        return str(path)

    @pytest.mark.parametrize(
        "doc, path",
        [
            (
                '{"format_version":"1","channel":{"kind":"raw_kraus","operators":'
                f'[[[[1,0],[0,0]],[[0,0],[{BIG_INT},0]]]]}}}}',
                "document.channel.operators[0][1][1]",
            ),
            (
                '{"format_version":"1","channel":{"kind":"transpose"},'
                f'"options":{{"tol":{BIG_INT}}}}}',
                "document.options.tol",
            ),
        ],
        ids=["raw_kraus_entry", "options_tol"],
    )
    def test_huge_integer_in_document_exits_two(self, capsys, tmp_path, doc, path):
        file = tmp_path / "doc.json"
        file.write_text(doc)
        code, out, err = main_in_process(capsys, ["analyze", str(file)])
        assert code == 2
        assert f"error: {path}: non-finite value" in err
        assert "internal error" not in err

    def test_huge_integer_in_state_exits_two(self, capsys, bit_flip_path):
        state = f'{{"bloch":[0,0,{BIG_INT}]}}'
        code, out, err = main_in_process(capsys, ["apply", bit_flip_path, "--state", state])
        assert code == 2
        assert "error: state.bloch[2]: non-finite value" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("what", ["document", "state"])
    def test_invalid_utf8_file_exits_two(self, capsys, tmp_path, bit_flip_path, what):
        file = tmp_path / "bad.json"
        if what == "document":
            file.write_bytes(BIT_FLIP_DOC.encode() + b"\xff")
            argv = ["analyze", str(file)]
        else:
            file.write_bytes(b'{"bloch":[0,0,1]}\xff')
            argv = ["apply", bit_flip_path, "--state", str(file)]
        code, out, err = main_in_process(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {what}: input is not valid UTF-8\n")

    @pytest.mark.parametrize("what", ["document", "state"])
    def test_integer_past_the_digit_limit_exits_two(self, capsys, tmp_path, bit_flip_path, what):
        if what == "document":
            file = tmp_path / "doc.json"
            file.write_text(f'{{"format_version":"1","channel":{{"kind":"bit_flip","p":{LONG_INT}}}}}')
            argv = ["analyze", str(file)]
        else:
            argv = ["apply", bit_flip_path, "--state", f'{{"bloch":[0,0,{LONG_INT}]}}']
        code, out, err = main_in_process(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {what}: non-finite value: an integer literal beyond the double range\n"

    def test_deeply_nested_document_exits_two(self, capsys, tmp_path):
        file = tmp_path / "deep.json"
        file.write_text(DEEP)
        code, out, err = main_in_process(capsys, ["analyze", str(file)])
        assert (code, err) == (2, "error: document: input is nested too deeply\n")

    def test_deeply_nested_state_exits_two(self, capsys, bit_flip_path):
        state = '{"bloch":' + DEEP + "}"
        code, out, err = main_in_process(capsys, ["apply", bit_flip_path, "--state", state])
        assert (code, err) == (2, "error: state: input is nested too deeply\n")

    def test_negative_zero_a_form_echoes_its_input(self, capsys, tmp_path):
        # Every zero part written as -0.0; the a_form target must give it back byte for byte.
        matrix = [[[float(z.real) or -0.0, -0.0] for z in row] for row in build_bit_flip_a(0.25).matrix]
        text = json.dumps(
            {"format_version": "1", "channel": {"kind": "raw_a", "matrix": matrix}},
            separators=(",", ":"),
        )
        assert "-0.0" in text
        file = tmp_path / "negzero.json"
        file.write_text(text)
        code, out, err = main_in_process(
            capsys, ["convert", str(file), "--to", "a_form", "--output", "machine"]
        )
        assert (code, out, err) == (0, text + "\n", "")

    def test_seed_flag_is_a_usage_error(self, capsys, bit_flip_path):
        code, out, err = main_in_process(capsys, ["analyze", bit_flip_path, "--seed", "3"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: chanforms") and "unrecognized arguments: --seed 3" in err

    @pytest.mark.parametrize("field", ["seed", "samples"])
    def test_removed_document_option_exits_two(self, capsys, tmp_path, field):
        file = tmp_path / "doc.json"
        file.write_text(f'{{"format_version":"1","channel":{{"kind":"transpose"}},"options":{{"{field}":3}}}}')
        code, out, err = main_in_process(capsys, ["analyze", str(file), "--output", "machine"])
        assert (code, out, err) == (2, "", f"error: document.options: unknown field '{field}'\n")

    @pytest.fixture
    def huge_path(self, tmp_path):
        """A valid raw_a map, the identity with A[1,0] = A[2,0] = 1e308: Hermitian
        and trace preserving, but the Bloch vectors of its outputs overflow."""
        a = np.eye(4)
        a[1, 0] = a[2, 0] = 1e308
        matrix = np.stack((a, np.zeros_like(a)), -1).tolist()
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"format_version": "1", "channel": {"kind": "raw_a", "matrix": matrix}}))
        return str(path)

    @pytest.mark.parametrize("output", ["human", "machine"])
    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["apply", "--state", '{"bloch":[0,0,1]}']],
        ids=["analyze", "apply"],
    )
    def test_overflow_exits_two(self, capsys, huge_path, command, output):
        """``apply``'s output overflows and exits 2.  ``analyze`` halves before adding
        in its eigensolves, so in ``units`` it reports the map as not CP and exits 3;
        in ``pauli`` the trace-formula spectrum loses the eigenvalue 1, and the failed
        spectral check exits 2."""
        for basis in ("pauli", "units") if command[0] == "analyze" else (None,):
            argv = [command[0], huge_path, *command[1:], "--output", output]
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a numpy RuntimeWarning fails the run
                code, out, err = main_in_process(capsys, argv + (["--basis", basis] if basis else []))
            if command[0] == "apply":
                assert (code, out) == (2, "")
                assert err.startswith("error: numeric overflow encountered in ") and err.count("\n") == 1
            elif basis == "pauli":
                assert (code, out) == (2, "")
                assert err.startswith("error: coefficient and B spectra differ by 2e+292") and err.count("\n") == 1
            else:
                assert (code, err) == (3, "")
                if output == "machine":
                    assert parse_report_document(out)["canonical"]["basis"] == basis
                else:
                    assert out.startswith("channel: raw_a (dim 2)") and "verdict: NOT completely positive" in out

    @pytest.mark.parametrize("output", ["human", "machine"])
    def test_state_beyond_the_double_range_exits_two(self, capsys, bit_flip_path, output):
        # The Hermitian part's off-diagonal entry has modulus 1.5e308 * sqrt(2), beyond range.
        state = json.dumps({"density": [[[1, 0], [1.5e308, 1.5e308]], [[1.5e308, -1.5e308], [0, 0]]]})
        code, out, err = main_in_process(capsys, ["apply", bit_flip_path, "--state", state, "--output", output])
        assert (code, out) == (2, "")
        assert err == "error: entries too large for the eigenvalue check: absolute value too large\n"

    def test_overflow_free_conversion_still_succeeds(self, capsys, huge_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = main_in_process(
                capsys, ["convert", huge_path, "--to", "canonical", "--output", "machine"]
            )
        assert (code, err) == (0, "")
        assert max(parse_representation_document(out)["eigenvalues"]) == pytest.approx(1e308)

    @pytest.mark.parametrize("options", [[], ["--tol", "1e-7"], ["--tol", "1e-20"]], ids=["default", "1e-7", "1e-20"])
    @pytest.mark.parametrize("doc", sorted(GOLDEN.glob("*.doc.json")), ids=lambda p: p.name.split(".")[0])
    def test_output_mode_changes_no_exit_code_or_stderr(self, capsys, doc, options):
        commands = [["analyze"], ["apply", "--state", '{"bloch":[0,0,1]}']]
        commands += [["convert", "--to", target] for target in cli.CONVERT_TARGETS]
        for command in commands:
            argv = [command[0], str(doc), *command[1:], *options]
            human = main_in_process(capsys, [*argv, "--output", "human"])
            machine = main_in_process(capsys, [*argv, "--output", "machine"])
            assert (human[0], human[2]) == (machine[0], machine[2]), argv

    def test_named_and_raw_a_forms_fail_alike_at_a_tiny_tol(self, capsys, tmp_path):
        """Every kind's A-form is checked at the effective tolerance: at 1e-20 the
        named unitary and the raw_a document of its matrix both exit 1 in every
        subcommand, with one message (the raw one names its JSON path)."""
        a = build_unitary_a([0.6, 0, 0.8], 1.0).matrix
        channels = {
            "named": {"kind": "unitary", "axis": [0.6, 0, 0.8], "angle": 1.0},
            "raw_a": {"kind": "raw_a", "matrix": np.stack((a.real, a.imag), -1).tolist()},
        }
        paths = {name: tmp_path / f"{name}.json" for name in channels}
        for name, channel in channels.items():
            paths[name].write_text(json.dumps({"format_version": "1", "channel": channel}))
        commands = [["analyze"], ["apply", "--state", '{"bloch":[0,0,1]}']]
        commands += [["convert", "--to", target] for target in cli.CONVERT_TARGETS]
        for command in commands:
            named, raw = (
                main_in_process(capsys, [command[0], str(paths[name]), *command[1:], "--tol", "1e-20"])
                for name in channels
            )
            assert named[:2] == raw[:2] == (1, ""), command
            assert named[2] == raw[2].replace("document.channel: ", ""), command
            assert named[2].startswith("invalid map: hermiticity-preservation residual ")
            assert named[2].endswith(" exceeds tol 1e-20\n") and named[2].count("\n") == 1

    def test_parser_is_built_once_and_reused(self, capsys, bit_flip_path):
        assert cli.build_parser() is cli.build_parser()
        assert main_in_process(capsys, ["analyze"])[0] == 2
        code, units, _ = main_in_process(
            capsys, ["analyze", bit_flip_path, "--output", "machine", "--basis", "units"]
        )
        assert code == 0
        code, default, _ = main_in_process(capsys, ["analyze", bit_flip_path, "--output", "machine"])
        assert code == 0
        assert json.loads(units)["report"]["canonical"]["basis"] == "units"
        assert json.loads(default)["report"]["canonical"]["basis"] == "pauli"


def _raw_documents() -> list[dict]:
    """Raw documents: a qubit A-form and Kraus set, and qutrit A-forms of
    the identity (CP) and the transpose (not CP)."""
    flip = np.array([[0, 1], [1, 0]])
    bit_flip = 0.75 * np.eye(4) + 0.25 * np.kron(flip, flip)
    damping = [np.array([[1, 0], [0, np.sqrt(0.5)]]), np.array([[0, np.sqrt(0.5)], [0, 0]])]
    transpose = np.zeros((9, 9))
    for r in range(3):
        for s in range(3):
            transpose[s * 3 + r, r * 3 + s] = 1.0
    return [
        {"format_version": "1", "channel": {"kind": "raw_a", "matrix": matrix_to_wire(bit_flip)}},
        {"format_version": "1", "channel": {"kind": "raw_kraus", "operators": [matrix_to_wire(k) for k in damping]}},
        {"format_version": "1", "channel": {"kind": "raw_a", "matrix": matrix_to_wire(np.eye(9))}},
        {"format_version": "1", "channel": {"kind": "raw_a", "matrix": matrix_to_wire(transpose)}},
    ]


FUZZ_DOCUMENTS = [json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.doc.json"))] + _raw_documents()
LEAF_POOL = [0, -0.0, 1e308, -1e308, 5e-324, 123456789012345678901234567890, True, None, "x", [], {}]
FUZZ_STATES = ['{"bloch":[0.2,-0.3,0.9]}', json.dumps({"density": matrix_to_wire(np.eye(3) / 3)})]
REPARSERS = {
    "analyze": parse_report_document,
    "apply": parse_output_document,
    "b_form": parse_representation_document,
    "coefficient": parse_representation_document,
    "canonical": parse_representation_document,
}


def _leaf_paths(obj, path=()):
    """The path of every leaf of a JSON value; an empty container counts as a leaf."""
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            yield from _leaf_paths(value, (*path, key))
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from _leaf_paths(value, (*path, i))
    else:
        yield path


@st.composite
def fuzz_runs(draw):
    """A golden or raw document with one or two leaves replaced from ``LEAF_POOL``,
    a random ``options.tol``, and a random subcommand with random flags."""
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_DOCUMENTS)))
    tol = draw(st.sampled_from([None, 1e-12, 1e-9, 1e-6, 1e-3, 0.5]))
    if tol is not None:
        doc["options"] = {"tol": tol}
    paths = list(_leaf_paths(doc))
    for path in draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True)):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = draw(st.sampled_from(LEAF_POOL))
    command = draw(st.sampled_from(["analyze", "apply", "convert"]))
    argv = [command, "-"]
    if command == "apply":
        argv += ["--state", draw(st.sampled_from(FUZZ_STATES))]
    else:
        if command == "convert":
            argv += ["--to", draw(st.sampled_from(cli.CONVERT_TARGETS))]
        basis = draw(st.sampled_from([None, "pauli", "units"]))
        argv += ["--basis", basis] if basis else []
    argv += ["--output", draw(st.sampled_from(["human", "machine"]))]
    return json.dumps(doc), argv


class TestExitCodeTable:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(fuzz_runs())
    def test_every_mutated_document_lands_on_one_documented_exit_code(self, run):
        """Exit 0-3, at most one stderr line and never the catch-all, no stdout
        on exits 1 and 2, and machine output that re-parses strictly."""
        text, argv = run
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3)
        assert err.count("\n") <= 1 and "internal error" not in err
        if code in (1, 2):
            assert out == ""
        target = argv[argv.index("--to") + 1] if "--to" in argv else argv[0]
        if out and argv[-1] == "machine" and target in REPARSERS:
            REPARSERS[target](out)
