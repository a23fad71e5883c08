"""Smoke runs of the scripts, so a renamed library name cannot break them silently."""

import dataclasses
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv",
    [["zoo_report.py"], ["spectral_experiment.py", "--count", "20"]],
    ids=["zoo_report", "spectral_experiment"],
)
def test_script_exits_zero(argv, tmp_path):
    """Run from another directory with PYTHONPATH unset, a script imports its own checkout."""
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=tmp_path,
        env=without_pythonpath(),
    )
    assert result.returncode == 0, result.stderr


def without_pythonpath() -> dict:
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def test_cli_matrix_is_reproducible(tmp_path):
    """Two runs print the same lines, so a diff between checkouts shows only output changes;
    the second runs from another directory with PYTHONPATH unset, so each checkout runs its own code."""
    runs = [
        subprocess.run(
            [sys.executable, str(SCRIPTS / "cli_matrix.py"), "--sizes", "2"],
            capture_output=True,
            text=True,
            timeout=120,
            **kwargs,
        )
        for kwargs in ({}, {"cwd": tmp_path, "env": without_pythonpath()})
    ]
    for result in runs:
        assert result.returncode == 0, result.stderr
    lines = runs[0].stdout.splitlines()
    # six goldens and nine seeded documents, 54 runs each, and zoo in both output modes
    assert len(lines) == 15 * 54 + 2
    assert runs[1].stdout == runs[0].stdout


def test_readme_library_example_runs():
    """README.md's one Python block runs as written."""
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    result = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("workload", ["qubit_sweep", "dense_documents"])
def test_op_calls_repeats_exactly(workload):
    """The call count is a noise-free figure: two runs print the same number."""
    argv = [sys.executable, str(SCRIPTS / "op_calls.py"), "--workload", workload, "--seed", "1"]
    runs = [subprocess.run(argv, capture_output=True, text=True, timeout=120) for _ in range(2)]
    for result in runs:
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) > 0
    assert runs[1].stdout == runs[0].stdout


def test_op_digest_repeats_exactly_and_sees_one_ulp(tmp_path):
    """Two runs print the same line per op, 384 qubit ops and 12 at n = 3 and 5, from another directory
    with PYTHONPATH unset; a one-ulp change to one route's output changes that op's digest, and a
    kept parameter of another float type changes its spec's digest."""
    argv = [sys.executable, str(SCRIPTS / "op_digest.py"), "--seed", "1"]
    runs = [
        subprocess.run(argv, capture_output=True, text=True, timeout=120, **kwargs)
        for kwargs in ({}, {"cwd": tmp_path, "env": without_pythonpath()})
    ]
    for result in runs:
        assert result.returncode == 0, result.stderr
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout == runs[0].stdout and len(lines) == 396
    assert all(
        re.fullmatch(rf"{i} [a-z_]+ (pauli|units) [0-9a-f]{{64}} [0-9a-f]{{64}}", line) for i, line in enumerate(lines[:384])
    )
    odd = ["channel_a", "canonical_to_a", "apply_a", "apply_canonical", "apply_kraus", "choi_consistency"]
    assert [line.rsplit(" ", 1)[0] for line in lines[384:]] == [f"n={n} {op}" for n in (3, 5) for op in odd]
    assert all(re.fullmatch(r"n=[35] [a-z_]+ [0-9a-f]{64}", line) for line in lines[384:])

    digest = load_script("op_digest")
    item = digest.wl.qubit_stream(1)[0]
    result = digest.wl.qubit_op(item)
    before = digest.digest(result)
    assert lines[0].endswith(before) and digest.digest(digest.wl.qubit_op(item)) == before
    out = result.via_canonical[0]
    moved = out.matrix.copy()
    moved[0, 0] = np.nextafter(moved[0, 0].real, np.inf) + 1j * moved[0, 0].imag
    result.via_canonical[0] = dataclasses.replace(out, matrix=moved)
    assert digest.digest(result) != before

    spec = {name: getattr(item.spec, name) for name in digest.SPEC_FIELDS}
    assert lines[0].split()[3] == digest.digest(spec)
    p = next(name for name in ("p", "angle") if spec[name] is not None)
    assert digest.digest({**spec, p: np.float64(spec[p])}) != digest.digest(spec)


CODE_LINES_SNIPPET = '''"""Module docstring,
two lines."""

import os  # a trailing comment: the line counts

# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is
not a docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    y = 1
'''


def test_code_lines_counts_code_without_blanks_comments_or_docstrings(tmp_path, capsys):
    """import, def, the two lines of the string, the two of the return, class and y: 8 lines."""
    script = load_script("code_lines")
    assert script.code_lines(CODE_LINES_SNIPPET) == 8
    (tmp_path / "a.py").write_text(CODE_LINES_SNIPPET)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    script.main([str(tmp_path)])
    assert capsys.readouterr().out == "8 a.py\n1 b.py\n9 total\n"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_bench_pairs():
    return load_script("bench_pairs")


def test_regen_golden_reproduces_the_committed_goldens(tmp_path, monkeypatch):
    """Run on copies of the six golden documents, the script writes every committed output byte for byte,
    from another directory with PYTHONPATH unset."""
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.chdir(tmp_path)
    regen = load_script("regen_golden")
    docs = sorted(GOLDEN.glob("*.doc.json"))
    assert len(docs) == 6
    for doc in docs:
        shutil.copy(doc, tmp_path)
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    assert regen.main() == 0
    for doc in docs:
        out = doc.name.replace(".doc.json", ".out.json")
        assert (tmp_path / out).read_bytes() == (GOLDEN / out).read_bytes(), out


def test_regen_golden_rewrites_every_changed_output(tmp_path, monkeypatch, capsys):
    """With the first and the last output edited, both are rewritten: a changed output
    leaves the CLI runs of the documents after it their import path."""
    monkeypatch.delenv("PYTHONPATH", raising=False)
    regen = load_script("regen_golden")
    docs = sorted(GOLDEN.glob("*.doc.json"))
    for doc in docs:
        shutil.copy(doc, tmp_path)
        out = doc.name.replace(".doc.json", ".out.json")
        shutil.copy(GOLDEN / out, tmp_path)
    edited = [docs[0].name.replace(".doc.json", ".out.json"), docs[-1].name.replace(".doc.json", ".out.json")]
    for out in edited:
        old = json.loads((tmp_path / out).read_text())
        old["report"]["b_form"]["trace"] = float(np.nextafter(old["report"]["b_form"]["trace"], 0.0))
        (tmp_path / out).write_text(json.dumps(old))
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    assert regen.main() == 0
    lines = capsys.readouterr().out.splitlines()
    for out in edited:
        at = next(i for i, line in enumerate(lines) if line.startswith(f"wrote {out} ("))
        assert lines[at + 1] == "  changed report.b_form.trace [ulp]"
    for doc in docs:
        out = doc.name.replace(".doc.json", ".out.json")
        assert (tmp_path / out).read_bytes() == (GOLDEN / out).read_bytes(), out


def regen_against(tmp_path, monkeypatch, name: str, edit) -> int:
    """Run the script on a copy of one golden document, against its committed output as ``edit`` left it."""
    regen = load_script("regen_golden")
    shutil.copy(GOLDEN / f"{name}.doc.json", tmp_path)
    old = json.loads((GOLDEN / f"{name}.out.json").read_text())
    edit(old["report"])
    (tmp_path / f"{name}.out.json").write_text(json.dumps(old))
    monkeypatch.setattr(regen, "GOLDEN_DIR", tmp_path)
    return regen.main()


def test_regen_golden_prints_the_paths_it_changes(tmp_path, monkeypatch, capsys):
    """Against an older output, the script names each removed, added and changed path."""

    def edit(report):
        report["a_form"]["valid"] = True
        del report["b_form"]["trace"]
        report["b_spectrum"][2] = -0.0  # equal to 0.0, but not the same bytes

    assert regen_against(tmp_path, monkeypatch, "bit_flip", edit) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("wrote bit_flip.out.json (")
    assert lines[1:] == [
        "  removed report.a_form.valid",
        "  added report.b_form.trace",
        "  changed report.b_spectrum[2] [ulp]",
    ]
    assert (tmp_path / "bit_flip.out.json").read_bytes() == (GOLDEN / "bit_flip.out.json").read_bytes()


def test_regen_golden_writes_ulp_and_cluster_changes(tmp_path, monkeypatch, capsys):
    """Two operators swapped inside transpose's {1, 1, 1} cluster and an eigenvalue one ulp off are not semantic."""

    def edit(report):
        ops = report["canonical"]["operators"]
        ops[0], ops[1] = ops[1], ops[0]
        w = report["canonical"]["eigenvalues"]
        w[3] = float(np.nextafter(w[3], 0.0))

    assert regen_against(tmp_path, monkeypatch, "transpose", edit) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("wrote transpose.out.json (")
    ops = [line for line in lines[1:] if line.startswith("  changed report.canonical.operators[")]
    assert ops and all(re.fullmatch(r"  changed report\.canonical\.operators\[[01]\]\S* \[cluster\]", line) for line in ops)
    assert sorted(set(lines[1:]) - set(ops)) == ["  changed report.canonical.eigenvalues[3] [ulp]"]
    assert (tmp_path / "transpose.out.json").read_bytes() == (GOLDEN / "transpose.out.json").read_bytes()


def flip_classification(report):
    report["verdict"]["classification"] = "completely_positive"


def rotate_out_of_cluster(report):
    """Mix operator 2 (eigenvalue 1) with operator 3 (eigenvalue -1)."""
    ops = np.array(report["canonical"]["operators"])
    c, s = np.cos(0.3), np.sin(0.3)
    ops[2], ops[3] = c * ops[2] + s * ops[3], c * ops[3] - s * ops[2]
    report["canonical"]["operators"] = ops.tolist()


@pytest.mark.parametrize("edit", [flip_classification, rotate_out_of_cluster], ids=lambda f: f.__name__)
def test_regen_golden_refuses_semantic_changes(tmp_path, monkeypatch, capsys, edit):
    """A semantic change is printed with its class, exits 1 and leaves the old output unwritten over."""
    assert regen_against(tmp_path, monkeypatch, "transpose", edit) == 1
    out = capsys.readouterr()
    lines = out.out.splitlines()
    assert lines[0].startswith("refused transpose.out.json (")
    assert any(line.endswith(" [semantic]") for line in lines[1:])
    assert out.err.endswith("semantic change(s): no file written\n")
    old = json.loads((GOLDEN / "transpose.out.json").read_text())
    edit(old["report"])
    assert (tmp_path / "transpose.out.json").read_text() == json.dumps(old)


class TestBenchPairsSummary:
    BETTER = {"ops_per_s": "higher", "op_p50_ms": "lower"}
    BOUNDS = {"ops_per_s": 0.1, "op_p50_ms": 0.1}

    @staticmethod
    def runs(ops, p50):
        return [{"ops_per_s": x, "op_p50_ms": y} for x, y in zip(ops, p50)]

    def test_claim_holds_with_nine_wins_and_separated_medians(self):
        bp = load_bench_pairs()
        parent = self.runs([100, 102, 98, 101, 99, 100, 103, 97, 100, 150], [10.0] * 10)
        change = self.runs([120, 121, 119, 122, 118, 120, 123, 117, 120, 140], [9.0] * 9 + [11.0])
        s = bp.summarize(parent, change, self.BETTER, self.BOUNDS, "ops_per_s")
        ops = s["metrics"]["ops_per_s"]
        assert s["pairs"] == 10 and ops["wins"] == 9
        assert ops["parent_median"] == 100 and ops["change_median"] == 120
        # Exclusive quartiles of the parent: 98.75 and 102.25.
        assert ops["parent_q1"] == 98.75 and ops["parent_q3"] == 102.25
        assert ops["parent_iqr"] == 3.5 and ops["relative_change"] == 0.2
        assert s["claim"] == {"metric": "ops_per_s", "wins": 9, "wins_needed": 9, "holds": True}
        # Lower is better for latency: nine of ten pairs got faster.
        assert s["metrics"]["op_p50_ms"]["wins"] == 9
        assert s["metrics"]["op_p50_ms"]["median_better"]

    def test_claim_fails_on_eight_wins(self):
        bp = load_bench_pairs()
        parent = self.runs([100] * 10, [10.0] * 10)
        change = self.runs([120] * 8 + [90, 90], [10.0] * 10)
        s = bp.summarize(parent, change, self.BETTER, self.BOUNDS, "ops_per_s")
        assert s["claim"]["wins"] == 8 and not s["claim"]["holds"]
        assert s["metrics"]["op_p50_ms"]["wins"] == 0  # ties are not wins

    def test_claim_fails_when_medians_sit_inside_the_parent_iqr(self):
        bp = load_bench_pairs()
        parent = self.runs([80, 90, 100, 110, 120, 80, 90, 100, 110, 120], [10.0] * 10)
        change = self.runs([x + 1 for x in [80, 90, 100, 110, 120, 80, 90, 100, 110, 120]], [10.0] * 10)
        s = bp.summarize(parent, change, self.BETTER, self.BOUNDS, "ops_per_s")
        assert s["claim"]["wins"] == 10
        assert not s["metrics"]["ops_per_s"]["medians_apart_beyond_parent_iqr"]
        assert not s["claim"]["holds"]

    def test_claim_fails_when_the_median_moves_the_wrong_way(self):
        bp = load_bench_pairs()
        parent = self.runs([100] * 10, [10.0] * 10)
        change = self.runs([100] * 10, [20.0] * 10)
        s = bp.summarize(parent, change, self.BETTER, self.BOUNDS, "op_p50_ms")
        assert s["metrics"]["op_p50_ms"]["medians_apart_beyond_parent_iqr"]
        assert not s["claim"]["holds"]

    def test_no_claim_and_bad_counts(self):
        bp = load_bench_pairs()
        s = bp.summarize(self.runs([1], [1.0]), self.runs([2], [1.0]), self.BETTER, self.BOUNDS, None)
        assert "claim" not in s and s["metrics"]["ops_per_s"]["parent_iqr"] == 0
        with pytest.raises(ValueError):
            bp.summarize(self.runs([1, 2], [1.0, 1.0]), self.runs([1], [1.0]), self.BETTER, self.BOUNDS, None)

    def test_seed_ranges(self):
        bp = load_bench_pairs()
        assert bp.parse_seeds(["1301-1303", "7"]) == [1301, 1302, 1303, 7]

    def test_spec_comes_from_the_benchmark_file(self):
        bp = load_bench_pairs()
        root = SCRIPTS.parent
        spec = json.loads((root / "BENCHMARK.json").read_text())
        better, bounds, seconds = bp.benchmark_spec(root)
        assert seconds == spec["run_seconds"]
        assert better["ops_per_s"] == "higher" and better["peak_rss_mb"] == "lower"
        assert list(better) == [m["name"] for m in spec["end_to_end"]]
        assert bounds == {m["name"]: m["bound"] for m in spec["end_to_end"]}


class TestBenchPairsVerdict:
    BETTER = {"ops_per_s": "higher", "setup_s": "lower"}
    BOUNDS = {"ops_per_s": 0.25, "setup_s": 0.25}

    @staticmethod
    def runs(ops, setup):
        return [{"ops_per_s": x, "setup_s": y} for x, y in zip(ops, setup)]

    def verdicts(self, parent, change):
        s = load_bench_pairs().summarize(parent, change, self.BETTER, self.BOUNDS, None)
        assert all(s["metrics"][name]["bound"] == 0.25 for name in self.BETTER)
        return {name: m["verdict"] for name, m in s["metrics"].items()}

    def test_worse_beyond_the_bound_in_either_direction(self):
        parent = self.runs([100] * 10, [1.0] * 10)
        change = self.runs([74] * 10, [1.26] * 10)
        assert self.verdicts(parent, change) == {"ops_per_s": "worse", "setup_s": "worse"}

    def test_worse_within_the_bound_and_a_tight_parent_is_not_worse(self):
        parent = self.runs([99, 100, 101] * 3 + [100], [1.0] * 10)
        change = self.runs([80] * 10, [1.2] * 10)  # 20% worse, inside the 25% bound
        assert self.verdicts(parent, change) == {"ops_per_s": "not_worse", "setup_s": "not_worse"}

    def test_wide_parent_spread_is_unresolved(self):
        # Parent IQR 60 on a median of 100 is wider than the 25% bound.
        parent = self.runs([40, 70, 100, 130, 160] * 2, [0.5, 0.8, 1.0, 1.2, 1.5] * 2)
        change = self.runs([95] * 10, [1.1] * 10)
        assert self.verdicts(parent, change) == {"ops_per_s": "unresolved", "setup_s": "unresolved"}

    def test_wide_parent_spread_beaten_by_every_run_is_not_worse(self):
        parent = self.runs([40, 70, 100, 130, 160] * 2, [0.5, 0.8, 1.0, 1.2, 1.5] * 2)
        change = self.runs([161] * 10, [0.4] * 10)
        assert self.verdicts(parent, change) == {"ops_per_s": "not_worse", "setup_s": "not_worse"}

    def test_worse_wins_over_unresolved(self):
        parent = self.runs([40, 70, 100, 130, 160] * 2, [0.5, 0.8, 1.0, 1.2, 1.5] * 2)
        change = self.runs([50] * 10, [2.0] * 10)
        assert self.verdicts(parent, change) == {"ops_per_s": "worse", "setup_s": "worse"}
