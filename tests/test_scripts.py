"""Smoke runs of the scripts, so a renamed library name cannot break them silently."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv",
    [["zoo_report.py"], ["spectral_experiment.py", "--count", "20"]],
    ids=["zoo_report", "spectral_experiment"],
)
def test_script_exits_zero(argv):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_cli_matrix_is_reproducible():
    """Two runs print the same lines, so a diff between checkouts shows only output changes."""
    runs = [
        subprocess.run(
            [sys.executable, str(SCRIPTS / "cli_matrix.py"), "--sizes", "2"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        for _ in range(2)
    ]
    for result in runs:
        assert result.returncode == 0, result.stderr
    lines = runs[0].stdout.splitlines()
    assert len(lines) == 13 * 40  # six goldens and seven seeded documents, 40 runs each
    assert runs[1].stdout == runs[0].stdout
