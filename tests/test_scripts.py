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
