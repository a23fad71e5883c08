"""The benchmark's ops and output checks on a few inputs, untimed.

A codec or API change that breaks ``perfbench/`` shows up here rather
than only when the benchmark runs.  Nothing is timed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def wl():
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_qubit_sweep_ops_pass_their_checks(wl):
    items = wl.qubit_warm_items(wl.qubit_stream(1))
    assert items
    for item in items:
        assert wl.check_qubit(item, wl.qubit_op(item)) == []


def test_dense_documents_ops_pass_their_checks(wl, tmp_path):
    items = wl.dense_warm_items(wl.write_dense_inputs(1, tmp_path))
    assert {item["n"] for item in items} == {4}
    for item in items:
        assert wl.check_dense(item, wl.dense_op(item)) == []
