"""The benchmark's ops and output checks on a few inputs, untimed.

A codec or API change that breaks ``perfbench/`` shows up here rather
than only when the benchmark runs.  Nothing is timed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import chanforms.analysis
import chanforms.forms

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


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


PIPELINE_STAGES = (
    "parse", "channel_a", "realign", "coefficient", "eigensolve_coefficient",
    "eigensolve_b", "canonical_decompose", "analyze", "encode", "main_analyze",
)


def test_traced_replay_runs_every_stage(monkeypatch, tmp_path):
    # The traced run imports ``workloads`` by name from perfbench/ and
    # rebinds the eigensolver in the two modules that look it up; the
    # monkeypatch undoes both.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in (chanforms.forms, chanforms.analysis):
        monkeypatch.setattr(module, "hermitian_eigendecompose", module.hermitian_eigendecompose)
    modules = {}
    for name in ("workloads", "tracing"):
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    wl, tracing = modules["workloads"], modules["tracing"]

    qubit = wl.qubit_warm_items(wl.qubit_stream(1))[0]
    dense = wl.dense_warm_items(wl.write_dense_inputs(1, tmp_path))[0]
    inputs = [wl.replay_input("qubit_sweep", qubit), wl.replay_input("dense_documents", dense)]
    assert [rin.n for rin in inputs] == [2, 4]
    tracer, counter = tracing.Tracer(), tracing.EigensolveCounter()
    calls = []
    for rin in inputs:
        stages = tracing.replay(tracer, rin, counter)
        assert set(PIPELINE_STAGES) <= set(stages)
        assert ("kraus" in stages) == rin.cp
        calls.append(stages["eigensolve_calls"])
    # The qubit input is in the Pauli basis, where ``analyze`` solves B as a
    # second route; the dense one is in the unit basis, where the
    # coefficient matrix is B and one solve gives both spectra.
    assert qubit.basis.value == "pauli"
    assert calls == [2, 1]
