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
import chanforms.linalg

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
    # The warm items and the rest of the first three blocks of eight slots: all six named kinds
    # and every slot of the stream, so a disagreement between the application routes on any
    # kind fails here, not only in the benchmark.
    stream = wl.qubit_stream(1)
    assert wl.qubit_warm_items(stream) == stream[:8]
    items = stream[:24]
    assert {item.spec.kind.value for item in items[::8] + items[1::8]} == set(wl.NAMED_KINDS)
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
    # rebinds the eigensolver in ``forms`` and ``analysis``; the monkeypatch
    # undoes both, and deletes the name from ``analysis``, which no longer
    # imports it.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for module in (chanforms.forms, chanforms.analysis):
        monkeypatch.setattr(module, "hermitian_eigendecompose", chanforms.linalg.hermitian_eigendecompose, raising=False)
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
    # ``analyze`` solves once in either basis: in the Pauli basis of the
    # qubit input it checks the canonical pairs against B with one product,
    # and in the unit basis of the dense one the coefficient matrix is B.
    assert qubit.basis.value == "pauli"
    assert calls == [1, 1]
