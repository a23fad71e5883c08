"""Spans and the stage replay of the traced run.

Spans are recorded in memory by the benchmark around its own calls into
chanforms (nothing inside the package is instrumented) and written out
when the run ends.  The replay drives the pipeline stage by stage
through the public functions, so each stage's time is the duration of
one sibling span; derived stages (canonical operators, analyze's own
work, the unattributed part of ``cli.main``) are differences of spans
measured on the same input.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import chanforms.analysis
import chanforms.forms
from chanforms import (
    ChannelSpec,
    DensityMatrix,
    analyze,
    apply_a,
    apply_canonical,
    apply_kraus,
    canonical_decompose,
    canonical_to_a,
    channel_a,
    choi_consistency,
    coefficient_matrix,
    default_basis,
    extract_kraus,
    hermitian_eigendecompose,
    kraus_to_a,
    random_cp_channel,
    realign_a_to_b,
    standard_basis,
)
from chanforms.cli import report_wire
from chanforms.serialize import DEFAULT_SAMPLES, DEFAULT_SEED, channel_document_wire, dumps, parse_channel_document

from workloads import TOL, ReplayInput, run_main

# Per-layer metrics of the traced run, with units.
PER_LAYER = {
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_ms.analyze": "ms",
    "cli.main_ms.apply": "ms",
    "cli.main_ms.convert": "ms",
    "serialize.parse_ms": "ms",
    "serialize.parse_mb_per_s": "MB/s",
    "serialize.encode_ms": "ms",
    "serialize.encode_mb_per_s": "MB/s",
    "zoo.channel_a_ms": "ms",
    "forms.realign_ms": "ms",
    "forms.coefficient_ms": "ms",
    "forms.coefficient_gflop": "GFLOP",
    "forms.coefficient_gflop_per_s": "GFLOP/s",
    "forms.canonical_ops_ms": "ms",
    "linalg.eigensolve_ms": "ms",
    "linalg.eigensolve_calls_per_op": "count",
    "forms.kraus_ms": "ms",
    "forms.kraus_kept_ratio": "ratio",
    "forms.reconstruct_ms": "ms",
    "forms.apply_a_us": "us",
    "forms.apply_canonical_us": "us",
    "forms.apply_kraus_us": "us",
    "linalg.density_us": "us",
    "analysis.analyze_ms": "ms",
    "analysis.analyze_self_ms": "ms",
    "analysis.choi_consistency_ms": "ms",
}

SIZE_TABLE_DIMS = (2, 4, 8, 16, 24)
SIZE_TABLE_STAGES = (
    "parse", "channel_a", "realign", "coefficient", "eigensolve", "canonical_ops", "kraus", "encode",
)
FRESH_PROCESS_REPS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import chanforms.cli; "
    "print(time.perf_counter() - t)"
)


class Tracer:
    """In-memory span log: [id, name, parent id, op id, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = 0
        self.stack: list[int] = []

    def span(self, name: str, into: dict | None = None) -> "Span":
        """Context manager recording one span; adds its seconds to ``into[name]``."""
        return Span(self, name, into)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["id", "name", "parent", "op", "start", "end"], "spans": self.spans}))


class Span:
    def __init__(self, tr: Tracer, name: str, into: dict | None) -> None:
        self.tr, self.name, self.into = tr, name, into

    def __enter__(self) -> "Span":
        tr = self.tr
        self.rec = [len(tr.spans), self.name, tr.stack[-1] if tr.stack else None, tr.op, perf_counter(), None]
        tr.spans.append(self.rec)
        tr.stack.append(self.rec[0])
        return self

    def __exit__(self, *exc) -> None:
        self.rec[5] = perf_counter()
        self.tr.stack.pop()
        if self.into is not None:
            self.into[self.name] = self.into.get(self.name, 0.0) + self.seconds

    @property
    def seconds(self) -> float:
        return self.rec[5] - self.rec[4]


class EigensolveCounter:
    """Counts ``hermitian_eigendecompose`` calls made by the pipeline.

    Rebinds the name in the two modules that call it, which is where
    ``canonical_decompose`` and ``analyze`` look it up.
    """

    MODULES = (chanforms.forms, chanforms.analysis)

    def __init__(self) -> None:
        self.calls = 0

        def counted(*args, **kwargs):
            self.calls += 1
            return hermitian_eigendecompose(*args, **kwargs)

        for module in self.MODULES:
            module.hermitian_eigendecompose = counted


def replay(tr: Tracer, rin: ReplayInput, counter: EigensolveCounter, full: bool = True) -> dict:
    """Run every stage once on ``rin``; returns stage -> seconds plus counts.

    ``full=False`` keeps only the pipeline stages and ``cli.main analyze``
    (the size table's set).
    """
    t: dict = {}
    n = rin.n

    def stage(name):
        return tr.span(name, into=t)

    with stage("parse"):
        doc = parse_channel_document(rin.text)
    basis = standard_basis(n, rin.basis) if rin.basis is not None else default_basis(n)
    spec = doc.channel
    with stage("channel_a"):
        a = channel_a(spec, TOL)
    with stage("realign"):
        b = realign_a_to_b(a, TOL)
    with stage("coefficient"):
        cm = coefficient_matrix(a, basis, TOL)
    with stage("eigensolve_coefficient"):
        hermitian_eigendecompose(cm.matrix, TOL * n * n)
    with stage("eigensolve_b"):
        hermitian_eigendecompose(b.matrix, TOL * n * n)
    with stage("canonical_decompose"):
        decomp = canonical_decompose(a, basis, TOL)
    kraus = None
    if rin.cp:
        with stage("kraus"):
            kraus = extract_kraus(decomp, TOL)
    calls = counter.calls
    with stage("analyze"):
        report = analyze(spec, basis, TOL)
    t["eigensolve_calls"] = counter.calls - calls
    with stage("encode"):
        out = dumps(report_wire(report, DEFAULT_SEED, DEFAULT_SAMPLES))
    with stage("main_analyze"):
        run_main(["analyze", "-", "--output", "machine"], rin.text)
    t.update(n=n, doc_bytes=len(rin.text.encode()), out_bytes=len(out.encode()))
    t["kept"] = len(kraus) if kraus is not None else None
    if not full:
        return t

    with stage("reconstruct"):
        canonical_to_a(decomp, TOL)
    with stage("choi_consistency"):
        choi_consistency(a, TOL)
    for m in rin.states:
        with stage("density"):
            rho = DensityMatrix(m, tol=TOL)
        with stage("apply_a"):
            apply_a(a, rho, TOL)
        with stage("apply_canonical"):
            apply_canonical(decomp, rho, TOL)
        if kraus is not None:
            with stage("apply_kraus"):
                apply_kraus(kraus, rho, TOL)
    with stage("main_apply"):
        run_main(["apply", "-", "--state", rin.state_arg, "--output", "machine"], rin.text)
    with stage("main_convert"):
        run_main(["convert", "-", "--to", "kraus", "--output", "machine"], rin.text)
    t["states"] = len(rin.states)
    return t


def _attributed_in_analyze(r: dict) -> float:
    return r["channel_a"] + r["realign"] + r["canonical_decompose"] + r["eigensolve_b"] + r.get("kraus", 0.0)


def canonical_ops(r: dict) -> float:
    return r["canonical_decompose"] - r["coefficient"] - r["eigensolve_coefficient"]


def unattributed(r: dict) -> float:
    """``cli.main analyze`` minus the replayed stages it is made of."""
    return r["main_analyze"] - r["parse"] - _attributed_in_analyze(r) - r["encode"]


def coefficient_flop(n: int) -> float:
    """Real flops of the two O(n^6) einsums: 2 n^6 complex multiply-adds."""
    return 16.0 * n**6


def per_layer(rows: list[dict], fresh: dict) -> dict:
    """Aggregate replay rows into the per-layer metrics (medians over inputs)."""

    def med(key, rows=rows):
        return statistics.median(r[key] for r in rows) * 1e3

    cp_rows = [r for r in rows if r["kept"] is not None]
    state_rows = [r for r in rows if r["states"]]

    def per_state(key, rows=state_rows):
        return statistics.median(r[key] / r["states"] * 1e6 for r in rows)

    def mb_per_s(nbytes, key):
        return sum(r[nbytes] for r in rows) / sum(r[key] for r in rows) / 1e6

    flops = [coefficient_flop(r["n"]) for r in rows]
    m = {
        "cli.interp_ms": fresh["interp_ms"],
        "cli.import_ms": fresh["import_ms"],
        "cli.main_ms.analyze": med("main_analyze"),
        "cli.main_ms.apply": med("main_apply"),
        "cli.main_ms.convert": med("main_convert"),
        "serialize.parse_ms": med("parse"),
        "serialize.parse_mb_per_s": mb_per_s("doc_bytes", "parse"),
        "serialize.encode_ms": med("encode"),
        "serialize.encode_mb_per_s": mb_per_s("out_bytes", "encode"),
        "zoo.channel_a_ms": med("channel_a"),
        "forms.realign_ms": med("realign"),
        "forms.coefficient_ms": med("coefficient"),
        "forms.coefficient_gflop": sum(flops) / len(flops) / 1e9,
        "forms.coefficient_gflop_per_s": sum(flops) / sum(r["coefficient"] for r in rows) / 1e9,
        "forms.canonical_ops_ms": statistics.median(canonical_ops(r) * 1e3 for r in rows),
        "linalg.eigensolve_ms": statistics.median(
            (r["eigensolve_coefficient"] + r["eigensolve_b"]) * 1e3 for r in rows
        ),
        "linalg.eigensolve_calls_per_op": sum(r["eigensolve_calls"] for r in rows) / len(rows),
        "forms.kraus_ms": med("kraus", rows=cp_rows),
        "forms.kraus_kept_ratio": sum(r["kept"] for r in cp_rows) / sum(r["n"] ** 2 for r in cp_rows),
        "forms.reconstruct_ms": med("reconstruct"),
        "forms.apply_a_us": per_state("apply_a"),
        "forms.apply_canonical_us": per_state("apply_canonical"),
        "forms.apply_kraus_us": per_state("apply_kraus", rows=[r for r in state_rows if r["kept"] is not None]),
        "linalg.density_us": per_state("density"),
        "analysis.analyze_ms": med("analyze"),
        "analysis.analyze_self_ms": statistics.median(
            (r["analyze"] - _attributed_in_analyze(r)) * 1e3 for r in rows
        ),
        "analysis.choi_consistency_ms": med("choi_consistency"),
    }
    return {name: float(m[name]) for name in PER_LAYER}


def fresh_process_ms(env: dict, root: Path) -> dict:
    """Bare interpreter wall time, and ``import chanforms.cli`` timed inside a fresh process."""
    interp, imports = [], []
    for _ in range(FRESH_PROCESS_REPS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=root, check=True, timeout=60)
        interp.append((perf_counter() - t0) * 1e3)
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=env, cwd=root, check=True, timeout=60, capture_output=True, text=True,
        )
        imports.append(float(out.stdout) * 1e3)
    return {"interp_ms": statistics.median(interp), "import_ms": statistics.median(imports)}


def size_table(seed: int, tr: Tracer, counter: EigensolveCounter) -> list[dict]:
    """Stage self times (ms) of CP ``raw_a`` documents of Kraus rank n, per n."""
    rng = np.random.default_rng([seed, 4])
    table = []
    for n in SIZE_TABLE_DIMS:
        spec = ChannelSpec.raw_a(kraus_to_a(random_cp_channel(n, n, seed=int(rng.integers(2**31)))).matrix)
        rin = ReplayInput(dumps(channel_document_wire(spec)), n, True, None, (), "")
        reps = 5 if n <= 8 else 1
        runs = []
        for _ in range(reps):
            tr.op += 1
            with tr.span(f"size_table.n{n}"):
                runs.append(replay(tr, rin, counter, full=False))
        row = {"n": n}
        for name in SIZE_TABLE_STAGES:
            row[name] = statistics.median(_size_stage(r, name) * 1e3 for r in runs)
        row["cli_main_analyze"] = statistics.median(r["main_analyze"] * 1e3 for r in runs)
        row["unattributed"] = statistics.median(unattributed(r) * 1e3 for r in runs)
        row["dominant"] = max(SIZE_TABLE_STAGES, key=lambda s: row[s])
        table.append(row)
    return table


def _size_stage(r: dict, name: str) -> float:
    if name == "eigensolve":
        return r["eigensolve_coefficient"] + r["eigensolve_b"]
    if name == "canonical_ops":
        return canonical_ops(r)
    return r[name]
