#!/usr/bin/env python3
"""Benchmark of chanforms: one workload, one seed, one run.

    python3 perfbench/run.py --workload qubit_sweep --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the package is imported from its
``src/``.  Prints the metrics as a table, then an environment record,
then (last line) one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones.  Exits 1 when any output
check fails and 2 when the benchmark cannot run at all.  See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, here and in every child.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 9
KEPT_RUNS = 3
TAIL_BEYOND = 10
# Beyond p95 the tail of a millisecond op measures the host's preemption.
TAIL_MAX_PERCENTILE = 95
RUN_DEADLINE_S = 175

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOADS = ("qubit_sweep", "dense_documents", "cli_process")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def import_package():
    """Import chanforms from this checkout's src/, never from elsewhere."""
    if not (SRC / "chanforms" / "__init__.py").is_file():
        raise BenchError(f"no chanforms package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import chanforms

    if Path(chanforms.__file__).resolve().parent != (SRC / "chanforms").resolve():
        raise BenchError(f"chanforms was imported from {chanforms.__file__}, not from {SRC}")


def check_metric_names() -> None:
    """BENCHMARK.json must list exactly the metrics this benchmark emits."""
    from tracing import PER_LAYER

    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    spec = json.loads(path.read_text())
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != ours:
            raise BenchError(f"BENCHMARK.json {key} does not match the emitted metrics: {listed} != {ours}")


def self_test() -> None:
    """The checker must count a corrupted report and a wrong exit code as failures.

    Whether it passes correct output is shown by every run of working
    code, so this test does not depend on the program being correct.
    """
    from chanforms import ChannelSpec
    from chanforms.serialize import channel_document_wire, dumps

    import workloads as wl
    from worker import Tally

    doc = dumps(channel_document_wire(ChannelSpec.bit_flip(0.75)))
    code, text = wl.run_main(["analyze", "-", "--output", "machine"], doc)

    def corrupted(field: str, value) -> str:
        wire = json.loads(text)
        wire["report"][field] = value
        return dumps(wire)

    flipped_verdict = json.loads(text)["report"]["verdict"] | {"classification": "not_completely_positive"}
    bad = Tally()
    bad.record(wl.check_report(corrupted("verdict", flipped_verdict), code, True, 2))
    bad.record(wl.check_report(corrupted("spectral_match", 1e-3), code, True, 2))
    bad.record(wl.check_report(text[: len(text) // 2], code, True, 2))
    bad.record(wl.check_report(text, 3, True, 2))
    if bad.failed != bad.attempted:
        raise BenchError(f"checker self-test failed: only {bad.failed} of {bad.attempted} corrupted outputs counted as failures")


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CHANFORMS_TOL", None)
    return env


def run_worker(args, env: dict, inputs: str | None, seconds: float, deadline: float) -> dict:
    """Start one workload process; returns its result plus its set-up seconds."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(args.trace), "--root", str(ROOT),
    ]
    if inputs is not None:
        cmd += ["--inputs", inputs]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
    killer.start()
    try:
        ready_line = proc.stdout.readline()
        t_ready = perf_counter()
        out = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not ready_line or not out.strip():
        raise BenchError(f"workload process failed with exit code {proc.returncode} (killed at the run deadline if negative)")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = t_ready - t0 - json.loads(ready_line)["gen_s"]
    return result


def environment(blas_threads) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_lib,
        "blas_threads": blas_threads,
        "blas_threads_pinned": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def end_to_end(main: dict, setups: list[float]) -> tuple[dict, dict]:
    order = main["latencies"]
    k = main["pass_ops"]
    # Every pass runs the same inputs in the same order, so the runs of one
    # input differ only by what the host did meanwhile.  Its fastest runs
    # are the least disturbed: a short op fits between the host's busy
    # spells, which move medians by 20-40% from minute to minute.  A fixed
    # count per input keeps the input mix of the kept samples, and with it
    # where p50 and the tail fall in that mix, the same in every run.
    runs = [sorted(order[i::k]) for i in range(k)]
    kept = [r[:KEPT_RUNS] for r in runs]
    lat = sorted(x for r in kept for x in r)
    n = len(lat)
    # The highest percentile with at least TAIL_BEYOND samples beyond it,
    # but no higher than TAIL_MAX_PERCENTILE.
    tail_index = min(max(n - TAIL_BEYOND - 1, 0), math.ceil(n * TAIL_MAX_PERCENTILE / 100) - 1)
    metrics = {
        "ops_per_s": k / sum(statistics.median(r) for r in kept),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[tail_index] * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    detail = {
        "passes": len(order) // k,
        "runs_kept_per_input": len(kept[0]),
        "pass_ops": k,
        "samples": n,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_samples_beyond": n - tail_index - 1,
        "setup_samples_s": setups,
    }
    return metrics, detail


def print_table(metrics: dict, units: dict) -> None:
    width = max(map(len, metrics))
    for name, value in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {units[name]}")


def print_size_table(table: list[dict]) -> None:
    from tracing import SIZE_TABLE_STAGES

    cols = (*SIZE_TABLE_STAGES, "unattributed", "cli_main_analyze")
    print("stage self time by size (ms), raw_a CP documents of Kraus rank n:")
    print("  " + f"{'n':>3}" + "".join(f"{c:>17}" for c in cols) + "  dominant")
    for row in table:
        print("  " + f"{row['n']:>3}" + "".join(f"{row[c]:>17.4g}" for c in cols) + f"  {row['dominant']}")


def run(args) -> int:
    started = perf_counter()
    deadline = started + RUN_DEADLINE_S
    import_package()
    check_metric_names()
    self_test()
    import workloads as wl
    from tracing import PER_LAYER

    env = worker_env()
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs = None
        if args.workload == "dense_documents":
            inputs = str(tmp / "manifest.json")
            Path(inputs).write_text(json.dumps(wl.write_dense_inputs(args.seed, tmp)))
        setup_only = [] if args.trace else [
            run_worker(args, env, inputs, 0, deadline) for _ in range(SETUP_SAMPLES - 1)
        ]
        main = run_worker(args, env, inputs, args.seconds, deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = main["attempted"] + sum(r["attempted"] for r in setup_only)
    failed = main["failed"] + sum(r["failed"] for r in setup_only)
    problems = [p for r in (*setup_only, main) for p in r["problems"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(main["blas_threads"]),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "wall_s": perf_counter() - started,
    }
    print(f"chanforms benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        metrics, units = main["per_layer"], PER_LAYER
        record.update(
            unattributed_ratio=main["unattributed_ratio"],
            traced_op_p50_ms=main["traced_op_p50_ms"],
            untraced_op_p50_ms=main["untraced_op_p50_ms"],
            tracing_overhead_ms=main["overhead_ms"],
            spans=main["spans"],
            size_table=main["size_table"],
        )
        print("per-layer metrics (medians over the workload's inputs):")
        print_table(metrics, units)
        print_size_table(main["size_table"])
        print(f"unattributed share of cli.main analyze: {main['unattributed_ratio']:.4f}")
        print(
            f"tracing overhead: {main['overhead_ms']:.6g} ms "
            f"(traced op p50 {main['traced_op_p50_ms']:.6g} ms, untraced {main['untraced_op_p50_ms']:.6g} ms)"
        )
    else:
        metrics, detail = end_to_end(main, [r["setup_s"] for r in (*setup_only, main)])
        units = END_TO_END
        record.update(detail)
        print("end-to-end metrics:")
        print_table({**metrics, "failed_ratio": record["failed_ratio"]}, {**units, "failed_ratio": "ratio"})
        print(
            f"  latencies from each input's fastest {detail['runs_kept_per_input']} of {detail['passes']} runs"
            f" ({detail['samples']} samples); op_tail_ms is p{detail['tail_percentile']:.3f}"
            f" ({detail['tail_samples_beyond']} samples beyond it)"
        )
    if set(metrics) != set(units):
        raise BenchError(f"emitted metrics {sorted(metrics)} differ from {sorted(units)}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("record: " + json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }))
    return 0 if failed == 0 else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
