"""The workload process: set up, signal ready, then run a closed loop.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.
Protocol on stdout, one JSON object per line: ``{"ready": ..., "gen_s":
...}`` once set-up is done (``gen_s`` is the input generation time that
set-up excludes), then the result object.  With ``--seconds 0`` the
process only sets up; its result holds the checks of the warm-up ops.

One caller runs ops back to back.  The loop measures whole passes over
the workload's input cycle until ``--seconds`` have elapsed, so every
run sees the same input mix and its latency quantiles stay put.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl

MAX_PROBLEMS = 5


class Tally:
    """Ops attempted and ops that raised or failed a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str], what: str = "") -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def call(op, item):
    """Run one op; returns (output, exception)."""
    try:
        return op(item), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, exc


def record_outcome(tally: Tally, check, item, out, exc) -> None:
    problems = [f"raised {type(exc).__name__}: {exc}"] if exc is not None else check(item, out)
    tally.record(problems, _label(item))


def run_checked(op, check, item, tally: Tally) -> float:
    """One timed op, checked after the clock stops.  Returns seconds."""
    t0 = perf_counter()
    out, exc = call(op, item)
    elapsed = perf_counter() - t0
    record_outcome(tally, check, item, out, exc)
    return elapsed


def _label(item) -> str:
    if isinstance(item, wl.QubitItem):
        return item.spec.kind.value
    if "path" in item:
        return Path(item["path"]).name
    return f"{Path(item['doc']).name} {item['subcommand']}"


def workload(name: str, seed: int, inputs: str | None, root: Path):
    """(items, warm-up items, op, check) for a workload."""
    if name == "qubit_sweep":
        items = wl.qubit_stream(seed)
        return items, wl.qubit_warm_items(items), wl.qubit_op, wl.check_qubit
    if name == "dense_documents":
        items = json.loads(Path(inputs).read_text())
        return items, wl.dense_warm_items(items), wl.dense_op, wl.check_dense
    env = dict(os.environ)
    items = wl.cli_items(seed, root)
    return items, wl.cli_warm_items(items), (lambda it: wl.cli_op(it, env, root)), wl.check_cli


def timed_loop(items, op, check, seconds: float) -> tuple[list[float], Tally]:
    latencies: list[float] = []
    tally = Tally()
    # Shared hosts slow each vCPU in episodes of their own, so passes take
    # turns on the CPUs this process may use, and each input's fastest
    # runs come from whichever CPU was undisturbed.  Child processes
    # inherit the pinning.
    cpus = sorted(os.sched_getaffinity(0))
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        os.sched_setaffinity(0, {cpus[len(latencies) // len(items) % len(cpus)]})
        for item in items:
            latencies.append(run_checked(op, check, item, tally))
    os.sched_setaffinity(0, cpus)
    return latencies, tally


def traced_loop(name, items, op, check, seconds: float, seed: int, root: Path) -> dict:
    """Each op once traced and once plain, then its stage replay."""
    import tracing

    tr = tracing.Tracer()
    counter = tracing.EigensolveCounter()
    tally = Tally()
    traced, plain, rows = [], [], []
    replay_inputs = [wl.replay_input(name, item) for item in items]
    deadline = perf_counter() + seconds
    while not rows or perf_counter() < deadline:
        for item, rin in zip(items, replay_inputs):
            tr.op += 1
            # Alternate which of the two runs of an input goes first.
            for traced_run in ((True, False) if tr.op % 2 else (False, True)):
                if traced_run:
                    with tr.span("op") as span:
                        out, exc = call(op, item)
                    traced.append(span.seconds)
                    record_outcome(tally, check, item, out, exc)
                else:
                    plain.append(run_checked(op, check, item, tally))
            with tr.span("replay"):
                rows.append(tracing.replay(tr, rin, counter))
    fresh = tracing.fresh_process_ms(dict(os.environ), root)
    table = tracing.size_table(seed, tr, counter)
    spans_dir = root / ".perfbench"
    spans_dir.mkdir(exist_ok=True)
    tr.write(spans_dir / f"spans-{name}-s{seed}.json")
    traced_p50 = statistics.median(traced) * 1e3
    plain_p50 = statistics.median(plain) * 1e3
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "per_layer": tracing.per_layer(rows, fresh),
        "size_table": table,
        "unattributed_ratio": statistics.median(tracing.unattributed(r) / r["main_analyze"] for r in rows),
        "traced_op_p50_ms": traced_p50,
        "untraced_op_p50_ms": plain_p50,
        "overhead_ms": traced_p50 - plain_p50,
        "spans": len(tr.spans),
    }


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inputs", default=None)
    p.add_argument("--root", required=True)
    args = p.parse_args()
    root = Path(args.root)

    g0 = perf_counter()
    items, warm, op, check = workload(args.workload, args.seed, args.inputs, root)
    gen_s = perf_counter() - g0
    warm_outs = [(item, *call(op, item)) for item in warm]
    emit({"ready": True, "gen_s": gen_s})

    warm_tally = Tally()
    for item, out, exc in warm_outs:
        record_outcome(warm_tally, check, item, out, exc)
    result = {"attempted": 0, "failed": 0, "problems": [], "blas_threads": blas_threads()}
    if args.seconds > 0 and args.trace:
        result.update(traced_loop(args.workload, items, op, check, args.seconds, args.seed, root))
    elif args.seconds > 0:
        latencies, tally = timed_loop(items, op, check, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_process" else resource.RUSAGE_SELF
        result.update(
            latencies=latencies,
            pass_ops=len(items),
            attempted=tally.attempted,
            failed=tally.failed,
            problems=tally.problems,
            peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024,
        )
    result["attempted"] += warm_tally.attempted
    result["failed"] += warm_tally.failed
    result["problems"] = warm_tally.problems + result["problems"]
    emit(result)
    return 0


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    raise SystemExit(main())
