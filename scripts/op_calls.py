#!/usr/bin/env python3
"""Count the Python calls one benchmark op makes: a count with no timing noise.

    python3 scripts/op_calls.py --workload qubit_sweep --seed 5

Builds the workload's inputs with ``perfbench/workloads.py`` (imported, not
changed), runs every op once to fill caches, then runs the same pass again
under cProfile and prints its function calls divided by the number of ops.
The calls are summed over the profiler's entries, one per code object or
built-in, rather than read from ``pstats``: ``pstats`` keys an entry by
(file, line, name), and every dataclass-generated ``__init__`` has the key
``("<string>", 2, "__init__")``, so all of them but one would be lost.
The warm pass also fills the values a form keeps on first use: an A-form's
realignment and a Kraus set's A-form.  Where a workload reuses its specs
(``qubit_sweep``), the count is the steady state of a spec analyzed again;
where each op parses a new document (``dense_documents``), nothing carries
from one pass to the next.  The package is imported from this checkout's
``src/``.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads as wl  # noqa: E402

p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
p.add_argument("--workload", choices=("qubit_sweep", "dense_documents"), required=True)
p.add_argument("--seed", type=int, required=True)
args = p.parse_args()
with tempfile.TemporaryDirectory() as work:
    if args.workload == "qubit_sweep":
        items, op = wl.qubit_stream(args.seed), wl.qubit_op
    else:
        items, op = wl.write_dense_inputs(args.seed, Path(work)), wl.dense_op
    for item in items:
        op(item)
    profile = cProfile.Profile()
    profile.runcall(lambda: [op(item) for item in items])
    print(round(sum(entry.callcount for entry in profile.getstats()) / len(items)))
