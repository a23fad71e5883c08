#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and write BENCH_<workload>.json.

    git worktree add ../parent HEAD~1
    python3 scripts/bench_pairs.py --parent ../parent --workload qubit_sweep \\
        --seeds 1301-1310 --claim ops_per_s

Each seed makes one pair: ``perfbench/run.py`` runs once in the parent
checkout and once in the change checkout (this one, or ``--change``),
for the ``run_seconds`` the change's ``BENCHMARK.json`` sets; each run
imports the package from its own tree's ``src/``.  Even pairs
run the parent first and odd pairs the change first, so a slow spell
of the host does not always fall on the same side.

The file holds every run's metrics, ``record`` and exit code (not the
checkouts' paths), and a summary of each end-to-end metric listed in
the change's ``BENCHMARK.json``: both medians, both sides' quartiles
(``statistics``' default exclusive method), the pairs the change won in
the metric's better direction, whether the medians are further apart
than the parent's interquartile range, and the metric's no-regression
verdict against its ``bound`` in that file (see ``verdict``).  With
``--claim``, the summary says whether the claim rule holds for that
metric: the change wins at least 9 of every 10 pairs and its median is
better than the parent's by more than the parent's IQR.  The file is
rewritten after every pair, so an interrupted series keeps the pairs it
finished.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def parse_seeds(items: list[str]) -> list[int]:
    """Seeds given one by one or as inclusive ranges ``a-b``."""
    seeds = []
    for item in items:
        lo, sep, hi = item.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if sep else [int(item)])
    return seeds


def benchmark_spec(tree: Path) -> tuple[dict[str, str], dict[str, float], float]:
    """From the tree's BENCHMARK.json: end-to-end metric name -> "higher" or
    "lower", metric name -> the relative worsening its ``bound`` allows, and
    the run length in seconds."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    return {m["name"]: m["better"] for m in metrics}, {m["name"]: m["bound"] for m in metrics}, spec["run_seconds"]


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    run = {"seed": seed, "exit_code": proc.returncode}
    records = [line[len("record: "):] for line in lines if line.startswith("record: ")]
    if not records or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_pairs: no result from {tree} (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    run["record"] = json.loads(records[-1])
    run["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    run["correct"] = result["correct"]
    return run


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], direction: str, bound: float) -> str:
    """No-regression verdict of one metric whose relative worsening may reach ``bound``.

    ``worse``: the change's median is worse than the parent's by more than
    ``bound`` times the parent's median.  ``unresolved``: otherwise, when the
    parent's IQR exceeds that much and not every change run beats every
    parent run, so the runs cannot tell.  ``not_worse``: otherwise.
    """
    sign = 1.0 if direction == "higher" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    allowed = bound * abs(pm)
    if sign * (cm - pm) < -allowed:
        return "worse"
    q1, q3 = quartiles(parent)
    if q3 - q1 > allowed and not all(sign * (y - x) > 0 for x in parent for y in change):
        return "unresolved"
    return "not_worse"


def summarize(
    parent: list[dict],
    change: list[dict],
    better: dict[str, str],
    bounds: dict[str, float],
    claim: str | None,
) -> dict:
    """Medians, quartiles, wins and verdict per metric over paired runs (``parent[i]`` with ``change[i]``).

    Each run is a mapping of metric name to value; ``better`` gives each
    metric's direction and ``bounds`` its allowed relative worsening.
    Returns one entry per metric of ``better`` and, when ``claim`` names one
    of them, whether the claim rule holds.
    """
    pairs = len(parent)
    if pairs == 0 or pairs != len(change):
        raise ValueError(f"need equal, non-zero run counts, got {len(parent)} and {len(change)}")
    metrics = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        pm, cm = statistics.median(p), statistics.median(c)
        pq1, pq3 = quartiles(p)
        cq1, cq3 = quartiles(c)
        metrics[name] = {
            "better": direction,
            "parent_median": pm,
            "change_median": cm,
            "relative_change": (cm - pm) / pm if pm else math.nan,
            "parent_q1": pq1,
            "parent_q3": pq3,
            "parent_iqr": pq3 - pq1,
            "change_q1": cq1,
            "change_q3": cq3,
            "wins": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
            "medians_apart_beyond_parent_iqr": abs(cm - pm) > pq3 - pq1,
            "median_better": sign * (cm - pm) > 0,
            "bound": bounds[name],
            "verdict": verdict(p, c, direction, bounds[name]),
        }
    summary = {"pairs": pairs, "metrics": metrics}
    if claim is not None:
        m = metrics[claim]
        needed = math.ceil(WIN_SHARE * pairs)
        summary["claim"] = {
            "metric": claim,
            "wins": m["wins"],
            "wins_needed": needed,
            "holds": m["wins"] >= needed and m["median_better"] and m["medians_apart_beyond_parent_iqr"],
        }
    return summary


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", nargs="+", required=True, help="one pair per seed; seeds, or inclusive ranges a-b")
    p.add_argument("--claim", help="end-to-end metric whose gain is claimed")
    p.add_argument("--out", type=Path, help="output file (default: BENCH_<workload>.json in the change checkout)")
    args = p.parse_args()

    seeds = parse_seeds(args.seeds)
    better, bounds, seconds = benchmark_spec(args.change)
    if args.claim is not None and args.claim not in better:
        p.error(f"--claim must be one of {sorted(better)}")
    out = args.out or args.change / f"BENCH_{args.workload}.json"
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {
        "workload": args.workload,
        "seconds": seconds,
        "seeds": seeds,
        "runs": [],
    }
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(trees[side], args.workload, seed, seconds)
        doc["runs"].append(pair)
        doc["summary"] = summarize(
            [r["parent"]["metrics"] for r in doc["runs"]],
            [r["change"]["metrics"] for r in doc["runs"]],
            better,
            bounds,
            args.claim,
        )
        doc["summary"]["all_correct"] = all(r[s]["correct"] for r in doc["runs"] for s in trees)
        doc["summary"]["failed_ratio_max"] = {
            s: max(r[s]["record"]["failed_ratio"] for r in doc["runs"]) for s in trees
        }
        out.write_text(json.dumps(doc, indent=1) + "\n")
        line = "  ".join(f"{side} {pair[side]['metrics'][args.claim or 'ops_per_s']:.6g}" for side in trees)
        print(f"pair {i + 1}/{len(seeds)} seed {seed} ({order[0]} first): {line}", flush=True)
    for name, m in doc["summary"]["metrics"].items():
        print(f"{name}: {m['verdict']} (median {m['parent_median']:.6g} -> {m['change_median']:.6g})")
    print(json.dumps(doc["summary"].get("claim", {}), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
