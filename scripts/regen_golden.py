#!/usr/bin/env python3
"""Regenerate the golden CLI outputs in tests/golden/.

Machine-mode output is pinned byte for byte per build; rerun this after
any intentional change to the report layout or the numerics, then review
the diff before committing it.  For each output it replaces, the script
prints the JSON paths that were removed, added or changed, such as
``removed report.a_form.valid``; a list whose length changed counts as
changed at the list's path.  Removed and added paths mark a format change.

Each changed path is given a class:

* ``ulp``: a number that moved by at most 1e-12 (``-0.0`` against ``0.0``
  included);
* ``cluster``: a canonical operator whose eigenvalue cluster (eigenvalues
  equal within ``options.tol``) spans the same operators as before: the
  projector sum_k vec(C_k) vec(C_k)^dag agrees within 1e-12;
* ``semantic``: anything else.

A semantic change exits 1 and writes no file.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
ULP = 1e-12  # largest move of a number, or of a cluster projector entry, that is not semantic
_OPERATOR = re.compile(r"^report\.canonical\.operators\[(\d+)\]")


def path_diff(old, new, path: str = ""):
    """Yield ``(change, path, old, new)`` for every difference between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old:
            sub = f"{path}.{key}" if path else key
            if key not in new:
                yield "removed", sub, old[key], None
            else:
                yield from path_diff(old[key], new[key], sub)
        for key in new:
            if key not in old:
                yield "added", f"{path}.{key}" if path else key, None, new[key]
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from path_diff(o, n, f"{path}[{i}]")
    elif repr(old) != repr(new):  # unlike ==, tells -0.0 from 0.0 and 1.0 from 1 and True
        yield "changed", path, old, new


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _cluster_projector(report: dict, members: list[int]) -> np.ndarray:
    ops = np.array([report["canonical"]["operators"][k] for k in members], dtype=float)
    vecs = (ops[..., 0] + 1j * ops[..., 1]).reshape(len(members), -1)
    return vecs.T @ vecs.conj()


def classify(old: dict, new: dict, path: str, before, after) -> str:
    """``ulp``, ``cluster`` or ``semantic`` for one changed path of two report documents."""
    if _number(before) and _number(after) and abs(after - before) <= ULP:
        return "ulp"
    match = _OPERATOR.match(path)
    if match is None:
        return "semantic"
    report, old_report = new["report"], old["report"]
    tol = report["options"]["tol"]
    support = [w for w in report["canonical"]["eigenvalues"] if abs(w) > tol]  # the listed operators' eigenvalues
    k = int(match.group(1))
    members = [j for j, w in enumerate(support) if abs(w - support[k]) <= tol]
    moved = np.abs(_cluster_projector(report, members) - _cluster_projector(old_report, members)).max()
    return "cluster" if moved <= ULP else "semantic"


def main() -> int:
    docs = sorted(GOLDEN_DIR.glob("*.doc.json"))
    if not docs:
        print(f"no documents found in {GOLDEN_DIR}", file=sys.stderr)
        return 1
    # The CLI runs from this checkout's src/, ahead of any other tree on PYTHONPATH.
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    outputs, semantic = [], 0
    for doc in docs:
        result = subprocess.run(
            [sys.executable, "-m", "chanforms", "analyze", str(doc), "--output", "machine"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath},
        )
        if result.returncode not in (0, 3):
            print(f"{doc.name}: unexpected exit {result.returncode}: {result.stderr}", file=sys.stderr)
            return 1
        out_path = doc.with_name(doc.name.replace(".doc.json", ".out.json"))
        diff = []
        if out_path.exists():
            old, new = json.loads(out_path.read_text()), json.loads(result.stdout)
            for change, path, before, after in path_diff(old, new):
                if change != "changed":
                    diff.append(f"  {change} {path}")
                    continue
                cls = classify(old, new, path, before, after)
                semantic += cls == "semantic"
                diff.append(f"  changed {path} [{cls}]")
        outputs.append((out_path, result, diff))
    for out_path, result, diff in outputs:
        verb = "refused" if semantic else "wrote"
        print(f"{verb} {out_path.name} ({len(result.stdout)} bytes, exit {result.returncode})", *diff, sep="\n")
    if semantic:
        print(f"{semantic} semantic change(s): no file written", file=sys.stderr)
        return 1
    for out_path, result, _ in outputs:
        out_path.write_text(result.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
