#!/usr/bin/env python3
"""Regenerate the golden CLI outputs in tests/golden/.

Machine-mode output is pinned byte for byte per build; rerun this after
any intentional change to the report layout or the numerics, then review
the diff before committing it.  For each output it replaces, the script
prints the JSON paths that were removed, added or changed, such as
``removed report.a_form.valid``; a list whose length changed counts as
changed at the list's path.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


def path_diff(old, new, path: str = ""):
    """Yield ``(change, path)`` for every difference between two JSON values."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old:
            sub = f"{path}.{key}" if path else key
            if key not in new:
                yield "removed", sub
            else:
                yield from path_diff(old[key], new[key], sub)
        for key in new:
            if key not in old:
                yield "added", f"{path}.{key}" if path else key
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from path_diff(o, n, f"{path}[{i}]")
    elif repr(old) != repr(new):  # unlike ==, tells -0.0 from 0.0 and 1.0 from 1 and True
        yield "changed", path


def main() -> int:
    docs = sorted(GOLDEN_DIR.glob("*.doc.json"))
    if not docs:
        print(f"no documents found in {GOLDEN_DIR}", file=sys.stderr)
        return 1
    for doc in docs:
        result = subprocess.run(
            [sys.executable, "-m", "chanforms", "analyze", str(doc), "--output", "machine"],
            capture_output=True,
            text=True,
        )
        if result.returncode not in (0, 3):
            print(f"{doc.name}: unexpected exit {result.returncode}: {result.stderr}", file=sys.stderr)
            return 1
        out_path = doc.with_name(doc.name.replace(".doc.json", ".out.json"))
        old = json.loads(out_path.read_text()) if out_path.exists() else None
        out_path.write_text(result.stdout)
        print(f"wrote {out_path.name} ({len(result.stdout)} bytes, exit {result.returncode})")
        if old is not None:
            for change, path in path_diff(old, json.loads(result.stdout)):
                print(f"  {change} {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
