#!/usr/bin/env python3
"""Regenerate the golden CLI outputs in tests/golden/.

Machine-mode output is pinned byte for byte per build; rerun this after
any intentional change to the report layout or the numerics, then review
the diff before committing it.
"""

from __future__ import annotations

import pathlib
import subprocess
import sys

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"


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
        out_path.write_text(result.stdout)
        print(f"wrote {out_path.name} ({len(result.stdout)} bytes, exit {result.returncode})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
