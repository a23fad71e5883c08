#!/usr/bin/env python3
"""Print one SHA-256 per qubit_sweep op over every value the op returns.

    python3 scripts/op_digest.py --seed 5 > after.txt

Builds the seeded qubit stream with ``perfbench/workloads.py`` (imported,
not changed) and runs ``qubit_op`` once per item.  Each line is the
item's index, its channel kind and basis, and the SHA-256 of everything
the op returned: the A-form, the analysis report (its spectrum,
``spectral_match``, verdict, canonical operators and eigenvalues, and
Kraus operators), the rebuilt A, the ``choi_consistency`` residual and the
outputs of all three application routes.  Arrays are hashed by dtype,
shape and raw bytes, floats by their eight bytes, so a change of one ulp
or of a zero's sign changes the line.  These are library outputs the CLI
never prints, so ``scripts/cli_matrix.py`` does not see them; a change
that must not move an output byte is checked by running this script on
the parent and on the change and comparing the outputs with ``diff``.
The package is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import struct
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import workloads as wl  # noqa: E402


def _feed(h, value) -> None:
    """Hash ``value`` by its type and content, walking dataclass fields, dicts and sequences in order."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}|".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(b"float|" + struct.pack("<d", value))
    elif value is None or isinstance(value, (bool, int, str, enum.Enum)):
        h.update(f"{value!r}|".encode())
    elif dataclasses.is_dataclass(value):
        h.update(f"{type(value).__name__}(".encode())
        for f in dataclasses.fields(value):
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(value, f.name))
        h.update(b")")
    elif isinstance(value, dict):
        h.update(b"{")
        for key, item in value.items():
            h.update(f"{key!r}:".encode())
            _feed(h, item)
        h.update(b"}")
    elif isinstance(value, (list, tuple)):
        h.update(f"[{len(value)}|".encode())
        for item in value:
            _feed(h, item)
        h.update(b"]")
    else:
        raise TypeError(f"no digest rule for {type(value).__name__}")


def digest(result) -> str:
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    for i, item in enumerate(wl.qubit_stream(args.seed)):
        print(i, item.spec.kind.value, item.basis.value, digest(wl.qubit_op(item)))


if __name__ == "__main__":
    main()
