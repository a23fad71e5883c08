#!/usr/bin/env python3
"""Print two SHA-256s per qubit_sweep op, of its spec and of every value the op returns, then one per odd-n op.

    python3 scripts/op_digest.py --seed 5 > after.txt

Builds the seeded qubit stream with ``perfbench/workloads.py`` (imported,
not changed) and runs ``qubit_op`` once per item.  Each line is the
item's index, its channel kind and basis, the SHA-256 of what the item's
``ChannelSpec`` keeps (its kind, axis, angle, p0, p, matrix and
operators), and the SHA-256 of everything the op returned: the A-form,
the analysis report (its spectrum, ``spectral_match``, verdict, canonical
operators and eigenvalues, and Kraus operators), the rebuilt A, the
``choi_consistency`` residual and the outputs of all three application
routes.  Twelve more lines follow, one
per library op at n = 3 and 5 on a seeded rank-1 Kraus set E and state
rho: ``channel_a`` of the ``raw_kraus`` spec of E, ``canonical_to_a`` of
the one-operator decomposition (n, E / sqrt(n)), ``apply_a``,
``apply_canonical`` and ``apply_kraus`` of those on rho, and the
``choi_consistency`` residual of E's A-form; a one-term outer product at
odd n rounds differently under another product routine, which the qubit
stream does not show.  Arrays are hashed by dtype,
shape and raw bytes, floats by their type and eight bytes, so a change of
one ulp, of a zero's sign or of a float's type changes the line.  These are library outputs the CLI
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
from chanforms import (  # noqa: E402
    CanonicalDecomposition,
    ChannelSpec,
    DensityMatrix,
    apply_a,
    apply_canonical,
    apply_kraus,
    canonical_to_a,
    channel_a,
    choi_consistency,
    random_cp_channel,
    standard_basis,
)


def _feed(h, value) -> None:
    """Hash ``value`` by its type and content, walking dataclass fields, dicts and sequences in order."""
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape}|".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (float, np.floating)):
        h.update(f"{type(value).__name__}|".encode() + struct.pack("<d", value))
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


# What a spec keeps, in the order hashed.
SPEC_FIELDS = ("kind", "axis", "angle", "p0", "p", "matrix", "operators")


def odd_n_ops(seed: int) -> list[tuple[int, str, object]]:
    """(n, op name, result) of the seeded library ops at n = 3 and 5."""
    rows = []
    for n in (3, 5):
        kraus = random_cp_channel(n, 1, seed=seed)
        a = channel_a(ChannelSpec.raw_kraus(kraus.operators), wl.TOL)
        one = CanonicalDecomposition(standard_basis(n), [float(n)], kraus.operators / np.sqrt(n))
        rng = np.random.default_rng([seed, n])
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = g @ g.conj().T
        rho = DensityMatrix(w / np.trace(w).real)
        rows += [
            (n, "channel_a", a),
            (n, "canonical_to_a", canonical_to_a(one, wl.TOL)),
            (n, "apply_a", apply_a(a, rho, wl.TOL)),
            (n, "apply_canonical", apply_canonical(one, rho, wl.TOL)),
            (n, "apply_kraus", apply_kraus(kraus, rho, wl.TOL)),
            (n, "choi_consistency", choi_consistency(a, wl.TOL)),
        ]
    return rows


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    for i, item in enumerate(wl.qubit_stream(args.seed)):
        spec = {name: getattr(item.spec, name) for name in SPEC_FIELDS}
        print(i, item.spec.kind.value, item.basis.value, digest(spec), digest(wl.qubit_op(item)))
    for n, name, result in odd_n_ops(args.seed):
        print(f"n={n}", name, digest(result))


if __name__ == "__main__":
    main()
