#!/usr/bin/env python3
"""Random-channel experiment: how tightly do the two spectral routes agree?

Samples CP channels (uniform over Kraus ranks) and NCP maps, then
measures, per channel:

* max deviation between sorted eigenvalues of the coefficient matrix
  and of the dynamical matrix, in both operator bases;
* max-entry error of the canonical reconstruction of the A matrix;
* max-entry deviation of the extension image from B/n.

Worst cases over the whole population are printed at the end.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this checkout's package
from chanforms import (  # noqa: E402
    BasisLabel,
    canonical_decompose,
    choi_consistency,
    hermitian_eigendecompose,
    kraus_to_a,
    random_cp_channel,
    random_ncp_a,
    realign_a_to_b,
    standard_basis,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200, help="number of channels")
    parser.add_argument("--ncp-share", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    bases = (
        standard_basis(2, BasisLabel.PAULI_OVER_SQRT2),
        standard_basis(2, BasisLabel.MATRIX_UNITS),
    )
    n_ncp = int(args.count * args.ncp_share)
    n_cp = args.count - n_ncp

    worst_spectral = 0.0
    worst_reconstruction = 0.0
    worst_choi = 0.0
    for i in range(args.count):
        if i < n_cp:
            a = kraus_to_a(random_cp_channel(2, rank=i % 4 + 1, seed=args.seed + i))
        else:
            a = random_ncp_a(2, seed=args.seed + i)
        b_spec = np.sort(hermitian_eigendecompose(realign_a_to_b(a).matrix).eigenvalues)
        for basis in bases:
            decomp = canonical_decompose(a, basis)
            dev = float(np.abs(np.sort(decomp.eigenvalues) - b_spec).max())
            worst_spectral = max(worst_spectral, dev)
            rebuilt = sum(
                lam * np.kron(op, op.conj())
                for lam, op in zip(decomp.eigenvalues, decomp.canonical_ops)
            )
            worst_reconstruction = max(
                worst_reconstruction, float(np.abs(rebuilt - a.matrix).max())
            )
        worst_choi = max(worst_choi, choi_consistency(a))

    print(f"channels sampled:          {args.count} ({n_cp} CP, {n_ncp} NCP)")
    print(f"worst spectral deviation:  {worst_spectral:.3e}")
    print(f"worst reconstruction err:  {worst_reconstruction:.3e}")
    print(f"worst extension deviation: {worst_choi:.3e}")
    ok = worst_spectral < 1e-9 and worst_reconstruction < 1e-9 and worst_choi < 1e-9
    print("all within 1e-9:          ", "yes" if ok else "NO")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
