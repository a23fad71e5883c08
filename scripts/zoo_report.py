#!/usr/bin/env python3
"""Walk the named-channel catalog and print what the pipeline finds.

For each built-in qubit channel (at representative parameters) this
prints the process matrix, the coefficient spectrum, the CP verdict,
and the Kraus rank: a quick end-to-end sanity sweep of the library.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # this checkout's package
from chanforms import (  # noqa: E402
    BasisLabel,
    BlochVector,
    ChannelSpec,
    analyze,
    channel_a,
    standard_basis,
)

EXAMPLES = [
    ("unitary (z-rotation by pi/2)", ChannelSpec.unitary((0, 0, 1), np.pi / 2)),
    ("pin to p0 = (0, 0, 0.5)", ChannelSpec.pin(BlochVector(0, 0, 0.5))),
    ("transpose", ChannelSpec.transpose()),
    ("equatorial projection", ChannelSpec.equatorial_projection()),
    ("bit flip (p = 0.75)", ChannelSpec.bit_flip(0.75)),
    ("phase flip (p = 0.25)", ChannelSpec.phase_flip(0.25)),
]


def fmt(z: complex) -> str:
    if abs(z.imag) < 1e-12:
        return f"{z.real:7.3f}"
    return f"{z.real:.3f}{'+' if z.imag >= 0 else '-'}{abs(z.imag):.3f}i"


def main() -> int:
    basis = standard_basis(2, BasisLabel.PAULI_OVER_SQRT2)
    for title, spec in EXAMPLES:
        report = analyze(spec, basis)
        a = channel_a(spec)
        print("=" * 72)
        print(title)
        print("process matrix:")
        for row in a.matrix:
            print("   " + "  ".join(fmt(z) for z in row))
        spectrum = ", ".join(f"{v:.4g}" for v in report.canonical.eigenvalues)
        print(f"coefficient spectrum: [{spectrum}]")
        print(f"spectral match with B-form: {report.spectral_match:.2e}")
        verdict = "CP" if report.verdict.is_cp else "NCP"
        print(f"verdict: {verdict} (min eigenvalue {report.verdict.min_eigenvalue:.4g})")
        if report.kraus is not None:
            print(f"kraus rank: {len(report.kraus)}")
        else:
            print(f"kraus: absent ({report.kraus_absent_reason})")
    print("=" * 72)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
