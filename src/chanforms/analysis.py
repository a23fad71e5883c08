"""Composite audits of a channel: validity report, spectral equivalence
between the coefficient matrix and the dynamical matrix, and the
maximally-entangled-state consistency check.

Complete positivity is certified here through the n-dimensional
extension only: the image of the maximally entangled state under
``map (x) identity`` equals ``B / n``, and positivity of that single
state decides CP for extensions of every dimension.  Larger ancillas
add nothing, so they are never searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMatrixError
from .forms import (
    AForm,
    CanonicalDecomposition,
    CpVerdict,
    KrausSet,
    OperatorBasis,
    _classify,
    _cut_kraus,
    _scaled_tol,
    canonical_decompose,
    default_basis,
    realign_a_to_b,
)
from .linalg import DEFAULT_TOL, _new, max_abs
from .zoo import ChannelSpec, channel_a


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Everything the pipeline establishes about one channel."""

    channel: dict
    tol: float
    a_hermiticity_residual: float
    a_trace_residual: float
    b_trace: float
    b_spectrum: np.ndarray
    spectral_match: float
    verdict: CpVerdict
    canonical: CanonicalDecomposition
    kraus: KrausSet | None
    kraus_absent_reason: str | None


def analyze(
    spec: ChannelSpec,
    basis: OperatorBasis | None = None,
    tol: float = DEFAULT_TOL,
) -> AnalysisReport:
    """Run the full pipeline on a channel description.

    Pure function: identical inputs give identical reports.

    B is solved once, through the coefficient matrix, and ``b_spectrum``
    is the canonical spectrum.  In the matrix units (``standard_basis(n)``
    or a copy) the coefficient matrix is B bit for bit, so
    ``spectral_match`` is 0.0 by construction.  In any other basis each
    canonical pair is checked against B itself: B = sum_k lam_k vec(C_k)
    vec(C_k)^dag, so with the row-vectorized C_k as the columns of V_c,
    ``spectral_match`` is the pair residual max|B V_c - V_c diag(lam)|,
    which also bounds how far each lam_k lies from B's spectrum.  A
    residual beyond ``tol * n^2``, or one that is not a number, raises
    ``InvalidMatrixError``.
    """
    a = channel_a(spec, tol)
    if basis is None:
        basis = default_basis(a.dim)

    b = realign_a_to_b(a, tol)
    decomp = canonical_decompose(a, basis, tol)
    spectral_match = 0.0
    if not basis._units:
        n, slack = a.dim, _scaled_tol(tol, a.dim)
        v = decomp.canonical_ops.reshape(n * n, n * n).T  # column k is vec(C_k)
        spectral_match = max_abs(b.matrix.dot(v) - v * decomp.eigenvalues)
        if not spectral_match <= slack:
            raise InvalidMatrixError(
                f"canonical pairs are not eigenpairs of B: residual {spectral_match:.3g},"
                f" beyond tol*n^2 = {slack:.3g}"
            )

    verdict = _classify(float(decomp.eigenvalues[-1]), tol)  # descending

    kraus: KrausSet | None = None
    reason: str | None = None
    if verdict.is_cp:
        kraus = _cut_kraus(decomp, tol)
    else:
        reason = (
            f"map is not completely positive (min eigenvalue {verdict.min_eigenvalue:.6g}); "
            "no operator-sum form exists"
        )

    return _new(
        AnalysisReport,
        channel=spec.describe(),
        tol=tol,
        a_hermiticity_residual=a.hermiticity_residual,
        a_trace_residual=a.trace_residual,
        b_trace=b.trace,
        b_spectrum=decomp.eigenvalues,
        spectral_match=spectral_match,
        verdict=verdict,
        canonical=decomp,
        kraus=kraus,
        kraus_absent_reason=reason,
    )


def choi_state(a: AForm) -> np.ndarray:
    """Image of the maximally entangled state under ``map (x) identity``.

    Applying the map to the first factor of Omega = sum_{r,s} |rr><ss| / n
    gives out[(a,b),(c,d)] = sum_{r,s} A[(a,c),(r,s)] Omega[(r,b),(s,d)]
    = A[(a,c),(b,d)] / n: A's (a,c,b,d) entries put in (a,b,c,d) order and
    scaled by (1/sqrt(n))^2, the weight of each |rr><ss|.  The reorder is
    written here rather than taken from the realignment code, which
    ``choi_consistency`` checks against it.
    """
    n = a.dim
    w = 1 / math.sqrt(n)
    return a.matrix.reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(n * n, n * n) * (w * w)


def choi_consistency(a: AForm, tol: float = DEFAULT_TOL) -> float:
    """Max-entry deviation between ``choi_state(a)`` and ``B / n``, with B
    the realigned A that ``realign_a_to_b`` checks at ``tol``.  Both sides
    are the same entries of A, reordered by two separate code paths and
    scaled, so the residual guards the realignment's index order; it
    holds for NCP maps too and says nothing about complete positivity."""
    b = realign_a_to_b(a, tol)
    return max_abs(choi_state(a) - b.matrix / a.dim)

