"""Constructors for standard qubit channels and random channel generators.

The named channels are built analytically from closed-form matrix
entries; constructing them through the operator-sum route
(:func:`chanforms.forms.kraus_to_a`) is an independent path used by the
test suite to cross-check transcription.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    NotUnitAxisError,
    ProbabilityRangeError,
    RankRangeError,
)
from .forms import AForm, BForm, KrausSet, _reshuffle, kraus_to_a, realign_b_to_a
from .linalg import DEFAULT_TOL, SIGMA_1, SIGMA_2, SIGMA_3, BlochVector


class ChannelKind(str, Enum):
    UNITARY = "unitary"
    PIN = "pin"
    TRANSPOSE = "transpose"
    EQUATORIAL_PROJECTION = "equatorial_projection"
    BIT_FLIP = "bit_flip"
    PHASE_FLIP = "phase_flip"
    RAW_A = "raw_a"
    RAW_KRAUS = "raw_kraus"


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """Parsed description of a channel; use the classmethod constructors.

    A raw kind keeps the form ``raw_a`` or ``raw_kraus`` validated (the
    ``AForm`` or the ``KrausSet``), so ``channel_a`` compares the residuals
    kept there with its own ``tol`` instead of validating ``matrix`` or
    ``operators`` again.  A raw spec built any other way (the dataclass
    constructor, ``dataclasses.replace``) keeps none and is validated by
    ``channel_a``.
    """

    kind: ChannelKind
    axis: tuple[float, float, float] | None = None
    angle: float | None = None
    p0: BlochVector | None = None
    p: float | None = None
    matrix: np.ndarray | None = None
    operators: np.ndarray | None = None  # shape (k, n, n)
    _form: AForm | KrausSet | None = field(default=None, init=False, repr=False)

    @classmethod
    def unitary(cls, axis, angle: float) -> "ChannelSpec":
        ax = tuple(float(v) for v in axis)
        if len(ax) != 3:
            raise NotUnitAxisError(f"axis needs 3 components, got {len(ax)}")
        _require_unit_axis(ax)
        return cls(kind=ChannelKind.UNITARY, axis=ax, angle=float(angle))

    @classmethod
    def pin(cls, p0: BlochVector) -> "ChannelSpec":
        return cls(kind=ChannelKind.PIN, p0=p0)

    @classmethod
    def transpose(cls) -> "ChannelSpec":
        return cls(kind=ChannelKind.TRANSPOSE)

    @classmethod
    def equatorial_projection(cls) -> "ChannelSpec":
        return cls(kind=ChannelKind.EQUATORIAL_PROJECTION)

    @classmethod
    def bit_flip(cls, p: float) -> "ChannelSpec":
        return cls(kind=ChannelKind.BIT_FLIP, p=_require_probability(p))

    @classmethod
    def phase_flip(cls, p: float) -> "ChannelSpec":
        return cls(kind=ChannelKind.PHASE_FLIP, p=_require_probability(p))

    @classmethod
    def raw_a(cls, matrix: np.ndarray, tol: float = DEFAULT_TOL) -> "ChannelSpec":
        a = AForm(matrix, tol=tol)  # validates the map constraints
        return cls(kind=ChannelKind.RAW_A, matrix=a.matrix)._keeping(a)

    @classmethod
    def raw_kraus(cls, operators, tol: float = DEFAULT_TOL) -> "ChannelSpec":
        kraus = KrausSet(operators, tol=tol)
        return cls(kind=ChannelKind.RAW_KRAUS, operators=kraus.operators)._keeping(kraus)

    def _keeping(self, form: AForm | KrausSet) -> "ChannelSpec":
        object.__setattr__(self, "_form", form)
        return self

    @property
    def dim(self) -> int:
        if self.kind is ChannelKind.RAW_A:
            return math.isqrt(self.matrix.shape[0])
        if self.kind is ChannelKind.RAW_KRAUS:
            return self.operators.shape[1]
        return 2

    def describe(self) -> dict:
        """JSON-ready summary of the channel and its parameters."""
        out: dict = {"kind": self.kind.value, "dim": self.dim}
        for name, wire_type in _KINDS[self.kind].fields:
            if wire_type in _PLAIN:
                out[name] = _PLAIN[wire_type](getattr(self, name))
        return out


def _require_probability(p: float) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ProbabilityRangeError(f"probability {p!r} outside [0, 1]")
    return p


def _require_unit_axis(axis) -> np.ndarray:
    ax = np.asarray(axis, dtype=float)
    norm = math.hypot(*ax)
    if not abs(norm - 1.0) <= DEFAULT_TOL:  # also rejects a NaN component
        raise NotUnitAxisError(f"axis norm {norm:.6g} differs from 1 beyond tol {DEFAULT_TOL:g}")
    return ax


def rotation_unitary(axis, angle: float) -> np.ndarray:
    """2x2 rotation U = cos(theta/2) I + i sin(theta/2) (n.sigma)."""
    ax = _require_unit_axis(axis)
    n_dot_sigma = ax[0] * SIGMA_1 + ax[1] * SIGMA_2 + ax[2] * SIGMA_3
    return np.cos(angle / 2) * np.eye(2, dtype=complex) + 1j * np.sin(angle / 2) * n_dot_sigma


def build_unitary_a(axis, angle: float) -> AForm:
    """Process matrix U (x) conj(U) of a qubit rotation."""
    u = rotation_unitary(axis, angle)
    return AForm(np.kron(u, u.conj()))


def build_pin_a(p0: BlochVector) -> AForm:
    """Process matrix of the map pinning every input to the state with Bloch vector ``p0``;
    columns 0 and 3 hold that state's vector (1+p3, p1-ip2, p1+ip2, 1-p3)/2."""
    col = 0.5 * np.array([1 + p0.p3, p0.p1 - 1j * p0.p2, p0.p1 + 1j * p0.p2, 1 - p0.p3], dtype=complex)
    a = np.zeros((4, 4), dtype=complex)
    a[:, 0] = col
    a[:, 3] = col
    return AForm(a)


def build_transpose_a() -> AForm:
    """Process matrix of rho -> rho^T (swaps the two middle vector components)."""
    return AForm(np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex))


def build_equatorial_projection_a() -> AForm:
    """Process matrix of the Bloch-equator projection; idempotent."""
    return AForm(0.5 * np.array([[1, 0, 0, 1], [0, 2, 0, 0], [0, 0, 2, 0], [1, 0, 0, 1]], dtype=complex))


def build_bit_flip_a(p: float) -> AForm:
    """Bit-flip process matrix, closed form."""
    p = _require_probability(p)
    q = 1 - p
    return AForm(
        np.array(
            [[p, 0, 0, q], [0, p, q, 0], [0, q, p, 0], [q, 0, 0, p]], dtype=complex
        )
    )


def build_phase_flip_a(p: float) -> AForm:
    """Phase-flip process matrix diag(1, 2p-1, 2p-1, 1), closed form.

    A halved variant of this matrix circulates in the literature; it
    cannot be right, since its columns sum to 1/2 (breaking trace
    preservation) and it contradicts the coefficient spectrum
    {2p, 2(1-p)}.  The operator-sum expansion of the phase-flip Kraus
    pair gives the unhalved matrix used here.
    """
    p = _require_probability(p)
    return AForm(np.diag([1.0, 2 * p - 1, 2 * p - 1, 1.0]).astype(complex))


def _random_kraus(rng: np.random.Generator, n: int, rank: int) -> KrausSet:
    g = rng.standard_normal((rank * n, n)) + 1j * rng.standard_normal((rank * n, n))
    q, _ = np.linalg.qr(g)
    # Column orthonormalization makes sum E^dag E = Q^dag Q = I by construction.
    return KrausSet(q.reshape(rank, n, n), tol=1e-12)


def random_cp_channel(n: int, rank: int, seed: int) -> KrausSet:
    """Random completely positive trace-preserving channel of given Kraus rank.

    Draws a (rank*n) x n standard complex Gaussian matrix,
    orthonormalizes its columns, and slices it into ``rank`` blocks.
    Deterministic for a fixed seed.
    """
    if not 1 <= rank <= n * n:
        raise RankRangeError(f"rank must lie in [1, {n * n}], got {rank}")
    return _random_kraus(np.random.default_rng(seed), n, rank)


def random_ncp_a(n: int, seed: int, min_negativity: float = 0.05) -> AForm:
    """Random valid A-form that is not completely positive.

    Starts from a random CP channel and shifts the spectrum of its
    dynamical matrix negative by adding X (x) Y with X traceless
    Hermitian and Y Hermitian.  That perturbation keeps both map
    constraints intact (it is Hermitian, traceless, and has vanishing
    partial trace over the first factor), so the result realigns to a
    valid A-form whose minimum canonical eigenvalue is below
    ``-min_negativity``.
    """
    rng = np.random.default_rng(seed)
    rank = int(rng.integers(1, n * n + 1))
    base = kraus_to_a(_random_kraus(rng, n, rank))
    b = _reshuffle(base.matrix, n)

    gx = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = gx + gx.conj().T
    x -= np.trace(x) / n * np.eye(n)
    gy = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = gy + gy.conj().T
    direction = np.kron(x, y)
    direction /= np.abs(np.linalg.eigvalsh(direction)).max()

    scale = 0.5
    for _ in range(64):
        shifted = b + scale * direction
        if float(np.linalg.eigvalsh(shifted).min()) < -min_negativity:
            return realign_b_to_a(BForm(shifted))
        scale *= 2.0
    raise RuntimeError("failed to reach a negative dynamical spectrum")


@dataclass(frozen=True)
class _KindRule:
    """Everything specific to one channel kind.

    ``fields`` are the payload fields in wire order with their wire types:
    "real", "axis" (three reals), "bloch" (three reals, a Bloch vector),
    "a_matrix" or "operators".  ``make(tol, **fields)`` is the validating
    constructor applied to the parsed fields; ``build_a(spec, tol)`` gives
    the A-form of a spec of this kind.  ``summary`` is the kind's line in
    the ``zoo`` catalog, None for the raw kinds.
    """

    fields: tuple[tuple[str, str], ...]
    make: Callable[..., ChannelSpec]
    build_a: Callable[[ChannelSpec, float], AForm]
    summary: str | None = None


# How ``describe`` and the channel documents write the scalar wire types;
# the matrix types are written by the serializer and left out of summaries.
_PLAIN: dict[str, Callable] = {
    "real": float,
    "axis": lambda v: [float(x) for x in v],
    "bloch": lambda v: [v.p1, v.p2, v.p3],
}

_KINDS: dict[ChannelKind, _KindRule] = {
    ChannelKind.UNITARY: _KindRule(
        (("axis", "axis"), ("angle", "real")),
        lambda tol, axis, angle: ChannelSpec.unitary(axis, angle),
        lambda spec, tol: build_unitary_a(spec.axis, spec.angle),
        "rho -> U rho U^dag with U = exp(i(theta/2) n.sigma); completely positive, "
        "canonical rank 1 with eigenvalue 2",
    ),
    ChannelKind.PIN: _KindRule(
        (("p0", "bloch"),),
        lambda tol, p0: ChannelSpec.pin(BlochVector(*p0)),
        lambda spec, tol: build_pin_a(spec.p0),
        "sends every input state to a fixed state rho0; completely positive, "
        "spectrum {(1+|p0|)/2 twice, (1-|p0|)/2 twice}; B-form equals rho0 (x) I",
    ),
    ChannelKind.TRANSPOSE: _KindRule(
        (),
        lambda tol: ChannelSpec.transpose(),
        lambda spec, tol: build_transpose_a(),
        "rho -> rho^T; positive but not completely positive (one canonical "
        "eigenvalue is -1); its B-form equals its A-form",
    ),
    ChannelKind.EQUATORIAL_PROJECTION: _KindRule(
        (),
        lambda tol: ChannelSpec.equatorial_projection(),
        lambda spec, tol: build_equatorial_projection_a(),
        "projects the Bloch ball onto its equator, (p1,p2,p3) -> (p1,p2,0); "
        "not completely positive (spectrum {3/2, 1/2, 1/2, -1/2})",
    ),
    ChannelKind.BIT_FLIP: _KindRule(
        (("p", "real"),),
        lambda tol, p: ChannelSpec.bit_flip(p),
        lambda spec, tol: build_bit_flip_a(spec.p),
        "keeps the state with probability p, applies sigma_1 with probability "
        "1-p; completely positive, spectrum {2p, 2(1-p), 0, 0}",
    ),
    ChannelKind.PHASE_FLIP: _KindRule(
        (("p", "real"),),
        lambda tol, p: ChannelSpec.phase_flip(p),
        lambda spec, tol: build_phase_flip_a(spec.p),
        "keeps the state with probability p, applies sigma_3 with probability "
        "1-p; completely positive, spectrum {2p, 2(1-p), 0, 0}",
    ),
    ChannelKind.RAW_A: _KindRule(
        (("matrix", "a_matrix"),),
        lambda tol, matrix: ChannelSpec.raw_a(matrix, tol=tol),
        lambda spec, tol: AForm(spec.matrix, tol=tol) if spec._form is None else spec._form,
    ),
    ChannelKind.RAW_KRAUS: _KindRule(
        (("operators", "operators"),),
        lambda tol, operators: ChannelSpec.raw_kraus(operators, tol=tol),
        lambda spec, tol: kraus_to_a(spec.operators if spec._form is None else spec._form, tol=tol),
    ),
}

# The named kinds, in catalog order, with their one-line summaries.
CHANNEL_CATALOG: dict[ChannelKind, str] = {k: r.summary for k, r in _KINDS.items() if r.summary}
NAMED_KINDS = tuple(CHANNEL_CATALOG)


def channel_a(spec: ChannelSpec, tol: float = DEFAULT_TOL) -> AForm:
    """Process matrix of any channel description, checked at ``tol`` whatever its kind."""
    return _KINDS[spec.kind].build_a(spec, tol)._check(tol)


__all__ = [
    "ChannelKind",
    "ChannelSpec",
    "CHANNEL_CATALOG",
    "NAMED_KINDS",
    "rotation_unitary",
    "build_unitary_a",
    "build_pin_a",
    "build_transpose_a",
    "build_equatorial_projection_a",
    "build_bit_flip_a",
    "build_phase_flip_a",
    "random_cp_channel",
    "random_ncp_a",
    "channel_a",
]
