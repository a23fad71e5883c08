"""Constructors for standard qubit channels and random channel generators.

The named channels are built analytically from closed-form matrix
entries; constructing them through the operator-sum route
(:func:`chanforms.forms.kraus_to_a`) is an independent path used by the
test suite to cross-check transcription.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    ChanformsError,
    InvalidMatrixError,
    NotUnitAxisError,
    OutsideBallError,
    ProbabilityRangeError,
    RankRangeError,
    SeedRangeError,
    WrongDimensionError,
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
    """Parsed description of a channel.

    Construction runs the kind's builder once on the payload fields, however
    the spec is built (a classmethod, the dataclass constructor or
    ``dataclasses.replace``), and keeps the form it built: the closed-form
    ``AForm`` of a named kind, the ``AForm`` of ``raw_a``'s ``matrix`` or the
    ``KrausSet`` of ``raw_kraus``'s ``operators``.  Each field is kept as the
    builder accepted it: a raw payload as the form's read-only copy, ``p`` and
    ``angle`` as floats, the axis as a tuple of floats and ``p0`` as the
    ``BlochVector`` given; a one-shot iterator is read into a tuple first.  A
    bad parameter or a malformed payload (a matrix that is not n^2 x n^2, a
    non-finite entry, operators of mixed sizes) raises here.  The map
    constraints are checked by ``channel_a`` at its ``tol`` against the
    residuals kept in the form, and by the raw classmethods at theirs.
    """

    kind: ChannelKind
    axis: tuple[float, float, float] | None = None
    angle: float | None = None
    p0: BlochVector | None = None
    p: float | None = None
    matrix: np.ndarray | None = None
    operators: np.ndarray | None = None  # shape (k, n, n)
    _form: AForm | KrausSet = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rule = _KINDS[self.kind]
        values = [getattr(self, name) for name, _ in rule.fields]
        values = [tuple(v) if isinstance(v, Iterator) else v for v in values]
        form = rule.build(*values)
        # One update of the instance __dict__ bypasses the frozen __setattr__, as in linalg._new.
        self.__dict__.update({name: _KEEP[t](v, form) for (name, t), v in zip(rule.fields, values)}, _form=form)

    @classmethod
    def unitary(cls, axis, angle: float) -> "ChannelSpec":
        return cls(kind=ChannelKind.UNITARY, axis=axis, angle=angle)

    @classmethod
    def pin(cls, p0: BlochVector) -> "ChannelSpec":
        """The pin map to ``p0``, which must be a ``BlochVector`` (``OutsideBallError`` otherwise)."""
        return cls(kind=ChannelKind.PIN, p0=p0)

    @classmethod
    def transpose(cls) -> "ChannelSpec":
        return cls(kind=ChannelKind.TRANSPOSE)

    @classmethod
    def equatorial_projection(cls) -> "ChannelSpec":
        return cls(kind=ChannelKind.EQUATORIAL_PROJECTION)

    @classmethod
    def bit_flip(cls, p: float) -> "ChannelSpec":
        return cls(kind=ChannelKind.BIT_FLIP, p=p)

    @classmethod
    def phase_flip(cls, p: float) -> "ChannelSpec":
        return cls(kind=ChannelKind.PHASE_FLIP, p=p)

    @classmethod
    def raw_a(cls, matrix: np.ndarray, tol: float = DEFAULT_TOL) -> "ChannelSpec":
        spec = cls(kind=ChannelKind.RAW_A, matrix=matrix)
        spec._form._check(tol)
        return spec

    @classmethod
    def raw_kraus(cls, operators, tol: float = DEFAULT_TOL) -> "ChannelSpec":
        spec = cls(kind=ChannelKind.RAW_KRAUS, operators=operators)
        spec._form._check(tol)
        return spec

    @property
    def dim(self) -> int:
        return self._form.dim

    def describe(self) -> dict:
        """JSON-ready summary of the channel and its parameters."""
        out: dict = {"kind": self.kind.value, "dim": self.dim}
        for name, wire_type in _KINDS[self.kind].fields:
            if wire_type in _PLAIN:
                out[name] = _PLAIN[wire_type](getattr(self, name))
        return out


def _real(x, error: type[ChanformsError], what: str) -> float:
    """``float(x)`` of a real number; anything else raises ``error``: a string or bytes (numbers
    are not parsed from text here), a value ``float`` refuses, or a number beyond the double range,
    such as the int 10**400."""
    try:
        if not isinstance(x, (str, bytes, bytearray)):
            return float(x)
    except OverflowError:
        raise error(f"{what} is beyond the double range") from None
    except (TypeError, ValueError):
        pass
    raise error(f"{what} must be a real number, got {x!r}")


def _require_probability(p: float) -> float:
    p = _real(p, ProbabilityRangeError, "probability")
    if not 0.0 <= p <= 1.0:
        raise ProbabilityRangeError(f"probability {p!r} outside [0, 1]")
    return p


def _require_unit_axis(axis) -> np.ndarray:
    """``axis`` as a float array; ``NotUnitAxisError`` unless it is three real components of norm 1."""
    try:
        ax = np.array([_real(v, NotUnitAxisError, "axis component") for v in axis])
    except TypeError:  # not iterable
        raise NotUnitAxisError(f"axis must be three real components, got {axis!r}") from None
    if len(ax) != 3:
        raise NotUnitAxisError(f"axis needs 3 components, got {len(ax)}")
    norm = math.hypot(*ax)
    if not abs(norm - 1.0) <= DEFAULT_TOL:  # also rejects a NaN component
        raise NotUnitAxisError(f"axis norm {norm:.6g} differs from 1 beyond tol {DEFAULT_TOL:g}")
    return ax


def rotation_unitary(axis, angle: float) -> np.ndarray:
    """2x2 rotation U = cos(theta/2) I + i sin(theta/2) (n.sigma); a NaN or infinite
    ``angle`` raises ``InvalidMatrixError``."""
    ax = _require_unit_axis(axis)
    angle = _real(angle, InvalidMatrixError, "rotation angle")
    if not math.isfinite(angle):
        raise InvalidMatrixError(f"rotation angle {angle!r} is not finite")
    n_dot_sigma = ax[0] * SIGMA_1 + ax[1] * SIGMA_2 + ax[2] * SIGMA_3
    return np.cos(angle / 2) * np.eye(2, dtype=complex) + 1j * np.sin(angle / 2) * n_dot_sigma


def build_unitary_a(axis, angle: float) -> AForm:
    """Process matrix U (x) conj(U) of a qubit rotation."""
    u = rotation_unitary(axis, angle)
    return AForm(np.kron(u, u.conj()))


def build_pin_a(p0: BlochVector) -> AForm:
    """Process matrix of the map pinning every input to the state with Bloch vector ``p0``;
    columns 0 and 3 hold that state's vector (1+p3, p1-ip2, p1+ip2, 1-p3)/2.  ``p0`` must be a
    ``BlochVector``, which has checked its components; anything else raises ``OutsideBallError``."""
    if not isinstance(p0, BlochVector):
        raise OutsideBallError(f"the pin map needs a BlochVector, got {p0!r}")
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


def _int_at_least(x, lo: int) -> bool:
    """Whether ``x`` is an integer (any type ``operator.index`` takes) of at least ``lo``."""
    try:
        return operator.index(x) >= lo
    except TypeError:
        return False


def _generator(seed: int) -> np.random.Generator:
    """The generator of a non-negative integer seed; any other seed raises ``SeedRangeError``."""
    if not _int_at_least(seed, 0):
        raise SeedRangeError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def random_cp_channel(n: int, rank: int, seed: int) -> KrausSet:
    """Random completely positive trace-preserving channel of given Kraus rank.

    Draws a (rank*n) x n standard complex Gaussian matrix,
    orthonormalizes its columns, and slices it into ``rank`` blocks.
    Deterministic for a fixed seed, which must be a non-negative integer
    (``SeedRangeError``); n must be a positive integer (``WrongDimensionError``).
    """
    if not _int_at_least(n, 1):
        raise WrongDimensionError(f"dimension must be a positive integer, got {n!r}")
    if not (_int_at_least(rank, 1) and rank <= n * n):
        raise RankRangeError(f"rank must lie in [1, {n * n}], got {rank}")
    return _random_kraus(_generator(seed), n, rank)


def random_ncp_a(n: int, seed: int, min_negativity: float = 0.05) -> AForm:
    """Random valid A-form that is not completely positive.

    Starts from a random CP channel and shifts the spectrum of its
    dynamical matrix negative by adding X (x) Y with X traceless
    Hermitian and Y Hermitian.  That perturbation keeps both map
    constraints intact (it is Hermitian, traceless, and has vanishing
    partial trace over the first factor), so the result realigns to a
    valid A-form whose minimum canonical eigenvalue is below
    ``-min_negativity``.  Every map at n = 1 is completely positive, so n
    must be an integer of at least 2 (``WrongDimensionError``); the seed
    must be a non-negative integer (``SeedRangeError``).  ``min_negativity``
    must be a finite number of at least 0, and one the shift reaches within
    64 doublings of its scale; otherwise ``InvalidMatrixError`` (a
    ``ValueError``) is raised.
    """
    if not _int_at_least(n, 2):
        raise WrongDimensionError(f"an NCP map needs dimension at least 2, got {n!r}")
    try:
        bound_ok = math.isfinite(min_negativity) and min_negativity >= 0
    except (TypeError, OverflowError):  # not a real number, or an int beyond the double range
        bound_ok = False
    if not bound_ok:
        raise InvalidMatrixError(f"min_negativity must be a finite number of at least 0, got {min_negativity!r}")
    rng = _generator(seed)
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
    raise InvalidMatrixError(f"no dynamical eigenvalue below -{min_negativity:g} within 64 doublings of the shift")


@dataclass(frozen=True)
class _KindRule:
    """Everything specific to one channel kind.

    ``fields`` are the payload fields in wire order with their wire types:
    "real", "axis" (three reals), "bloch" (three reals on the wire, a
    ``BlochVector`` in a spec), "a_matrix" or "operators".  ``build`` is the
    kind's builder, called on the field values in wire order: it checks them
    and returns the form a spec of this kind keeps, not checked against a
    tolerance (a raw kind's form is built at an infinite tol, so that only a
    malformed payload raises).  ``summary`` is the kind's line in the ``zoo``
    catalog, None for the raw kinds.
    """

    fields: tuple[tuple[str, str], ...]
    build: Callable[..., AForm | KrausSet]
    summary: str | None = None


# How a spec keeps a payload value its builder has accepted, by wire type.
_KEEP: dict[str, Callable] = {
    "real": lambda value, form: float(value),
    "axis": lambda value, form: tuple(map(float, value)),
    "bloch": lambda value, form: value,
    "a_matrix": lambda value, form: form.matrix,
    "operators": lambda value, form: form.operators,
}

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
        build_unitary_a,
        "rho -> U rho U^dag with U = exp(i(theta/2) n.sigma); completely positive, "
        "canonical rank 1 with eigenvalue 2",
    ),
    ChannelKind.PIN: _KindRule(
        (("p0", "bloch"),),
        build_pin_a,
        "sends every input state to a fixed state rho0; completely positive, "
        "spectrum {(1+|p0|)/2 twice, (1-|p0|)/2 twice}; B-form equals rho0 (x) I",
    ),
    ChannelKind.TRANSPOSE: _KindRule(
        (),
        build_transpose_a,
        "rho -> rho^T; positive but not completely positive (one canonical "
        "eigenvalue is -1); its B-form equals its A-form",
    ),
    ChannelKind.EQUATORIAL_PROJECTION: _KindRule(
        (),
        build_equatorial_projection_a,
        "projects the Bloch ball onto its equator, (p1,p2,p3) -> (p1,p2,0); "
        "not completely positive (spectrum {3/2, 1/2, 1/2, -1/2})",
    ),
    ChannelKind.BIT_FLIP: _KindRule(
        (("p", "real"),),
        build_bit_flip_a,
        "keeps the state with probability p, applies sigma_1 with probability "
        "1-p; completely positive, spectrum {2p, 2(1-p), 0, 0}",
    ),
    ChannelKind.PHASE_FLIP: _KindRule(
        (("p", "real"),),
        build_phase_flip_a,
        "keeps the state with probability p, applies sigma_3 with probability "
        "1-p; completely positive, spectrum {2p, 2(1-p), 0, 0}",
    ),
    ChannelKind.RAW_A: _KindRule((("matrix", "a_matrix"),), functools.partial(AForm, tol=math.inf)),
    ChannelKind.RAW_KRAUS: _KindRule((("operators", "operators"),), functools.partial(KrausSet, tol=math.inf)),
}

# The named kinds, in catalog order, with their one-line summaries.
CHANNEL_CATALOG: dict[ChannelKind, str] = {k: r.summary for k, r in _KINDS.items() if r.summary}
NAMED_KINDS = tuple(CHANNEL_CATALOG)


def channel_a(spec: ChannelSpec, tol: float = DEFAULT_TOL) -> AForm:
    """Process matrix of any channel description, checked at ``tol`` whatever its kind:
    the kept A-form, or the one the kept Kraus set keeps, so every call on one spec
    returns one ``AForm``."""
    form = spec._form
    return kraus_to_a(form, tol) if isinstance(form, KrausSet) else form._check(tol)


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
