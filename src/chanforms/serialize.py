"""Wire format and strict document parsing.

Shared conventions (see FORMAT.md for byte-level examples):

* complex number  -> two-element array ``[re, im]``
* matrix          -> row-major nested arrays of complex pairs
* channel document-> ``{"format_version": "1", "channel": {...}, "options": {...}}``

Parsing is strict: unknown fields are rejected at every level, required
fields must be present, matrices must be rectangular with finite
entries.  This surfaces malformed input early and keeps machine output
reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain

import numpy as np

from .errors import (
    BadMatrixShapeError,
    ChanformsError,
    DocumentSyntaxError,
    MissingFieldError,
    NonFiniteEntryError,
    UnknownFieldError,
)
from .forms import BasisLabel, CpClassification
from .linalg import DEFAULT_TOL, BlochVector, DensityMatrix, bloch_to_density
from .zoo import _KINDS, _PLAIN, NAMED_KINDS, ChannelKind, ChannelSpec

FORMAT_VERSION = "1"

# No computation reads these; they stay only because perfbench imports them.
DEFAULT_SEED = 0
DEFAULT_SAMPLES = 100


@dataclass(frozen=True, eq=False)
class ChannelDocument:
    channel: ChannelSpec
    basis: BasisLabel | None  # the document's ``options.basis``
    tol: float  # the effective tolerance the channel was validated at


# ---------------------------------------------------------------------------
# encoding


def matrix_to_wire(m) -> list:
    """Row-major ``[re, im]`` pairs of a matrix, or of each matrix of an ``(..., r, c)`` stack.

    A C-contiguous complex array holds each entry as its two doubles, so
    its float view, shaped ``(..., r, c, 2)``, is the pairs without a copy.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    return m.view(float).reshape(*m.shape, 2).tolist()


# Wire dicts are freshly built trees, so the encoder's cycle check (one dict
# insert and delete per container, every [re, im] pair included) is skipped.
_ENCODER = json.JSONEncoder(separators=(",", ":"), allow_nan=False, check_circular=False)


def dumps(obj: dict) -> str:
    """Canonical single-line JSON used for all machine output."""
    return _ENCODER.encode(obj) + "\n"


# ---------------------------------------------------------------------------
# strict decoding: leaves
#
# A leaf parser takes the JSON value and its path and returns the parsed
# value or raises a DocumentError naming the path.


def _load_json(text: str | bytes, what: str) -> object:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentSyntaxError(f"{what}: input is not valid UTF-8") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(
            f"{what}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError:  # an integer literal past Python's digit limit, far beyond double range
        raise NonFiniteEntryError(
            f"{what}: non-finite value: an integer literal beyond the double range"
        ) from None
    except RecursionError:
        raise DocumentSyntaxError(f"{what}: input is nested too deeply") from None


def _as_object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise BadMatrixShapeError(f"{path}: expected an object, got {type(obj).__name__}")
    return dict(obj)


def _as_finite_number(obj, path: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise BadMatrixShapeError(f"{path}: expected a number")
    try:
        v = float(obj)
    except OverflowError:  # an integer literal beyond double range
        v = math.inf
    if not math.isfinite(v):
        raise NonFiniteEntryError(f"{path}: non-finite value")
    return v


# The largest eigenvalue of a trace-n B is at least 1/n, above this bound for n < 1000,
# so a CP map keeps a Kraus operator; and tol * (n^2 + 1) stays below 1 up to n = 31.
MAX_TOL = 1e-3


def _check_tol(tol: float, path: str) -> float:
    """The one tolerance check, for the ``--tol`` flag, a document's ``options.tol``
    and ``parse_channel_document``'s ``tol_override``."""
    if not math.isfinite(tol):
        raise NonFiniteEntryError(f"{path}: tolerance must be finite")
    if tol <= 0:
        raise BadMatrixShapeError(f"{path}: tolerance must be positive")
    if tol > MAX_TOL:
        raise BadMatrixShapeError(f"{path}: tolerance must be at most {MAX_TOL:g}")
    return tol


def _tol(obj, path: str) -> float:
    return _check_tol(_as_finite_number(obj, path), path)


def _int_leaf(minimum: int):
    """Leaf for an integer (not a boolean) of at least ``minimum``."""

    def leaf(obj, path: str) -> int:
        if isinstance(obj, bool) or not isinstance(obj, int):
            raise BadMatrixShapeError(f"{path}: expected an integer")
        if obj < minimum:
            raise BadMatrixShapeError(f"{path}: must be at least {minimum}")
        return obj

    return leaf


def _boolean(obj, path: str) -> bool:
    if not isinstance(obj, bool):
        raise BadMatrixShapeError(f"{path}: expected a boolean")
    return obj


def _string(obj, path: str) -> str:
    if not isinstance(obj, str):
        raise BadMatrixShapeError(f"{path}: expected a string")
    return obj


def _member(enum: type[Enum], what: str):
    """Leaf for the wire value of a member of ``enum``; returns the member."""

    def leaf(obj, path: str):
        try:
            return enum(obj)
        except ValueError:
            raise UnknownFieldError(f"{path}: unknown {what} {obj!r}") from None

    return leaf


def _version(obj, path: str) -> str:
    if obj != FORMAT_VERSION:
        raise UnknownFieldError(
            f"{path}: unrecognized version {obj!r} (expected {FORMAT_VERSION!r})"
        )
    return obj


def parse_complex(obj, path: str) -> complex:
    """A complex entry is exactly a two-number array [re, im]."""
    if not isinstance(obj, list) or len(obj) != 2:
        raise BadMatrixShapeError(f"{path}: complex entries must be [re, im] pairs")
    return complex(_as_finite_number(obj[0], path), _as_finite_number(obj[1], path))


def _check_shape(m: np.ndarray, path: str, rows: int, cols: int) -> None:
    if m.shape[0] != rows:
        raise BadMatrixShapeError(f"{path}: expected {rows} rows, got {m.shape[0]}")
    if m.shape[1] != cols:
        raise BadMatrixShapeError(f"{path}: expected {cols} columns, got {m.shape[1]}")


def _pairs(obj) -> np.ndarray | None:
    """The ``(r, c, 2)`` array of a well-formed matrix, else None.

    numpy would also take tuples, booleans and numeric strings, so every
    container must be a list and every leaf an int or a float.  The rows
    and entries are flattened once, their types and lengths checked on the
    flat lists, and the leaves converted in one 1-D pass.
    """
    if type(obj) is not list or not obj or set(map(type, obj)) != {list}:
        return None
    width = len(obj[0])
    if not width or set(map(len, obj)) != {width}:
        return None
    entries = list(chain.from_iterable(obj))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    leaves = list(chain.from_iterable(entries))
    if not set(map(type, leaves)) <= {int, float}:
        return None
    try:
        flat = np.array(leaves, dtype=float)
    except OverflowError:  # an integer beyond the double range
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.reshape(-1, width, 2)


def parse_matrix(obj, path: str) -> np.ndarray:
    pairs = _pairs(obj)
    if pairs is not None:
        # A complex view keeps the sign of -0.0 parts, which re + 1j*im would not.
        return pairs.view(complex)[..., 0]
    # The entry-by-entry walk, which names the first bad entry.
    if not isinstance(obj, list) or not obj:
        raise BadMatrixShapeError(f"{path}: expected a non-empty array of rows")
    width = None
    out = []
    for i, row in enumerate(obj):
        if not isinstance(row, list) or not row:
            raise BadMatrixShapeError(f"{path}[{i}]: expected a non-empty row array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise BadMatrixShapeError(f"{path}[{i}]: ragged row ({len(row)} vs {width})")
        out.append([parse_complex(entry, f"{path}[{i}][{j}]") for j, entry in enumerate(row)])
    return np.array(out, dtype=complex)


def _a_matrix(obj, path: str) -> np.ndarray:
    m = parse_matrix(obj, path)
    n = math.isqrt(m.shape[0])
    if m.shape[0] != m.shape[1] or n * n != m.shape[0] or n < 2:
        raise BadMatrixShapeError(
            f"{path}: an A-form must be n^2 x n^2 with n >= 2, got {m.shape[0]}x{m.shape[1]}"
        )
    return m


def _operator(obj, path: str) -> np.ndarray:
    m = parse_matrix(obj, path)
    if m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise BadMatrixShapeError(f"{path}: operators must be square and at least 2x2")
    return m


def _real_triple(obj, path: str) -> list[float]:
    if not isinstance(obj, list) or len(obj) != 3:
        raise BadMatrixShapeError(f"{path}: expected three real components")
    return [_as_finite_number(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def _array(item):
    """Leaf for a non-empty array whose elements follow the schema ``item``."""

    def leaf(obj, path: str) -> list:
        if not isinstance(obj, list) or not obj:
            raise BadMatrixShapeError(f"{path}: expected a non-empty array")
        return [_walk(item, v, f"{path}[{i}]") for i, v in enumerate(obj)]

    return leaf


def _or_null(schema):
    return lambda obj, path: None if obj is None else _walk(schema, obj, path)


# ---------------------------------------------------------------------------
# the schema walker
#
# A schema is a leaf parser, a dict (an object: every listed field is
# required and no other field is allowed) or a tagged union.


@dataclass(frozen=True)
class _Tagged:
    """An object whose field ``tag`` selects the schema of the whole object."""

    tag: str
    what: str
    variants: dict[str, dict]


def _walk(schema, obj, path: str):
    if callable(schema):
        return schema(obj, path)
    d = _as_object(obj, path)
    if isinstance(schema, _Tagged):
        if schema.tag not in d:
            raise MissingFieldError(f"{path}: missing required field {schema.tag!r}")
        tag = d[schema.tag]
        if not isinstance(tag, str) or tag not in schema.variants:
            raise UnknownFieldError(f"{path}.{schema.tag}: unknown {schema.what} {tag!r}")
        schema = {schema.tag: _string, **schema.variants[tag]}
    for field in d:
        if field not in schema:
            raise UnknownFieldError(f"{path}: unknown field {field!r}")
    out = {}
    for field, sub in schema.items():
        if field not in d:
            raise MissingFieldError(f"{path}: missing required field {field!r}")
        out[field] = _walk(sub, d[field], f"{path}.{field}")
    return out


_real = _as_finite_number
_reals = _array(_real)
_matrices = _array(parse_matrix)
_dim = _int_leaf(2)
_basis = _member(BasisLabel, "basis")

# Payload field parsers and writers, by the wire types of the kind table.
_PARSERS = {
    "real": _real,
    "axis": _real_triple,
    "bloch": _real_triple,
    "a_matrix": _a_matrix,
    "operators": _array(_operator),
}
_ENCODERS = {
    **_PLAIN,
    "a_matrix": matrix_to_wire,
    "operators": matrix_to_wire,
}


def _kind_union(extra: dict, types: dict) -> _Tagged:
    """Union over the kinds: ``extra`` plus the payload fields of the given wire types."""
    return _Tagged(
        "kind",
        "channel kind",
        {
            kind.value: {**extra, **{name: _PARSERS[t] for name, t in rule.fields if t in types}}
            for kind, rule in _KINDS.items()
        },
    )


_PAYLOAD = _kind_union({}, _PARSERS)
# The channel block of a report: kind, dim and the scalar parameters.
_SUMMARY = _kind_union({"dim": _dim}, _PLAIN)


def _make_channel(fields: dict, tol: float, path: str) -> ChannelSpec:
    """Build the spec of parsed payload fields, a ``bloch`` triple as a ``BlochVector``;
    a raw kind's form is checked at ``tol``, as ``ChannelSpec.raw_a`` and ``raw_kraus`` do.

    An error it raises keeps its class and is prefixed with ``path``, the
    payload's place in the document.
    """
    kind = ChannelKind(fields["kind"])
    try:
        payload = {f: BlochVector(*fields[f]) if t == "bloch" else fields[f] for f, t in _KINDS[kind].fields}
        spec = ChannelSpec(kind=kind, **payload)
        if kind not in NAMED_KINDS:
            spec._form._check(tol)
        return spec
    except ChanformsError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# channel documents

_OPTIONS = {"basis": _basis, "tol": _tol}


def _parse_options(obj, path: str) -> dict:
    """Like an object schema, except that every field is optional."""
    d = _as_object(obj, path)
    for field in d:
        if field not in _OPTIONS:
            raise UnknownFieldError(f"{path}: unknown field {field!r}")
    return {f: _walk(_OPTIONS[f], v, f"{path}.{f}") for f, v in d.items()}


def parse_channel_document(text: str | bytes, *, tol_override: float | None = None) -> ChannelDocument:
    """Parse and validate a channel document (strict).

    Raw matrix/operator payloads are validated against the map
    constraints at the effective tolerance, which the result carries as
    ``tol``: ``tol_override`` when given (the CLI flag), else the
    document's own ``options.tol``, else ``DEFAULT_TOL``.  This is the
    only place the order is decided.  ``tol_override`` must lie in
    (0, ``MAX_TOL``] like the document's, or raises with the path
    ``tol_override``.
    """
    d = _as_object(_load_json(text, "document"), "document")
    options = _parse_options(d.pop("options", {}), "document.options")
    tol = options.get("tol", DEFAULT_TOL) if tol_override is None else _check_tol(tol_override, "tol_override")
    doc = _walk({"format_version": _version, "channel": _PAYLOAD}, d, "document")
    return ChannelDocument(
        channel=_make_channel(doc["channel"], tol, "document.channel"),
        basis=options.get("basis"),
        tol=tol,
    )


def channel_document_wire(spec: ChannelSpec, tol: float | None = None) -> dict:
    """Serialize a channel back into document form (inverse of parsing),
    with ``options.tol`` when ``tol`` is given."""
    fields = {name: getattr(spec, name) for name, _ in _KINDS[spec.kind].fields}
    return _payload_document_wire(spec.kind, tol, **fields)


def _payload_document_wire(kind: ChannelKind, tol: float | None, **fields) -> dict:
    """``channel_document_wire`` of a ``kind`` with its payload ``fields`` in hand,
    written as they are: no spec is built, so nothing is measured again."""
    payload: dict = {"kind": kind.value}
    for name, wire_type in _KINDS[kind].fields:
        payload[name] = _ENCODERS[wire_type](fields[name])
    doc = {"format_version": FORMAT_VERSION, "channel": payload}
    if tol is not None:
        doc["options"] = {"tol": tol}
    return doc


# ---------------------------------------------------------------------------
# state documents


def parse_state_document(text: str | bytes, tol: float) -> DensityMatrix:
    """Parse ``{"bloch": [x,y,z]}`` or ``{"density": <matrix>}`` (strict)."""
    d = _as_object(_load_json(text, "state"), "state")
    if ("bloch" in d) == ("density" in d):
        raise MissingFieldError("state: provide exactly one of 'bloch' or 'density'")
    if "bloch" in d:
        triple = _walk({"bloch": _real_triple}, d, "state")["bloch"]
        return bloch_to_density(BlochVector(*triple), tol)
    return DensityMatrix(_walk({"density": parse_matrix}, d, "state")["density"], tol=tol)


# ---------------------------------------------------------------------------
# machine output: representation, report, output and zoo documents


def representation_wire(representation: str, dim: int, **payload) -> dict:
    out: dict = {"format_version": FORMAT_VERSION, "representation": representation, "dim": dim}
    out.update(payload)
    return out


_CANONICAL = {"basis": _basis, "eigenvalues": _reals, "operators": _matrices}
_HEADER = {"format_version": _version, "dim": _dim}
_REPRESENTATION = _Tagged(
    "representation",
    "target",
    {
        "b_form": {**_HEADER, "matrix": parse_matrix},
        "coefficient": {**_HEADER, "basis": _basis, "matrix": parse_matrix},
        "canonical": {**_HEADER, **_CANONICAL},
    },
)

_REPORT = {
    "format_version": _version,
    "report": {
        "channel": _SUMMARY,
        "options": {"tol": _tol},
        "a_form": {"hermiticity_residual": _real, "trace_residual": _real},
        "b_form": {"trace": _real},
        "b_spectrum": _reals,
        "spectral_match": _real,
        "verdict": {
            "classification": _member(CpClassification, "classification"),
            "min_eigenvalue": _real,
        },
        "canonical": {**_CANONICAL, "null_dimension": _int_leaf(0)},
        "kraus": _or_null({"rank": _int_leaf(1)}),
    },
}

_OUTPUT = {
    "format_version": _version,
    "output": {
        "density": parse_matrix,
        "bloch": _or_null(_real_triple),
        "positive": _boolean,
        "min_eigenvalue": _real,
    },
}

_ZOO = {
    "format_version": _version,
    "channels": _array({"kind": _member(ChannelKind, "channel kind"), "summary": _string}),
}


def _check_count(items: list, needed: int, path: str, rule: str) -> None:
    if len(items) != needed:
        raise BadMatrixShapeError(f"{path}: {rule} needs {needed} entries, got {len(items)}")


def _check_canonical(c: dict, dim: int, path: str, support_tol: float | None = None) -> None:
    """A canonical block lists dim^2 eigenvalues and dim x dim operators:
    all dim^2 of them, or with ``support_tol`` (a report's) one per
    eigenvalue above it in magnitude, the rest counted by ``null_dimension``."""
    eigenvalues, ops = c["eigenvalues"], c["operators"]
    _check_count(eigenvalues, dim * dim, f"{path}.eigenvalues", f"dim {dim}")
    if support_tol is None:
        _check_count(ops, dim * dim, f"{path}.operators", f"dim {dim}")
    else:
        support = sum(abs(lam) > support_tol for lam in eigenvalues)
        _check_count(ops, support, f"{path}.operators", f"a support of |eigenvalue| > {support_tol:g}")
        if c["null_dimension"] != dim * dim - support:
            raise BadMatrixShapeError(
                f"{path}.null_dimension: dim {dim} with {support} operators needs"
                f" {dim * dim - support}, got {c['null_dimension']}"
            )
    for i, op in enumerate(ops):
        _check_shape(op, f"{path}.operators[{i}]", dim, dim)


def parse_representation_document(text: str | bytes) -> dict:
    """Re-parse a representation document emitted by ``convert`` (strict)."""
    out = _walk(_REPRESENTATION, _load_json(text, "representation"), "representation")
    del out["format_version"]
    dim = out["dim"]
    if "matrix" in out:
        _check_shape(out["matrix"], "representation.matrix", dim * dim, dim * dim)
    else:
        _check_canonical(out, dim, "representation")
    return out


def parse_report_document(text: str | bytes) -> dict:
    """Re-parse machine output of ``analyze`` (strict).

    The channel block follows the same per-kind rules as a channel
    document's payload, less the matrix fields a report does not echo.
    Its ``dim`` is 2 for a named kind, and ``b_spectrum`` has dim^2 entries.
    The canonical block lists the operators of the eigenvalues above
    ``options.tol`` in magnitude and counts the rest as ``null_dimension``.
    ``kraus`` is null exactly when the verdict is not completely positive;
    otherwise its ``rank`` counts the eigenvalues above ``options.tol``.
    """
    out = _walk(_REPORT, _load_json(text, "report"), "report")["report"]
    channel = out["channel"]
    dim = channel["dim"]
    # Raw kinds echo none of their payload, so only named kinds can be rebuilt.
    if ChannelKind(channel["kind"]) in NAMED_KINDS:
        expected = _make_channel(channel, DEFAULT_TOL, "report.report.channel").dim
        if dim != expected:
            raise BadMatrixShapeError(
                f"report.report.channel.dim: a {channel['kind']} channel has dim {expected}, got {dim}"
            )
    if len(out["b_spectrum"]) != dim * dim:
        raise BadMatrixShapeError(
            f"report.report.channel.dim: dim {dim} needs {dim * dim} b_spectrum entries,"
            f" got {len(out['b_spectrum'])}"
        )
    tol = out["options"]["tol"]
    _check_canonical(out["canonical"], dim, "report.report.canonical", tol)
    classification = out["verdict"]["classification"]
    if (out["kraus"] is None) == (classification is CpClassification.COMPLETELY_POSITIVE):
        raise MissingFieldError(
            "report.report.kraus: must be null exactly when the verdict is not completely"
            f" positive, got {'null' if out['kraus'] is None else 'a Kraus set'}"
            f" for {classification.value}"
        )
    if out["kraus"] is not None:
        rank = sum(lam > tol for lam in out["canonical"]["eigenvalues"])
        if out["kraus"]["rank"] != rank:
            raise BadMatrixShapeError(
                f"report.report.kraus.rank: {rank} eigenvalues exceed tol {tol:g}, got rank {out['kraus']['rank']}"
            )
    return out


def parse_output_document(text: str | bytes) -> dict:
    """Re-parse machine output of ``apply`` (strict)."""
    return _walk(_OUTPUT, _load_json(text, "output"), "output")["output"]


def parse_zoo_document(text: str | bytes) -> list[dict]:
    """Re-parse machine output of ``zoo`` (strict)."""
    return _walk(_ZOO, _load_json(text, "zoo"), "zoo")["channels"]
