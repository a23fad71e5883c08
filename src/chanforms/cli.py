"""Command-line front end.

Subcommands:

* ``analyze``  runs the full pipeline on a channel document.
* ``apply``    applies a channel to a state and prints the output.
* ``convert``  emits another representation of the channel.
* ``zoo``      lists the built-in named channels.

Each subcommand computes first and returns its exit code with the
builders of its machine document and its human text; ``_run`` writes the
one ``--output`` names and is the only writer of stdout.

Exit codes (total: every path maps to exactly one):

* 0: success (for ``analyze``: the map is completely positive)
* 1: the document describes a structurally invalid map
* 2: usage error, parse error, or invalid input data
* 3: ``analyze`` on a map that is not completely positive, or a Kraus
     conversion requested for such a map

Tolerance resolution: ``--tol`` flag, else the document's
``options.tol``, else the ``CHANFORMS_TOL`` environment variable, else
1e-9.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable

import numpy as np

from .analysis import AnalysisReport, analyze
from .errors import (
    ChanformsError,
    DocumentError,
    DocumentSyntaxError,
    InvalidMapError,
    InvalidMatrixError,
    NotCompletelyPositiveError,
)
from .forms import (
    BasisLabel,
    CanonicalDecomposition,
    OperatorBasis,
    apply_a,
    canonical_decompose,
    coefficient_matrix,
    default_basis,
    extract_kraus,
    realign_a_to_b,
    standard_basis,
)
from .linalg import DEFAULT_TOL, bloch_components
from .serialize import (
    FORMAT_VERSION,
    ChannelDocument,
    _check_tol,
    channel_document_wire,
    dumps,
    matrix_to_wire,
    parse_channel_document,
    parse_state_document,
    representation_wire,
)
from .zoo import CHANNEL_CATALOG, ChannelKind, ChannelSpec, channel_a

TOL_ENV_VAR = "CHANFORMS_TOL"
CONVERT_TARGETS = ("a_form", "b_form", "coefficient", "kraus", "canonical")

# A subcommand's exit code and the builders of its machine document and human text.
Command = tuple[int, Callable[[], dict], Callable[[], str]]


# ---------------------------------------------------------------------------
# human-mode rendering


def _fmt_real(x: float, tol: float) -> str:
    return "0" if abs(x) < tol else f"{x:.6g}"


def _fmt_complex(z: complex, tol: float) -> str:
    re, im = z.real, z.imag
    if abs(im) < tol:
        return _fmt_real(re, tol)
    if abs(re) < tol:
        return f"{_fmt_real(im, tol)}i"
    sign = "+" if im >= 0 else "-"
    return f"{_fmt_real(re, tol)}{sign}{_fmt_real(abs(im), tol)}i"


def _render_matrix(m: np.ndarray, tol: float, indent: str = "  ") -> str:
    cells = [[_fmt_complex(complex(v), tol) for v in row] for row in m]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    return "\n".join(
        indent + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells
    )


def _render_spectrum(values, tol: float) -> str:
    return "[" + ", ".join(_fmt_real(float(v), tol) for v in values) + "]"


def _render_canonical(decomp: CanonicalDecomposition, tol: float) -> str:
    return "\n".join(
        f"  eigenvalue {_fmt_real(float(lam), tol)}:\n{_render_matrix(op, tol, indent='    ')}"
        for lam, op in zip(decomp.eigenvalues, decomp.canonical_ops)
    )


def _render_operators(ops, tol: float) -> str:
    return "\n".join(_render_matrix(op, tol, indent="    ") for op in ops)


# ---------------------------------------------------------------------------
# machine-mode wire builders


def _canonical_wire(decomp: CanonicalDecomposition, support_tol: float | None = None) -> dict:
    """The canonical block: every eigenvalue, and every operator, or with
    ``support_tol`` only the operators whose |eigenvalue| exceeds it, in
    eigenvalue order, and the number left out as ``null_dimension``."""
    wire = {"basis": decomp.basis.label.value, "eigenvalues": decomp.eigenvalues.tolist()}
    if support_tol is None:
        wire["operators"] = matrix_to_wire(decomp.canonical_ops)
    else:
        support = np.abs(decomp.eigenvalues) > support_tol
        wire["operators"] = matrix_to_wire(decomp.canonical_ops[support])
        wire["null_dimension"] = len(support) - int(support.sum())
    return wire


def report_document(report: AnalysisReport) -> dict:
    """Stable machine layout of an analysis report.

    The canonical block holds the operators of the support only, and the
    Kraus set is named by its rank r: E_k = sqrt(lam_k) C_k for the first
    r canonical pairs, so no float is written twice.
    """
    return {
        "format_version": FORMAT_VERSION,
        "report": {
            "channel": report.channel,
            "options": {"tol": report.tol},
            "a_form": {
                "hermiticity_residual": report.a_hermiticity_residual,
                "trace_residual": report.a_trace_residual,
            },
            "b_form": {"trace": report.b_trace},
            "b_spectrum": report.b_spectrum.tolist(),
            "spectral_match": report.spectral_match,
            "verdict": {
                "classification": report.verdict.classification.value,
                "min_eigenvalue": report.verdict.min_eigenvalue,
            },
            "canonical": _canonical_wire(report.canonical, report.tol),
            "kraus": {"rank": len(report.kraus)} if report.kraus is not None else None,
        },
    }


def report_wire(report: AnalysisReport, seed: int, samples: int) -> dict:
    """``report_document(report)``; ``seed`` and ``samples`` are ignored.

    Kept only for ``perfbench``, which still calls it by this name.
    """
    return report_document(report)


# ---------------------------------------------------------------------------
# option resolution and IO


def _read_text(path: str, what: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {what}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DocumentSyntaxError(f"{what}: input is not valid UTF-8") from exc


def _read_state_arg(arg: str) -> str:
    # Inline JSON object or a file path.
    return arg if arg.lstrip().startswith("{") else _read_text(arg, "state")


def _env_default_tol() -> float:
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError:
        raise DocumentError(f"{TOL_ENV_VAR}: not a number: {raw!r}") from None
    return _check_tol(tol, TOL_ENV_VAR)


def _tol_flag(raw: str) -> float:
    try:
        return _check_tol(float(raw), raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {raw!r}") from None
    except DocumentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _resolve_basis(flag: str | None, doc: ChannelDocument, dim: int) -> OperatorBasis:
    label = BasisLabel(flag) if flag is not None else doc.basis
    return default_basis(dim) if label is None else standard_basis(dim, label)


def _load_document(args: argparse.Namespace) -> ChannelDocument:
    text = _read_text(args.document, "document")
    # The environment is checked even when --tol or options.tol wins.
    return parse_channel_document(
        text, tol_override=args.tol, default_tol=_env_default_tol()
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args: argparse.Namespace) -> Command:
    doc = _load_document(args)
    basis = _resolve_basis(args.basis, doc, doc.channel.dim)
    report = analyze(doc.channel, basis, doc.tol)
    return (
        0 if report.verdict.is_cp else 3,
        lambda: report_document(report),
        lambda: _human_report(report),
    )


def _human_report(report: AnalysisReport) -> str:
    tol = report.tol
    ch = report.channel
    params = ", ".join(f"{k}={v}" for k, v in ch.items() if k not in ("kind", "dim"))
    line = f"channel: {ch['kind']} (dim {ch['dim']})"
    if params:
        line += f"  [{params}]"
    cp = "completely positive" if report.verdict.is_cp else "NOT completely positive"
    if report.kraus is not None:
        kraus = f"kraus operators ({len(report.kraus)}):\n{_render_operators(report.kraus.operators, tol)}"
    else:
        kraus = f"kraus operators: absent ({report.kraus_absent_reason})"
    return "\n".join([
        line,
        f"basis: {report.canonical.basis.label.value}   tol: {report.tol:g}",
        f"A-form: hermiticity residual {_fmt_real(report.a_hermiticity_residual, tol)},"
        f" trace residual {_fmt_real(report.a_trace_residual, tol)}",
        f"B-form: trace {_fmt_real(report.b_trace, tol)}",
        f"B spectrum: {_render_spectrum(report.b_spectrum, tol)}",
        f"spectral match (max deviation): {_fmt_real(report.spectral_match, tol)}",
        f"verdict: {cp} (min eigenvalue {_fmt_real(report.verdict.min_eigenvalue, tol)})",
        "canonical decomposition:",
        _render_canonical(report.canonical, tol),
        kraus,
    ])


def _cmd_apply(args: argparse.Namespace) -> Command:
    doc = _load_document(args)
    tol = doc.tol
    rho = parse_state_document(_read_state_arg(args.state), tol)
    a = channel_a(doc.channel, tol)
    out = apply_a(a, rho, tol)
    bloch = bloch_components(out.matrix) if out.matrix.shape == (2, 2) else None

    machine = lambda: {
        "format_version": FORMAT_VERSION,
        "output": {
            "density": matrix_to_wire(out.matrix),
            "bloch": bloch,
            "positive": out.positive,
            "min_eigenvalue": out.min_eigenvalue,
        },
    }

    def human() -> str:
        lines = ["output state:", _render_matrix(out.matrix, tol)]
        if bloch is not None:
            lines.append(f"bloch: ({', '.join(_fmt_real(v, tol) for v in bloch)})")
        positive = "yes" if out.positive else "NO, output is not a physical state"
        lines.append(f"positive: {positive} (min eigenvalue {_fmt_real(out.min_eigenvalue, tol)})")
        return "\n".join(lines)

    return 0, machine, human


def _cmd_convert(args: argparse.Namespace) -> Command:
    doc = _load_document(args)
    tol = doc.tol
    a = channel_a(doc.channel, tol)
    n = a.dim
    basis = _resolve_basis(args.basis, doc, n)
    label = basis.label.value

    if args.to == "a_form":
        spec = ChannelSpec(kind=ChannelKind.RAW_A, matrix=a.matrix)  # checked at tol by channel_a
        machine = lambda: channel_document_wire(spec)
        human = lambda: f"A-form (dim {n}):\n{_render_matrix(a.matrix, tol)}"
    elif args.to == "b_form":
        b = realign_a_to_b(a, tol)
        machine = lambda: representation_wire("b_form", n, matrix=matrix_to_wire(b.matrix))
        human = lambda: f"B-form (dim {n}):\n{_render_matrix(b.matrix, tol)}"
    elif args.to == "coefficient":
        cm = coefficient_matrix(a, basis, tol)
        machine = lambda: representation_wire("coefficient", n, basis=label, matrix=matrix_to_wire(cm.matrix))
        human = lambda: f"coefficient matrix (dim {n}, basis {label}):\n{_render_matrix(cm.matrix, tol)}"
    elif args.to == "canonical":
        decomp = canonical_decompose(a, basis, tol)
        machine = lambda: representation_wire("canonical", n, **_canonical_wire(decomp))
        human = lambda: (
            f"canonical decomposition (dim {n}, basis {label}):\n"
            + _render_canonical(decomp, tol)
        )
    else:  # kraus
        kraus = extract_kraus(canonical_decompose(a, basis, tol), tol)  # NCP -> exit 3
        spec = ChannelSpec(kind=ChannelKind.RAW_KRAUS, operators=kraus.operators)  # checked by extract_kraus
        machine = lambda: channel_document_wire(spec)
        human = lambda: (
            f"kraus operators ({len(kraus)}):\n"
            + _render_operators(kraus.operators, tol)
        )
    return 0, machine, human


def _cmd_zoo(args: argparse.Namespace) -> Command:
    machine = lambda: {
        "format_version": FORMAT_VERSION,
        "channels": [
            {"kind": kind.value, "summary": summary}
            for kind, summary in CHANNEL_CATALOG.items()
        ],
    }
    human = lambda: "\n".join(
        ["named channels:"]
        + [f"  {kind.value}: {summary}" for kind, summary in CHANNEL_CATALOG.items()]
    )
    return 0, machine, human


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Every call returns the same parser, which ``main`` reuses; do not
    modify it.
    """
    parser = argparse.ArgumentParser(
        prog="chanforms",
        description="Analyze quantum dynamical maps via their A and B forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_basis: bool = True) -> None:
        p.add_argument("document", help="channel document path, or '-' for stdin")
        if with_basis:
            p.add_argument("--basis", choices=[b.value for b in BasisLabel], default=None)
        p.add_argument("--tol", type=_tol_flag, default=None, help="validity/classification tolerance")
        p.add_argument("--output", choices=["human", "machine"], default="human")

    p_analyze = sub.add_parser("analyze", help="full validity and positivity report")
    add_common(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_apply = sub.add_parser("apply", help="apply the channel to a state")
    add_common(p_apply, with_basis=False)
    p_apply.add_argument(
        "--state", required=True, help="state document: inline JSON or a file path"
    )
    p_apply.set_defaults(func=_cmd_apply)

    p_convert = sub.add_parser("convert", help="emit another representation")
    add_common(p_convert)
    p_convert.add_argument("--to", choices=CONVERT_TARGETS, required=True)
    p_convert.set_defaults(func=_cmd_convert)

    p_zoo = sub.add_parser("zoo", help="list built-in named channels")
    p_zoo.add_argument("--output", choices=["human", "machine"], default="human")
    p_zoo.set_defaults(func=_cmd_zoo)

    return parser


def _run(args: argparse.Namespace) -> int:
    """Run a subcommand and write its output; an overflow in either is an input error.

    A valid map may have entries near the double-precision limit, and
    its B-form or its output can then overflow.  numpy would warn and go
    on with infinities, which no report or output document can hold.
    """
    with np.errstate(over="raise"):
        try:
            code, machine, human = args.func(args)
            if args.output == "machine":
                sys.stdout.write(dumps(machine()))
            else:
                print(human())
            return code
        except (FloatingPointError, OverflowError) as exc:  # "overflow encountered in add", ...
            raise InvalidMatrixError(f"numeric {exc}; the input's entries are too large") from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help (0) and usage errors (2)
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2

    try:
        return _run(args)
    except InvalidMapError as exc:
        print(f"invalid map: {exc}", file=sys.stderr)
        return 1
    except NotCompletelyPositiveError as exc:
        print(f"not completely positive: {exc}", file=sys.stderr)
        return 3
    except ChanformsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # total exit-code contract: never crash
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
