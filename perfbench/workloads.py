"""Inputs, operations and output checks of the three benchmark workloads.

Every input is derived from the workload seed; chanforms only ever sees
the generated channel specs and documents.  ``chanforms`` must already
be importable (``run.py`` puts the checkout's ``src`` on the path).

Each check returns a list of problems; an empty list means the op's
output is correct.  Checks run outside the timed interval.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chanforms import (
    BasisLabel,
    BlochVector,
    ChannelSpec,
    DensityMatrix,
    analyze,
    apply_a,
    apply_canonical,
    apply_kraus,
    bloch_to_density,
    canonical_to_a,
    channel_a,
    choi_consistency,
    density_to_bloch,
    kraus_to_a,
    random_cp_channel,
    random_ncp_a,
    standard_basis,
)
from chanforms import cli
from chanforms.serialize import (
    channel_document_wire,
    dumps,
    matrix_to_wire,
    parse_channel_document,
    parse_output_document,
    parse_report_document,
)

WORKLOADS = ("qubit_sweep", "dense_documents", "cli_process")

TOL = 1e-9
STATES_PER_MAP = 4
# Eight slots per block of the qubit stream: two named kinds, random CP
# maps of Kraus rank 1-4, two random NCP maps (the 150:50 CP:NCP mix of
# the acceptance sweeps, with the named kinds folded in).  48 blocks are
# two sweeps of 192 maps: enough inputs for a steady p95, and few enough
# that each input runs about 80 times in 45 seconds.  Halving the runs
# per input nearly doubled the tail's spread between runs.
QUBIT_BLOCKS = 48
NAMED_KINDS = ("unitary", "pin", "transpose", "equatorial_projection", "bit_flip", "phase_flip")
NCP_KINDS = frozenset({"transpose", "equatorial_projection"})
# Ops of at most ~35 ms: longer ones span the host's busy spells, and
# their fastest runs moved by 15-40% from run to run at n = 12 and 16.
# The traced run's size table covers n = 16 and 24.
DENSE_SIZES = (4, 6, 8)
CLI_SUBCOMMANDS = ("analyze", "apply", "convert")


def bound(n: int) -> float:
    """Residual bound of every numerical check: ``tol * n^2``."""
    return TOL * n * n


def _max_dev(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.abs(np.asarray(x) - np.asarray(y)).max())


def _seed_of(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def _random_bloch(rng: np.random.Generator, radius: float = 0.95) -> BlochVector:
    v = rng.standard_normal(3)
    v *= radius * rng.random() ** (1 / 3) / np.linalg.norm(v)
    return BlochVector(*(float(x) for x in v))


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank Wishart density matrix of dimension n."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


# ---------------------------------------------------------------------------
# qubit_sweep: one map's verification sweep, in-process


@dataclass(frozen=True, eq=False)
class QubitItem:
    spec: ChannelSpec
    basis: BasisLabel
    cp: bool
    states: tuple[DensityMatrix, ...]

    @property
    def document(self) -> str:
        return dumps(channel_document_wire(self.spec))


def _named_spec(kind: str, rng: np.random.Generator) -> ChannelSpec:
    if kind == "unitary":
        axis = rng.standard_normal(3)
        return ChannelSpec.unitary(axis / np.linalg.norm(axis), float(rng.uniform(0, 2 * np.pi)))
    if kind == "pin":
        return ChannelSpec.pin(_random_bloch(rng))
    if kind == "transpose":
        return ChannelSpec.transpose()
    if kind == "equatorial_projection":
        return ChannelSpec.equatorial_projection()
    p = float(rng.uniform(0.05, 0.95))
    return ChannelSpec.bit_flip(p) if kind == "bit_flip" else ChannelSpec.phase_flip(p)


def qubit_stream(seed: int) -> list[QubitItem]:
    """The seeded qubit map stream; the basis alternates pauli / units."""
    rng = np.random.default_rng([seed, 1])
    items = []
    for i in range(QUBIT_BLOCKS * 8):
        slot = i % 8
        if slot < 2:
            kind = NAMED_KINDS[(2 * (i // 8) + slot) % len(NAMED_KINDS)]
            spec, cp = _named_spec(kind, rng), kind not in NCP_KINDS
        elif slot < 6:
            ops = random_cp_channel(2, rank=slot - 1, seed=_seed_of(rng)).operators
            spec, cp = ChannelSpec.raw_kraus(ops), True
        else:
            spec, cp = ChannelSpec.raw_a(random_ncp_a(2, seed=_seed_of(rng)).matrix), False
        basis = BasisLabel.PAULI_OVER_SQRT2 if i % 2 == 0 else BasisLabel.MATRIX_UNITS
        states = tuple(bloch_to_density(_random_bloch(rng)) for _ in range(STATES_PER_MAP))
        items.append(QubitItem(spec, basis, cp, states))
    return items


def qubit_warm_items(items: list[QubitItem]) -> list[QubitItem]:
    """One item per stream slot, covering both bases."""
    return items[:8]


@dataclass(frozen=True, eq=False)
class QubitResult:
    a: object
    report: object
    rebuilt: object
    choi: float
    via_a: list
    via_canonical: list
    via_kraus: list | None


def qubit_op(item: QubitItem) -> QubitResult:
    basis = standard_basis(2, item.basis)
    a = channel_a(item.spec, TOL)
    report = analyze(item.spec, basis, TOL)
    rebuilt = canonical_to_a(report.canonical, TOL)
    choi = choi_consistency(a, TOL)
    via_a = [apply_a(a, rho, TOL) for rho in item.states]
    via_canonical = [apply_canonical(report.canonical, rho, TOL) for rho in item.states]
    via_kraus = None
    if report.kraus is not None:
        via_kraus = [apply_kraus(report.kraus, rho, TOL) for rho in item.states]
    return QubitResult(a, report, rebuilt, choi, via_a, via_canonical, via_kraus)


def _check_verdict(cp_expected: bool, classification: str, spectral_match: float, n: int) -> list[str]:
    problems = []
    if not spectral_match <= bound(n):
        problems.append(f"spectral match {spectral_match:.3g} exceeds tol*n^2 = {bound(n):.3g}")
    expected = "completely_positive" if cp_expected else "not_completely_positive"
    if classification != expected:
        problems.append(f"verdict {classification} but the map was generated {expected}")
    return problems


def _check_exit(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def check_qubit(item: QubitItem, res: QubitResult) -> list[str]:
    r = res.report
    problems = _check_verdict(item.cp, r.verdict.classification.value, r.spectral_match, 2)
    # In-process there is no exit code; its analogue is whether a Kraus
    # set was emitted (CLI exit 0) or withheld with a reason (exit 3).
    if (r.kraus is not None) != item.cp or (r.kraus_absent_reason is None) != item.cp:
        problems.append("Kraus set presence does not match the generated class")
    b = bound(2)
    recon = _max_dev(res.rebuilt.matrix, res.a.matrix)
    if not recon <= b:
        problems.append(f"canonical_to_a reconstruction residual {recon:.3g}")
    if not res.choi <= b:
        problems.append(f"choi_consistency residual {res.choi:.3g}")
    for k, (x, y) in enumerate(zip(res.via_a, res.via_canonical)):
        if not _max_dev(x.matrix, y.matrix) <= b:
            problems.append(f"apply_a and apply_canonical disagree on state {k}")
    if res.via_kraus is not None:
        for k, (x, y) in enumerate(zip(res.via_a, res.via_kraus)):
            if not _max_dev(x.matrix, y.matrix) <= b:
                problems.append(f"apply_a and apply_kraus disagree on state {k}")
    return problems


# ---------------------------------------------------------------------------
# dense_documents: in-process ``cli.main analyze`` on raw documents


def dense_document_specs(n: int, rng: np.random.Generator) -> list[tuple[str, ChannelSpec, bool]]:
    """The documents at size n, as (label, spec, cp).

    Five documents, the cheapest two of the same kind, put the tail
    inside one kind's samples (see README.md, "Kept runs").
    """
    rank1 = kraus_to_a(random_cp_channel(n, 1, seed=_seed_of(rng)))
    full = kraus_to_a(random_cp_channel(n, n * n, seed=_seed_of(rng)))
    ncp = random_ncp_a(n, seed=_seed_of(rng))
    specs = [
        ("raw_a-cp-rank1", ChannelSpec.raw_a(rank1.matrix), True),
        (f"raw_a-cp-rank{n * n}", ChannelSpec.raw_a(full.matrix), True),
        ("raw_a-ncp", ChannelSpec.raw_a(ncp.matrix), False),
    ]
    for copy in "ab":
        kraus = random_cp_channel(n, n, seed=_seed_of(rng))
        specs.append((f"raw_kraus-rank{n}-{copy}", ChannelSpec.raw_kraus(kraus.operators), True))
    return specs


def write_dense_inputs(seed: int, work: Path) -> list[dict]:
    """Write the document set and one state document per size."""
    rng = np.random.default_rng([seed, 2])
    items = []
    for n in DENSE_SIZES:
        state = work / f"state-n{n}.json"
        state.write_text(json.dumps({"density": matrix_to_wire(random_density(rng, n))}))
        for label, spec, cp in dense_document_specs(n, rng):
            path = work / f"dense-n{n}-{label}.json"
            path.write_text(dumps(channel_document_wire(spec)))
            items.append({"path": str(path), "n": n, "cp": cp, "state": str(state)})
    return items


def dense_warm_items(items: list[dict]) -> list[dict]:
    """Every document kind at the smallest size."""
    return [it for it in items if it["n"] == DENSE_SIZES[0]]


def run_main(argv: list[str], stdin_text: str | None = None) -> tuple[int, str]:
    """``cli.main`` in-process with stdout and stderr captured; returns (code, stdout)."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def dense_op(item: dict) -> tuple[int, str]:
    return run_main(["analyze", item["path"], "--output", "machine"])


def check_report(text: str, code: int, cp: bool, n: int) -> list[str]:
    """Exit code plus strict re-parse of an ``analyze --output machine`` report."""
    problems = _check_exit(code, 0 if cp else 3)
    try:
        rep = parse_report_document(text)
    except Exception as exc:  # any parse failure is a wrong output
        return problems + [f"report does not re-parse: {exc}"]
    if rep["channel"]["dim"] != n:
        problems.append(f"report dim {rep['channel']['dim']}, expected {n}")
    return problems + _check_verdict(cp, rep["verdict"]["classification"], rep["spectral_match"], n)


def check_dense(item: dict, out: tuple[int, str]) -> list[str]:
    code, text = out
    return check_report(text, code, item["cp"], item["n"])


# ---------------------------------------------------------------------------
# cli_process: one ``python -m chanforms`` subprocess per op


def cli_items(seed: int, root: Path) -> list[dict]:
    """Golden qubit documents x subcommands; the seed picks the apply states."""
    rng = np.random.default_rng([seed, 3])
    items = []
    for doc in sorted((root / "tests" / "golden").glob("*.doc.json")):
        kind = json.loads(doc.read_text())["channel"]["kind"]
        golden = doc.with_name(doc.name.replace(".doc.json", ".out.json"))
        bloch = _random_bloch(rng)
        for sub in CLI_SUBCOMMANDS:
            items.append({
                "doc": str(doc),
                "golden": str(golden),
                "cp": kind not in NCP_KINDS,
                "subcommand": sub,
                "bloch": [bloch.p1, bloch.p2, bloch.p3],
            })
    return items


def cli_argv(item: dict) -> list[str]:
    sub, doc = item["subcommand"], item["doc"]
    if sub == "analyze":
        return ["analyze", doc, "--output", "machine"]
    if sub == "apply":
        state = json.dumps({"bloch": item["bloch"]})
        return ["apply", doc, "--state", state, "--output", "machine"]
    return ["convert", doc, "--to", "kraus", "--output", "machine"]


def cli_warm_items(items: list[dict]) -> list[dict]:
    """One op of each subcommand."""
    return items[: len(CLI_SUBCOMMANDS)]


def cli_op(item: dict, env: dict, root: Path) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "chanforms", *cli_argv(item)],
        capture_output=True,
        text=True,
        env=env,
        cwd=root,
        timeout=60,
    )
    return proc.returncode, proc.stdout


def check_cli(item: dict, out: tuple[int, str]) -> list[str]:
    code, text = out
    cp, sub = item["cp"], item["subcommand"]
    doc = parse_channel_document(Path(item["doc"]).read_text())
    if sub == "analyze":
        problems = check_report(text, code, cp, 2)
        if text != Path(item["golden"]).read_text():
            problems.append("analyze output differs from its golden file")
        return problems
    if sub == "apply":
        problems = _check_exit(code, 0)
        try:
            got = parse_output_document(text)["density"]
        except Exception as exc:
            return problems + [f"apply output does not re-parse: {exc}"]
        rho = bloch_to_density(BlochVector(*item["bloch"]))
        want = apply_a(channel_a(doc.channel, TOL), rho, TOL).matrix
        if not _max_dev(got, want) <= bound(2):
            problems.append("apply output differs from the in-process A-form route")
        return problems
    if not cp:
        return _check_exit(code, 3) + ([] if text == "" else ["NCP convert printed a document"])
    problems = _check_exit(code, 0)
    try:
        kraus_doc = parse_channel_document(text)
    except Exception as exc:
        return problems + [f"convert output does not re-parse: {exc}"]
    rebuilt = kraus_to_a(kraus_doc.channel.operators, TOL).matrix
    if not _max_dev(rebuilt, channel_a(doc.channel, TOL).matrix) <= bound(2):
        problems.append("converted Kraus set does not reproduce the A-form")
    return problems


# ---------------------------------------------------------------------------
# the document behind each op, for the traced run's stage replay


@dataclass(frozen=True)
class ReplayInput:
    text: str
    n: int
    cp: bool
    basis: BasisLabel | None  # None: the CLI's default for n
    states: tuple  # density matrices the apply routes run on
    state_arg: str  # ``--state`` argument for ``cli.main apply``


def replay_input(workload: str, item) -> ReplayInput:
    if workload == "qubit_sweep":
        b = density_to_bloch(item.states[0])
        states = tuple(rho.matrix for rho in item.states)
        return ReplayInput(item.document, 2, item.cp, item.basis, states, json.dumps({"bloch": [b.p1, b.p2, b.p3]}))
    if workload == "dense_documents":
        pairs = np.array(json.loads(Path(item["state"]).read_text())["density"])
        rho = pairs[..., 0] + 1j * pairs[..., 1]
        return ReplayInput(Path(item["path"]).read_text(), item["n"], item["cp"], None, (rho,), item["state"])
    rho = bloch_to_density(BlochVector(*item["bloch"])).matrix
    return ReplayInput(Path(item["doc"]).read_text(), 2, item["cp"], None, (rho,), json.dumps({"bloch": item["bloch"]}))
