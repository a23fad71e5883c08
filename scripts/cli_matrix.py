#!/usr/bin/env python3
"""Run ``chanforms`` in-process over a fixed matrix of documents and commands.

Prints one line per run: the document, the arguments, the exit code and
the sha256 of stdout and of stderr.  Two checkouts that print the same
lines give byte-identical CLI output on every run, so a change that must
not move an output byte is checked by running this script on the parent
and on the change and comparing the two outputs with ``diff``:

    python3 scripts/cli_matrix.py > after.txt

The documents are the six golden channel documents and, for each size n
in ``--sizes``, seeded ``raw_kraus`` and ``raw_a`` documents of CP maps of
Kraus rank 1, n and n^2, one ``raw_a`` document of a map that is not
completely positive, and two ``raw_kraus`` documents that are not Kraus
sets: the first operator of the rank-n set next to the (n+1) x (n+1)
identity (mixed sizes), and that operator alone (incomplete).  They are
built with numpy alone, so they do not depend on the code under test, and
are written to a temporary directory.
Each document goes through ``analyze``, the five ``convert`` targets and
``apply``, in human and machine output, with the default options,
``--basis units`` (not for ``apply``, which takes no basis),
``--tol 1e-7`` and ``--tol 1e-3`` (the upper end of the range).
``zoo``, which reads no document, runs once in each output mode,
labelled ``-``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # the package of this checkout, whatever PYTHONPATH says
from chanforms import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
SEED = 20261018
OPTION_SETS = ([], ["--basis", "units"], ["--tol", "1e-7"], ["--tol", "1e-3"])


def wire(m: np.ndarray) -> list:
    return np.stack((m.real, m.imag), -1).tolist()


def channel_text(kind: str, field: str, payload) -> str:
    """A channel document; ``payload`` is a matrix or a sequence of matrices."""
    wired = wire(payload) if isinstance(payload, np.ndarray) else [wire(m) for m in payload]
    return json.dumps({"format_version": "1", "channel": {"kind": kind, field: wired}})


def random_kraus(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """``rank`` Kraus operators cut from a (rank*n) x n matrix with orthonormal columns."""
    g = rng.standard_normal((rank * n, n)) + 1j * rng.standard_normal((rank * n, n))
    return np.linalg.qr(g)[0].reshape(rank, n, n)


def process_matrix(ops: np.ndarray) -> np.ndarray:
    return sum(np.kron(op, op.conj()) for op in ops)


def transpose_matrix(n: int) -> np.ndarray:
    """A-form of rho -> rho^T, which permutes the row-vectorized entries."""
    a = np.zeros((n * n, n * n))
    for r in range(n):
        for s in range(n):
            a[s * n + r, r * n + s] = 1.0
    return a


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


def documents(sizes: list[int], work: Path) -> list[tuple[str, Path, str]]:
    """(label, path, inline state document) for every document of the matrix."""
    docs = [
        (f"golden/{p.name}", p, '{"bloch":[0.2,-0.3,0.9]}')
        for p in sorted(GOLDEN.glob("*.doc.json"))
    ]
    rng = np.random.default_rng(SEED)
    for n in sizes:
        texts = {}
        for rank in sorted({1, n, n * n}):
            ops = random_kraus(rng, n, rank)
            texts[f"raw_kraus-rank{rank}"] = channel_text("raw_kraus", "operators", ops)
            texts[f"raw_a-cp-rank{rank}"] = channel_text("raw_a", "matrix", process_matrix(ops))
            if rank == n:
                first = ops[0]
        # The transpose's B-form has an eigenvalue -1, so the mixture is not
        # CP while the CP part's largest B eigenvalue is below 3 (at n = 2 it
        # is at most the trace, 2; ``analyze`` exits 3 on each of them).
        ncp = 0.25 * process_matrix(random_kraus(rng, n, n * n)) + 0.75 * transpose_matrix(n)
        texts["raw_a-ncp"] = channel_text("raw_a", "matrix", ncp)
        texts["raw_kraus-mixed-sizes"] = channel_text("raw_kraus", "operators", [first, np.eye(n + 1)])
        texts["raw_kraus-incomplete"] = channel_text("raw_kraus", "operators", [first])
        state = json.dumps({"density": wire(random_density(rng, n))})
        for name, text in texts.items():
            path = work / f"n{n}-{name}.json"
            path.write_text(text)
            docs.append((f"n{n}/{name}", path, state))
    return docs


def argvs():
    """Argument lists with ``{doc}`` and ``{state}`` placeholders."""
    for opts in OPTION_SETS:
        for output in ("human", "machine"):
            common = ["{doc}", *opts, "--output", output]
            yield ["analyze", *common]
            for target in cli.CONVERT_TARGETS:
                yield ["convert", *common, "--to", target]
            if "--basis" not in opts:
                yield ["apply", *common, "--state", "{state}"]


def run(argv: list[str], doc: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    # The document's path is the only input that differs between checkouts.
    return code, out.getvalue().replace(doc, "{doc}"), err.getvalue().replace(doc, "{doc}")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[2, 3, 5, 8], help="dimensions of the seeded documents"
    )
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for label, path, state in documents(args.sizes, Path(tmp)):
            for template in argvs():
                argv = [{"{doc}": str(path), "{state}": state}.get(a, a) for a in template]
                code, out, err = run(argv, str(path))
                print(label, " ".join(template), code, sha(out), sha(err), sep="\t")
    for output in ("human", "machine"):
        argv = ["zoo", "--output", output]
        code, out, err = run(argv, "{doc}")  # no document path to mask
        print("-", " ".join(argv), code, sha(out), sha(err), sep="\t")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
