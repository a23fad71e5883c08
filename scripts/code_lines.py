#!/usr/bin/env python3
"""Count a package's code lines: blank lines, comments and docstrings left out.

    python3 scripts/code_lines.py            # src/chanforms
    python3 scripts/code_lines.py path/to/package

Prints one ``<count> <module>`` line per ``*.py`` file of the directory, in
name order, then ``<total> total``.  A code line is a physical line that holds
a token other than a comment, and that no docstring covers: the string
expression that opens a module, class or function body.  A line holding code
and a trailing comment counts; a continuation line of a multi-line statement
counts; a line inside a multi-line string that is not a docstring counts.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The physical lines of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("package", nargs="?", type=Path, default=ROOT / "src" / "chanforms")
    args = p.parse_args(argv)
    total = 0
    for path in sorted(args.package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(count, path.name)
    print(total, "total")


if __name__ == "__main__":
    sys.exit(main())
