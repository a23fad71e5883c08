"""Single-fault mutations of every machine document against its strict parser.

Each valid document is changed in exactly one place: a field deleted, an
unknown field added, or one value replaced by a value of another type or
out of range.  Deleting a field must raise ``MissingFieldError``, adding
one ``UnknownFieldError``; a replaced value must either parse or raise a
``ChanformsError``, never a bare ``TypeError`` or ``ValueError``.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

from chanforms import ChanformsError, MissingFieldError, UnknownFieldError, cli
from chanforms.serialize import (
    parse_channel_document,
    parse_output_document,
    parse_report_document,
    parse_representation_document,
    parse_zoo_document,
)

GOLDEN = Path(__file__).parent / "golden"
BIT_FLIP_DOC = str(GOLDEN / "bit_flip.doc.json")
REPLACEMENTS = (True, "x", None, [], {}, 7, -1)

# name -> (parser, golden file or CLI argv whose stdout is the document)
DOCUMENTS = {
    **{
        f"report-{p.name[: -len('.out.json')]}": (parse_report_document, p)
        for p in sorted(GOLDEN.glob("*.out.json"))
    },
    **{
        f"channel-{p.name[: -len('.doc.json')]}": (parse_channel_document, p)
        for p in sorted(GOLDEN.glob("*.doc.json"))
    },
    "output": (
        parse_output_document,
        ["apply", BIT_FLIP_DOC, "--state", '{"bloch":[0.2,-0.3,0.9]}', "--output", "machine"],
    ),
    **{
        f"representation-{target}": (
            parse_representation_document,
            ["convert", BIT_FLIP_DOC, "--to", target, "--output", "machine"],
        )
        for target in ("b_form", "coefficient", "canonical")
    },
    "zoo": (parse_zoo_document, ["zoo", "--output", "machine"]),
}


def document_text(source) -> str:
    if isinstance(source, Path):
        return source.read_text()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(source) == 0
    return out.getvalue()


def _nodes(node, path=()):
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _edited(node, path, edit):
    """Copy of ``node`` with ``edit`` applied to a copy of the container at ``path``."""
    node = copy.copy(node)
    if path:
        node[path[0]] = _edited(node[path[0]], path[1:], edit)
    else:
        edit(node)
    return node


def mutations(doc):
    """Yield (required error class or None, description, mutated document)."""
    for path, node in _nodes(doc):
        if isinstance(node, dict):
            for key in node:
                yield MissingFieldError, f"delete {path + (key,)}", _edited(doc, path, lambda d, k=key: d.pop(k))
            yield UnknownFieldError, f"add a field at {path}", _edited(
                doc, path, lambda d: d.__setitem__("unexpected", 0)
            )
        for value in REPLACEMENTS:
            mutated = (
                _edited(doc, path[:-1], lambda c, k=path[-1], v=value: c.__setitem__(k, v))
                if path
                else value
            )
            yield None, f"{path} = {value!r}", mutated


@pytest.mark.parametrize("name", DOCUMENTS)
def test_single_fault_mutations(name):
    parse, source = DOCUMENTS[name]
    text = document_text(source)
    parse(text)
    wrong = []
    for required, what, mutated in mutations(json.loads(text)):
        try:
            parse(json.dumps(mutated))
        except ChanformsError as exc:
            if required is not None and not isinstance(exc, required):
                wrong.append(f"{what}: {type(exc).__name__}, expected {required.__name__}")
        except Exception as exc:
            wrong.append(f"{what}: {type(exc).__name__}: {exc}")
        else:
            if required is not None:
                wrong.append(f"{what}: parsed, expected {required.__name__}")
    assert not wrong, f"{len(wrong)} wrong outcomes, first: {wrong[:5]}"
