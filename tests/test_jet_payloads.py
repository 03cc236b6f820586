"""Source check: only `diffengine` records a jet primitive, so the payload
format of a jet block lives behind that one module; every other module
builds jets through the bundle rules and reads them through the readers
(`jet_slot` and `jacdet_dt`; `jacdet` records nothing)."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ndfreg"
READER_KINDS = {"jacdet_dt"}


def jet_records(path):
    """(line, kind) of each `.record(kind, ...)` call in `path` whose kind
    is a jet kind: `jet_*` or an output-block reader's."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "record"):
            continue
        for kind in node.args[:1] + [kw.value for kw in node.keywords if kw.arg == "kind"]:
            if isinstance(kind, ast.Constant) and isinstance(kind.value, str) and (
                    kind.value.startswith("jet_") or kind.value in READER_KINDS):
                yield node.lineno, kind.value


def test_only_diffengine_records_jet_kinds():
    found = {
        path.name: list(jet_records(path))
        for path in sorted(SRC.glob("*.py")) if path.name != "diffengine.py"
    }
    assert {name: calls for name, calls in found.items() if calls} == {}
    # the check sees the records it is meant to find
    kinds = {kind for _, kind in jet_records(SRC / "diffengine.py")}
    assert kinds == {"jet_sine", "jet_leaky", "jet_slot"} | READER_KINDS
