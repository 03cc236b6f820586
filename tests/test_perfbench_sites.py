"""Every package name the benchmark uses still exists.

`perfbench/tracer.py` replaces package functions where their callers look
them up, and `perfbench/run.py` and `perfbench/child.py` import and call
package names directly; a renamed or deleted one breaks every benchmark
run while the rest of the suite passes.  The benchmark files are read,
not imported."""

import ast
import importlib
import pathlib

import pytest

import ndfreg
from ndfreg import diffengine, fileio, losses, metrics, network, phantom, trainer

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
SUBMODULES = {p.stem for p in pathlib.Path(ndfreg.__file__).parent.glob("*.py")}
MODULES = {
    "trainer": trainer, "network": network, "diffengine": diffengine,
    "losses": losses, "metrics": metrics, "phantom": phantom, "fileio": fileio,
}


def _span_sites():
    """(module, attribute) of every entry of the tracer's SPAN_SITES."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "SPAN_SITES" for t in node.targets
        ):
            return [(MODULES[mod], attr) for mod, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("SPAN_SITES not found in perfbench/tracer.py")


# wrapped outside SPAN_SITES: the Tape methods and the per-iteration hooks
SITES = _span_sites() + [
    (diffengine.Tape, "record"),
    (diffengine.Tape, "backward"),
    (network, "trace_network"),
    (network, "make_leaves"),
]


@pytest.mark.parametrize(
    "owner, attr", SITES, ids=[f"{o.__name__}.{a}" for o, a in SITES]
)
def test_wrapped_site_resolves(owner, attr):
    assert callable(getattr(owner, attr))


def _direct_uses(path):
    """(module, name) of every package name `path` uses directly: each
    `from ndfreg... import name`, and each attribute read off a package
    module imported that way."""
    tree = ast.parse(path.read_text())
    aliases = {}
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ndfreg":
            for alias in node.names:
                if node.module == "ndfreg" and alias.name in SUBMODULES:
                    aliases[alias.asname or alias.name] = f"ndfreg.{alias.name}"
                else:
                    uses.add((node.module, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            uses.add((aliases[node.value.id], node.attr))
    return sorted(uses)


USES = [(path.name, mod, name)
        for path in (PERFBENCH / "run.py", PERFBENCH / "child.py", TRACER)
        for mod, name in _direct_uses(path)]


def test_direct_uses_are_found():
    found = {(mod, name) for _, mod, name in USES}
    assert {("ndfreg.cli", "main"), ("ndfreg.network", "forward"),
            ("ndfreg.phantom", "true_jacobian_det")} <= found


@pytest.mark.parametrize(
    "path, module, name", USES, ids=[f"{p}:{m}.{n}" for p, m, n in USES]
)
def test_direct_use_resolves(path, module, name):
    assert hasattr(importlib.import_module(module), name)
