"""Every package name the benchmark uses still exists.

`perfbench/tracer.py` replaces package functions where their callers look
them up, and `perfbench/run.py` and `perfbench/child.py` import and call
package names directly; a renamed or deleted one breaks every benchmark
run while the rest of the suite passes.  The benchmark files are read,
not imported."""

import ast
import importlib
import inspect
import pathlib

import numpy as np
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


def _wrapper_call_arity():
    """The number of positional arguments the tracer's `trace_network`
    wrapper passes to the function it wraps, read off its call `fn(...)`."""
    for node in ast.walk(ast.parse(TRACER.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name == "_wrap_trace_network":
            calls = [c for c in ast.walk(node) if isinstance(c, ast.Call)
                     and isinstance(c.func, ast.Name) and c.func.id == "fn"]
            assert len(calls) == 1 and not calls[0].keywords
            return len(calls[0].args)
    raise AssertionError("_wrap_trace_network not found in perfbench/tracer.py")


def test_trace_network_takes_the_wrappers_arguments():
    """`network.trace_network` binds the six positional arguments the
    tracer's wrapper passes, and needs no more."""
    arity = _wrapper_call_arity()
    assert arity == 6
    inspect.signature(network.trace_network).bind(*range(arity))
    with pytest.raises(TypeError):
        inspect.signature(network.trace_network).bind(*range(arity - 1))


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


def test_predict_field_hands_the_tracer_flat_coordinates(monkeypatch):
    """The tracer's `_count_voxels` counts `coords.shape[1]` of each
    `network.forward_with_derivatives` call as its voxels, which holds
    for flat (3, N) coordinates only: every call `trainer.predict_field`
    makes, for any request and one time or several, passes the grid so."""
    shapes = []
    evaluate = network.forward_with_derivatives

    def spy(state, coords, *args, **kwargs):
        shapes.append(np.shape(coords))
        return evaluate(state, coords, *args, **kwargs)

    monkeypatch.setattr(network, "forward_with_derivatives", spy)
    config = network.NetworkConfig(hidden_width=8, depth=3, time_hidden_width=4,
                                   time_embed_width=8)
    state = network.init_network(seed=0, config=config, time_horizon=12.0)
    dims = (4, 5, 6)
    trainer.predict_field(state, 6.0, dims)
    for spatial, temporal in ((False, False), (True, False), (True, True)):
        request = network.DerivativeRequest(spatial=spatial, temporal=temporal)
        trainer.predict_field(state, 6.0, dims, request)
        trainer.predict_field(state, [0.0, 12.0], dims, request)
    assert shapes == [(3, 4 * 5 * 6)] * 7
