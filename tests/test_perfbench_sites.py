"""Every site the benchmark's tracer wraps still exists.

`perfbench/tracer.py` replaces package functions where their callers look
them up; a renamed or deleted one breaks every traced benchmark run while
the rest of the suite passes.  The tracer file is read, not imported."""

import ast
import pathlib

import pytest

from ndfreg import diffengine, fileio, losses, metrics, network, phantom, trainer

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
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
