"""The gradcheck suites themselves: every check passes on correct code at
both precisions, and each fault hook trips exactly the check it targets."""

import pytest

from ndfreg.gradcheck import run_gradcheck

SMALL = dict(seed=0, width=8, points=20)

# fault hook -> the one check it must fail
HOOKS = {
    "det": "cofactor-determinant",
    "spatial": "spatial-tangents",
    "temporal": "temporal-tangent",
    "jacdet_dt": "jacdet-dt",
    "sampler": "sampler-gradient",
    "params": "parameter-gradients",
}


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_gradcheck_passes(precision):
    results = run_gradcheck(precision=precision, **SMALL)
    assert sorted(r.name for r in results) == sorted(HOOKS.values())
    failed = [(r.name, r.worst, r.tol) for r in results if not r.passed]
    assert failed == []


@pytest.mark.parametrize("hook", sorted(HOOKS))
def test_corruption_fails_only_its_own_check(hook):
    results = run_gradcheck(precision="f64", corrupt=hook, **SMALL)
    assert [r.name for r in results if not r.passed] == [HOOKS[hook]]
