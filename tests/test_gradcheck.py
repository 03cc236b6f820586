"""The gradcheck suites themselves: every check passes on correct code at
both precisions, and each fault hook trips exactly the check it targets."""

import numpy as np
import pytest

from ndfreg import cli, diffengine as de
from ndfreg.gradcheck import (
    CORRUPT_HOOKS, _embedding_kinks, _kink_free_time, _toy_state, run_gradcheck,
)

SMALL = dict(seed=0, width=8, points=20)

# fault hook -> the one check it must fail
HOOKS = {
    "det": "cofactor-determinant",
    "spatial": "spatial-tangents",
    "temporal": "temporal-tangent",
    "jacdet_dt": "jacdet-dt",
    "sampler": "sampler-gradient",
    "ncc": "ncc-gradient",
    "monotonic": "monotonic-gradient",
    "params": "parameter-gradients",
    "mono": "parameter-gradients",
}


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_gradcheck_passes(precision):
    results = run_gradcheck(precision=precision, **SMALL)
    assert sorted(r.name for r in results) == sorted(set(HOOKS.values()))
    failed = [(r.name, r.worst, r.tol) for r in results if not r.passed]
    assert failed == []


@pytest.mark.parametrize("points", [1, 2])
def test_gradcheck_passes_at_one_or_two_points(points):
    """The NCC check takes at least 3 points: the NCC of two is +-1, with
    no gradient to check, and of one, a constant with none at all."""
    failed = [r.name for r in run_gradcheck(seed=0, width=8, points=points) if not r.passed]
    assert failed == []


def test_f32_time_checks_step_over_no_embedding_kink():
    """At seed 7 a LeakyReLU kink of the time embedding lies 0.0026 from
    t = 0.37, inside the f32 time stencils; the suite moves its time point
    to the nearest one with no kink within them."""
    state = _toy_state(7, 16, np.float32)
    h = 3e-2
    assert np.abs(_embedding_kinks(state, 0.0, 1.0) - 0.37).min() < h
    t0 = _kink_free_time(state, 0.37, h)
    assert np.abs(_embedding_kinks(state, t0 - 1.0, t0 + 1.0) - t0).min() > h
    results = {r.name: r for r in run_gradcheck(seed=7, precision="f32")}
    assert results["temporal-tangent"].passed


def test_f32_jacdet_dt_reference_is_differenced_in_f64():
    """At seed 22 an f32 difference of |J| with step 3e-2 read 1.59x the
    1e-2 tolerance, all of it truncation: the f32 d|J|/dt is within 1.4e-5
    of |J| differenced in f64 at the same weights and coordinates."""
    failed = [r.name for r in run_gradcheck(seed=22, precision="f32") if not r.passed]
    assert failed == []


@pytest.mark.parametrize("hook", sorted(HOOKS))
def test_corruption_fails_only_its_own_check(hook):
    results = run_gradcheck(precision="f64", corrupt=hook, **SMALL)
    assert [r.name for r in results if not r.passed] == [HOOKS[hook]]


def test_unknown_fault_hook_rejected(capsys):
    assert sorted(CORRUPT_HOOKS) == sorted(HOOKS)
    assert cli.main(["gradcheck", "--corrupt", "typo"]) == cli.EXIT_INPUT
    assert "unknown fault hook 'typo'" in capsys.readouterr().err
    with pytest.raises(ValueError, match="unknown fault hook"):
        run_gradcheck(corrupt="typo", **SMALL)


def _without_mixed_cosine_term(vjp):
    """The jet sine VJP without the -omega^2 (omega cos(omega u)) z_d z_t
    part of d(mixed slot)/du, a term only the monotonic regularizer
    reaches."""

    def wrong(node, g):
        if node.aux is None:
            return list(vjp(node, g))
        omega, slots, (kb, k) = node.payload
        z, pos, cv, ct = de._jet_block("jet_sine", [n.value for n in node.inputs], slots, (kb, k))
        out_slots = de._sine_slots(slots, ct is not None)
        mixed = [d for d in de.SPATIAL if d + 4 in out_slots]
        if not mixed:
            return list(vjp(node, g))
        # read off g before the VJP, which may overwrite it
        g4 = g.reshape((len(out_slots), k) + z.shape[2:])
        zt = de._folded(z, pos, cv, ct, de.T)
        mix = sum(g4[out_slots.index(d + 4)] * z[pos[d]] for d in mixed)
        term = omega * omega * node.aux * zt * mix  # what the VJP subtracts, per time
        grads = list(vjp(node, g))
        fixed = []
        for i, grad in grads:
            grad = grad.copy()
            if i == 0:  # the block, summed over the times when it is shared
                grad.reshape(z.shape)[0] += term if kb == k else term.sum(axis=0)
            elif grad.shape[0] == 1:  # a column term of every time
                grad[0] += term.sum(axis=(0, 1))
            else:  # one slot-v row per time
                grad[:k] += term.sum(axis=1)
            fixed.append((i, grad))
        return fixed

    return wrong


def test_dropped_mixed_sine_term_fails_parameter_gradients(monkeypatch):
    prim = de._PRIMITIVES["jet_sine"]
    monkeypatch.setitem(
        de._PRIMITIVES, "jet_sine", de.Primitive(prim.forward, _without_mixed_cosine_term(prim.vjp))
    )
    results = run_gradcheck(precision="f64", **SMALL)
    assert [r.name for r in results if not r.passed] == ["parameter-gradients"]


def _without_adjugate_term(vjp):
    """The jacdet_dt VJP without the term of d(adj)/dJ: its cotangent of
    the spatial slots, where only that term lands, is dropped."""

    def wrong(node, g):
        grads = [(i, grad.copy()) for i, grad in vjp(node, g)]
        slots = node.payload[0]
        for _, grad in grads:
            z = grad.reshape(len(slots), -1, 3)
            z[[slots.index(d) for d in de.SPATIAL]] = 0.0
        return grads

    return wrong


def test_dropped_adjugate_term_fails_parameter_gradients(monkeypatch):
    prim = de._PRIMITIVES["jacdet_dt"]
    monkeypatch.setitem(
        de._PRIMITIVES, "jacdet_dt", de.Primitive(prim.forward, _without_adjugate_term(prim.vjp))
    )
    results = run_gradcheck(precision="f64", **SMALL)
    assert [r.name for r in results if not r.passed] == ["parameter-gradients"]


def _without_correlation_term(node, g):
    """The ncc VJP without the (num / M) m~ term of dL/dm: g times
    -f~ / sqrt(F M), recomputed from the node's inputs and payload."""
    m = node.inputs[0].value
    f = np.asarray(node.payload, dtype=m.dtype)
    fc, mc = f - f.mean(), m - m.mean()
    return [(0, -g * fc / np.sqrt((fc @ fc) * (mc @ mc)))]


def test_dropped_ncc_correlation_term_fails_ncc_and_parameter_gradients(monkeypatch):
    prim = de._PRIMITIVES["ncc"]
    monkeypatch.setitem(
        de._PRIMITIVES, "ncc", de.Primitive(prim.forward, _without_correlation_term)
    )
    for precision in ("f64", "f32"):
        results = run_gradcheck(precision=precision, **SMALL)
        assert [r.name for r in results if not r.passed] == [
            "ncc-gradient", "parameter-gradients"]


def _without_negative_branch(node, g):
    """The monotonic VJP without its negative branch: g / n where a point
    takes pos and d > 0, and 0 where it takes neg."""
    take = node.aux
    gn = g / (node.payload or take.size)
    return [(i, np.where(take & (d.value > 0.0), gn, 0.0).astype(d.value.dtype))
            for i, d in enumerate(node.inputs)]


def test_dropped_monotonic_negative_branch_fails_monotonic_and_parameter_gradients(monkeypatch):
    prim = de._PRIMITIVES["monotonic"]
    monkeypatch.setitem(
        de._PRIMITIVES, "monotonic", de.Primitive(prim.forward, _without_negative_branch)
    )
    for precision in ("f64", "f32"):
        results = run_gradcheck(precision=precision, **SMALL)
        assert [r.name for r in results if not r.passed] == [
            "monotonic-gradient", "parameter-gradients"]


@pytest.mark.parametrize("hook", sorted(HOOKS))
def test_f32_corruption_fails_only_its_own_check(hook):
    """At f32 a 1.001 error passes every check but the determinant's, so a
    hook scales by 1 + 10 tol of its check there: each still fails exactly
    its own check."""
    results = run_gradcheck(precision="f32", corrupt=hook, **SMALL)
    assert [r.name for r in results if not r.passed] == [HOOKS[hook]]


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_parameter_gradients_sum_in_the_fit_lanes(monkeypatch, process_log, precision):
    """The parameter-gradients check takes its gradient from the lanes of a
    fit step (`trainer.segment_gradients`): the similarity segment on lane
    0 in the calling process, the one regularizer chunk on lane 1 in the
    lane worker process, whose adjoints come back through the shared map,
    and the check passes."""
    import os

    from ndfreg import losses, trainer

    sweep = trainer._sweep_lane

    def tracking(tape, leaves, *args):
        process_log.write(*(s if s is losses.SIMILARITY else f"{s.start}:{s.stop}"
                            for s in args[-1]))
        return sweep(tape, leaves, *args)

    monkeypatch.setattr(trainer, "_sweep_lane", tracking)
    results = {r.name: r for r in run_gradcheck(precision=precision, **SMALL)}
    assert results["parameter-gradients"].passed
    lanes = process_log.by_process()
    assert lanes.pop(os.getpid()) == [["similarity"]]
    assert list(lanes.values()) == [[["0:16"]]]
