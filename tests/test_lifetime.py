"""Tape lifetime: reference counting alone (the cyclic collector is off in
every test here) frees each training tape with its step, the reverse sweep
releases non-leaf adjoints, and inference records nothing."""

import gc
import weakref

import numpy as np
import pytest

from ndfreg import diffengine as de
from ndfreg import network as net, trainer
from ndfreg.diffengine import Tape
from ndfreg.losses import LossWeights, build_total_loss, total_loss
from ndfreg.trainer import SamplePlan

from test_trainer import TOY_NET, quick_config, tiny_series


@pytest.fixture
def no_gc():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def tapes(monkeypatch):
    """Every Tape built during the test, held strongly."""
    made = []
    init = Tape.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Tape, "__init__", tracking_init)
    return made


def test_fit_keeps_one_tape_per_lane_alive(no_gc, monkeypatch):
    """A fit step records its segments on one tape per lane, each freed by
    reference counting with its step: at most LANES tapes are alive at a
    time, and none after the fit."""
    live = weakref.WeakSet()
    peak = [0]
    init = Tape.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)
        peak[0] = max(peak[0], len(live))

    monkeypatch.setattr(Tape, "__init__", tracking_init)
    trainer.fit(tiny_series(), quick_config(iterations=3), workers=2)
    assert peak[0] == trainer.LANES
    assert len(live) == 0


def test_tape_freed_by_reference_counting(no_gc):
    tape = Tape()
    p = tape.leaf(np.ones(3))
    out = tape.sum_squares(p)
    tape.backward(out)
    ref = weakref.ref(tape)
    del tape
    assert ref() is None
    with pytest.raises(de.DiffEngineError, match="outlived its tape"):
        out.tape


def test_backward_releases_non_leaf_adjoints(no_gc):
    tape = Tape()
    w = tape.leaf(np.array([[0.3, -0.7, 0.2]]))
    b = tape.leaf(np.array([[0.1]]))
    x = tape.constant(np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 3.0]]).T)
    z = de.bundle_affine(tape, w, de.Jet(x, (de.V,)), b)
    out = tape.sum_squares(de.bundle_sine(tape, z, 2.0).node)
    tape.backward(out)
    assert w.adjoint is not None and b.adjoint is not None
    assert x.adjoint is None
    assert [n.kind for n in tape.nodes if n.adjoint is not None] == ["leaf", "leaf"]


def test_sweep_releases_its_segment_and_keeps_the_leaves(no_gc):
    """After a sweep the tape holds only its leaves, numbered from 0; a
    second segment recorded on the same tape adds its gradient to theirs."""
    tape = Tape()
    p = tape.leaf(np.array([1.0, 2.0, 3.0]))
    out = tape.sum_squares(tape.scale(p, 1.0))
    scaled = weakref.ref(out.inputs[0].value)  # the scale node's buffer
    tape.backward(out)
    assert tape.nodes == [p] and p.idx == 0
    assert out.inputs == () and scaled() is None
    tape.backward(tape.scale(tape.sum_squares(p), 0.25))
    np.testing.assert_array_equal(p.adjoint, [2.5, 5.0, 7.5])
    assert tape.nodes == [p]


def test_record_refuses_a_released_node(no_gc):
    """A jet of a swept segment, such as a stale network prefix, cannot
    feed a later record, which would give it no adjoint; the error names
    the released node's kind.  Its output cannot be swept again."""
    tape = Tape()
    w = tape.leaf(np.array([[0.3, -0.7, 0.2]]))
    x = tape.constant(np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 3.0]]).T)
    a = de.bundle_sine(tape, de.bundle_affine(tape, w, de.Jet(x, (de.V,))), 2.0)
    out = tape.sum_squares(a.node)
    tape.backward(out)
    with pytest.raises(de.DiffEngineError, match="jet_sine node was released"):
        de.bundle_sine(tape, a)
    with pytest.raises(de.DiffEngineError, match="sum_squares node was released"):
        tape.backward(out)
    tape.release()  # nothing left but the leaf
    assert tape.nodes == [w]


def test_release_drops_an_unswept_segment(no_gc):
    tape = Tape()
    p = tape.leaf(np.ones(3))
    out = tape.sum_squares(tape.scale(p, 2.0))
    scaled = weakref.ref(out.inputs[0].value)  # the scale node's buffer
    tape.release()
    assert tape.nodes == [p] and p.adjoint is None
    assert scaled() is None
    with pytest.raises(de.DiffEngineError, match="released"):
        tape.sum_squares(out)


def test_constants_are_not_recorded(no_gc):
    tape = Tape()
    c = tape.constant(np.ones(3))
    d = tape.scale(tape.scale(c, 2.0), 3.0)
    p = tape.leaf(np.ones(3))
    tape.add(p, d)
    assert [n.kind for n in tape.nodes] == ["leaf", "add"]
    assert c.idx is None and d.idx is None
    assert d.inputs == ()  # nothing keeps the constant chain alive


def test_backward_without_leaf_rejected(no_gc):
    tape = Tape()
    out = tape.sum_squares(tape.constant(np.ones(3)))
    with pytest.raises(de.DiffEngineError, match="depends on no leaf"):
        tape.backward(out)


def test_forward_with_derivatives_records_nothing(no_gc, tapes, monkeypatch):
    monkeypatch.setattr(net, "chunk_points", lambda *args, **kwargs: 16)
    state = net.init_network(seed=2, config=TOY_NET)
    coords = np.random.default_rng(0).uniform(-1, 1, size=(3, 50))
    full = net.DerivativeRequest(spatial=True, temporal=True)
    net.forward_with_derivatives(state, coords, 0.4, full)
    assert len(tapes) == 4
    assert all(len(t.nodes) == 0 for t in tapes)


def test_chunk_traces_die_before_the_next_chunk_traces(no_gc, monkeypatch):
    """An inference chunk's output jets are freed before the next chunk is
    traced, so their output blocks split none of the holes that the next
    chunk's layer blocks reuse."""
    outputs, alive = [], []
    trace_network = net.trace_network

    def tracking(*args):
        alive.append(sum(ref() is not None for ref in outputs))
        outs = trace_network(*args)
        outputs.extend(weakref.ref(out.node.value) for out in outs)
        return outs

    monkeypatch.setattr(net, "trace_network", tracking)
    monkeypatch.setattr(net, "chunk_points", lambda *args, **kwargs: 16)
    state = net.init_network(seed=2, config=TOY_NET)
    coords = np.random.default_rng(0).uniform(-1, 1, size=(3, 50))
    full = net.DerivativeRequest(spatial=True, temporal=True)
    net.forward_with_derivatives(state, coords, [0.2, 0.6], full)
    assert alive == [0, 0, 0, 0]
    assert len(outputs) == 8


def test_last_group_frees_the_shared_prefix(no_gc, monkeypatch):
    """The time-invariant prefix lives until the last time group's layer 2
    and no longer, so a one-group trace holds no more than an unshared one.
    Inference traces each time as its own group, so 3 times are 3 groups:
    the prefix is alive at the output layer of the first two and freed
    before that of the third."""
    prefix, alive = [], []
    trace_prefix, bundle_affine = net._trace_prefix, de.bundle_affine

    def tracking_prefix(*args):
        out = trace_prefix(*args)
        prefix.append(weakref.ref(out.node.value))  # the prefix block's buffer
        return out

    def tracking_affine(tape, w, x, b=None, cols=None):
        if prefix and cols == (0, TOY_NET.hidden_width):
            # TOY_NET's output layer: the one product with a hidden
            # activation after the prefix, once per group
            alive.append(prefix[-1]() is not None)
        return bundle_affine(tape, w, x, b, cols)

    monkeypatch.setattr(net, "_trace_prefix", tracking_prefix)
    monkeypatch.setattr(de, "bundle_affine", tracking_affine)
    state = net.init_network(seed=2, config=TOY_NET)
    coords = np.random.default_rng(0).uniform(-1, 1, size=(3, 20))
    full = net.DerivativeRequest(spatial=True, temporal=True)
    net.forward_with_derivatives(state, coords, 0.4, full)
    assert alive == [False]
    prefix.clear()
    alive.clear()
    net.forward_with_derivatives(state, coords, [0.2, 0.4, 0.9], full)
    assert alive == [True, True, False]


def test_predict_field_records_nothing(no_gc, tapes):
    state = net.init_network(seed=2, config=TOY_NET, time_horizon=12.0)
    full = net.DerivativeRequest(spatial=True, temporal=True)
    trainer.predict_field(state, 6.0, (5, 5, 5), full)
    assert tapes and all(len(t.nodes) == 0 for t in tapes)


def test_total_loss_records_nothing(no_gc, tapes):
    state = net.init_network(seed=2, config=TOY_NET)
    rng = np.random.default_rng(3)
    plan = SamplePlan(rng.uniform(-1, 1, size=(3, 30)), np.array([0.0, 1.0]),
                      np.linspace(0.0, 1.0, 3))
    breakdown = total_loss(tiny_series(), state, LossWeights(), plan)
    assert np.isfinite(breakdown.total)
    assert len(tapes) == 1 and len(tapes[0].nodes) == 0


def test_every_value_of_a_loss_tape_is_an_array(no_gc):
    """Scalars are 0-d arrays: every node value of a whole-loss tape, the
    loss's scalar arithmetic included, is an array that takes a weak
    reference, and the sweep frees every value but the leaves'."""
    state = net.init_network(seed=2, config=TOY_NET)
    rng = np.random.default_rng(3)
    plan = SamplePlan(rng.uniform(-1, 1, size=(3, 30)), np.array([0.0, 1.0]),
                      np.linspace(0.0, 1.0, 3))
    tape = Tape()
    leaves = net.make_leaves(tape, state)
    total, _ = build_total_loss(tape, leaves, tiny_series(), LossWeights(), plan, state.config)
    assert total.value.ndim == 0
    refs = [(node.kind, weakref.ref(node.value)) for node in tape.nodes]
    tape.backward(total)
    del total
    assert {kind for kind, ref in refs if ref() is not None} == {"leaf"}
