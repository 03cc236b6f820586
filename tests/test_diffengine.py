"""Engine tests: primitive semantics, tangent exactness against central
finite differences, and reverse-mode gradients against the same oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndfreg import diffengine as de
from ndfreg.diffengine import Tape


def det3_permutation_oracle(m):
    """Independent determinant: signed sum over all permutations."""
    total = 0.0
    for perm in itertools.permutations(range(3)):
        sign = 1
        p = list(perm)
        for i in range(3):
            for j in range(i + 1, 3):
                if p[i] > p[j]:
                    sign = -sign
        total += sign * m[0, perm[0]] * m[1, perm[1]] * m[2, perm[2]]
    return total


def central_fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2 * h)


# ---------------------------------------------------------------------------
# record_primitive semantics
# ---------------------------------------------------------------------------


def test_record_sine_of_zero():
    tape = Tape()
    x = tape.constant(0.0)
    assert float(tape.sine(x).value) == 0.0


def test_record_det3_of_identity():
    tape = Tape()
    entries = [tape.constant(float(v)) for v in np.eye(3).ravel()]
    assert float(tape.det3(entries).value) == 1.0


def test_record_leaky_of_negative():
    tape = Tape()
    x = tape.constant(-2.0)
    assert float(tape.leaky(x, 0.01).value) == pytest.approx(-0.02)


def test_unknown_kind_rejected():
    tape = Tape()
    with pytest.raises(de.DiffEngineError, match="unknown op-kind"):
        tape.record("conv2d", ())


def test_shape_mismatch_reports_shapes():
    tape = Tape()
    a = tape.constant(np.zeros(3))
    b = tape.constant(np.zeros(4))
    with pytest.raises(de.DiffEngineError, match=r"\(3,\).*\(4,\)"):
        tape.add(a, b)


def test_affine_shape_check():
    tape = Tape()
    w = tape.constant(np.zeros((2, 3)))
    x = tape.constant(np.zeros((4, 5)))
    with pytest.raises(de.DiffEngineError, match="affine"):
        tape.affine(w, x)


def test_cross_tape_input_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.constant(1.0)
    b = t2.constant(1.0)
    with pytest.raises(de.DiffEngineError, match="different tape"):
        t1.add(a, b)


def test_backward_on_other_tapes_output_rejected():
    t1, t2 = Tape(), Tape()
    out = t1.sum(t1.square(t1.leaf(np.ones(2))))
    with pytest.raises(de.DiffEngineError, match="different tape"):
        t2.backward(out)


def test_det3_matches_permutation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = rng.uniform(-1, 1, size=(3, 3))
        tape = Tape()
        entries = [tape.constant(v) for v in m.ravel()]
        got = float(tape.det3(entries).value)
        assert got == pytest.approx(det3_permutation_oracle(m), abs=1e-12)


def test_adj3_matches_inverse_times_det():
    rng = np.random.default_rng(8)
    for _ in range(100):
        m = rng.uniform(-1, 1, size=(3, 3)) + 2 * np.eye(3)
        tape = Tape()
        adj = tape.adj3([tape.constant(v) for v in m.ravel()]).value.reshape(3, 3)
        expect = np.linalg.inv(m) * np.linalg.det(m)
        np.testing.assert_allclose(adj, expect, atol=1e-10)


def test_minimum_and_relu():
    tape = Tape()
    a = tape.constant(np.array([1.0, -2.0, 3.0]))
    b = tape.constant(np.array([0.5, 1.0, 5.0]))
    np.testing.assert_array_equal(tape.minimum(a, b).value, [0.5, -2.0, 3.0])
    np.testing.assert_array_equal(tape.relu(a).value, [1.0, 0.0, 3.0])


# ---------------------------------------------------------------------------
# forward tangents
# ---------------------------------------------------------------------------


def test_tangent_sine_at_zero():
    tape = Tape()
    xb = de.coordinate_bundle(tape, np.zeros((3, 1)))
    out = de.bundle_sine(tape, xb, 1.0)
    # d sin(x)/dx at 0 is cos(0) = 1 on the x row
    t = out.tangent(0)
    assert float(t.value[0, 0]) == pytest.approx(1.0)


def test_tangent_bilinear_mixed():
    # f(x, t) = x * t: tangents (t, x), mixed d2/dxdt = 1
    tape = Tape()
    x = de.TangentBundle(
        tape.constant(np.full((1, 1), 2.0)),
        (tape.constant(np.ones((1, 1))), None, None, None),
        (None, None, None),
    )
    t = de.TangentBundle(
        tape.constant(np.full((1, 1), 3.0)),
        (None, None, None, tape.constant(np.ones((1, 1)))),
        (None, None, None),
    )
    # product rule via primitives: v = x*t, dx = t, dt = x, dxt = 1
    v = tape.mul(x.value, t.value)
    dvx = tape.mul(x.tangent(0), t.value)
    dvt = tape.mul(x.value, t.tangent(3))
    dvxt = tape.mul(x.tangent(0), t.tangent(3))
    assert v.value.item() == 6.0
    assert dvx.value.item() == 3.0
    assert dvt.value.item() == 2.0
    assert dvxt.value.item() == 1.0


def test_constant_bundle_zero_tangents():
    tape = Tape()
    b = de.TangentBundle(tape.constant(np.ones((3, 2))))
    for d in range(4):
        assert np.all(b.tangent(d).value == 0.0)
    for d in range(3):
        assert np.all(b.mixed_entry(d).value == 0.0)


def _sine_stack(tape, wb, tb, weights):
    """A 5-layer sine chain mixing coordinates and time for FD checks."""
    w1, w2, wt = weights
    a = de.bundle_sine(tape, de.bundle_affine(tape, w1, wb), 3.0)
    e = de.bundle_leaky(tape, de.bundle_affine(tape, wt, tb), 0.01)
    h = w1.value.shape[0]
    for _ in range(3):
        z = de.bundle_add(
            tape,
            de.bundle_affine(tape, w2, a, cols=(0, h)),
            de.bundle_affine(tape, w2, e, cols=(h, h + e.value.shape[0])),
        )
        a = de.bundle_sine(tape, z)
    return a


def _stack_weights(tape, rng, h=6, e=4):
    w1 = tape.constant(rng.uniform(-1, 1, size=(h, 3)))
    w2 = tape.constant(rng.uniform(-0.4, 0.4, size=(h, h + e)))
    wt = tape.constant(rng.uniform(-1, 1, size=(e, 1)))
    return w1, w2, wt


def test_five_layer_tangents_match_finite_differences():
    rng = np.random.default_rng(11)
    coords = rng.uniform(-0.8, 0.8, size=(3, 20))
    t0 = 0.4

    def run(c, t):
        tape = Tape()
        rng2 = np.random.default_rng(5)
        weights = _stack_weights(tape, rng2)
        wb = de.coordinate_bundle(tape, c)
        tb = de.time_bundle(tape, t)
        return _sine_stack(tape, wb, tb, weights)

    out = run(coords, t0)
    h = 1e-4
    for d in range(3):
        shift = np.zeros((3, 1))
        shift[d] = h
        vp = run(coords + shift, t0).value.value
        vm = run(coords - shift, t0).value.value
        fd = (vp - vm) / (2 * h)
        an = out.tangent(d).value
        rel = np.abs(an - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-5
    vp = run(coords, t0 + h).value.value
    vm = run(coords, t0 - h).value.value
    fd = (vp - vm) / (2 * h)
    rel = np.abs(out.tangent(3).value - fd) / np.maximum(np.abs(fd), 1e-6)
    assert rel.max() < 1e-5


def test_mixed_tangents_match_finite_differences():
    rng = np.random.default_rng(13)
    coords = rng.uniform(-0.8, 0.8, size=(3, 10))

    def tangent_t(c, t):
        tape = Tape()
        rng2 = np.random.default_rng(5)
        weights = _stack_weights(tape, rng2)
        wb = de.coordinate_bundle(tape, c)
        tb = de.time_bundle(tape, t)
        out = _sine_stack(tape, wb, tb, weights)
        return out.tangent(3).value, out

    h = 1e-4
    _, out = tangent_t(coords, 0.4)
    for d in range(3):
        shift = np.zeros((3, 1))
        shift[d] = h
        tp, _ = tangent_t(coords + shift, 0.4)
        tm, _ = tangent_t(coords - shift, 0.4)
        fd = (tp - tm) / (2 * h)
        an = out.mixed_entry(d).value
        rel = np.abs(an - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-4


def test_tangent_linearity():
    rng = np.random.default_rng(17)
    coords = rng.uniform(-1, 1, size=(3, 8))

    def tangents_of(scale_f, scale_g):
        tape = Tape()
        wb = de.coordinate_bundle(tape, coords)
        f = de.bundle_sine(tape, wb, 2.0)
        g = de.bundle_leaky(tape, wb, 0.05)
        fs = de.TangentBundle(
            tape.scale(f.value, scale_f),
            tuple(None if t is None else tape.scale(t, scale_f) for t in f.tangents),
            (None, None, None),
        )
        gs = de.TangentBundle(
            tape.scale(g.value, scale_g),
            tuple(None if t is None else tape.scale(t, scale_g) for t in g.tangents),
            (None, None, None),
        )
        return de.bundle_add(tape, fs, gs)

    a, b = 2.5, -1.25
    combo = tangents_of(a, b)
    fonly = tangents_of(1.0, 0.0)
    gonly = tangents_of(0.0, 1.0)
    for d in range(3):
        np.testing.assert_allclose(
            combo.tangent(d).value,
            a * fonly.tangent(d).value + b * gonly.tangent(d).value,
            rtol=1e-12,
        )


def test_leaky_kink_convention():
    tape = Tape()
    x = tape.leaf(np.array([0.0]))
    y = tape.sum(tape.leaky(x, 0.01))
    tape.backward(y)
    assert x.adjoint[0] == 1.0  # positive-branch slope at exactly 0
    tape2 = Tape()
    x2 = tape2.constant(np.array([0.0, -1.0, 1.0]))
    mask = tape2.leaky_mask(x2, 0.25)
    np.testing.assert_array_equal(mask.value, [1.0, 0.25, 1.0])


def test_determinism_bit_identical():
    def run():
        tape = Tape()
        rng = np.random.default_rng(23)
        w = tape.leaf(rng.uniform(-1, 1, size=(4, 3)))
        x = tape.constant(rng.uniform(-1, 1, size=(3, 9)))
        y = tape.mean(tape.square(tape.sine(tape.affine(w, x), 2.0)))
        tape.backward(y)
        return y.value.copy(), w.adjoint.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1.tobytes() == v2.tobytes()
    assert g1.tobytes() == g2.tobytes()


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------


def test_backward_sum_of_squares():
    tape = Tape()
    p = tape.leaf(np.array([1.0, 2.0, 3.0]))
    out = tape.sum(tape.square(p))
    tape.backward(out)
    np.testing.assert_array_equal(p.adjoint, [2.0, 4.0, 6.0])


def test_backward_det_at_identity():
    tape = Tape()
    leaves = [tape.leaf(float(v)) for v in np.eye(3).ravel()]
    out = tape.det3(leaves)
    tape.backward(out)
    grad = np.array([float(l.adjoint) for l in leaves]).reshape(3, 3)
    np.testing.assert_array_equal(grad, np.eye(3))


def test_backward_requires_scalar():
    tape = Tape()
    p = tape.leaf(np.ones(3))
    with pytest.raises(de.DiffEngineError, match="scalar"):
        tape.backward(tape.square(p))


def test_backward_repeatable_after_reset():
    tape = Tape()
    p = tape.leaf(np.array([0.3, -0.7]))
    out = tape.mean(tape.square(tape.sine(p, 2.0)))
    tape.backward(out)
    g1 = p.adjoint.copy()
    tape.reset_adjoints()
    tape.backward(out)
    assert g1.tobytes() == p.adjoint.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_backward_composite_matches_fd(seed):
    rng = np.random.default_rng(seed)
    p0 = rng.uniform(-1, 1, size=(3, 3))

    def value_and_grad(p):
        tape = Tape()
        leaf = tape.leaf(p)
        rows = [tape.row(leaf, i) for i in range(3)]
        entries = [
            e
            for i in range(3)
            for e in (
                tape.record("mul", (rows[i], rows[(i + 1) % 3])),
            )
        ]
        # mix det3, adj3, min, relu, div paths
        nine = [tape.row(leaf, i % 3) for i in range(9)]
        det = tape.det3(nine)
        adj = tape.adj3(nine)
        s = tape.sum(tape.square(adj))
        mix = tape.add(
            tape.sum(tape.relu(entries[0])),
            tape.sum(tape.minimum(entries[1], entries[2])),
        )
        mono = tape.div(tape.offset(tape.sum(tape.square(det)), 1.0), tape.offset(s, 2.0))
        out = tape.add(mix, tape.sum(tape.square(tape.leaky(mono, 0.1))))
        tape.backward(out)
        return float(out.value), leaf.adjoint.copy()

    _, grad = value_and_grad(p0)
    eps = 1e-6
    for idx in np.ndindex(p0.shape):
        pp = p0.copy()
        pp[idx] += eps
        vp, _ = value_and_grad(pp)
        pp[idx] -= 2 * eps
        vm, _ = value_and_grad(pp)
        fd = (vp - vm) / (2 * eps)
        assert grad[idx] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_float32_mode_tangents():
    rng = np.random.default_rng(31)
    coords = rng.uniform(-0.8, 0.8, size=(3, 6)).astype(np.float32)
    weights = rng.uniform(-1, 1, size=(4, 3))

    def run(c):
        tape = Tape(np.float32)
        w = tape.constant(weights)
        wb = de.coordinate_bundle(tape, c)
        return de.bundle_sine(tape, de.bundle_affine(tape, w, wb), 2.0)

    out = run(coords)
    assert out.value.value.dtype == np.float32
    h = np.float32(1e-2)
    shift = np.zeros((3, 1), dtype=np.float32)
    shift[0] = h
    fd = (run(coords + shift).value.value - run(coords - shift).value.value) / (2 * h)
    rel = np.abs(out.tangent(0).value - fd) / np.maximum(np.abs(fd), 1e-2)
    assert rel.max() < 1e-2


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    st.lists(st.floats(-3, 3), min_size=4, max_size=4),
)
def test_mul_tangent_product_rule(xs, vs):
    tape = Tape()
    a = de.TangentBundle(
        tape.constant(np.array(xs[:2])), (tape.constant(np.array(vs[:2])), None, None, None)
    )
    b = de.TangentBundle(
        tape.constant(np.array(xs[2:])), (tape.constant(np.array(vs[2:])), None, None, None)
    )
    prod = tape.mul(a.value, b.value)
    dt = tape.add(
        tape.mul(a.tangent(0), b.value), tape.mul(a.value, b.tangent(0))
    )
    expect = np.array(vs[:2]) * np.array(xs[2:]) + np.array(xs[:2]) * np.array(vs[2:])
    np.testing.assert_allclose(dt.value, expect, rtol=1e-12, atol=1e-12)
