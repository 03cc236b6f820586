"""Engine tests: primitive semantics, tangent exactness against central
finite differences, and reverse-mode gradients against the same oracle."""

import functools
import itertools
from collections import Counter
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndfreg import diffengine as de, losses, network as net
from ndfreg.diffengine import Tape
from ndfreg.trainer import SamplePlan
from ndfreg.volume import Volume3D, Volume4DSeries

from test_losses import tiny_series, toy_plan, toy_state


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


ALL_SLOTS = tuple(range(8))
SPACE = (de.V, de.X, de.Y, de.Z)
ONE = (1, 1)  # a block of one time, the `times` of a jet payload


def read(slots, times=ONE, time=0):
    """The payload of an output-block product at time `time` (None: every
    time) of a block of `times`."""
    return (slots, times, time)


def value_jet(tape, value):
    return de.Jet(tape.constant(np.full((1, 1), value)), (de.V,))


def point_major(z3):
    """A (rows, S, B) stack of slots as the (S*B, rows) block of a jet."""
    return np.ascontiguousarray(z3.transpose(1, 2, 0)).reshape(-1, z3.shape[0])


def output_block(jac, jdot=None):
    """An output layer's (S*B, 3) block: J = `jac` (3, 3, B), [i, j] the
    derivative of component i in direction j, in the spatial slots, and
    dJ/dt = `jdot` ([k, i] the t-derivative of J[k][i]) in the mixed
    slots; the value and t slots hold noise the products must not read.
    Returns the block and the payload that reads it."""
    nb = jac.shape[2]
    noise = np.random.default_rng(0).uniform(-1, 1, size=(3, 1, nb))
    if jdot is None:
        return point_major(np.concatenate([noise, jac], axis=1)), read(SPACE)
    return point_major(np.concatenate([noise, jac, noise, jdot], axis=1)), read(ALL_SLOTS)


def test_record_sine_of_zero():
    tape = Tape()
    assert de.bundle_sine(tape, value_jet(tape, 0.0)).node.value.item() == 0.0


def test_record_det3_of_identity():
    tape = Tape()
    block, payload = output_block(np.zeros((3, 3, 1)))
    assert float(tape.record("jacdet", (tape.constant(block),), payload).value[0]) == 1.0


def test_record_leaky_of_negative():
    tape = Tape()
    out = de.bundle_leaky(tape, value_jet(tape, -2.0), 0.01)
    assert out.node.value.item() == pytest.approx(-0.02)


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
    """|I + J| of a 200-point block against the permutation expansion of
    each point's matrix I + J."""
    rng = np.random.default_rng(7)
    jac = rng.uniform(-1, 1, size=(3, 3, 200)) - np.eye(3)[:, :, None]
    block, payload = output_block(jac)
    tape = Tape()
    got = tape.record("jacdet", (tape.constant(block),), payload).value
    for p in range(200):
        expect = det3_permutation_oracle(jac[:, :, p] + np.eye(3))
        assert got[p] == pytest.approx(expect, abs=1e-12)


def test_adj3_matches_inverse_times_det():
    """d|I + J|/dt at dJ/dt = E (1 at [k][i], 0 elsewhere) is adj[i][k]:
    nine points per matrix read the whole adjugate, which equals
    |M| M^-1."""
    rng = np.random.default_rng(8)
    unit = np.eye(9).reshape(3, 3, 9)  # point 3i+k: 1 at [i][k]
    for _ in range(100):
        m = rng.uniform(-1, 1, size=(3, 3)) + 2 * np.eye(3)
        jac = np.repeat((m - np.eye(3))[:, :, None], 9, axis=2)
        block, payload = output_block(jac, unit.transpose(1, 0, 2))
        tape = Tape()
        adj = tape.record("jacdet_dt", (tape.constant(block),), payload).value.reshape(3, 3)
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


def coord_jet(tape, coords):
    """(3,B) coordinates with unit x, y, z tangents, as the network seeds them."""
    return net._coordinate_jet(tape, np.asarray(coords, dtype=tape.dtype), True)


def time_jet(tape, t):
    """A time with its unit t-tangent: one point, slots v and t."""
    return de.Jet(tape.constant(np.array([[t], [1.0]])), (de.V, de.T))


def slot(tape, jet, s):
    return de.jet_slot(tape, jet, s).value


def test_tangent_sine_at_zero():
    tape = Tape()
    xb = coord_jet(tape, np.zeros((3, 1)))
    out = de.bundle_sine(tape, xb, 1.0)
    # d sin(x)/dx at 0 is cos(0) = 1 on the x row
    t = slot(tape, out, de.X)
    assert float(t[0, 0]) == pytest.approx(1.0)


def test_value_only_sine_records_no_cosine():
    tape = Tape()
    x = de.Jet(tape.leaf(np.linspace(-1.0, 1.0, 6).reshape(2, 3)), (de.V,))
    out = de.bundle_sine(tape, x, 30.0)
    assert out.slots == (de.V,)
    assert [n.kind for n in tape.nodes] == ["leaf", "jet_sine"]
    assert all(n.aux is None for n in tape.nodes if n.kind == "jet_sine")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("outputs", ["sin", "cos", "both"])
def test_half_angle_sin_cos_matches_libm(dtype, outputs):
    """`_sin_cos` against np.sin and np.cos to 4 eps absolute over
    |u| <= 1e4, at +-0 and +-pi (signs of zero kept), and across pieces: 70
    rows of 1000 points are pieces of 32, 32 and 6 rows.  The outputs are
    written as the sine rule writes them: the sine alone or the cosine alone
    over u itself, or the sine into a new array and the cosine over u."""
    u = np.random.default_rng(5).uniform(-1e4, 1e4, size=(70, 1000)).astype(dtype)
    u[-1, :4] = [0.0, -0.0, np.pi, -np.pi]
    x = u.copy()
    s = x if outputs == "sin" else np.empty_like(u) if outputs == "both" else None
    c = x if outputs != "sin" else None
    de._sin_cos(x, sin_out=s, cos_out=c)
    eps = np.finfo(dtype).eps
    if s is not None:
        assert np.abs(s - np.sin(u)).max() <= 4 * eps
        np.testing.assert_array_equal(np.signbit(s[-1, :2]), [False, True])
    if c is not None:
        assert np.abs(c - np.cos(u)).max() <= 4 * eps


def test_half_angle_sin_cos_of_nan_warns_nothing():
    u = np.array([[np.nan, 1.0]])
    s, c = np.empty_like(u), np.empty_like(u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        de._sin_cos(u, sin_out=s, cos_out=c)
    assert np.isnan(s[0, 0]) and np.isnan(c[0, 0])
    assert np.isfinite(s[0, 1]) and np.isfinite(c[0, 1])


def test_value_only_sine_allocates_one_piece_beyond_its_result():
    """A value-only sine of a (256, 4096) block allocates its result and at
    most one piece of scratch, not a full-size tan(u/2) temporary."""
    tape = Tape()
    block = tape.constant(np.random.default_rng(0).uniform(-1, 1, size=(256, 4096)))
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        out = tape.record("jet_sine", (block,), (30.0, (de.V,), ONE))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= out.value.nbytes + de._PIECE * 8 + 16384


def test_inference_calls_no_libm_sine(monkeypatch):
    """A depth-5 f64 inference with spatial and temporal derivatives runs
    with np.sin and np.cos unavailable: every sine comes from the half-angle
    tangent."""
    cfg = net.NetworkConfig(hidden_width=16, depth=5, time_hidden_width=6, time_embed_width=8)
    state = net.init_network(seed=2, config=cfg)
    coords = np.random.default_rng(2).uniform(-1, 1, size=(3, 40))

    def libm(*args, **kwargs):
        raise AssertionError("np.sin or np.cos called")

    monkeypatch.setattr(np, "sin", libm)
    monkeypatch.setattr(np, "cos", libm)
    res = net.forward_with_derivatives(
        state, coords, 0.4, net.DerivativeRequest(spatial=True, temporal=True)
    )
    assert np.isfinite(res.jac_det_dt).all()


def test_tangent_bilinear_mixed():
    # f(x, t) = x * t: tangents (t, x), mixed d2/dxdt = 1
    tape = Tape()
    x, x_dx = tape.constant(np.full((1, 1), 2.0)), tape.constant(np.ones((1, 1)))
    t, t_dt = tape.constant(np.full((1, 1), 3.0)), tape.constant(np.ones((1, 1)))
    # product rule via primitives: v = x*t, dx = t, dt = x, dxt = 1
    v = tape.mul(x, t)
    dvx = tape.mul(x_dx, t)
    dvt = tape.mul(x, t_dt)
    dvxt = tape.mul(x_dx, t_dt)
    assert v.value.item() == 6.0
    assert dvx.value.item() == 3.0
    assert dvt.value.item() == 2.0
    assert dvxt.value.item() == 1.0


def test_constant_bundle_zero_tangents():
    """A value-only jet stays value-only through every rule: its tangents
    are structurally zero and no slot holds them."""
    tape = Tape()
    b = de.Jet(tape.constant(np.ones((2, 3))), (de.V,))
    w = tape.constant(np.ones((2, 3)))
    for out in (de.bundle_sine(tape, b), de.bundle_leaky(tape, b, 0.1), de.bundle_affine(tape, w, b)):
        assert out.slots == out.folded_slots == (de.V,)
    for d in (de.X, de.Y, de.Z, de.T, de.XT, de.YT, de.ZT):
        with pytest.raises(de.DiffEngineError, match="not in"):
            slot(tape, b, d)


def test_affine_refuses_pending_column_terms():
    """A matmul maps a block without column terms; a jet that still carries
    one, such as a bias not yet folded by a rule, is refused."""
    tape = Tape()
    x = de.Jet(tape.constant(np.ones((2, 3))), (de.V,))
    w = tape.constant(np.ones((4, 3)))
    z = de.bundle_affine(tape, w, x, tape.constant(np.ones((1, 4))))
    assert len(z.cols) == 1
    with pytest.raises(de.DiffEngineError, match="column terms"):
        de.bundle_affine(tape, tape.constant(np.ones((2, 4))), z)
    folded = de.bundle_leaky(tape, z, 0.1)
    assert de.bundle_affine(tape, tape.constant(np.ones((2, 4))), folded).cols == ()


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
            de.bundle_affine(tape, w2, e, cols=(h, h + e.node.value.shape[1])),
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
        out = _sine_stack(tape, coord_jet(tape, c), time_jet(tape, t), weights)
        return {s: slot(tape, out, s) for s in (de.V, de.X, de.Y, de.Z, de.T)}

    out = run(coords, t0)
    h = 1e-4
    for d in range(3):
        shift = np.zeros((3, 1))
        shift[d] = h
        vp = run(coords + shift, t0)[de.V]
        vm = run(coords - shift, t0)[de.V]
        fd = (vp - vm) / (2 * h)
        an = out[de.SPATIAL[d]]
        rel = np.abs(an - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-5
    vp = run(coords, t0 + h)[de.V]
    vm = run(coords, t0 - h)[de.V]
    fd = (vp - vm) / (2 * h)
    rel = np.abs(out[de.T] - fd) / np.maximum(np.abs(fd), 1e-6)
    assert rel.max() < 1e-5


def test_mixed_tangents_match_finite_differences():
    rng = np.random.default_rng(13)
    coords = rng.uniform(-0.8, 0.8, size=(3, 10))

    def tangent_t(c, t):
        tape = Tape()
        rng2 = np.random.default_rng(5)
        weights = _stack_weights(tape, rng2)
        out = _sine_stack(tape, coord_jet(tape, c), time_jet(tape, t), weights)
        return slot(tape, out, de.T), [slot(tape, out, m) for m in (de.XT, de.YT, de.ZT)]

    h = 1e-4
    _, mixed = tangent_t(coords, 0.4)
    for d in range(3):
        shift = np.zeros((3, 1))
        shift[d] = h
        tp, _ = tangent_t(coords + shift, 0.4)
        tm, _ = tangent_t(coords - shift, 0.4)
        fd = (tp - tm) / (2 * h)
        an = mixed[d]
        rel = np.abs(an - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-4


def test_tangent_linearity():
    rng = np.random.default_rng(17)
    coords = rng.uniform(-1, 1, size=(3, 8))

    def tangents_of(scale_f, scale_g):
        tape = Tape()
        wb = coord_jet(tape, coords)
        f = de.bundle_sine(tape, wb, 2.0)
        g = de.bundle_leaky(tape, wb, 0.05)
        assert f.slots == g.slots
        combo = tape.add(tape.scale(f.node, scale_f), tape.scale(g.node, scale_g))
        out = de.Jet(combo, f.slots)
        return [slot(tape, out, d) for d in de.SPATIAL]

    a, b = 2.5, -1.25
    combo = tangents_of(a, b)
    fonly = tangents_of(1.0, 0.0)
    gonly = tangents_of(0.0, 1.0)
    for d in range(3):
        np.testing.assert_allclose(
            combo[d],
            a * fonly[d] + b * gonly[d],
            rtol=1e-12,
        )


def test_leaky_kink_convention():
    tape = Tape()
    x = tape.leaf(np.array([[0.0]]))
    y = tape.sum(de.bundle_leaky(tape, de.Jet(x, (de.V,)), 0.01).node)
    tape.backward(y)
    assert x.adjoint[0, 0] == 1.0  # positive-branch slope at exactly 0
    tape2 = Tape()
    # unit x-tangents: the tangent slot of the leaky rule is its slope mask
    x2 = de.Jet(tape2.constant(np.array([[0.0, -1.0, 1.0, 1.0, 1.0, 1.0]]).T), (de.V, de.X))
    mask = slot(tape2, de.bundle_leaky(tape2, x2, 0.25), de.X)
    np.testing.assert_array_equal(mask, [[1.0, 0.25, 1.0]])


def test_determinism_bit_identical():
    def run():
        tape = Tape()
        rng = np.random.default_rng(23)
        w = tape.leaf(rng.uniform(-1, 1, size=(4, 3)))
        x = de.Jet(tape.constant(rng.uniform(-1, 1, size=(3, 9)).T), (de.V,))
        y = tape.mean(tape.square(de.bundle_sine(tape, de.bundle_affine(tape, w, x), 2.0).node))
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
    block, payload = output_block(np.zeros((3, 3, 1)))
    leaf = tape.leaf(block)
    tape.backward(tape.sum(tape.record("jacdet", (leaf,), payload)))
    grad = leaf.adjoint.T
    np.testing.assert_array_equal(grad[:, 1:], np.eye(3))  # the cofactors of I
    assert np.all(grad[:, 0] == 0.0)


def test_backward_requires_scalar():
    tape = Tape()
    p = tape.leaf(np.ones(3))
    with pytest.raises(de.DiffEngineError, match="scalar"):
        tape.backward(tape.square(p))


@pytest.mark.parametrize("seed", range(5))
def test_backward_composite_matches_fd(seed):
    rng = np.random.default_rng(seed)
    p0 = rng.uniform(-1, 1, size=(3, 3))

    # one point of every slot: J = p and dJ/dt = p @ r
    basis = np.concatenate(
        [np.ones((3, 1)), np.eye(3), np.ones((3, 1)), rng.uniform(-1, 1, size=(3, 3))], axis=1
    )

    def value_and_grad(p):
        tape = Tape()
        leaf = tape.leaf(p)
        block = tape.affine(leaf, tape.constant(basis.T))
        jac = tape.record("jacobian", (block,), read(ALL_SLOTS))
        # mix jacdet, jacdet_dt, min, relu, div paths
        det = tape.record("jacdet", (block,), read(ALL_SLOTS))
        djdt = tape.record("jacdet_dt", (block,), read(ALL_SLOTS))
        mix = tape.add(
            tape.sum(tape.relu(tape.mul(jac, det))),
            tape.sum(tape.minimum(jac, tape.scale(jac, -0.5))),
        )
        mono = tape.div(
            tape.offset(tape.sum(tape.square(det)), 1.0),
            tape.offset(tape.sum(tape.square(djdt)), 2.0),
        )
        out = tape.add(mix, tape.sum(tape.square(mono)))
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
        out = de.bundle_sine(tape, de.bundle_affine(tape, w, coord_jet(tape, c)), 2.0)
        return slot(tape, out, de.V), slot(tape, out, de.X)

    value, tangent = run(coords)
    assert value.dtype == np.float32
    h = np.float32(1e-2)
    shift = np.zeros((3, 1), dtype=np.float32)
    shift[0] = h
    fd = (run(coords + shift)[0] - run(coords - shift)[0]) / (2 * h)
    rel = np.abs(tangent - fd) / np.maximum(np.abs(fd), 1e-2)
    assert rel.max() < 1e-2


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    st.lists(st.floats(-3, 3), min_size=4, max_size=4),
)
def test_mul_tangent_product_rule(xs, vs):
    tape = Tape()
    a, a_dx = tape.constant(np.array(xs[:2])), tape.constant(np.array(vs[:2]))
    b, b_dx = tape.constant(np.array(xs[2:])), tape.constant(np.array(vs[2:]))
    prod = tape.mul(a, b)
    dt = tape.add(tape.mul(a_dx, b), tape.mul(a, b_dx))
    expect = np.array(vs[:2]) * np.array(xs[2:]) + np.array(xs[:2]) * np.array(vs[2:])
    np.testing.assert_allclose(dt.value, expect, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# the primitive table: one finite-difference VJP case per kind
# ---------------------------------------------------------------------------


def _away_from_zero(rng, shape, lo=0.1):
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(lo, 1.0, size=shape)


def _sample_points(rng, n, cells):
    """(B,) coordinates in [-1, 1] that stay inside one sampler cell."""
    vox = rng.integers(0, cells - 1, size=n) + rng.uniform(0.1, 0.9, size=n)
    return vox * (2.0 / (cells - 1)) - 1.0


def _vjp_cases(rng):
    """kind -> list of (input arrays, payload).  Inputs sit away from kinks,
    ties and cell faces, where the primitives are smooth."""
    a = rng.uniform(-1.0, 1.0, size=(3, 4))
    b = rng.uniform(-1.0, 1.0, size=(3, 4))
    col = rng.uniform(-1.0, 1.0, size=(3, 1))
    grid = rng.uniform(0.0, 1.0, size=(6, 6, 6))
    return {
        "add": [((a, col), None)],
        "sub": [((col, b), None), ((a, b), None)],
        "mul": [((a, b), None), ((col, a), None)],
        "div": [((a, _away_from_zero(rng, (3, 4), 0.5)), None)],
        "minimum": [((a, a + _away_from_zero(rng, (3, 4))), None)],
        "scale": [((a,), -1.7)],
        "offset": [((a,), 0.3)],
        "square": [((a,), None)],
        "sqrt": [((rng.uniform(0.5, 2.0, size=(3, 4)),), None)],
        "relu": [((_away_from_zero(rng, (3, 4)),), None)],
        "affine": [
            ((rng.uniform(-1, 1, (4, 3)), a.T), None),
            ((rng.uniform(-1, 1, (4, 6)), a.T), (2, 5)),
        ],
        "sum": [((a,), None), ((a,), 0)],
        "mean": [((a,), None)],
        "sample3": [((np.stack([_sample_points(rng, 7, 6) for _ in range(3)]),), grid)],
        **_jet_cases(rng),
    }


def _jet_cases(rng):
    """Blocks of 3 rows and 4 points per slot with their column terms, at
    one time or at three (a block of 12 points per slot, or one time shared
    by the three); value slots sit away from the leaky kink.  Two sine blocks of 23 rows and
    3000 points per slot span `_sin_cos` pieces of 1424, 1424 and 152
    points; they draw from their own generator, so the other cases keep
    their inputs.  Each block is drawn as a (rows, S, B) stack and laid out
    point-major, and each column term as (rows, 1|2) and transposed."""

    def block(slots, nb=4, rows=3, gen=rng):
        z = gen.uniform(-1.0, 1.0, size=(rows, len(slots), nb))
        z[:, 0] = _away_from_zero(gen, (rows, nb), 0.3)
        return point_major(z)

    def col(k, rows=3, gen=rng):
        return gen.uniform(-0.1, 0.1, size=(rows, k)).T.copy()

    def pieces(slots, *cols):
        big = np.random.default_rng(43)
        return (block(slots, 3000, 23, big),) + tuple(col(k, 23, big) for k in cols)

    time_block = block((de.V, de.T), nb=1)
    # three times of 4 points: a block of all three (12 points per slot), or
    # one time shared by the three, read against per-time column terms
    k3 = (3, 3)
    shared = (1, 3)
    return {
        # every slot present; t column present; t made by the column alone;
        # spatial only; value only; time only
        "jet_sine": [
            ((block(ALL_SLOTS), col(2), col(1)), (2.0, ALL_SLOTS, ONE)),
            ((block(SPACE), col(2), col(1)), (2.0, SPACE, ONE)),
            ((block(SPACE), col(1)), (2.0, SPACE, ONE)),
            ((block((de.V,)), col(1)), (2.0, (de.V,), ONE)),
            ((time_block, col(2)), (2.0, (de.V, de.T), ONE)),
            # several pieces, the last one partial: value only; every slot
            (pieces((de.V,), 1), (2.0, (de.V,), ONE)),
            (pieces(ALL_SLOTS, 2, 1), (2.0, ALL_SLOTS, ONE)),
            # three times: every slot; layer 2's shared block, with and
            # without t; value only, shared
            ((block(ALL_SLOTS, 12), col(6), col(1)), (2.0, ALL_SLOTS, k3)),
            ((block(SPACE), col(6), col(1)), (2.0, SPACE, shared)),
            ((block(SPACE), col(3), col(1)), (2.0, SPACE, shared)),
            ((block((de.V,)), col(3), col(1)), (2.0, (de.V,), shared)),
        ],
        "jet_leaky": [
            ((time_block, col(1)), (0.1, (de.V, de.T), ONE)),
            ((block(ALL_SLOTS), col(2)), (0.1, ALL_SLOTS, ONE)),
            ((block(SPACE), col(2), col(1)), (0.1, SPACE, ONE)),
            ((block((de.V,)),), (0.1, (de.V,), ONE)),
            ((block(SPACE, 12), col(6), col(1)), (0.1, SPACE, k3)),
            ((block(SPACE), col(6)), (0.1, SPACE, shared)),
        ],
        "jet_slot": [
            ((block(SPACE), col(2), col(1)), (SPACE, ONE, de.V, 0)),
            ((block(SPACE), col(2), col(1)), (SPACE, ONE, de.T, 0)),
            ((block(SPACE), col(2)), (SPACE, ONE, de.Y, 0)),
            ((block(ALL_SLOTS), col(2)), (ALL_SLOTS, ONE, de.T, 0)),
            ((block(ALL_SLOTS), col(1)), (ALL_SLOTS, ONE, de.ZT, 0)),
            # every time of a group, or one of them; of a shared block
            ((block(ALL_SLOTS, 12), col(6), col(1)), (ALL_SLOTS, k3, de.T, None)),
            ((block(ALL_SLOTS, 12), col(6), col(1)), (ALL_SLOTS, k3, de.V, 1)),
            ((block(SPACE, 12), col(3)), (SPACE, k3, de.X, 2)),
            ((block(SPACE), col(6), col(1)), (SPACE, shared, de.V, None)),
            ((block(SPACE), col(6), col(1)), (SPACE, shared, de.Y, 2)),
        ],
        # the output block alone, with and without the mixed slots; every
        # time of a group, one of them, and a shared block (depth 2)
        "jacobian": [
            ((block(SPACE),), read(SPACE)),
            ((block(ALL_SLOTS),), read(ALL_SLOTS)),
            ((block(ALL_SLOTS, 12),), read(ALL_SLOTS, k3, None)),
            ((block(SPACE),), read(SPACE, shared, 1)),
        ],
        "jacdet": [
            ((block(SPACE),), read(SPACE)),
            ((block(ALL_SLOTS),), read(ALL_SLOTS)),
            ((block(SPACE, 12),), read(SPACE, k3, None)),
            ((block(ALL_SLOTS, 12),), read(ALL_SLOTS, k3, 1)),
            ((block(SPACE),), read(SPACE, shared, None)),
        ],
        "jacdet_dt": [
            ((block(ALL_SLOTS),), read(ALL_SLOTS)),
            ((block(ALL_SLOTS, 12),), read(ALL_SLOTS, k3, None)),
            ((block(ALL_SLOTS, 12),), read(ALL_SLOTS, k3, 2)),
        ],
    }


def _fd_entries(rng, shape):
    """Every entry of an input of up to 1000; of a larger one, 8 random
    entries and 4 of its last row, the last point of the last slot, which
    a sine block's last piece holds."""
    size = int(np.prod(shape))
    if size <= 1000:
        return list(np.ndindex(shape))
    flat = np.concatenate([
        rng.choice(size, size=8, replace=False),
        rng.choice(np.arange(size - shape[-1], size), size=4, replace=False),
    ])
    return [np.unravel_index(i, shape) for i in flat]


@pytest.mark.parametrize("kind", sorted(de._PRIMITIVES))
def test_vjp_matches_finite_differences(kind):
    """<g, f(x)> differentiated by the reverse sweep against central
    differences, for every input of every kind in the primitive table.  The
    outputs are differenced before they are weighted and summed, so
    outputs an entry does not reach cancel exactly, however large the
    block."""
    rng = np.random.default_rng(41)
    cases = _vjp_cases(rng)
    assert sorted(cases) == sorted(de._PRIMITIVES), "one case list per kind, no stale kinds"

    def forward(values, payload):
        tape = Tape()
        return tape.record(kind, [tape.constant(v) for v in values], payload).value

    for values, payload in cases[kind]:
        g = rng.uniform(-1.0, 1.0, size=np.shape(forward(values, payload)))
        tape = Tape()
        leaves = [tape.leaf(v) for v in values]
        out = tape.record(kind, leaves, payload)
        tape.backward(tape.sum(tape.mul(out, tape.constant(g))))
        h = 1e-6
        for pos, leaf in enumerate(leaves):
            got = np.zeros_like(values[pos]) if leaf.adjoint is None else leaf.adjoint
            for idx in _fd_entries(rng, values[pos].shape):
                shifted = [v.copy() for v in values]
                shifted[pos][idx] += h
                up = forward(shifted, payload)
                shifted[pos][idx] -= 2 * h
                fd = np.sum(g * (up - forward(shifted, payload))) / (2 * h)
                np.testing.assert_allclose(got[idx], fd, rtol=1e-6, atol=1e-8)


def test_every_recorded_node_passes_through_record(monkeypatch):
    """Wrapping `Tape.record` sees every non-leaf node of a full training
    tape, with the kind as its second positional argument: a tracer that
    wraps it there counts the whole tape."""
    seen = []
    record = Tape.record

    @functools.wraps(record)
    def wrapper(*args, **kwargs):
        out = record(*args, **kwargs)
        assert args[1] == out.kind
        seen.append(out)
        return out

    monkeypatch.setattr(Tape, "record", wrapper)
    state = toy_state(seed=0, depth=3)
    weights = losses.LossWeights(lam=2.0, alpha=0.5, beta=0.5, gamma=0.3)
    tape = Tape()
    leaves = net.make_leaves(tape, state)
    total, breakdown = losses.build_total_loss(
        tape, leaves, tiny_series(0), weights, toy_plan(npts=5, k=4), state.config
    )
    assert breakdown.monotonic > 0.0
    passed = {id(n) for n in seen}
    non_leaf = [n for n in tape.nodes if n.kind != "leaf"]
    assert "sample3" in {n.kind for n in non_leaf}
    assert [n for n in non_leaf if id(n) not in passed] == []


def _tape_size_setup(depth=5, width=16, embed=8, points=32):
    """A width-16 net and a plan of 32 points over 4 observed times and an
    8-time grid."""
    rng = np.random.default_rng(3)
    base = rng.uniform(0, 1, size=(6, 6, 6))
    followups = [
        (m, Volume3D(np.clip(base + rng.uniform(-0.05, 0.05, base.shape), 0, 1)))
        for m in (12.0, 24.0, 36.0)
    ]
    series = Volume4DSeries(Volume3D(base), followups)
    cfg = net.NetworkConfig(
        hidden_width=width, depth=depth, time_hidden_width=10, time_embed_width=embed
    )
    state = net.init_network(seed=1, config=cfg)
    plan = SamplePlan(
        coords=rng.uniform(-0.8, 0.8, size=(3, points)),
        observed_times=np.array([0.0, 1 / 3, 2 / 3, 1.0]),
        reg_grid=np.linspace(0.0, 1.0, 8),
    )
    return series, state, plan


def test_stacked_jet_training_tape_size():
    """One node per layer jet of a time group and one per derivative
    product read: a depth-5, width-16 loss tape with gamma > 0 over 4
    observed times (one group) and an 8-time grid (one group of 8) stays
    within 120 nodes (120; 356 while each time was its own group, 381 while
    every trace also recorded |J|, the displacement and phi whether read or
    not; per-entry Jacobian, adjugate and Jacobi-sum nodes recorded 854,
    and a node per tangent slot 1533).  `Tape.stats` counts every recorded
    node and its value and aux bytes by kind."""
    series, state, plan = _tape_size_setup()
    tape = Tape()
    leaves = net.make_leaves(tape, state)
    losses.build_total_loss(
        tape, leaves, series, losses.LossWeights(gamma=0.1), plan, state.config
    )
    stats = tape.stats()
    assert stats["nodes"] == len(tape.nodes) <= 120
    assert sum(stats["bytes"].values()) == sum(
        n.value.nbytes + (0 if n.aux is None else n.aux.nbytes) for n in tape.nodes
    )
    sines = [n for n in tape.nodes if n.kind == "jet_sine"]
    assert any(n.aux is not None for n in sines)
    assert stats["bytes"]["jet_sine"] > sum(n.value.nbytes for n in sines)


def _loss_gradients(series, state, plan, weights):
    tape = Tape()
    leaves = net.make_leaves(tape, state)
    total, breakdown = losses.build_total_loss(tape, leaves, series, weights, plan, state.config)
    tape.backward(total)
    return leaves.grads(), breakdown, Counter(n.kind for n in tape.nodes)


@pytest.mark.parametrize("grid_times", [8, 4, 3])
def test_grouped_loss_gradients_match_one_time_groups(monkeypatch, grid_times):
    """The loss over time groups, the 8-time grid as one group of 8, two of
    4 or groups of 3, 3 and 2 (the 4 observed times one group), has the
    parameter gradients of one time per group to 1e-12 relative at f64
    with gamma > 0 (the groups sum their rows, their points and their
    times in another order), and the same loss terms to rounding."""
    series, state, plan = _tape_size_setup(depth=5)
    for w, b in state.psi + state.theta:
        w *= 2.0
        b[:] = np.random.default_rng(5).uniform(-0.2, 0.2, size=b.shape)
    weights = losses.LossWeights(lam=2.0, alpha=0.5, beta=0.5, gamma=3.0)
    one_time = 16 * 8 * 8 * 32  # width x slots x itemsize x points
    monkeypatch.setattr(net, "BLOCK_BYTES", grid_times * one_time)
    grouped, breakdown, kinds = _loss_gradients(series, state, plan, weights)
    assert kinds["jacdet_dt"] == -(-8 // grid_times)  # one read per group
    monkeypatch.setattr(net, "BLOCK_BYTES", 1)  # every time its own group
    single, want, single_kinds = _loss_gradients(series, state, plan, weights)
    assert single_kinds["jacdet_dt"] == 8
    assert single_kinds["jet_leaky"] == 2 * (4 + 8)  # two embedding rules per group
    assert breakdown.monotonic > 0.0
    for name in losses.LossBreakdown.FIELDS:
        assert getattr(breakdown, name) == pytest.approx(getattr(want, name), rel=1e-13, abs=0.0)
    for g, ref in zip(grouped, single):
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_training_time_groups_fill_block_bytes(monkeypatch):
    """A training trace puts as many times in a block as keep one
    hidden-layer block within BLOCK_BYTES: at the fit-narrow shape (width
    32, B=256, 512 KiB per time with every slot) the 8-time grid is 2
    groups of 4 and the 4 value-only observed times 1; at the paper's
    (width 256, B=128, 2 MiB per time) each grid time is its own group.
    No jet block the fit-narrow loss records exceeds BLOCK_BYTES."""
    full, value = net.DerivativeRequest(spatial=True, temporal=True), net.DerivativeRequest()
    narrow, paper = net.NetworkConfig(hidden_width=32, time_embed_width=16), net.NetworkConfig()
    assert net.group_times(narrow, full, 256, np.float64) == 4
    assert net.group_times(narrow, value, 256, np.float64) == 32
    assert net.group_times(paper, full, 128, np.float64) == 1
    assert net.group_times(paper, full, 128, np.float32) == 2
    sizes = []
    record = Tape.record

    def sized(self, kind, inputs, payload=None):
        out = record(self, kind, inputs, payload)
        if kind in ("affine", "jet_sine", "jet_leaky"):
            sizes.append(out.value.nbytes)
        return out

    monkeypatch.setattr(Tape, "record", sized)
    series, state, plan = _tape_size_setup(width=32, embed=16, points=256)
    _, _, kinds = _loss_gradients(series, state, plan, losses.LossWeights())
    assert kinds["jacdet_dt"] == kinds["jacobian"] == 2
    assert kinds["jet_slot"] == 4 + 2  # displacement at each observed time, dphi/dt per group
    assert max(sizes) == net.BLOCK_BYTES


@pytest.mark.parametrize("depth, weights", [
    pytest.param(5, losses.LossWeights(), id="5"),
    pytest.param(2, losses.LossWeights(), id="2"),
    pytest.param(5, losses.LossWeights(lam=0.0), id="5-lam0"),
])
def test_every_training_tape_node_reaches_the_total(depth, weights):
    """The loss tape records no product it does not read: every node is an
    input, directly or not, of the total.  With lam = 0 that leaves out the
    trace at t = 0 and the anchor, which is reported as 0."""
    series, state, plan = _tape_size_setup(depth)
    tape = Tape()
    leaves = net.make_leaves(tape, state)
    total, breakdown = losses.build_total_loss(
        tape, leaves, series, weights, plan, state.config
    )
    assert (breakdown.zero_anchor == 0.0) == (weights.lam == 0.0)
    reached, stack = {total.idx}, [total]
    while stack:
        for n in stack.pop().inputs:
            if n.idx is not None and n.idx not in reached:
                reached.add(n.idx)
                stack.append(n)
    assert [n for n in tape.nodes if n.idx not in reached] == []
