"""Engine tests: primitive semantics, tangent exactness against central
finite differences, and reverse-mode gradients against the same oracle."""

import functools
import itertools
from collections import Counter
import tracemalloc
import warnings

import numpy as np
import pytest

from ndfreg import diffengine as de, losses, network as net, trainer
from ndfreg.diffengine import Tape
from ndfreg.gradcheck import _monotonic_rates
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


def read(slots, times=ONE):
    """The payload of an output-block product of a block of `times`."""
    return (slots, times)


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


def output_jet(block, payload):
    """The jet of an output block and its payload's slots and times."""
    slots, (kb, k) = payload
    return de.Jet(Tape().constant(block), slots, times=k, block_times=kb)


def test_record_det3_of_identity():
    block, payload = output_block(np.zeros((3, 3, 1)))
    assert de.jacdet(output_jet(block, payload)).item() == 1.0


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
    out = t1.sum_squares(t1.leaf(np.ones(2)))
    with pytest.raises(de.DiffEngineError, match="different tape"):
        t2.backward(out)


def test_det3_matches_permutation_oracle():
    """|I + J| of a 200-point block against the permutation expansion of
    each point's matrix I + J."""
    rng = np.random.default_rng(7)
    jac = rng.uniform(-1, 1, size=(3, 3, 200)) - np.eye(3)[:, :, None]
    block, payload = output_block(jac)
    (got,) = de.jacdet(output_jet(block, payload))
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
    return de.jet_slot(tape, jet, (s,)).value


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


def _sine_vjp_peak(layer):
    """The reverse rule of a slotted sine at the fit-narrow segment's shape
    (width 32, K = 8 grid times of 64 points, every slot): the node, the
    bytes of one (K, P, rows) panel, the cotangent it was handed, what it
    yields and the bytes it allocates at its peak (tracemalloc)."""
    cfg = net.NetworkConfig(hidden_width=32, depth=5, time_hidden_width=10, time_embed_width=16)
    state = net.init_network(seed=1, config=cfg)
    coords = np.random.default_rng(0).uniform(-1, 1, size=(3, 64))
    full = net.DerivativeRequest(spatial=True, temporal=True)
    tape = Tape()
    leaves = net.make_leaves(tape, state)
    net.trace_network(tape, leaves, coords, np.linspace(0.1, 0.9, 8), cfg, full)
    node = [n for n in tape.nodes if n.kind == "jet_sine"][layer - 1]
    g = np.random.default_rng(1).standard_normal(node.value.shape)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        grads = list(de._PRIMITIVES["jet_sine"].vjp(node, g))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert grads[0][1].shape == node.inputs[0].value.shape
    return node, 8 * 64 * 32 * 8, g, grads, peak - before


# slack of a sine VJP's peak: numpy's ufunc buffers and the (K, rows)
# column-term sums, which do not grow with the block (12-74 KB measured)
_VJP_SLACK = 96 << 10


def test_shared_block_sine_vjp_holds_four_scratch_panels():
    """Layer 2's block is one time shared by the K = 8 times and has no t
    slot: its rule writes its input cotangent over the leading slots of the
    one it is handed, and allocates only their sum over the times and at
    most four scratch panels."""
    node, panel, _, _, peak = _sine_vjp_peak(2)
    _, slots, (kb, k) = node.payload
    assert (kb, k) == (1, 8) and de.T not in slots
    summed = node.inputs[0].value.nbytes  # the shared block's cotangent
    assert peak <= 4 * panel + summed + _VJP_SLACK


def test_in_place_sine_vjp_holds_four_scratch_panels():
    """Layer 3's block has its output's 8 slots at the K = 8 times, and a t
    column term whose folded sum is never kept: its input cotangent
    overwrites the cotangent it is handed, so it allocates no block, only
    at most four scratch panels."""
    node, panel, g, grads, peak = _sine_vjp_peak(3)
    _, slots, (kb, k) = node.payload
    assert (kb, k) == (8, 8) and slots == ALL_SLOTS
    assert grads[0][1] is g
    assert peak <= 4 * panel + _VJP_SLACK


def test_embedding_leaky_vjp_yields_its_cotangent():
    """Both leaky rules of the time embedding keep their input's slots v, t
    at its one block time: each writes its input cotangent, every slot
    times the slope mask, over the one it is handed and yields that
    array."""
    cfg = net.NetworkConfig(hidden_width=8, depth=3, time_hidden_width=6, time_embed_width=4)
    tape = Tape()
    leaves = net.make_leaves(tape, net.init_network(seed=1, config=cfg))
    net.trace_network(tape, leaves, np.zeros((3, 5)), [0.2, 0.7], cfg,
                      net.DerivativeRequest(spatial=True, temporal=True))
    leaky = [n for n in tape.nodes if n.kind == "jet_leaky"]
    assert len(leaky) == 2
    for node in leaky:
        assert node.payload[1:] == ((de.V, de.T), ONE)
        g = np.random.default_rng(2).standard_normal(node.value.shape)
        mask = np.where(node.value[: len(g) // 2] >= 0.0, 1.0, cfg.leaky_slope)
        want = g * np.concatenate([mask, mask])
        grads = list(de._PRIMITIVES["jet_leaky"].vjp(node, g))
        assert grads[0][1] is g
        np.testing.assert_array_equal(g, want)


@pytest.mark.parametrize("kind, parameter", [("jet_sine", 2.0), ("jet_leaky", 0.1)])
@pytest.mark.parametrize("slots", [(de.V, de.T, de.X), (de.V, de.X, de.XT)])
def test_rules_refuse_slots_a_rule_would_add_before(kind, parameter, slots):
    """Slots out of order, or a mixed slot without t (a t column would
    insert t before it), are refused by name: a rule writes its input
    cotangent over its output's leading slots."""
    tape = Tape()
    block = tape.leaf(np.ones((3 * 2, 4)))
    with pytest.raises(de.DiffEngineError, match=f"{kind}: slots"):
        tape.record(kind, (block,), (parameter, slots, ONE))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_one_time_trace_sweeps_like_an_allocating_sweep(dtype):
    """A trainable trace of one time (K = 1): layer 2's sine, whose input
    has slots v, x, y, z alone, yields a view of the leading slots of its
    cotangent, and the sweep's gradients equal an allocating sweep's bit
    for bit."""
    cfg = net.NetworkConfig(hidden_width=16, depth=5, time_hidden_width=6, time_embed_width=8)
    coords = np.random.default_rng(4).uniform(-1, 1, size=(3, 24))
    tape = Tape(dtype)
    leaves = net.make_leaves(tape, net.init_network(seed=3, config=cfg))
    (out,) = net.trace_network(tape, leaves, coords, [0.3], cfg,
                               net.DerivativeRequest(spatial=True, temporal=True))
    layer2 = [n for n in tape.nodes if n.kind == "jet_sine"][1]
    assert layer2.payload[1:] == (SPACE, ONE) and len(layer2.value) == 8 * 24
    terms = [net.displacement(tape, out), net.dphi_dt(tape, out), net.jacobian(tape, out),
             de.jacdet_dt(tape, out)]
    total = functools.reduce(tape.add, [tape.sum_squares(t) for t in terms])
    want = _allocating_grads(tape, total)
    leaf_nodes = [n for n in tape.nodes if n.kind == "leaf"]
    tape.backward(total)
    assert all(w is not None for w in want)
    for leaf, ref in zip(leaf_nodes, want):
        np.testing.assert_array_equal(leaf.adjoint, ref)


def test_affine_vjp_allocates_no_weight_sized_array():
    """A paper-width hidden layer's (256, 320) weight: the VJP of its
    product with a (16, 256) block (columns 0:256) or with a (16, 64)
    embedding (columns 256:320) yields the product of those columns
    alone, allocating less than the weight's bytes in all."""
    rng = np.random.default_rng(5)
    tape = Tape()
    w = tape.leaf(rng.uniform(-1, 1, size=(256, 320)))
    for lo, hi in ((0, 256), (256, 320)):
        x = tape.leaf(rng.uniform(-1, 1, size=(16, hi - lo)))
        out = tape.affine(w, x, cols=(lo, hi))
        g = rng.uniform(-1, 1, size=out.value.shape)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            grads = list(de._PRIMITIVES["affine"].vjp(out, g))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slab = grads[0][1]
        assert isinstance(slab, de.Slab) and slab.lo == lo
        np.testing.assert_array_equal(slab.value, g.T @ x.value)
        assert peak - before < w.value.nbytes


def _allocating_grads(tape, output):
    """The leaves' gradients of `output` by a reverse sweep that hands every
    VJP a copy of its cotangent, expands every slab to its weight's shape
    and sums into new arrays, in the order `Tape.backward` sums."""
    adj = {output.idx: np.ones((), tape.dtype)}
    for node in reversed(tape.nodes):
        g = adj.get(node.idx)
        if node.kind == "leaf" or g is None:
            continue
        for pos, grad in de._PRIMITIVES[node.kind].vjp(node, g.copy()):
            target = node.inputs[pos]
            if target.idx is None:
                continue
            if isinstance(grad, de.Slab):
                full = np.zeros_like(target.value)
                full[:, grad.lo : grad.lo + grad.value.shape[1]] = grad.value
                grad = full
            adj[target.idx] = grad.copy() if target.idx not in adj else adj[target.idx] + grad
    return [adj.get(n.idx) for n in tape.nodes if n.kind == "leaf"]


def test_aliased_cotangents_sweep_like_an_allocating_sweep():
    """One array reaches two recorded inputs: `add` yields its cotangent to
    two sines of one layout, each of which writes its input cotangent over
    the one it is handed, and one weight (and one bias) feeds both through
    two affines on disjoint columns.  The leaves' gradients match central
    differences and equal an allocating sweep's bit for bit."""
    rng = np.random.default_rng(9)
    blocks = [point_major(rng.uniform(-1, 1, size=(4, 8, 5))) for _ in range(2)]
    w0 = rng.uniform(-1, 1, size=(3, 8))
    b0 = rng.uniform(-0.2, 0.2, size=(1, 3))

    def build(mk):
        tape = Tape()
        w, b = mk(tape, w0), mk(tape, b0)
        sines = [
            tape.record("jet_sine", (tape.affine(w, tape.constant(x), cols=(4 * i, 4 * i + 4)), b),
                        (2.0, ALL_SLOTS, ONE))
            for i, x in enumerate(blocks)
        ]
        return tape, (w, b), tape.sum_squares(tape.add(*sines))

    def loss(wv, bv):
        return float(build(lambda t, v: t.constant(wv if v is w0 else bv))[2].value)

    tape, leaves, out = build(Tape.leaf)
    assert [n.kind for n in tape.nodes].count("jet_sine") == 2
    want = _allocating_grads(tape, out)
    tape.backward(out)
    for leaf, ref in zip(leaves, want):
        np.testing.assert_array_equal(leaf.adjoint, ref)
    h = 1e-6
    for pos, base in enumerate((w0, b0)):
        for idx in np.ndindex(base.shape):
            up, down = w0.copy(), b0.copy()
            (up, down)[pos][idx] += h
            plus = loss(up, down)
            (up, down)[pos][idx] -= 2 * h
            fd = (plus - loss(up, down)) / (2 * h)
            np.testing.assert_allclose(leaves[pos].adjoint[idx], fd, rtol=1e-6, atol=1e-8)


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


def test_constant_bundle_zero_tangents():
    """A value-only jet stays value-only through every rule: its tangents
    are structurally zero and no slot holds them; a read of them, or of no
    slot, is refused."""
    tape = Tape()
    b = de.Jet(tape.constant(np.ones((2, 3))), (de.V,))
    w = tape.constant(np.ones((2, 3)))
    for out in (de.bundle_sine(tape, b), de.bundle_leaky(tape, b, 0.1), de.bundle_affine(tape, w, b)):
        assert out.slots == out.folded_slots == (de.V,)
    for d in (de.X, de.Y, de.Z, de.T, de.XT, de.YT, de.ZT):
        with pytest.raises(de.DiffEngineError, match="not in"):
            slot(tape, b, d)
    with pytest.raises(de.DiffEngineError, match=r"slots \(\) not in"):
        de.jet_slot(tape, b, ())


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
    # d/dx of (leaky(x) + 0.5)^2 at 0 is the slope taken there
    y = de.bundle_leaky(tape, de.Jet(x, (de.V,)), 0.01).node
    tape.backward(tape.sum_squares(tape.add(y, tape.constant([[0.5]]))))
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
        y = tape.sum_squares(de.bundle_sine(tape, de.bundle_affine(tape, w, x), 2.0).node)
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
    out = tape.sum_squares(p)
    tape.backward(out)
    np.testing.assert_array_equal(p.adjoint, [2.0, 4.0, 6.0])


def test_backward_requires_scalar():
    tape = Tape()
    p = tape.leaf(np.ones(3))
    with pytest.raises(de.DiffEngineError, match="scalar"):
        tape.backward(tape.scale(p, 2.0))


@pytest.mark.parametrize("seed", range(5))
def test_backward_composite_matches_fd(seed):
    rng = np.random.default_rng(seed)
    p0 = rng.uniform(-1, 1, size=(3, 3))
    fixed = rng.uniform(-1, 1, size=3)

    # one point of every slot: J = p and dJ/dt = p @ r
    basis = np.concatenate(
        [np.ones((3, 1)), np.eye(3), np.ones((3, 1)), rng.uniform(-1, 1, size=(3, 3))], axis=1
    )

    # a trilinear grid: trilinear samples of it are smooth across cell faces
    u = np.linspace(-1.0, 1.0, 6)
    grid = 0.5 + 0.3 * u[:, None, None] + 0.2 * np.multiply.outer(u, u)[None] - 0.1 * u

    def value_and_grad(p):
        tape = Tape()
        leaf = tape.leaf(p)
        block = tape.affine(leaf, tape.constant(basis.T))
        jac = tape.record("jet_slot", (block,), (ALL_SLOTS, ONE, de.SPATIAL, None))
        # mix jet_slot, jacdet_dt, sample3, ncc, monotonic, scale and
        # sum_squares paths
        val = tape.record("jet_slot", (block,), (ALL_SLOTS, ONE, (de.V,), None))
        djdt = tape.record("jacdet_dt", (block,), read(ALL_SLOTS))
        mix = tape.add(tape.sum_squares(jac), tape.scale(tape.sum_squares(val, 2), -0.5))
        sim = tape.record("ncc", (tape.sample3(grid, jac),), fixed)
        mono = tape.record("monotonic", (val, djdt, tape.scale(djdt, -2.0)), None)
        out = tape.add(tape.add(mix, sim), mono)
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
    grid = rng.uniform(0.0, 1.0, size=(6, 6, 6))
    return {
        "add": [((a, b), None)],
        "scale": [((a,), -1.7)],
        "sum_squares": [((a,), None), ((a,), 7)],
        # one group of 4 times; three of 2, 3 and 1, over a batch of 9
        "monotonic": [
            (tuple(_monotonic_rates(rng, (4,), 5)), None),
            (tuple(_monotonic_rates(rng, (2, 3, 1), 5)), 9),
        ],
        "affine": [
            ((rng.uniform(-1, 1, (4, 3)), a.T), None),
            ((rng.uniform(-1, 1, (4, 6)), a.T), (2, 5)),
        ],
        "sample3": [((np.stack([_sample_points(rng, 7, 6) for _ in range(3)]),), grid)],
        # warped values against fixed ones
        "ncc": [((rng.uniform(0.0, 1.0, size=9),), rng.uniform(0.0, 1.0, size=9))],
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
            ((block(SPACE), col(2), col(1)), (SPACE, ONE, (de.V,), 0)),
            ((block(SPACE), col(2), col(1)), (SPACE, ONE, (de.T,), 0)),
            ((block(SPACE), col(2)), (SPACE, ONE, (de.Y,), 0)),
            ((block(ALL_SLOTS), col(2)), (ALL_SLOTS, ONE, (de.T,), 0)),
            ((block(ALL_SLOTS), col(1)), (ALL_SLOTS, ONE, (de.ZT,), 0)),
            # every time of a group, or one of them; of a shared block
            ((block(ALL_SLOTS, 12), col(6), col(1)), (ALL_SLOTS, k3, (de.T,), None)),
            ((block(ALL_SLOTS, 12), col(6), col(1)), (ALL_SLOTS, k3, (de.V,), 1)),
            ((block(SPACE, 12), col(3)), (SPACE, k3, (de.X,), 2)),
            ((block(SPACE), col(6), col(1)), (SPACE, shared, (de.V,), None)),
            ((block(SPACE), col(6), col(1)), (SPACE, shared, (de.Y,), 2)),
            # slots v and t with the spatial ones, of every time and of one
            ((block(SPACE), col(6), col(1)), (SPACE, shared, (de.V, de.X, de.T), None)),
            ((block(ALL_SLOTS, 12), col(6)), (ALL_SLOTS, k3, (de.T, de.ZT, de.V), 2)),
        ],
        # J, the spatial slots of an output block: a group of one time, of
        # three, a shared block (depth 2) and a single time
        "jacobian": [
            ((block(SPACE), col(1)), (SPACE, ONE, de.SPATIAL, None)),
            ((block(ALL_SLOTS, 12), col(6), col(1)), (ALL_SLOTS, k3, de.SPATIAL, None)),
            ((block(SPACE), col(3), col(1)), (SPACE, shared, de.SPATIAL, None)),
            ((block(ALL_SLOTS, 12), col(6)), (ALL_SLOTS, k3, de.SPATIAL, 1)),
        ],
        "jacdet_dt": [
            ((block(ALL_SLOTS),), read(ALL_SLOTS)),
            ((block(ALL_SLOTS, 12),), read(ALL_SLOTS, k3)),
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


# case lists named apart from the kind that records them: J is a jet_slot read
_CASE_KINDS = {"jacobian": "jet_slot"}


@pytest.mark.parametrize("case", sorted([*de._PRIMITIVES, *_CASE_KINDS]))
def test_vjp_matches_finite_differences(case):
    """<g, f(x)> differentiated by the kind's VJP, called with a copy of the
    random cotangent g (a VJP may overwrite its own), against central
    differences, for every input of every kind in the primitive table; a
    weight's `Slab` is expanded into the weight's shape.  The outputs are
    differenced before they are weighted and summed, so outputs an entry
    does not reach cancel exactly, however large the block."""
    rng = np.random.default_rng(41)
    cases = _vjp_cases(rng)
    assert sorted(cases) == sorted([*de._PRIMITIVES, *_CASE_KINDS]), (
        "one case list per kind, no stale kinds"
    )
    assert set(_CASE_KINDS.values()) <= set(de._PRIMITIVES)
    kind = _CASE_KINDS.get(case, case)

    def forward(values, payload):
        tape = Tape()
        return tape.record(kind, [tape.constant(v) for v in values], payload).value

    for values, payload in cases[case]:
        g = rng.uniform(-1.0, 1.0, size=np.shape(forward(values, payload)))
        tape = Tape()
        out = tape.record(kind, [tape.leaf(v) for v in values], payload)
        grads = [np.zeros_like(v) for v in values]
        for pos, grad in de._PRIMITIVES[kind].vjp(out, g.copy()):
            if isinstance(grad, de.Slab):
                grads[pos][:, grad.lo : grad.lo + grad.value.shape[1]] += grad.value
            else:
                grads[pos] += grad
        h = 1e-6
        for pos, got in enumerate(grads):
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


def test_every_primitive_serves_training(monkeypatch):
    """One fit step (`segment_gradients`, depth 3, f64, every loss weight
    > 0) records every kind of the primitive table with at least one
    recorded input, so every VJP runs in a fit: a product no loss
    differentiates is a value read, not a kind."""
    served = set()
    record = Tape.record

    def wrapper(self, kind, inputs, payload=None):
        out = record(self, kind, inputs, payload)
        if any(n.idx is not None for n in inputs):
            served.add(kind)
        return out

    monkeypatch.setattr(Tape, "record", wrapper)
    state = toy_state(seed=0, depth=3)
    weights = losses.LossWeights(lam=2.0, alpha=0.5, beta=0.5, gamma=0.3)
    tape = Tape()
    leaves = net.make_leaves(tape, state)
    breakdown, _ = trainer.segment_gradients(
        tape, leaves, tiny_series(0), weights, toy_plan(npts=5, k=4), state.config
    )
    assert min(breakdown.zero_anchor, breakdown.spatial, breakdown.temporal,
               breakdown.monotonic) > 0.0
    assert sorted(set(de._PRIMITIVES) - served) == []


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
    kinds = Counter(n.kind for n in tape.nodes)  # the sweep releases all but the leaves
    tape.backward(total)
    return leaves.grads(), breakdown, kinds


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
    monkeypatch.setattr(net, "CHUNK_BYTES", grid_times * one_time)
    grouped, breakdown, kinds = _loss_gradients(series, state, plan, weights)
    assert kinds["jacdet_dt"] == -(-8 // grid_times)  # one read per group
    monkeypatch.setattr(net, "CHUNK_BYTES", 1)  # every time its own group
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
    hidden-layer block within CHUNK_BYTES (1 MiB), the `chunk_points`
    rule with points and times swapped: over the fit-narrow batch (width
    32, B=256, 512 KiB per time with every slot) the 8-time grid is 4
    groups of 2 and the 4 value-only observed times 1; over the paper's
    (width 256, B=128, 2 MiB per time at f64, 1 MiB at f32) each grid time
    is its own group.  No jet block the fit-narrow loss records exceeds
    CHUNK_BYTES."""
    full, value = net.DerivativeRequest(spatial=True, temporal=True), net.DerivativeRequest()
    narrow, paper = net.NetworkConfig(hidden_width=32, time_embed_width=16), net.NetworkConfig()
    assert net.CHUNK_BYTES == 1 << 20
    assert net.chunk_points(narrow, full, np.float64, 256) == 2
    assert net.chunk_points(narrow, value, np.float64, 256) == 16
    assert net.chunk_points(paper, full, np.float64, 128) == 1
    assert net.chunk_points(paper, full, np.float32, 128) == 1
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
    assert kinds["jacdet_dt"] == 4
    # displacement at each observed time, J and dphi/dt per group
    assert kinds["jet_slot"] == 4 + 4 + 4
    assert max(sizes) == net.CHUNK_BYTES


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
