"""Network tests: initialization scheme, the architecture contract, and
finite-difference verification of every analytic derivative product."""

import numpy as np
import pytest

from ndfreg import diffengine as de, network as net
from ndfreg.diffengine import Tape

from test_losses import oracle_embed
from test_metrics import uniform_scaling_field

TOY = net.NetworkConfig(hidden_width=8, depth=5, time_hidden_width=6, time_embed_width=12)
FULL_REQ = net.DerivativeRequest(spatial=True, temporal=True)


def toy_state(seed=1, amplify=3.0, config=TOY):
    state = net.init_network(seed=seed, config=config)
    for w, _ in state.psi + state.theta:
        w *= amplify  # push displacements to O(0.1) so FD ratios are stable
    return state


def traced(state, coords, times, request=FULL_REQ):
    """J of phi (identity included), (3,3,B), and dphi/dt, (3,B), at each
    of `times`, read off one trace by `network.jacobian` and `dphi_dt`."""
    tape = Tape()
    leaves = net.make_leaves(tape, state, trainable=False)
    out = []
    for tr in net.trace_network(tape, leaves, coords, times, state.config, request):
        jac = net.jacobian(tape, tr).value.reshape(3, 3, -1)
        jac[range(3), range(3)] += 1.0
        out.append((jac, net.dphi_dt(tape, tr).value))
    return out


def zero_state(config=TOY):
    state = net.init_network(seed=0, config=config)
    for w, b in state.psi:
        w[:] = 0.0
        b[:] = 0.0
    return state


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_deterministic():
    a = net.init_network(seed=42, config=TOY)
    b = net.init_network(seed=42, config=TOY)
    for x, y in zip(a.param_arrays(), b.param_arrays()):
        assert x.tobytes() == y.tobytes()


def test_init_first_layer_bounds():
    cfg = net.NetworkConfig(hidden_width=64, depth=5)
    draws = []
    for seed in range(60):
        draws.append(net.init_network(seed=seed, config=cfg).psi[0][0].ravel())
    w = np.concatenate(draws)
    assert w.size > 10_000
    assert np.abs(w).max() <= 1.0 / 3.0
    assert np.abs(w).max() > 0.3  # actually fills the range


def test_init_hidden_layer_bounds_and_zero_biases():
    cfg = net.NetworkConfig(hidden_width=16, depth=5, omega0=30.0)
    state = net.init_network(seed=0, config=cfg)
    bound = np.sqrt(6.0 / (16 + 64)) / 30.0
    for w, b in state.psi[1:]:
        assert np.abs(w).max() <= bound
        assert np.all(b == 0.0)
    assert np.abs(state.theta[0][0]).max() <= np.sqrt(6.0)
    assert np.abs(state.theta[1][0]).max() <= np.sqrt(6.0 / cfg.time_hidden_width)


def test_fresh_network_small_displacement_at_t0():
    rng = np.random.default_rng(0)
    coords = rng.uniform(-1, 1, size=(3, 1000))
    norms = []
    for seed in range(5):
        state = net.init_network(seed=seed, config=net.NetworkConfig(hidden_width=32))
        disp = net.forward(state, coords, 0.0).displacement
        norms.append(np.linalg.norm(disp, axis=0).mean())
    assert max(norms) < 0.1


def test_init_validation():
    with pytest.raises(ValueError, match="hidden_width"):
        net.init_network(config=net.NetworkConfig(hidden_width=1))
    with pytest.raises(ValueError, match="omega0"):
        net.init_network(config=net.NetworkConfig(omega0=0.0))


# ---------------------------------------------------------------------------
# time embedding
# ---------------------------------------------------------------------------


def taped_embed(state, ts):
    """Embedding and its d/dt at each time of `ts`, (width, len(ts)) each,
    through the taped time sub-network."""
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    tape = Tape()
    leaves = net.make_leaves(tape, state, trainable=False)
    tb = de.Jet(tape.constant(np.concatenate([ts, np.ones_like(ts)])[None]), (de.V, de.T))
    eb = net._trace_time_embed(tape, leaves.theta, tb, state.config)
    return tuple(de.jet_slot(tape, eb, s).value for s in (de.V, de.T))


def test_time_embed_zero_theta_is_zero():
    state = toy_state()
    for w, b in state.theta:
        w[:] = 0.0
        b[:] = 0.0
    value, _ = taped_embed(state, 0.7)
    assert np.all(value == 0.0)


def test_time_embed_width_and_continuity():
    state = toy_state(seed=5)
    ts = np.linspace(-0.2, 1.4, 400)
    vals, _ = taped_embed(state, ts)
    assert vals.shape[0] == TOY.time_embed_width
    steps = np.abs(np.diff(vals, axis=1)).max()
    assert steps < 0.2  # dense sweep: no jumps beyond the Lipschitz scale


def test_time_embed_tangent_matches_fd():
    state = toy_state(seed=7)
    h = 1e-6
    for t in (0.13, 0.57, 0.94):
        expect, _ = oracle_embed(state, t)
        fd = (oracle_embed(state, t + h)[0] - oracle_embed(state, t - h)[0]) / (2 * h)
        value, tangent = taped_embed(state, t)
        np.testing.assert_allclose(value, expect, rtol=1e-12)
        rel = np.abs(tangent - fd) / np.maximum(np.abs(fd), 1e-9)
        assert rel.max() < 1e-6


def test_time_embed_output_activation_flag():
    cfg = net.NetworkConfig(
        hidden_width=8, time_hidden_width=4, time_embed_width=6,
        time_embed_output_leaky=False,
    )
    state = net.init_network(seed=3, config=cfg)
    e, _ = taped_embed(state, 0.4)
    (w1, b1), (w2, b2) = state.theta
    z = w1 @ np.array([[0.4]]) + b1
    hidden = np.where(z >= 0, z, cfg.leaky_slope * z)
    np.testing.assert_allclose(e, w2 @ hidden + b2)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_zero_network_identity():
    state = zero_state()
    rng = np.random.default_rng(1)
    coords = rng.uniform(-1, 1, size=(3, 64))
    res = net.forward_with_derivatives(state, coords, 0.6, FULL_REQ)
    ((jac, dphi),) = traced(state, coords, [0.6])
    assert np.all(res.displacement == 0.0)
    np.testing.assert_array_equal(res.phi, coords)
    expect_j = np.repeat(np.eye(3)[:, :, None], 64, axis=2)
    np.testing.assert_array_equal(jac, expect_j)
    assert np.all(res.jac_det == 1.0)
    assert np.all(dphi == 0.0)
    assert np.all(res.jac_det_dt == 0.0)


def test_forward_pure():
    state = toy_state(seed=9)
    coords = np.random.default_rng(2).uniform(-1, 1, size=(3, 17))
    a = net.forward(state, coords, 0.3).displacement
    b = net.forward(state, coords, 0.3).displacement
    assert a.tobytes() == b.tobytes()


def test_chunked_evaluation_matches_one_pass():
    state = toy_state(seed=4)
    coords = np.random.default_rng(5).uniform(-1, 1, size=(3, 23))
    whole = net.forward_with_derivatives(state, coords, 0.6, FULL_REQ)
    chunked = net.forward_with_derivatives(state, coords, 0.6, FULL_REQ, chunk_size=5)
    for name in ("displacement", "jac_det", "jac_det_dt"):
        assert getattr(whole, name).tobytes() == getattr(chunked, name).tobytes()
    # J and dphi/dt, read off traces of 5-point pieces
    ((whole_j, whole_dt),) = traced(state, coords, [0.6])
    pieces = [traced(state, coords[:, lo : lo + 5], [0.6])[0] for lo in range(0, 23, 5)]
    for k, want in enumerate((whole_j, whole_dt)):
        assert np.concatenate([p[k] for p in pieces], axis=-1).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="chunk_size"):
        net.forward_with_derivatives(state, coords, 0.6, FULL_REQ, chunk_size=0)


def test_times_sequence_matches_separate_calls_bit_for_bit():
    state = toy_state(seed=6)
    coords = np.random.default_rng(7).uniform(-1, 1, size=(3, 23))
    times = [0.0, 0.35, 0.8, 1.2]
    shared = net.forward_with_derivatives(state, coords, times, FULL_REQ, chunk_size=5)
    shared_j = traced(state, coords, times)
    assert len(shared) == len(times)
    for t, got, (got_j, _) in zip(times, shared, shared_j):
        want = net.forward_with_derivatives(state, coords, t, FULL_REQ, chunk_size=5)
        for name in ("displacement", "jac_det", "jac_det_dt"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got_j.tobytes() == traced(state, coords, [t])[0][0].tobytes()


def test_empty_coordinate_block_gives_empty_products():
    state = toy_state(seed=6)
    empty = np.zeros((3, 0))
    for request, names in (
        (net.DerivativeRequest(), ("displacement",)),
        (net.DerivativeRequest(spatial=True), ("displacement", "jac_det")),
        (FULL_REQ, ("displacement", "jac_det", "jac_det_dt")),
    ):
        results = net.forward_with_derivatives(state, empty, [0.0, 0.5, 1.0], request)
        assert len(results) == 3
        for res in results:
            for name in ("displacement", "jac_det", "jac_det_dt"):
                value = getattr(res, name)
                if name not in names:
                    assert value is None
                    continue
                assert value.shape == ((3, 0) if name == "displacement" else (0,))
                assert value.dtype == np.float64


def test_chunk_memory_is_the_prefix_and_two_blocks():
    """The traced peak of a spatial and temporal evaluation over 3 chunks
    and 2 times stays below its products plus 3.5 blocks, a block being one
    chunk's 8-slot hidden layer (width x 8 x chunk points x 8 bytes).

    A chunk holds the prefix (4 slots: half a block), one rule's input and
    output, and the sine rule's scratch of four (width, chunk) arrays (half
    a block): 3.16 blocks measured.  An evaluation that keeps the previous
    layer's activation alive through the rule, holds every product twice
    and also returns J and dphi/dt at full size measured 4.17 blocks."""
    import tracemalloc

    cfg = net.NetworkConfig(hidden_width=64, depth=5, time_hidden_width=6, time_embed_width=8)
    state = net.init_network(seed=2, config=cfg)
    coords = np.random.default_rng(0).uniform(-1, 1, size=(3, 700))
    times = [0.2, 0.7]
    net.forward_with_derivatives(state, coords, times, FULL_REQ, chunk_size=256)
    tracemalloc.start()
    try:
        net.forward_with_derivatives(state, coords, times, FULL_REQ, chunk_size=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    products = len(times) * (3 + 1 + 1) * coords.shape[1] * 8
    block = cfg.hidden_width * 8 * 256 * 8
    assert peak < products + 3.5 * block


def _jet_arrays(jet):
    """The output jet's block and column terms: every value, tangent and
    mixed entry it carries."""
    return [jet.slots] + [n.value for n in jet.inputs()]


READERS = (net.displacement, net.phi, net.jacobian, net.jacdet, net.jacdet_dt, net.dphi_dt)


def _trace_scalar(tape, tr):
    """A scalar that reaches every product of one time."""
    total = None
    for read in READERS:
        s = tape.sum(tape.square(read(tape, tr)))
        total = s if total is None else tape.add(total, s)
    return total


def test_trace_network_shares_prefix_exactly():
    """One trace over 8 times equals 8 one-time traces on separate tapes:
    every value, tangent and mixed entry bit for bit, and the leaf
    gradients of a scalar built from them to rounding (the shared prefix
    sums its adjoints in another order)."""
    cfg = net.NetworkConfig(hidden_width=8, depth=5, time_hidden_width=6, time_embed_width=12)
    state = toy_state(seed=3, config=cfg)
    coords = np.random.default_rng(8).uniform(-1, 1, size=(3, 11))
    times = np.linspace(0.0, 1.4, 8)

    tape = Tape()
    leaves = net.make_leaves(tape, state)
    traces = net.trace_network(tape, leaves, coords, times, cfg, FULL_REQ)
    assert len(traces) == len(times)
    total = None
    for tr in traces:
        s = _trace_scalar(tape, tr)
        total = s if total is None else tape.add(total, s)
    tape.backward(total)
    shared_grads = [l.adjoint for l in leaves.flat()]

    sep_grads = [np.zeros_like(p) for p in state.param_arrays()]
    for t, got in zip(times, traces):
        one = Tape()
        one_leaves = net.make_leaves(one, state)
        (want,) = net.trace_network(one, one_leaves, coords, [t], cfg, FULL_REQ)
        got_arrays, want_arrays = _jet_arrays(got.output), _jet_arrays(want.output)
        assert got_arrays[0] == want_arrays[0] and len(got_arrays) == len(want_arrays)
        for a, b in zip(got_arrays[1:], want_arrays[1:]):
            assert a.tobytes() == b.tobytes()
        for read in READERS:
            assert read(tape, got).value.tobytes() == read(one, want).value.tobytes()
        one.backward(_trace_scalar(one, want))
        for acc, l in zip(sep_grads, one_leaves.flat()):
            acc += l.adjoint
    for g, ref in zip(shared_grads, sep_grads):
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_output_interval_bound():
    # unit-row last layer: |disp_i| <= sum|W5 row| * max|input| + |b|
    state = toy_state(seed=11)
    w5, b5 = state.psi[-1]
    w5[:] = 1.0
    b5[:] = 0.25
    coords = np.random.default_rng(3).uniform(-1, 1, size=(3, 200))
    # interval oracle: sine activations lie in [-1,1]; embedding bounded by
    # interval propagation of the two leaky layers from t in [0, 1.5]
    (w1, b1), (w2, b2) = state.theta
    lo1 = np.minimum(w1 * 0.0, w1 * 1.5) + b1
    hi1 = np.maximum(w1 * 0.0, w1 * 1.5) + b1
    slope = state.config.leaky_slope
    lo1 = np.where(lo1 >= 0, lo1, slope * lo1)
    hi1 = np.where(hi1 >= 0, hi1, slope * hi1)
    lo2 = (np.minimum(w2 * lo1.T, w2 * hi1.T)).sum(axis=1, keepdims=True) + b2
    hi2 = (np.maximum(w2 * lo1.T, w2 * hi1.T)).sum(axis=1, keepdims=True) + b2
    lo2 = np.where(lo2 >= 0, lo2, slope * lo2)
    hi2 = np.where(hi2 >= 0, hi2, slope * hi2)
    emax = np.maximum(np.abs(lo2), np.abs(hi2)).sum()
    bound = state.config.hidden_width * 1.0 + emax + 0.25
    for t in (0.0, 0.5, 1.5):
        disp = net.forward(state, coords, t).displacement
        assert np.abs(disp).max() <= bound + 1e-9


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_scaling_field_closed_form():
    field = uniform_scaling_field(0.25)
    coords = np.random.default_rng(5).uniform(-1, 1, size=(3, 9))
    res = field(coords, 2.0, FULL_REQ)
    s = 1.5
    np.testing.assert_allclose(res.phi, s * coords, rtol=1e-15)
    np.testing.assert_allclose(res.jac_det, s**3, rtol=1e-15)
    np.testing.assert_allclose(res.jac_det_dt, 3 * 0.25 * s**2, rtol=1e-15)


def test_spatial_jacobian_matches_fd():
    state = toy_state(seed=13)
    rng = np.random.default_rng(6)
    coords = rng.uniform(-0.9, 0.9, size=(3, 100))
    ((jac, _),) = traced(state, coords, [0.4])
    h = 1e-5
    for j in range(3):
        shift = np.zeros((3, 1))
        shift[j] = h
        fp = net.forward(state, coords + shift, 0.4).phi
        fm = net.forward(state, coords - shift, 0.4).phi
        fd = (fp - fm) / (2 * h)
        rel = np.abs(jac[:, j, :] - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-4


def test_temporal_derivative_matches_fd():
    state = toy_state(seed=17)
    rng = np.random.default_rng(7)
    coords = rng.uniform(-0.9, 0.9, size=(3, 100))
    ((_, dphi),) = traced(state, coords, [0.45])
    h = 1e-5
    fp = net.forward(state, coords, 0.45 + h).displacement
    fm = net.forward(state, coords, 0.45 - h).displacement
    fd = (fp - fm) / (2 * h)
    rel = np.abs(dphi - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-5


def test_jacdet_dt_matches_fd():
    state = toy_state(seed=19)
    rng = np.random.default_rng(8)
    coords = rng.uniform(-0.9, 0.9, size=(3, 200))
    res = net.forward_with_derivatives(state, coords, 0.31, FULL_REQ)
    h = 1e-4
    req = net.DerivativeRequest(spatial=True)
    jp = net.forward_with_derivatives(state, coords, 0.31 + h, req).jac_det
    jm = net.forward_with_derivatives(state, coords, 0.31 - h, req).jac_det
    fd = (jp - jm) / (2 * h)
    rel = np.abs(res.jac_det_dt - fd) / np.maximum(np.abs(fd), 1e-7)
    assert rel.max() < 1e-4


def test_jacobi_consistency_thousand_points():
    state = toy_state(seed=23)
    rng = np.random.default_rng(9)
    coords = rng.uniform(-0.95, 0.95, size=(3, 1000))
    ts = rng.uniform(0.0, 1.0, size=4)
    h = 1e-4
    req = net.DerivativeRequest(spatial=True)
    for t in ts:
        res = net.forward_with_derivatives(state, coords, t, FULL_REQ)
        jp = net.forward_with_derivatives(state, coords, t + h, req).jac_det
        jm = net.forward_with_derivatives(state, coords, t - h, req).jac_det
        fd = (jp - jm) / (2 * h)
        rel = np.abs(res.jac_det_dt - fd) / np.maximum(np.abs(fd), 1e-7)
        assert rel.max() < 1e-4


def test_jacdet_equals_numpy_det():
    state = toy_state(seed=29)
    coords = np.random.default_rng(10).uniform(-1, 1, size=(3, 50))
    res = net.forward_with_derivatives(state, coords, 0.8, FULL_REQ)
    ((jac, _),) = traced(state, coords, [0.8])
    mats = np.transpose(jac, (2, 0, 1))
    np.testing.assert_allclose(res.jac_det, np.linalg.det(mats), rtol=1e-12)


def test_depth_two_variant():
    cfg = net.NetworkConfig(hidden_width=6, depth=2, time_hidden_width=4, time_embed_width=5)
    state = net.init_network(seed=31, config=cfg)
    for w, _ in state.psi + state.theta:
        w *= 3.0
    coords = np.random.default_rng(11).uniform(-0.9, 0.9, size=(3, 40))
    res = net.forward_with_derivatives(state, coords, 0.5, FULL_REQ)
    ((_, dphi),) = traced(state, coords, [0.5])
    # additive structure: displacement = A(w) + B(t), so d|J|/dt must vanish
    np.testing.assert_allclose(res.jac_det_dt, 0.0, atol=1e-15)
    h = 1e-5
    fp = net.forward(state, coords, 0.5 + h).displacement
    fm = net.forward(state, coords, 0.5 - h).displacement
    fd = (fp - fm) / (2 * h)
    rel = np.abs(dphi - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-5


def test_first_layer_only_concat_variant():
    cfg = net.NetworkConfig(
        hidden_width=8, depth=4, time_hidden_width=4, time_embed_width=6,
        concat_every_layer=False,
    )
    state = net.init_network(seed=37, config=cfg)
    shapes = [w.shape for w, _ in state.psi]
    assert shapes == [(8, 3), (8, 14), (8, 8), (3, 8)]
    for w, _ in state.psi + state.theta:
        w *= 3.0
    coords = np.random.default_rng(12).uniform(-0.9, 0.9, size=(3, 30))
    res = net.forward_with_derivatives(state, coords, 0.7, FULL_REQ)
    h = 1e-4
    req = net.DerivativeRequest(spatial=True)
    jp = net.forward_with_derivatives(state, coords, 0.7 + h, req).jac_det
    jm = net.forward_with_derivatives(state, coords, 0.7 - h, req).jac_det
    fd = (jp - jm) / (2 * h)
    rel = np.abs(res.jac_det_dt - fd) / np.maximum(np.abs(fd), 1e-7)
    assert rel.max() < 1e-4


def test_phi_is_coords_plus_displacement():
    state = toy_state(seed=41)
    coords = np.random.default_rng(13).uniform(-1, 1, size=(3, 25))
    res = net.forward(state, coords, 0.2)
    np.testing.assert_array_equal(res.phi, coords + res.displacement)


def test_linear_embedding_output_matches_oracle():
    """Without the embedding's output activation its bias stays a pending
    column term and is settled before the first product with the embedding;
    every derivative product still matches the hand-derived recursion."""
    from test_losses import oracle_forward, oracle_jac_products

    cfg = net.NetworkConfig(
        hidden_width=8, depth=4, time_hidden_width=4, time_embed_width=6,
        time_embed_output_leaky=False,
    )
    state = net.init_network(seed=43, config=cfg)
    rng = np.random.default_rng(14)
    for w, b in state.psi + state.theta:
        w *= 3.0
        b[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    coords = rng.uniform(-0.9, 0.9, size=(3, 25))
    res = net.forward_with_derivatives(state, coords, 0.6, FULL_REQ)
    ((jac, dphi),) = traced(state, coords, [0.6])
    val, dw, dt, mixed = oracle_forward(state, coords, 0.6)
    _, djdt = oracle_jac_products(dw, mixed)
    np.testing.assert_allclose(res.displacement, val, rtol=1e-12, atol=1e-14)
    for j in range(3):
        np.testing.assert_allclose(
            jac[:, j, :] - np.eye(3)[:, j : j + 1], dw[j], rtol=1e-12, atol=1e-13
        )
    np.testing.assert_allclose(dphi, dt, rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(res.jac_det_dt, djdt, rtol=1e-10, atol=1e-12)
