"""Network tests: initialization scheme, the architecture contract, and
finite-difference verification of every analytic derivative product."""

import numpy as np
import pytest

from ndfreg import network as net
from ndfreg.phantom import uniform_scaling_field

TOY = net.NetworkConfig(hidden_width=8, depth=5, time_hidden_width=6, time_embed_width=12)
FULL_REQ = net.DerivativeRequest(spatial=True, temporal=True, jacdet=True, jacdet_dt=True)


def toy_state(seed=1, amplify=3.0, config=TOY):
    state = net.init_network(seed=seed, config=config)
    for w, _ in state.psi + state.theta:
        w *= amplify  # push displacements to O(0.1) so FD ratios are stable
    return state


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


def test_time_embed_zero_theta_is_zero():
    state = toy_state()
    for w, b in state.theta:
        w[:] = 0.0
        b[:] = 0.0
    assert np.all(net.time_embed(state, 0.7) == 0.0)


def test_time_embed_width_and_continuity():
    state = toy_state(seed=5)
    ts = np.linspace(-0.2, 1.4, 400)
    vals = np.stack([net.time_embed(state, t) for t in ts])
    assert vals.shape[1] == TOY.time_embed_width
    steps = np.abs(np.diff(vals, axis=0)).max()
    assert steps < 0.2  # dense sweep: no jumps beyond the Lipschitz scale


def test_time_embed_tangent_matches_fd():
    state = toy_state(seed=7)
    h = 1e-6
    for t in (0.13, 0.57, 0.94):
        fd = (net.time_embed(state, t + h) - net.time_embed(state, t - h)) / (2 * h)
        res = net.forward_with_derivatives(
            state,
            np.zeros((3, 1)),
            t,
            net.DerivativeRequest(temporal=True),
        )
        # cross-check through the taped path: embed tangent drives dphi/dt
        # only via the linear head, so compare embeddings directly instead
        from ndfreg.diffengine import Tape
        import ndfreg.diffengine as de

        tape = Tape()
        leaves = net.make_leaves(tape, state, trainable=False)
        tb = de.time_bundle(tape, t)
        eb = net._trace_time_embed(tape, leaves.theta, tb, state.config)
        np.testing.assert_allclose(eb.value.value[:, 0], net.time_embed(state, t), rtol=1e-12)
        rel = np.abs(eb.tangent(3).value[:, 0] - fd) / np.maximum(np.abs(fd), 1e-9)
        assert rel.max() < 1e-6


def test_time_embed_output_activation_flag():
    cfg = net.NetworkConfig(
        hidden_width=8, time_hidden_width=4, time_embed_width=6,
        time_embed_output_leaky=False,
    )
    state = net.init_network(seed=3, config=cfg)
    e = net.time_embed(state, 0.4)
    (w1, b1), (w2, b2) = state.theta
    z = w1 @ np.array([[0.4]]) + b1
    hidden = np.where(z >= 0, z, cfg.leaky_slope * z)
    np.testing.assert_allclose(e, (w2 @ hidden + b2)[:, 0])


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_zero_network_identity():
    state = zero_state()
    rng = np.random.default_rng(1)
    coords = rng.uniform(-1, 1, size=(3, 64))
    res = net.forward_with_derivatives(state, coords, 0.6, FULL_REQ)
    assert np.all(res.displacement == 0.0)
    np.testing.assert_array_equal(res.phi, coords)
    expect_j = np.repeat(np.eye(3)[:, :, None], 64, axis=2)
    np.testing.assert_array_equal(res.spatial_jacobian, expect_j)
    assert np.all(res.jac_det == 1.0)
    assert np.all(res.temporal_derivative == 0.0)
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
    for name in ("displacement", "spatial_jacobian", "temporal_derivative",
                 "jac_det", "jac_det_dt"):
        assert getattr(whole, name).tobytes() == getattr(chunked, name).tobytes()
    with pytest.raises(ValueError, match="chunk_size"):
        net.forward_with_derivatives(state, coords, 0.6, FULL_REQ, chunk_size=0)


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


def test_request_validation():
    with pytest.raises(ValueError, match="jacdet requires"):
        net.DerivativeRequest(jacdet=True).validate()
    with pytest.raises(ValueError, match="jacdet_dt requires"):
        net.DerivativeRequest(spatial=True, jacdet_dt=True).validate()


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
    res = net.forward_with_derivatives(state, coords, 0.4, FULL_REQ)
    h = 1e-5
    for j in range(3):
        shift = np.zeros((3, 1))
        shift[j] = h
        fp = net.forward(state, coords + shift, 0.4).phi
        fm = net.forward(state, coords - shift, 0.4).phi
        fd = (fp - fm) / (2 * h)
        rel = np.abs(res.spatial_jacobian[:, j, :] - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-4


def test_temporal_derivative_matches_fd():
    state = toy_state(seed=17)
    rng = np.random.default_rng(7)
    coords = rng.uniform(-0.9, 0.9, size=(3, 100))
    res = net.forward_with_derivatives(state, coords, 0.45, FULL_REQ)
    h = 1e-5
    fp = net.forward(state, coords, 0.45 + h).displacement
    fm = net.forward(state, coords, 0.45 - h).displacement
    fd = (fp - fm) / (2 * h)
    rel = np.abs(res.temporal_derivative - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-5


def test_jacdet_dt_matches_fd():
    state = toy_state(seed=19)
    rng = np.random.default_rng(8)
    coords = rng.uniform(-0.9, 0.9, size=(3, 200))
    res = net.forward_with_derivatives(state, coords, 0.31, FULL_REQ)
    h = 1e-4
    req = net.DerivativeRequest(spatial=True, jacdet=True)
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
    req = net.DerivativeRequest(spatial=True, jacdet=True)
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
    mats = np.transpose(res.spatial_jacobian, (2, 0, 1))
    np.testing.assert_allclose(res.jac_det, np.linalg.det(mats), rtol=1e-12)


def test_depth_two_variant():
    cfg = net.NetworkConfig(hidden_width=6, depth=2, time_hidden_width=4, time_embed_width=5)
    state = net.init_network(seed=31, config=cfg)
    for w, _ in state.psi + state.theta:
        w *= 3.0
    coords = np.random.default_rng(11).uniform(-0.9, 0.9, size=(3, 40))
    res = net.forward_with_derivatives(state, coords, 0.5, FULL_REQ)
    # additive structure: displacement = A(w) + B(t), so d|J|/dt must vanish
    np.testing.assert_allclose(res.jac_det_dt, 0.0, atol=1e-15)
    h = 1e-5
    fp = net.forward(state, coords, 0.5 + h).displacement
    fm = net.forward(state, coords, 0.5 - h).displacement
    fd = (fp - fm) / (2 * h)
    rel = np.abs(res.temporal_derivative - fd) / np.maximum(np.abs(fd), 1e-8)
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
    req = net.DerivativeRequest(spatial=True, jacdet=True)
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
