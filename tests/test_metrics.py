"""Metrics tests using analytic field doubles where the truth is exact."""

import numpy as np
import pytest

from ndfreg import metrics, network as net
from ndfreg.volume import grid_coordinates, voxel_centers


def identity_field(coords, t, request=net.DerivativeRequest()):
    n = coords.shape[1]
    res = net.DisplacementResult(coords, np.zeros_like(coords))
    if request.spatial:
        res.jac_det = np.ones(n)
    if request.spatial and request.temporal:
        res.jac_det_dt = np.zeros(n)
    return res


def uniform_scaling_field(rate):
    """phi = (1 + rate*t) * w, so |J| = (1 + rate*t)^3 everywhere."""

    def field(coords, t, request=net.DerivativeRequest()):
        s = 1.0 + rate * t
        res = net.DisplacementResult(coords, (s - 1.0) * coords)
        n = coords.shape[1]
        if request.spatial:
            res.jac_det = np.full(n, s**3)
        if request.spatial and request.temporal:
            res.jac_det_dt = np.full(n, 3.0 * rate * s**2)
        return res

    return field


def alternating_field(coords, t, request=net.DerivativeRequest()):
    """d|J|/dt flips sign at every queried time (grid step 0.1)."""
    res = identity_field(coords, t, request)
    if request.spatial and request.temporal:
        flip = (-1.0) ** int(round(t * 10))
        res.jac_det_dt = np.full(coords.shape[1], 0.1 * flip)
    return res


def half_and_half_field(coords, t, request=net.DerivativeRequest()):
    """Monotone where x > 0, alternating where x <= 0."""
    res = identity_field(coords, t, request)
    if request.spatial and request.temporal:
        flip = (-1.0) ** int(round(t * 10))
        res.jac_det_dt = np.where(coords[0] > 0, 0.1, 0.1 * flip)
    return res


# ---------------------------------------------------------------------------
# dice
# ---------------------------------------------------------------------------


def test_dice_identical():
    m = np.zeros((5, 5, 5), dtype=np.int32)
    m[1:3] = 1
    assert metrics.dice(m, m.copy(), 1) == 1.0


def test_dice_disjoint():
    a = np.zeros((5, 5, 5), dtype=np.int32)
    b = np.zeros((5, 5, 5), dtype=np.int32)
    a[0] = 1
    b[4] = 1
    assert metrics.dice(a, b, 1) == 0.0


def test_dice_half_overlap():
    a = np.zeros((10, 10, 10), dtype=np.int32)
    b = np.zeros((10, 10, 10), dtype=np.int32)
    a.ravel()[:100] = 1
    b.ravel()[50:150] = 1
    assert metrics.dice(a, b, 1) == 0.5


def test_dice_both_empty_is_one():
    z = np.zeros((4, 4, 4), dtype=np.int32)
    assert metrics.dice(z, z, 7) == 1.0


def test_dice_symmetry():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 3, size=(8, 8, 8))
    b = rng.integers(0, 3, size=(8, 8, 8))
    for lid in (0, 1, 2):
        assert metrics.dice(a, b, lid) == metrics.dice(b, a, lid)


def test_dice_dim_mismatch():
    with pytest.raises(ValueError, match="dims"):
        metrics.dice(np.zeros((3, 3, 3)), np.zeros((4, 4, 4)), 1)


# ---------------------------------------------------------------------------
# label warping
# ---------------------------------------------------------------------------


def test_warp_labels_identity():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 4, size=(6, 6, 6)).astype(np.int32)
    phi = grid_coordinates(labels.shape).reshape((3,) + labels.shape)
    np.testing.assert_array_equal(metrics.warp_labels(labels, phi), labels)


def test_warp_labels_integer_shift():
    rng = np.random.default_rng(2)
    labels = rng.integers(0, 4, size=(9, 9, 9)).astype(np.int32)
    phi = grid_coordinates(labels.shape).reshape((3,) + labels.shape).copy()
    phi[0] += 2.0 / 8.0
    warped = metrics.warp_labels(labels, phi)
    np.testing.assert_array_equal(warped[:-1], labels[1:])


def test_warp_labels_never_blends():
    rng = np.random.default_rng(3)
    labels = (rng.integers(0, 2, size=(7, 7, 7)) * 5).astype(np.int32)
    pts = grid_coordinates(labels.shape)
    phi = (pts + 0.13 * np.sin(2.3 * pts[::-1])).reshape((3,) + labels.shape)
    warped = metrics.warp_labels(labels, phi)
    assert set(np.unique(warped)) <= set(np.unique(labels))


# ---------------------------------------------------------------------------
# |J| maps
# ---------------------------------------------------------------------------


def test_displacement_result_folded_count():
    """|J| <= 0 folds, |J| = 0 included."""
    values = np.ones((4, 4, 4))
    values[0, 0, :2] = (-0.5, 0.0)
    res = net.DisplacementResult(np.zeros((3, 4, 4, 4)), np.zeros((3, 4, 4, 4)), values)
    assert res.folded_count == int((values <= 0).sum()) == 2


# ---------------------------------------------------------------------------
# sign consistency and trajectories
# ---------------------------------------------------------------------------


def full_labels(dims=(4, 4, 4)):
    return np.ones(dims, dtype=np.int32)


def test_sign_consistency_monotone_field_is_one():
    grid = np.linspace(0.0, 1.0, 7)
    sc = metrics.sign_consistency(uniform_scaling_field(0.1), full_labels(), 1, grid)
    assert sc == 1.0


def test_sign_consistency_alternating_field_is_zero():
    grid = np.linspace(0.0, 1.0, 11)
    sc = metrics.sign_consistency(alternating_field, full_labels(), 1, grid)
    assert sc == 0.0


def test_sign_consistency_half_and_half():
    grid = np.linspace(0.0, 1.0, 11)
    sc = metrics.sign_consistency(half_and_half_field, full_labels(), 1, grid)
    assert sc == 0.5


def test_sign_consistency_validation():
    with pytest.raises(ValueError, match=">= 2"):
        metrics.sign_consistency(identity_field, full_labels(), 1, [0.0])
    with pytest.raises(ValueError, match="no voxels"):
        metrics.sign_consistency(identity_field, full_labels(), 9, [0.0, 1.0])


def test_trajectories_identity():
    out = metrics.structure_trajectories(
        identity_field, full_labels(), [1], np.linspace(0, 1, 5)
    )
    assert len(out) == 1
    assert out[0].mean_jac == [1.0] * 5
    assert out[0].mean_djdt == [0.0] * 5
    assert out[0].sign_consistency == 1.0


def test_trajectories_uniform_scaling_closed_form():
    field = uniform_scaling_field(0.1)
    times = np.array([0.0, 0.5, 1.0])
    out = metrics.structure_trajectories(field, full_labels(), [1], times)
    expect = [(1 + 0.1 * t) ** 3 for t in times]
    np.testing.assert_allclose(out[0].mean_jac, expect, rtol=1e-12)


def test_trajectories_label_order_invariant():
    labels = np.zeros((6, 6, 6), dtype=np.int32)
    labels[:3] = 1
    labels[3:] = 2
    field = uniform_scaling_field(0.05)
    times = np.array([0.0, 1.0])
    fwd = metrics.structure_trajectories(field, labels, [1, 2], times)
    rev = metrics.structure_trajectories(field, labels, [2, 1], times)
    assert fwd[0].mean_jac == rev[1].mean_jac
    assert fwd[1].mean_jac == rev[0].mean_jac


def test_trajectories_unknown_label():
    with pytest.raises(ValueError, match="no voxels"):
        metrics.structure_trajectories(
            identity_field, full_labels(), [3], np.array([0.0, 1.0])
        )


def test_deadband_neutralizes_noise_floor():
    def tiny_noise_field(coords, t, request=net.DerivativeRequest()):
        res = identity_field(coords, t, request)
        if request.spatial and request.temporal:
            flip = (-1.0) ** int(round(t * 100))
            res.jac_det_dt = np.full(coords.shape[1], 1e-9 * flip)
        return res

    grid = np.linspace(0.0, 1.0, 9)
    assert metrics.sign_consistency(tiny_noise_field, full_labels(), 1, grid) == 1.0


def test_state_fields_are_evaluated_once_per_label(monkeypatch):
    """A fitted state is evaluated at every grid time in one network call
    per label, with the numbers of one call per time."""
    cfg = net.NetworkConfig(
        hidden_width=8, depth=3, time_hidden_width=4, time_embed_width=8
    )
    state = net.init_network(seed=3, config=cfg, time_horizon=36.0)
    labels = np.zeros((5, 5, 5), dtype=np.int32)
    labels[:2] = 1
    labels[2:] = 2
    times = np.array([0.0, 12.0, 24.0, 36.0])
    full = net.DerivativeRequest(spatial=True, temporal=True)
    expect = {}
    for lid in (1, 2):
        coords = voxel_centers(labels == lid, f"label {lid}")
        per_time = [net.forward_with_derivatives(state, coords, t / 36.0, full)
                    for t in times]
        expect[lid] = [float(r.jac_det.mean()) for r in per_time]

    calls = []
    forward = net.forward_with_derivatives

    def counting(state, coords, times, *args, **kwargs):
        calls.append(len(times))
        return forward(state, coords, times, *args, **kwargs)

    monkeypatch.setattr(net, "forward_with_derivatives", counting)
    out = metrics.structure_trajectories(state, labels, [1, 2], times)
    assert calls == [4, 4]
    assert [s.mean_jac for s in out] == [expect[1], expect[2]]
    calls.clear()
    metrics.sign_consistency(state, labels, 2, times)
    assert calls == [4]
