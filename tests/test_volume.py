"""Volume model and trilinear sampler tests, including the scalar-loop
reference oracle for interpolation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ndfreg import volume as vol


def scalar_trilinear_oracle(grid, point):
    """Straightforward per-point reimplementation used as the oracle."""
    nx, ny, nz = grid.shape
    out = 0.0
    vx = (min(max(point[0], -1.0), 1.0) + 1.0) * (nx - 1) / 2.0
    vy = (min(max(point[1], -1.0), 1.0) + 1.0) * (ny - 1) / 2.0
    vz = (min(max(point[2], -1.0), 1.0) + 1.0) * (nz - 1) / 2.0
    ix = min(int(np.floor(vx)), nx - 2)
    iy = min(int(np.floor(vy)), ny - 2)
    iz = min(int(np.floor(vz)), nz - 2)
    fx, fy, fz = vx - ix, vy - iy, vz - iz
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = (
                    (fx if dx else 1 - fx)
                    * (fy if dy else 1 - fy)
                    * (fz if dz else 1 - fz)
                )
                out += w * grid[ix + dx, iy + dy, iz + dz]
    return out


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_three_values():
    raw = np.array([10.0, 20.0, 30.0, 20.0, 10.0, 30.0, 20.0, 10.0]).reshape(2, 2, 2)
    v = vol.normalize_intensities(raw)
    np.testing.assert_allclose(np.sort(np.unique(v.values)), [0.0, 0.5, 1.0])


def test_normalize_constant_grid_all_zeros():
    v = vol.normalize_intensities(np.full((3, 3, 3), 7.0))
    assert np.all(v.values == 0.0)


def test_normalize_rejects_nan_with_location():
    grid = np.zeros((3, 3, 3))
    grid[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match=r"\(1, 2, 0\)"):
        vol.normalize_intensities(grid)


@settings(max_examples=30, deadline=None)
@given(
    arrays(
        np.float64,
        (4, 4, 4),
        elements=st.floats(-100, 100, allow_nan=False),
    ).filter(lambda a: a.max() > a.min())
)
def test_normalize_hits_exact_bounds(raw):
    v = vol.normalize_intensities(raw)
    assert v.values.min() == 0.0
    assert v.values.max() == 1.0


# ---------------------------------------------------------------------------
# coordinate convention
# ---------------------------------------------------------------------------


def test_voxel_to_normalized_endpoints():
    assert vol.voxel_to_normalized((0, 0, 0), (64, 64, 64)) == (-1.0, -1.0, -1.0)
    assert vol.voxel_to_normalized((63, 63, 63), (64, 64, 64)) == (1.0, 1.0, 1.0)


def test_voxel_to_normalized_midpoint_odd_axis():
    assert vol.voxel_to_normalized((31, 0, 0), (63, 5, 5))[0] == 0.0


def test_voxel_to_normalized_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of bounds"):
        vol.voxel_to_normalized((64, 0, 0), (64, 64, 64))


def test_grid_coordinates_round_trip():
    dims = (4, 5, 6)
    pts = vol.grid_coordinates(dims)
    assert pts.shape == (3, 4 * 5 * 6)
    assert pts[:, 0] == pytest.approx([-1, -1, -1])
    assert pts[:, -1] == pytest.approx([1, 1, 1])


# ---------------------------------------------------------------------------
# trilinear sampling
# ---------------------------------------------------------------------------


def test_sample_at_grid_points_reproduces_voxels():
    rng = np.random.default_rng(2)
    grid = rng.uniform(0, 1, size=(5, 6, 7))
    v = vol.Volume3D(grid)
    idx = [(0, 0, 0), (4, 5, 6), (2, 3, 1)]
    pts = np.array([vol.voxel_to_normalized(i, grid.shape) for i in idx]).T
    vals, _ = vol.sample_trilinear(v, pts)
    expect = [grid[i] for i in idx]
    np.testing.assert_allclose(vals, expect, rtol=0, atol=1e-15)


def test_sample_cell_center_is_corner_mean():
    rng = np.random.default_rng(3)
    grid = rng.uniform(0, 1, size=(3, 3, 3))
    # center of the cell [0,1]^3 in voxel space
    p = np.array(
        [
            [(vol.voxel_to_normalized((0, 0, 0), grid.shape)[0]
              + vol.voxel_to_normalized((1, 1, 1), grid.shape)[0]) / 2]
        ]
        * 3
    )
    vals, _ = vol.trilinear_values_and_grads(grid, p)
    assert vals[0] == pytest.approx(grid[:2, :2, :2].mean(), rel=1e-12)


def test_sample_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    grid = rng.uniform(0, 1, size=(8, 8, 8))
    pts = rng.uniform(-1.2, 1.2, size=(3, 1000))  # includes out-of-range
    vals, _ = vol.trilinear_values_and_grads(grid, pts)
    expect = [scalar_trilinear_oracle(grid, pts[:, i]) for i in range(pts.shape[1])]
    np.testing.assert_allclose(vals, expect, rtol=0, atol=1e-12)


def test_sample_bounds_property():
    rng = np.random.default_rng(5)
    grid = rng.uniform(0, 1, size=(6, 6, 6))
    pts = rng.uniform(-1, 1, size=(3, 500))
    vals, _ = vol.trilinear_values_and_grads(grid, pts)
    assert vals.min() >= grid.min() - 1e-15
    assert vals.max() <= grid.max() + 1e-15


def test_gradient_matches_finite_differences_interior():
    rng = np.random.default_rng(6)
    grid = rng.uniform(0, 1, size=(9, 9, 9))
    # keep points strictly inside cells so the piecewise gradient is smooth
    base = rng.uniform(-0.9, 0.9, size=(3, 200))
    vox = (base + 1) * 4.0
    frac = vox - np.floor(vox)
    ok = ((frac > 0.05) & (frac < 0.95)).all(axis=0)
    pts = base[:, ok]
    _, grads = vol.trilinear_values_and_grads(grid, pts)
    h = 1e-5
    for d in range(3):
        shift = np.zeros((3, 1))
        shift[d] = h
        vp, _ = vol.trilinear_values_and_grads(grid, pts + shift)
        vm, _ = vol.trilinear_values_and_grads(grid, pts - shift)
        fd = (vp - vm) / (2 * h)
        rel = np.abs(grads[d] - fd) / np.maximum(np.abs(fd), 1e-3)
        assert rel.max() < 1e-6


def test_clamp_idempotent():
    rng = np.random.default_rng(7)
    grid = rng.uniform(0, 1, size=(5, 5, 5))
    inside = np.array([[-1.0], [0.2], [-0.3]])
    outside = inside.copy()
    outside[0, 0] = -1.0 - 1e-3
    vi, _ = vol.trilinear_values_and_grads(grid, inside)
    vo, _ = vol.trilinear_values_and_grads(grid, outside)
    assert vi[0] == vo[0]


def test_volume_validation():
    with pytest.raises(ValueError, match=">= 2 voxels"):
        vol.Volume3D(np.zeros((1, 3, 3)))
    with pytest.raises(ValueError, match=r"\[0,1\]"):
        vol.Volume3D(np.full((3, 3, 3), 2.0))


def test_series_validation():
    base = vol.Volume3D(np.zeros((3, 3, 3)))
    other = vol.Volume3D(np.zeros((4, 3, 3)))
    with pytest.raises(ValueError, match="dims"):
        vol.Volume4DSeries(base, [(6.0, other)])
    with pytest.raises(ValueError, match="strictly increasing"):
        vol.Volume4DSeries(base, [(6.0, base), (6.0, base)])
    series = vol.Volume4DSeries(base, [(6.0, base), (12.0, base)])
    assert series.times == [0.0, 6.0, 12.0]


def test_nonfinite_coordinates_sample_nan():
    rng = np.random.default_rng(4)
    grid = rng.uniform(0, 1, size=(4, 5, 6))
    pts = np.array([[0.1, np.nan, 0.3, np.inf], [0.2, 0.0, -np.inf, 0.5], [0.0, 0.4, 0.1, 0.2]])
    values, grads = vol.trilinear_values_and_grads(grid, pts)
    ok, _ = vol.trilinear_values_and_grads(grid, pts[:, :1])
    assert values[0] == ok[0]
    assert np.isnan(values[1:]).all() and np.isnan(grads[:, 1:]).all()
    assert np.isfinite(grads[:, 0]).all()
