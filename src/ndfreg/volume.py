"""Volume data model, coordinate conventions, and the trilinear sampler.

Coordinates are corner-aligned: voxel index 0 maps to -1 and index n-1 to
+1 on each axis, so the identity transform reproduces the grid exactly.
Intensities are min-max normalized to [0,1] on load.  Sampling outside
[-1,1] clamps to the boundary; a non-finite coordinate samples NaN.  All
optimization happens in normalized units; physical spacing is carried for
reporting only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Volume3D",
    "Volume4DSeries",
    "normalize_intensities",
    "grid_coordinates",
    "voxel_centers",
    "sample_trilinear",
    "trilinear_values_and_grads",
]


@dataclass
class Volume3D:
    """Scalar intensity grid with dims (nx, ny, nz), values in [0,1], and
    its voxel spacing; nothing else of the file it came from is kept."""

    values: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError(f"volume must be 3-d, got shape {self.values.shape}")
        if min(self.values.shape) < 2:
            raise ValueError(f"each axis needs >= 2 voxels, got {self.values.shape}")
        if not np.isfinite(self.values).all():
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(self.values))[0])
            raise ValueError(f"non-finite intensity at voxel {bad}")
        lo, hi = float(self.values.min()), float(self.values.max())
        if lo < 0.0 or hi > 1.0:
            raise ValueError(f"intensities must lie in [0,1], got [{lo}, {hi}]")

    @property
    def dims(self) -> tuple:
        return self.values.shape


@dataclass
class Volume4DSeries:
    """Baseline plus strictly later follow-ups on one shared grid."""

    baseline: Volume3D
    followups: list  # of (months_since_baseline, Volume3D)
    labels: dict | None = None  # months -> integer label grid

    def __post_init__(self):
        dims = self.baseline.dims
        last = 0.0
        for months, vol in self.followups:
            if months <= last:
                raise ValueError(f"follow-up times must be strictly increasing, got {months}")
            if vol.dims != dims:
                raise ValueError(f"follow-up dims {vol.dims} != baseline dims {dims}")
            last = months
        if self.labels is not None:
            for months, grid in self.labels.items():
                if grid.shape != dims:
                    raise ValueError(f"label dims {grid.shape} != baseline dims {dims}")

    @property
    def times(self) -> list:
        return [0.0] + [m for m, _ in self.followups]

    def volume_at(self, months: float) -> Volume3D:
        if months == 0.0:
            return self.baseline
        for m, vol in self.followups:
            if m == months:
                return vol
        raise KeyError(f"no scan at {months} months")


def normalize_intensities(raw, spacing=(1.0, 1.0, 1.0)) -> Volume3D:
    """Min-max scale a raw grid to [0,1]; constant grids map to zeros."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size == 0:
        raise ValueError("empty intensity grid")
    if not np.isfinite(raw).all():
        bad = tuple(int(i) for i in np.argwhere(~np.isfinite(raw))[0])
        raise ValueError(f"non-finite intensity at voxel {bad}")
    lo, hi = raw.min(), raw.max()
    if hi > lo:
        scaled = (raw - lo) / (hi - lo)
    else:
        scaled = np.zeros_like(raw)
    return Volume3D(scaled, spacing=tuple(spacing))


def grid_coordinates(dims) -> np.ndarray:
    """Normalized coordinates of every voxel, shape (3, nx*ny*nz).

    Order matches `reshape(dims)` of a flat result (x slowest is not used;
    C-order with z fastest, consistent throughout the package).
    """
    axes = [np.linspace(-1.0, 1.0, n) for n in dims]
    gx, gy, gz = np.meshgrid(*axes, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel(), gz.ravel()])


def voxel_centers(selected: np.ndarray, what: str) -> np.ndarray:
    """Normalized coordinates (3, N) of the voxels where `selected` is true,
    in index order; `what` names the selection in the error for none."""
    idx = np.argwhere(selected).T.astype(np.float64)
    if idx.shape[1] == 0:
        raise ValueError(f"{what} selects no voxels")
    scale = 2.0 / (np.array(selected.shape, dtype=np.float64) - 1.0)
    return idx * scale[:, None] - 1.0


def trilinear_values_and_grads(grid: np.ndarray, coords: np.ndarray):
    """Trilinear interpolation of `grid` at normalized coords (3,B).

    Returns (values (B,), grads (3,B)).  Gradients are the analytic
    derivatives of the interpolant in normalized units, piecewise constant
    per cell; they are zero in clamped directions outside [-1,1].  A point
    with a non-finite coordinate gets NaN value and gradients.
    """
    grid = np.asarray(grid)
    nx, ny, nz = grid.shape
    coords = np.asarray(coords)
    if coords.ndim != 2 or coords.shape[0] != 3:
        raise ValueError(f"coords must be (3,B), got {coords.shape}")

    dims = np.array([nx, ny, nz], dtype=np.float64)
    # a non-finite point has no cell: index it at the origin (a NaN would
    # not cast to an index), then overwrite its results with NaN
    finite = np.isfinite(coords).all(axis=0)
    inside = (coords >= -1.0) & (coords <= 1.0)
    clamped = np.where(finite, np.clip(coords, -1.0, 1.0), 0.0)
    vox = (clamped + 1.0) * ((dims[:, None] - 1.0) / 2.0)

    i0 = np.floor(vox).astype(np.int64)
    np.clip(i0, 0, (dims[:, None] - 2).astype(np.int64), out=i0)
    frac = vox - i0
    i1 = i0 + 1

    def gather(ix, iy, iz):
        return grid[ix, iy, iz]

    c000 = gather(i0[0], i0[1], i0[2])
    c100 = gather(i1[0], i0[1], i0[2])
    c010 = gather(i0[0], i1[1], i0[2])
    c110 = gather(i1[0], i1[1], i0[2])
    c001 = gather(i0[0], i0[1], i1[2])
    c101 = gather(i1[0], i0[1], i1[2])
    c011 = gather(i0[0], i1[1], i1[2])
    c111 = gather(i1[0], i1[1], i1[2])

    fx, fy, fz = frac
    c00 = c000 * (1 - fx) + c100 * fx
    c10 = c010 * (1 - fx) + c110 * fx
    c01 = c001 * (1 - fx) + c101 * fx
    c11 = c011 * (1 - fx) + c111 * fx
    c0 = c00 * (1 - fy) + c10 * fy
    c1 = c01 * (1 - fy) + c11 * fy
    values = c0 * (1 - fz) + c1 * fz

    # derivative w.r.t. fractional voxel coordinate, then chain to
    # normalized units: d vox / d coord = (n-1)/2, zero where clamped
    d_dfx = ((c100 - c000) * (1 - fy) + (c110 - c010) * fy) * (1 - fz) + (
        (c101 - c001) * (1 - fy) + (c111 - c011) * fy
    ) * fz
    d_dfy = (c10 - c00) * (1 - fz) + (c11 - c01) * fz
    d_dfz = c1 - c0

    scale = (dims[:, None] - 1.0) / 2.0
    grads = np.stack([d_dfx, d_dfy, d_dfz]) * scale * inside
    if not finite.all():
        values[~finite] = np.nan
        grads[:, ~finite] = np.nan
    return values, grads


def sample_trilinear(vol: Volume3D, coords: np.ndarray):
    """Sample a volume at normalized coords (3,B) -> (values, gradients)."""
    return trilinear_values_and_grads(vol.values, coords)
