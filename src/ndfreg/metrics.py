"""Morphometry outputs: |J| maps, Dice, residuals, structure trajectories,
and the voxel-wise sign-consistency proportion.

|J| reads as a local volume-change factor: 1 no change, above 1 expansion,
in (0,1) contraction, non-positive folding.  A voxel counts as
sign-consistent when its d|J|/dt samples over the queried time grid never
mix values above the dead band with values below its negation; samples
inside the band are neutral.

Functions accepting `field_or_state` take either a fitted NetworkState
(times are then months, normalized via the state's horizon) or any
callable (coords, t, request) -> DisplacementResult, e.g. the analytic
phantom field, with times passed through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network as net
from .volume import grid_coordinates

__all__ = [
    "JacobianMap",
    "StructureMetrics",
    "dice",
    "warp_labels",
    "residual_jacobian",
    "sign_consistency",
    "structure_trajectories",
    "jacobian_map",
]

DEFAULT_DEADBAND = 1e-6


@dataclass
class JacobianMap:
    time: float  # months
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if not np.isfinite(self.values).all():
            raise ValueError("Jacobian map contains non-finite values")

    @property
    def folded_count(self) -> int:
        return int((self.values <= 0.0).sum())


@dataclass
class StructureMetrics:
    label: int
    times: list
    mean_jac: list
    mean_djdt: list
    sign_consistency: float
    dice: dict = field(default_factory=dict)  # time -> score, filled on demand


def _resolve_field(field_or_state):
    if isinstance(field_or_state, net.NetworkState):
        return net.as_field(field_or_state), field_or_state.time_horizon
    return field_or_state, 1.0


def dice(labels_a: np.ndarray, labels_b: np.ndarray, label_id: int) -> float:
    """2|A^B| / (|A|+|B|); two empty masks count as perfect overlap."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape:
        raise ValueError(f"label dims differ: {a.shape} vs {b.shape}")
    ma = a == label_id
    mb = b == label_id
    denom = int(ma.sum()) + int(mb.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((ma & mb).sum()) / denom


def warp_labels(labels: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Nearest-neighbor pullback of an integer label grid (never blended)."""
    labels = np.asarray(labels)
    dims = labels.shape
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (3,) + dims:
        raise ValueError(f"phi shape {phi.shape} does not match labels {dims}")
    pts = phi.reshape(3, -1)
    out = np.empty(pts.shape[1], dtype=labels.dtype)
    idx = []
    for axis, n in enumerate(dims):
        v = (np.clip(pts[axis], -1.0, 1.0) + 1.0) * ((n - 1) / 2.0)
        idx.append(np.clip(np.rint(v).astype(np.int64), 0, n - 1))
    out = labels[idx[0], idx[1], idx[2]]
    return out.reshape(dims)


def residual_jacobian(map_a: JacobianMap, map_b: JacobianMap) -> np.ndarray:
    """Voxel-wise map_a - map_b; both maps must share dims and time."""
    if map_a.values.shape != map_b.values.shape:
        raise ValueError(
            f"map dims differ: {map_a.values.shape} vs {map_b.values.shape}"
        )
    if map_a.time != map_b.time:
        raise ValueError(f"map times differ: {map_a.time} vs {map_b.time}")
    return map_a.values - map_b.values


def _structure_coords(labels: np.ndarray, label_id: int) -> np.ndarray:
    labels = np.asarray(labels)
    idx = np.argwhere(labels == label_id).T.astype(np.float64)
    if idx.shape[1] == 0:
        raise ValueError(f"label {label_id} selects no voxels")
    scale = 2.0 / (np.array(labels.shape, dtype=np.float64) - 1.0)
    return idx * scale[:, None] - 1.0


def _djdt_samples(fieldfn, coords, times):
    req = net.DerivativeRequest(spatial=True, temporal=True, jacdet=True, jacdet_dt=True)
    n = coords.shape[1]
    jac = np.empty((len(times), n))
    djdt = np.empty((len(times), n))
    for k, t in enumerate(times):
        res = fieldfn(coords, float(t), req)
        jac[k] = res.jac_det
        djdt[k] = res.jac_det_dt
    return jac, djdt


def sign_consistency(
    field_or_state,
    labels: np.ndarray,
    label_id: int,
    times,
    deadband: float = DEFAULT_DEADBAND,
) -> float:
    """Fraction of structure voxels whose d|J|/dt keeps one sign over the
    time grid (samples within the dead band are neutral)."""
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2:
        raise ValueError("sign consistency needs a time grid of >= 2 points")
    fieldfn, horizon = _resolve_field(field_or_state)
    coords = _structure_coords(labels, label_id)
    _, djdt = _djdt_samples(fieldfn, coords, times / horizon)
    has_pos = (djdt > deadband).any(axis=0)
    has_neg = (djdt < -deadband).any(axis=0)
    return float((~(has_pos & has_neg)).mean())


def structure_trajectories(
    field_or_state,
    labels: np.ndarray,
    label_ids,
    times,
    deadband: float = DEFAULT_DEADBAND,
) -> list:
    """Per structure: mean |J| and mean d|J|/dt at each grid time, plus the
    sign-consistency proportion over the same grid."""
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2:
        raise ValueError("trajectories need a time grid of >= 2 points")
    fieldfn, horizon = _resolve_field(field_or_state)
    out = []
    for label_id in label_ids:
        coords = _structure_coords(labels, label_id)
        jac, djdt = _djdt_samples(fieldfn, coords, times / horizon)
        has_pos = (djdt > deadband).any(axis=0)
        has_neg = (djdt < -deadband).any(axis=0)
        out.append(
            StructureMetrics(
                label=int(label_id),
                times=[float(t) for t in times],
                mean_jac=[float(v) for v in jac.mean(axis=1)],
                mean_djdt=[float(v) for v in djdt.mean(axis=1)],
                sign_consistency=float((~(has_pos & has_neg)).mean()),
            )
        )
    return out


def jacobian_map(field_or_state, t_months: float, dims) -> JacobianMap:
    """Dense |J| map at one queried time."""
    fieldfn, horizon = _resolve_field(field_or_state)
    coords = grid_coordinates(dims)
    req = net.DerivativeRequest(spatial=True, jacdet=True)
    jac = fieldfn(coords, t_months / horizon, req).jac_det
    return JacobianMap(time=t_months, values=jac.reshape(tuple(dims)))
