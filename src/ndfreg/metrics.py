"""Morphometry outputs: Dice, structure trajectories, and the voxel-wise
sign-consistency proportion.  |J| maps and their residuals are the
`jac_det` of `trainer.predict_field`'s results and their differences.

|J| reads as a local volume-change factor: 1 no change, above 1 expansion,
in (0,1) contraction, non-positive folding.  A voxel counts as
sign-consistent when its d|J|/dt samples over the queried time grid never
mix values above the dead band with values below its negation; samples
inside the band are neutral.

Functions accepting `field_or_state` take either a fitted NetworkState
(times are then months, normalized via the state's horizon) or any
callable (coords, t, request) -> DisplacementResult, e.g. a closed-form
field that stands in for a fit, with times passed through unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import network as net
from .volume import voxel_centers

__all__ = [
    "StructureMetrics",
    "dice",
    "warp_labels",
    "sign_consistency",
    "structure_trajectories",
]

DEFAULT_DEADBAND = 1e-6


@dataclass
class StructureMetrics:
    label: int
    times: list
    mean_jac: list
    mean_djdt: list
    sign_consistency: float


def _resolve_field(field_or_state, workers: int):
    """(coords, times, request) -> one DisplacementResult per time, and the
    horizon that normalizes months.  A fitted state is evaluated at every
    time in one call on `workers` chunk workers, which traces its
    time-invariant prefix once per coordinate chunk; a callable field is
    called once per time."""
    if isinstance(field_or_state, net.NetworkState):
        state = field_or_state
        evaluate = partial(net.forward_with_derivatives, state, workers=workers)
        return evaluate, state.time_horizon

    def fieldfn(coords, times, request):
        return [field_or_state(coords, float(t), request) for t in times]

    return fieldfn, 1.0


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
    idx = []
    for axis, n in enumerate(dims):
        v = (np.clip(pts[axis], -1.0, 1.0) + 1.0) * ((n - 1) / 2.0)
        idx.append(np.clip(np.rint(v).astype(np.int64), 0, n - 1))
    out = labels[idx[0], idx[1], idx[2]]
    return out.reshape(dims)


def sign_consistency(
    field_or_state,
    labels: np.ndarray,
    label_id: int,
    times,
    deadband: float = DEFAULT_DEADBAND,
) -> float:
    """Fraction of structure voxels whose d|J|/dt keeps one sign over the
    time grid (samples within the dead band are neutral)."""
    (one,) = structure_trajectories(
        field_or_state, labels, [label_id], times, deadband
    )
    return one.sign_consistency


def structure_trajectories(
    field_or_state,
    labels: np.ndarray,
    label_ids,
    times,
    deadband: float = DEFAULT_DEADBAND,
    workers: int = 1,
) -> list:
    """Per structure: mean |J| and mean d|J|/dt at each grid time, plus the
    sign-consistency proportion over the same grid; a fitted state is
    evaluated on `workers` chunk workers."""
    times = np.asarray(times, dtype=np.float64)
    if times.size < 2:
        raise ValueError("need a time grid of >= 2 points")
    fieldfn, horizon = _resolve_field(field_or_state, workers)
    req = net.DerivativeRequest(spatial=True, temporal=True)
    out = []
    for label_id in label_ids:
        coords = voxel_centers(np.asarray(labels) == label_id, f"label {label_id}")
        results = fieldfn(coords, times / horizon, req)
        jac = np.array([r.jac_det for r in results], dtype=np.float64)
        djdt = np.array([r.jac_det_dt for r in results], dtype=np.float64)
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
