"""Per-subject fitting loop and inference-time dense field generation.

Each iteration samples a fresh coordinate batch and regularization time
grid, records the full loss on a tape, runs the reverse sweep, and takes
one optimizer step.  Similarity is evaluated at observed times only; the
regularizers run on the sampled grid, which includes unobserved times and
may extend past the last observed scan (t_extrap > 1).  Each iteration
traces the network twice, once for the observed times (values only) and
once for the grid (with derivatives); each trace shares its time-invariant
prefix across its times and runs them in groups of as many times as fill
one `network.BLOCK_BYTES` block (`network.group_times`), one block per
layer and group.  With the fit-narrow recipe (width 32, B=256) that is one
group for the 4 observed times and two of 4 for the 8-time grid.

`predict_field` evaluates the fitted field on the voxel grid at one time or
at a sequence of times, which share the prefix chunk by chunk; inference
traces one time per group.

With a fixed seed and single-threaded BLAS the loop is reproducible to
bit-identical parameters.
"""

from __future__ import annotations

import logging
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from .diffengine import Tape
from . import network as net
from .losses import LossWeights, LossBreakdown, build_total_loss
from .volume import (
    Volume3D, Volume4DSeries, grid_coordinates, trilinear_values_and_grads, voxel_centers,
)

__all__ = [
    "FitConfig",
    "FitReport",
    "SamplePlan",
    "AdamState",
    "NumericalAbortError",
    "sample_plan",
    "adam_step",
    "fit",
    "predict_field",
    "warp_volume",
    "FieldGrid",
]

log = logging.getLogger(__name__)

_DTYPES = {"f64": np.float64, "f32": np.float32}

# Adam's moment decay rates and denominator guard
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class NumericalAbortError(RuntimeError):
    """Two consecutive non-finite totals; carries a diagnostic dump."""

    def __init__(self, iteration: int, breakdown: LossBreakdown):
        super().__init__(
            f"non-finite total loss at iterations {iteration - 1} and {iteration}: "
            f"{breakdown}"
        )
        self.iteration = iteration
        self.breakdown = breakdown


@dataclass
class FitConfig:
    iterations: int = 20000
    batch_points: int = 8192
    learning_rate: float = 1e-4
    weights: LossWeights = field(default_factory=LossWeights)
    reg_time_grid_size: int = 8
    t_extrap: float = 1.0
    time_horizon: float | None = None  # None: largest observed months
    seed: int = 0
    precision: str = "f64"
    log_every: int = 100
    checkpoint_every: int = 0
    checkpoint_dir: str | None = None
    mask: np.ndarray | None = None
    network: net.NetworkConfig = field(default_factory=net.NetworkConfig)

    def validate(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.batch_points <= 0:
            raise ValueError("batch_points must be positive")
        if self.reg_time_grid_size < 2:
            raise ValueError("regularization time grid needs >= 2 points")
        if self.t_extrap < 1.0:
            raise ValueError("t_extrap must be >= 1")
        if self.precision not in _DTYPES:
            raise ValueError(f"precision must be one of {sorted(_DTYPES)}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        self.network.validate()


@dataclass
class SamplePlan:
    coords: np.ndarray  # (3, B) in [-1,1]^3
    observed_times: np.ndarray  # normalized, first entry 0
    reg_grid: np.ndarray  # normalized, endpoints {0, t_extrap} forced


def sample_plan(
    series: Volume4DSeries,
    config: FitConfig,
    rng: np.random.Generator,
    t_max: float | None = None,
    mask_points: np.ndarray | None = None,
) -> SamplePlan:
    """Draw one iteration's coordinate batch and time grids."""
    t_max = t_max or config.time_horizon or max(series.times)
    nb = config.batch_points
    if config.mask is None:
        coords = rng.uniform(-1.0, 1.0, size=(3, nb))
    else:
        if mask_points is None:
            mask_points = voxel_centers(config.mask > 0, "mask")
        pick = rng.integers(0, mask_points.shape[1], size=nb)
        half = 1.0 / (np.array(config.mask.shape, dtype=np.float64) - 1.0)
        jitter = rng.uniform(-1.0, 1.0, size=(3, nb)) * half[:, None]
        coords = np.clip(mask_points[:, pick] + jitter, -1.0, 1.0)
    observed = np.asarray(series.times, dtype=np.float64) / t_max
    k = config.reg_time_grid_size
    if k == 2:
        interior = np.empty(0)
    else:
        interior = np.sort(rng.uniform(0.0, config.t_extrap, size=k - 2))
    grid = np.concatenate(([0.0], interior, [config.t_extrap]))
    return SamplePlan(coords, observed, grid)


@dataclass
class AdamState:
    m: list
    v: list
    step: int = 0

    @classmethod
    def zeros_like(cls, params):
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(params, grads, state: AdamState, config: FitConfig):
    """Bias-corrected Adam update in place; a non-finite gradient rejects
    the whole step and leaves parameters and moments untouched."""
    for g in grads:
        if not np.isfinite(g).all():
            log.warning("step %d rejected: non-finite gradient", state.step + 1)
            return state, False
    state.step += 1
    c1 = 1.0 - BETA1**state.step
    c2 = 1.0 - BETA2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + EPSILON)
    return state, True


@dataclass
class IterationLog:
    iteration: int
    breakdown: LossBreakdown
    wall_ms: float


@dataclass
class FitReport:
    history: list
    wall_time_s: float
    final_checksum: str
    rejected_steps: int = 0  # steps adam_step refused for a non-finite gradient
    peak_rss_mb: float = 0.0  # peak resident set of the process when the fit ends

    def to_rows(self):
        hdr = ["iteration"] + list(LossBreakdown.FIELDS) + ["wall_ms"]
        rows = [hdr]
        for entry in self.history:
            b = entry.breakdown
            rows.append(
                [entry.iteration]
                + [getattr(b, f) for f in LossBreakdown.FIELDS]
                + [entry.wall_ms]
            )
        return rows


def fit(series: Volume4DSeries, config: FitConfig):
    """Optimize a fresh network on one subject; returns (state, report)."""
    config.validate()
    if not series.followups:
        raise ValueError("series needs at least one follow-up scan")
    t_max = config.time_horizon or max(series.times)
    if t_max <= 0:
        raise ValueError("time horizon must be positive")
    dtype = _DTYPES[config.precision]

    state = net.init_network(
        seed=config.seed, config=config.network, dtype=dtype, time_horizon=t_max
    )
    params = state.param_arrays()
    opt = AdamState.zeros_like(params)
    rng = np.random.default_rng([config.seed, 0x5EED])
    mask_points = None if config.mask is None else voxel_centers(config.mask > 0, "mask")

    history = []
    started = time.perf_counter()
    nonfinite_streak = 0
    rejected_steps = 0
    for it in range(1, config.iterations + 1):
        breakdown, rejected = _fit_step(
            series, config, state, params, opt, rng, t_max, mask_points, dtype
        )
        rejected_steps += rejected
        if not np.isfinite(breakdown.total):
            nonfinite_streak += 1
            log.warning("iteration %d: non-finite total %s", it, breakdown)
            if nonfinite_streak >= 2:
                raise NumericalAbortError(it, breakdown)
            continue
        nonfinite_streak = 0
        if (it - 1) % config.log_every == 0:
            wall_ms = (time.perf_counter() - started) * 1e3
            history.append(IterationLog(it, breakdown, wall_ms))
        if (
            config.checkpoint_every > 0
            and config.checkpoint_dir is not None
            and it % config.checkpoint_every == 0
        ):
            from .fileio import save_model

            save_model(f"{config.checkpoint_dir}/checkpoint_{it:07d}.ndf", state)

    report = FitReport(
        history=history,
        wall_time_s=time.perf_counter() - started,
        final_checksum=state.checksum(),
        rejected_steps=rejected_steps,
        # ru_maxrss is in KiB on Linux
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return state, report


def _fit_step(series, config, state, params, opt, rng, t_max, mask_points, dtype):
    """One iteration: record the loss on a fresh tape, sweep it and step
    the optimizer (skipped when the total is non-finite).  Returns the
    breakdown and whether `adam_step` rejected the step.  The tape, its
    leaves and the gradients are locals, so reference counting frees them
    on return and at most one tape is alive during a fit."""
    tape = Tape(dtype)
    leaves = net.make_leaves(tape, state)
    plan = sample_plan(series, config, rng, t_max, mask_points)
    total, breakdown = build_total_loss(
        tape, leaves, series, config.weights, plan, config.network
    )
    if not np.isfinite(breakdown.total):
        return breakdown, False
    tape.backward(total)
    _, accepted = adam_step(params, leaves.grads(), opt, config)
    return breakdown, not accepted


@dataclass
class FieldGrid:
    """Dense field products sampled on the voxel grid at one time."""

    t_months: float
    dims: tuple
    displacement: np.ndarray  # (3, nx, ny, nz)
    jac_det: np.ndarray  # (nx, ny, nz)
    jac_det_dt: np.ndarray | None = None

    @property
    def phi(self) -> np.ndarray:
        return self.displacement + grid_coordinates(self.dims).reshape(
            (3,) + tuple(self.dims)
        )

    @property
    def folded_count(self) -> int:
        return int((self.jac_det <= 0.0).sum())


def predict_field(
    state: net.NetworkState,
    t_months,
    dims,
    want_djdt: bool = False,
):
    """Evaluate the fitted field densely over the voxel grid, in the
    chunks of `network.forward_with_derivatives`, whose results equal one
    pass.  `t_months` is one time (returns one FieldGrid) or a sequence of
    times (returns a list, one grid per time, sharing the network's
    time-invariant prefix).  Each grid views the arrays that
    `network.forward_with_derivatives` allocated once at grid size, so
    memory is the grids plus one chunk's prefix and two hidden-layer
    blocks."""
    single = np.ndim(t_months) == 0
    months = [t_months] if single else list(t_months)
    request = net.DerivativeRequest(spatial=True, temporal=want_djdt)
    results = net.forward_with_derivatives(
        state, grid_coordinates(dims), [m / state.time_horizon for m in months], request
    )
    dims = tuple(dims)
    grids = [
        FieldGrid(
            t_months=m,
            dims=dims,
            displacement=res.displacement.reshape((3,) + dims),
            jac_det=res.jac_det.reshape(dims),
            jac_det_dt=res.jac_det_dt.reshape(dims) if want_djdt else None,
        )
        for m, res in zip(months, results)
    ]
    return grids[0] if single else grids


def warp_volume(vol: Volume3D, phi) -> Volume3D:
    """Backward-map a volume: sample `vol` at phi(voxel) for every voxel."""
    if isinstance(phi, FieldGrid):
        if tuple(phi.dims) != tuple(vol.dims):
            raise ValueError(f"field dims {phi.dims} != volume dims {vol.dims}")
        phi = phi.phi
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (3,) + tuple(vol.dims):
        raise ValueError(f"phi shape {phi.shape} does not match volume {vol.dims}")
    vals, _ = trilinear_values_and_grads(vol.values, phi.reshape(3, -1))
    return Volume3D(vals.reshape(vol.dims), spacing=vol.spacing, meta=dict(vol.meta))
