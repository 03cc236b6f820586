"""Per-subject fitting loop and inference-time dense field generation.

Each iteration samples a fresh coordinate batch and regularization time
grid, makes fresh leaves on one tape, records and sweeps the loss segment
by segment (`segment_gradients`), and takes one optimizer step.
Similarity is evaluated at observed times only; the regularizers run on
the sampled grid, which includes unobserved times and may extend past the
last observed scan (t_extrap > 1).

Segments.  The first segment is NCC at every observed follow-up plus the
anchor, over the whole batch: one value-only trace of the observed
times.  Then the grid regularizers, which are means over points, run one
segment per point chunk: one trace of the grid with derivatives over the
chunk's points, its terms scaled by the chunk's share of the batch.  Each
segment is recorded by `build_total_loss`, swept into the leaves'
adjoints and released before the next is recorded, so the step's largest
live tape is one segment and the leaves end with the full loss's
gradient.  Chunk rule (`point_chunks`): each regularizer segment is one
time group, the grid's times of P = `network.chunk_points` points in one
`network.BLOCK_BYTES` jet block, in n = ceil(B / P) chunks in batch
order whose sizes differ by at most one.  At paper width P is 16 at f64
and 32 at f32 (B=128: 8 or 4 chunks; B=8192: 512 of 16); the fit-narrow
recipe (width 32, B=256) is 2 chunks of 128 at f64 and one at f32.  So
every GEMM still runs a full block, and no regularizer segment's tape
holds more than about 6 blocks (see `network`).  The similarity trace
shares its time-invariant prefix across the observed times, in groups
of as many as fill one block (`network.chunk_points` of its points).

`predict_field` evaluates the fitted field on the voxel grid at one time or
at a sequence of times, which share the prefix chunk by chunk, on one or
more chunk workers; inference traces one time per group and writes row 0
of each group's products.  It
returns `network.DisplacementResult`s whose products, those its
`network.DerivativeRequest` names, are shaped as the grid.

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
from .losses import (
    SIMILARITY, LossWeights, LossBreakdown, build_total_loss, regularizer_request,
)
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
    "point_chunks",
    "segment_gradients",
    "fit",
    "predict_field",
    "warp_volume",
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
        net.require_finite(self)
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.batch_points <= 0:
            raise ValueError("batch_points must be positive")
        if self.reg_time_grid_size < 2:
            raise ValueError("regularization time grid needs >= 2 points")
        if self.t_extrap < 1.0:
            raise ValueError("t_extrap must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.time_horizon is not None and self.time_horizon <= 0:
            raise ValueError(f"time_horizon must be > 0, got {self.time_horizon}")
        if self.precision not in _DTYPES:
            raise ValueError(f"precision must be one of {sorted(_DTYPES)}")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    chunk_points: tuple = ()  # points of each regularizer segment of a step
    similarity_tape_mb: float = 0.0  # largest similarity segment tape, MiB
    regularizer_tape_mb: float = 0.0  # largest regularizer segment tape, MiB

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
    if config.mask is not None and config.mask.shape != series.baseline.dims:
        raise ValueError(f"mask of shape {config.mask.shape} does not match "
                         f"the scans' grid {series.baseline.dims}")
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
    similarity_bytes = regularizer_bytes = 0
    for it in range(1, config.iterations + 1):
        breakdown, rejected, tape_bytes = _fit_step(
            series, config, state, params, opt, rng, t_max, mask_points, dtype
        )
        rejected_steps += rejected
        similarity_bytes = max(similarity_bytes, tape_bytes[0])
        regularizer_bytes = max(regularizer_bytes, *tape_bytes[1:], 0)
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
        chunk_points=tuple(_loss_chunks(
            config.weights, config.network, config.batch_points, config.reg_time_grid_size, dtype
        )),
        similarity_tape_mb=similarity_bytes / 2**20,
        regularizer_tape_mb=regularizer_bytes / 2**20,
    )
    return state, report


def _loss_chunks(weights, config, points, grid_times, dtype) -> list:
    """Points of each regularizer segment of a step (none without a grid
    regularizer): `point_chunks` of one block of the grid's times."""
    request = regularizer_request(weights)
    if request is None:
        return []
    return point_chunks(points, net.chunk_points(config, request, dtype, grid_times,
                                                    block=net.BLOCK_BYTES))


def point_chunks(points: int, size: int) -> list:
    """Points of each segment of a `points` batch of at most `size`
    points, in batch order: n = ceil(points / size) chunks whose sizes
    differ by at most one."""
    n = -(-points // size)
    size, extra = divmod(points, n)
    return [size + (i < extra) for i in range(n)]


def segment_gradients(tape, leaves, series, weights, plan, config) -> tuple:
    """Record and sweep a step's loss segment by segment on `tape`: the
    similarity terms over the whole batch, then the grid regularizers of
    each point chunk (`point_chunks`, one time group each), each through
    `build_total_loss`.  Each sweep adds its segment's gradient to the
    leaves' adjoints and releases the segment, so the largest live tape is
    one segment and the leaves end with the full loss's gradient.  Once
    the running total is non-finite, the remaining segments are recorded
    for their values and released without a sweep.  Returns the
    breakdown, summed over the segments, and each segment's tape bytes
    (`Tape.stats`) in order, the similarity segment's first."""
    segments, lo = [SIMILARITY], 0
    for n in _loss_chunks(weights, config, plan.coords.shape[1], len(plan.reg_grid), tape.dtype):
        segments.append(slice(lo, lo + n))
        lo += n
    sums = dict.fromkeys(LossBreakdown.FIELDS, 0.0)
    tape_bytes = []
    for segment in segments:
        total, part = build_total_loss(tape, leaves, series, weights, plan, config, segment)
        tape_bytes.append(sum(tape.stats()["bytes"].values()))
        for name in LossBreakdown.FIELDS:
            sums[name] += getattr(part, name)
        if np.isfinite(sums["total"]) and total.idx is not None:
            tape.backward(total)
        else:  # nothing to sweep: a constant total, or a non-finite step
            tape.release()
        total = None  # no node of a released segment outlives it
    return LossBreakdown(**sums), tape_bytes


def _fit_step(series, config, state, params, opt, rng, t_max, mask_points, dtype):
    """One iteration: fresh leaves on a fresh tape, the loss recorded and
    swept segment by segment (`segment_gradients`), and one optimizer step
    (skipped when the total is non-finite).  Returns the breakdown, whether
    `adam_step` rejected the step, and each segment's tape bytes.
    The tape, its leaves and the gradients are locals, so reference
    counting frees them on return and at most one tape is alive during a
    fit."""
    tape = Tape(dtype)
    leaves = net.make_leaves(tape, state)
    plan = sample_plan(series, config, rng, t_max, mask_points)
    breakdown, tape_bytes = segment_gradients(
        tape, leaves, series, config.weights, plan, config.network
    )
    if not np.isfinite(breakdown.total):
        return breakdown, False, tape_bytes
    _, accepted = adam_step(params, leaves.grads(), opt, config)
    return breakdown, not accepted, tape_bytes


def predict_field(
    state: net.NetworkState,
    t_months,
    dims,
    request: net.DerivativeRequest = net.DerivativeRequest(spatial=True),
    workers: int = 1,
):
    """Evaluate the fitted field densely over the voxel grid, in the
    chunks of `network.forward_with_derivatives`, whose results equal one
    pass; the grid goes in as flat (3, nx*ny*nz) coords.  `t_months` is
    one time (returns one DisplacementResult) or a sequence of times
    (returns a list, one result per time, sharing the network's
    time-invariant prefix).  `request` names the derivative products: by
    default |J| only, with `temporal` also d|J|/dt, and with neither the
    displacement alone.  Each result is on the grid: coords and
    displacement are (3, nx, ny, nz), |J| and d|J|/dt (nx, ny, nz), views
    of the arrays that `network.forward_with_derivatives` allocated once
    at grid size, so memory is those products plus, per chunk worker
    (`workers` threads, byte-identical results at any count), one chunk's
    prefix and two hidden-layer blocks."""
    single = np.ndim(t_months) == 0
    months = [t_months] if single else list(t_months)
    results = net.forward_with_derivatives(
        state, grid_coordinates(dims), [m / state.time_horizon for m in months], request,
        workers=workers,
    )
    grid = (3,) + tuple(dims)
    for res in results:
        res.coords = res.coords.reshape(grid)
        res.displacement = res.displacement.reshape(grid)
        if res.jac_det is not None:
            res.jac_det = res.jac_det.reshape(grid[1:])
        if res.jac_det_dt is not None:
            res.jac_det_dt = res.jac_det_dt.reshape(grid[1:])
    return results[0] if single else results


def warp_volume(vol: Volume3D, phi: np.ndarray) -> Volume3D:
    """Backward-map a volume: sample `vol` at phi(voxel) for every voxel;
    `phi` is (3, nx, ny, nz) at the volume's dims."""
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (3,) + tuple(vol.dims):
        raise ValueError(f"phi shape {phi.shape} does not match volume {vol.dims}")
    vals, _ = trilinear_values_and_grads(vol.values, phi.reshape(3, -1))
    return Volume3D(vals.reshape(vol.dims), spacing=vol.spacing)
