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
segment is recorded by `build_total_loss`, swept into its lane's leaves'
adjoints and released before its lane records the next, so the leaves
end with the full loss's gradient.  Chunk rule (`point_chunks`): each
regularizer segment is one time group, the grid's times of P =
`network.chunk_points` points in one `network.CHUNK_BYTES` jet block, in
n = ceil(B / P) chunks in batch order whose sizes differ by at most one.
At paper width P is 8 at f64 and 16 at f32 (B=128: 16 or 8 chunks;
B=8192: 1024 of 8); the fit-narrow recipe (width 32, B=256) is 4 chunks
of 64 at f64 and 2 of 128 at f32.  So every GEMM still runs a full
block, and no regularizer segment's tape holds more than about 6 blocks
(see `network`).  The similarity trace shares its time-invariant prefix
across the observed times, in groups of as many as fill one block
(`network.chunk_points` of its points).

Lanes.  A step's segments, the similarity segment first, are dealt to
LANES fixed lanes: segment i goes to lane i mod LANES.  Each lane records
and sweeps its segments in order on its own `Tape` with its own leaves
(lane 0 on the step's tape and leaves, lane 1 on leaves of the same
values), and keeps its own running breakdown.  Then lane 1's adjoints are
added in place into lane 0's, and the lanes' breakdowns are added, in
lane order.  The sums therefore never depend on where the lanes ran, and
the fitted model is byte-identical at any `fit(..., workers=N)`.  With
one worker the calling process runs the lanes in turn.  With two or more
`fit` forks one worker process (`LaneWorker`, a `network.Worker`) after
`init_network` and before the first step, and it sweeps lane 1 of every
step while the calling process sweeps lane 0: two processes, not two
threads, because a step is thousands of numpy calls of 5-50 us each, and
two threads of one process take turns on the interpreter lock between
them (two lanes on two threads ran no faster than one at the fit-narrow
shape).  The parameters live on a `network.shared_arrays` map made
before the fork, so Adam's in-place update reaches the worker with no
copy, and the worker writes lane 1's leaf adjoints onto the same map.
Per step the calling process sends the `SamplePlan` and lane 1's
segments down the worker's pipe, sweeps lane 0, and reads back lane 1's
breakdown, tape bytes and peak RSS, or its error, which it re-raises.
The worker makes no `make_leaves` call (`network.Leaves.of`), so a
step's one trainable `make_leaves` call is on the calling process.  It
exits at the end of its command pipe, so a killed fit leaves no worker
behind, and `fit` reaps it on every exit.  A step holds one segment tape
and one set of leaf adjoints per lane.  This is synchronous data-parallel
SGD with a fixed-order reduction (Goyal et al. 2017, arXiv 1706.02677)
over the point chunks of one step.

`predict_field` evaluates the fitted field on the voxel grid at one time or
at a sequence of times, which share the prefix chunk by chunk, on one or
more chunk workers (the calling process and forked ones); inference
traces one time per group and writes row 0 of each group's products.  It
returns `network.DisplacementResult`s whose products, those its
`network.DerivativeRequest` names, are shaped as the grid.

With a fixed seed and one BLAS thread per worker the loop is
reproducible to bit-identical parameters, byte-identical at any
`--threads`.
"""

from __future__ import annotations

import contextlib
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
    "LANES",
    "LaneWorker",
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

# lanes of a fit step's loss segments: a fixed count, apart from the
# worker count, so the order of every gradient sum is fixed (see above)
LANES = 2

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
    peak_rss_mb: float = 0.0  # largest peak resident set of the fit's processes
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


def fit(series: Volume4DSeries, config: FitConfig, workers: int = 1):
    """Optimize a fresh network on one subject; returns (state, report).
    With `workers` >= 2, lane 1 of every step runs in a `LaneWorker`
    process, forked once after `init_network` and reaped before `fit`
    returns or raises; the result is byte-identical at any count.  The
    report's peak RSS is the larger of this process's and the worker's."""
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
    chunks = _loss_chunks(
        config.weights, config.network, config.batch_points, config.reg_time_grid_size, dtype
    )
    worker = None
    if min(workers, LANES) >= 2 and chunks:  # a step of two lanes
        worker = LaneWorker(state, series, config.weights, config.network, dtype)
    with worker or contextlib.nullcontext():
        report = _fit_loop(series, config, state, t_max, dtype, worker)
    report.chunk_points = tuple(chunks)
    if worker is not None:
        report.peak_rss_mb = max(report.peak_rss_mb, worker.peak_rss_kb / 1024.0)
    return state, report


def _fit_loop(series, config, state, t_max, dtype, worker) -> FitReport:
    """Every iteration of `fit`, lane 1 on `worker` when there is one."""
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
            series, config, state, params, opt, rng, t_max, mask_points, dtype, worker
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

    return FitReport(
        history=history,
        wall_time_s=time.perf_counter() - started,
        final_checksum=state.checksum(),
        rejected_steps=rejected_steps,
        peak_rss_mb=_peak_rss_kb() / 1024.0,
        similarity_tape_mb=similarity_bytes / 2**20,
        regularizer_tape_mb=regularizer_bytes / 2**20,
    )


def _peak_rss_kb() -> int:
    """This process's peak resident set; ru_maxrss is in KiB on Linux."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _loss_chunks(weights, config, points, grid_times, dtype) -> list:
    """Points of each regularizer segment of a step (none without a grid
    regularizer): `point_chunks` of one block of the grid's times."""
    request = regularizer_request(weights)
    if request is None:
        return []
    return point_chunks(points, net.chunk_points(config, request, dtype, grid_times))


def point_chunks(points: int, size: int) -> list:
    """Points of each segment of a `points` batch of at most `size`
    points, in batch order: n = ceil(points / size) chunks whose sizes
    differ by at most one."""
    n = -(-points // size)
    size, extra = divmod(points, n)
    return [size + (i < extra) for i in range(n)]


def segment_gradients(tape, leaves, series, weights, plan, config, worker=None) -> tuple:
    """Record and sweep a step's loss segment by segment, in LANES lanes
    (see the module docstring): the similarity terms over the whole
    batch, then the grid regularizers of each point chunk (`point_chunks`,
    one time group each), each through `build_total_loss`.  Lane 0 runs
    on `tape` and `leaves`, which end with the full loss's gradient.  Lane
    1 runs on `worker`, a `LaneWorker`, while lane 0 runs here, or without
    one here after lane 0, on a tape of its own.  Returns the breakdown,
    summed over the segments in lane order, and each segment's tape bytes
    (`Tape.stats`) in segment order, the similarity segment's first."""
    segments, lo = [SIMILARITY], 0
    for n in _loss_chunks(weights, config, plan.coords.shape[1], len(plan.reg_grid), tape.dtype):
        segments.append(slice(lo, lo + n))
        lo += n
    lanes = [segments[i::LANES] for i in range(min(LANES, len(segments)))]
    if worker is not None and len(lanes) == 2:
        worker.send(plan, lanes[1])
        try:
            done = [_sweep_lane(tape, leaves, series, weights, plan, config, lanes[0])]
        except BaseException:
            worker.close(kill=True)  # its reply must not answer a later step
            raise
        done.append(worker.receive(leaves))
    else:
        done = []
        for i, lane in enumerate(lanes):  # in turn, each further lane on a tape of its own
            lane_tape = tape if i == 0 else Tape(tape.dtype)
            lane_leaves = leaves if i == 0 else leaves.on(lane_tape)
            done.append(_sweep_lane(lane_tape, lane_leaves, series, weights, plan, config, lane))
            if i > 0:
                _add_lane(leaves, [n.adjoint for n in lane_leaves.nodes()])
    sums = dict.fromkeys(LossBreakdown.FIELDS, 0.0)
    for lane_sums, _ in done:
        for name in LossBreakdown.FIELDS:
            sums[name] += lane_sums[name]
    tape_bytes = [done[i % LANES][1][i // LANES] for i in range(len(segments))]
    return LossBreakdown(**sums), tape_bytes


def _add_lane(leaves, adjoints):
    """Add a further lane's leaf adjoints, in `Leaves.nodes` order and None
    where no gradient reached a leaf, into `leaves`' in place; a leaf that
    has none takes a copy."""
    for mine, theirs in zip(leaves.nodes(), adjoints):
        if theirs is None:
            continue
        if mine.adjoint is None:
            mine.adjoint = theirs.copy()
        else:
            mine.adjoint += theirs


def _sweep_lane(tape, leaves, series, weights, plan, config, segments) -> tuple:
    """Record and sweep one lane's `segments` in order on `tape`.  Each
    sweep adds its segment's gradient to the leaves' adjoints and releases
    the segment, so the lane's largest live tape is one segment.  Once
    the lane's running total is non-finite, its remaining segments are
    recorded for their values and released without a sweep.  Returns the
    lane's breakdown sums and each segment's tape bytes, in order."""
    sums = dict.fromkeys(LossBreakdown.FIELDS, 0.0)
    tape_bytes = []
    for segment in segments:
        total, part = build_total_loss(tape, leaves, series, weights, plan, config, segment)
        tape_bytes.append(sum(tape.stats()["bytes"].values()))
        for name in LossBreakdown.FIELDS:
            sums[name] += getattr(part, name)
        if np.isfinite(sums["total"]) and total.idx is not None:
            tape.backward(total)
        else:  # nothing to sweep: a constant total, or a non-finite lane
            tape.release()
        total = None  # no node of a released segment outlives it
    return sums, tape_bytes


def _fit_step(series, config, state, params, opt, rng, t_max, mask_points, dtype, worker):
    """One iteration: fresh leaves on a fresh tape, made by one
    `make_leaves` call on the calling process, the loss recorded and swept
    segment by segment in lanes, lane 1 on `worker` when there is one
    (`segment_gradients`), and one optimizer step (skipped when the total
    is non-finite).  Returns the breakdown, whether `adam_step` rejected
    the step, and each segment's tape bytes.  The tapes, their leaves and
    the gradients are locals, so reference counting frees them on return
    and at most one tape per lane is alive during a fit."""
    tape = Tape(dtype)
    leaves = net.make_leaves(tape, state)
    plan = sample_plan(series, config, rng, t_max, mask_points)
    breakdown, tape_bytes = segment_gradients(
        tape, leaves, series, config.weights, plan, config.network, worker
    )
    if not np.isfinite(breakdown.total):
        return breakdown, False, tape_bytes
    _, accepted = adam_step(params, leaves.grads(), opt, config)
    return breakdown, not accepted, tape_bytes


class LaneWorker:
    """Lane 1 of every step of a fit, on a forked `network.Worker` (see
    "Lanes" in the module docstring); a context manager.  Entering it
    moves `state`'s parameters into a `network.shared_arrays` map, values
    unchanged, and forks the worker; leaving it reaps the worker, killed
    first when the block raised, and gives `state` plain arrays again.
    `peak_rss_kb` is the largest peak resident set the worker reported."""

    def __init__(self, state, series, weights, config, dtype):
        self.state, self.series, self.weights, self.config = state, series, weights, config
        self.dtype = np.dtype(dtype)
        self.peak_rss_kb = 0

    def __enter__(self):
        pairs = self.state.psi + self.state.theta
        # the parameters, then each leaf's adjoint (a bias's as its (1, out)
        # row), then a flag per leaf for "reached"
        specs = [(a.dtype, a.shape) for pair in pairs for a in pair]
        leaves = len(specs)
        specs += [(self.dtype, s) for w, b in pairs for s in (w.shape, b.T.shape)]
        *views, self._reached = net.shared_arrays(specs + [(np.bool_, (leaves,))])
        for view, array in zip(views, self.state.param_arrays()):
            view[...] = array
        self._set_params(views[:leaves])
        self._adjoints = views[leaves:]
        try:
            self._worker = net.Worker(self._sweep, "fit lane worker")
        except BaseException:
            self._set_params([a.copy() for a in self.state.param_arrays()])
            raise
        return self

    def __exit__(self, kind, exc, tb):
        self.close(kill=kind is not None)
        self._set_params([a.copy() for a in self.state.param_arrays()])

    def _set_params(self, arrays):
        """Make `arrays`, in `NetworkState.param_arrays` order, the state's."""
        pairs = list(zip(arrays[0::2], arrays[1::2]))
        cut = len(self.state.psi)
        self.state.psi, self.state.theta = pairs[:cut], pairs[cut:]

    def send(self, plan, segments):
        """Start lane 1 of a step: its `segments` of `plan`."""
        self._worker.send(plan, segments)

    def receive(self, leaves) -> tuple:
        """Wait for the lane `send` started and add its adjoints into
        `leaves`' in place (`_add_lane`); returns its breakdown sums and
        each segment's tape bytes, or re-raises its error."""
        sums, tape_bytes, peak_rss_kb = self._worker.receive()
        self.peak_rss_kb = max(self.peak_rss_kb, peak_rss_kb)
        _add_lane(leaves, [a if reached else None
                           for a, reached in zip(self._adjoints, self._reached)])
        return sums, tape_bytes

    def close(self, kill=False):
        """Reap the worker (`network.Worker.close`)."""
        self._worker.close(kill)

    def _sweep(self, plan, segments) -> tuple:
        """In the worker: sweep one lane on leaves of the shared parameters,
        write its adjoints onto the map; returns (sums, tape bytes, peak RSS)."""
        tape = Tape(self.dtype)
        leaves = net.Leaves.of(self.state, tape.leaf)
        sums, tape_bytes = _sweep_lane(tape, leaves, self.series, self.weights,
                                       plan, self.config, segments)
        for i, (node, out) in enumerate(zip(leaves.nodes(), self._adjoints)):
            self._reached[i] = node.adjoint is not None
            if node.adjoint is not None:
                out[...] = node.adjoint
        return sums, tape_bytes, _peak_rss_kb()


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
    (`workers` processes, byte-identical results at any count), one
    chunk's prefix and two hidden-layer blocks."""
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
