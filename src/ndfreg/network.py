"""The implicit representation of the displacement field.

A primary sine-activated MLP maps a spatial coordinate to a displacement;
an auxiliary two-layer LeakyReLU sub-network embeds scalar time into a
feature vector that is concatenated with every hidden layer.  All
derivative products (spatial Jacobian, temporal derivative, |J| via
cofactor expansion, and d|J|/dt via Jacobi's formula with mixed
second-order tangents) are exact chain-rule quantities taped on the
differentiation engine, so losses built on them remain differentiable
with respect to every parameter.

A trace ends at the output layer's jet of each time group, whose slots
`DerivativeRequest` sets: x, y, z with `spatial`, t with `temporal`, and
the mixed entries dJ/dt with both.  Each product is one node read off a
group's jet at the place that uses it, so a tape records only the products
its caller reads: `displacement`, `dphi_dt` and `jacobian` here, each a
`diffengine.jet_slot` read, and d|I + J|/dt by `diffengine.jacdet_dt`.
|I + J| (`diffengine.jacdet`) is a value read that records nothing: no
loss differentiates it.  Every reader reads all K times of a group; only
`displacement` also reads one of them.  At depth 2 time enters after the
last sine, so J does not depend on t and d|J|/dt is a zero constant.

Time groups.  `trace_network` traces a sequence of times in groups of K,
each group as one jet block per layer: (S, K, P, rows) in C order for S
slots and P points, which is still (S*K*P, rows), so each slot is one
contiguous panel and each layer one matmul for all K times.  The time
embedding takes the group's K times as K points; its product with a
layer's weights joins the layer's block as column terms of one row per
time (v rows, then t rows), while a bias stays one row for every time.
Time enters only through the embedding, so the first sine layer and layer
2's product with it do not depend on time: that prefix is traced once per
coordinate batch as a one-time block, and layer 2's rule broadcasts it
over each group's K times (its VJP sums the prefix's cotangent back over
them).  The last group takes the only reference to the prefix, so it is
freed after that group's layer 2.  `trace_network` returns one output jet
per group, and time k of a group is position k of its jet.

Grouping rule: a recorded trace puts as many times in a group as keep
one hidden-layer block within CHUNK_BYTES, K = max(1, CHUNK_BYTES //
(hidden width x slot count x itemsize x P)), which is `chunk_points`
with points and times swapped, so each time costs one chain of per-node
Python and small kernels per group, not per time.  A fit step's
regularizer segment (`trainer.point_chunks`) is one group of the whole
grid; the value-only observed times of a whole batch are one group at
both benchmark shapes.  A trace of a frozen state
(`make_leaves(trainable=False)`, inference) keeps one time per group:
its chunks already fill CHUNK_BYTES with one time, and a one-time
value-only embedding is a single row, which numpy multiplies as a matrix
vector product whose sums round differently from a matrix product's, so
grouping would make a short call's products depend on the other times it
asks for.  Per time, the products of a one-time group are bit-identical
to a trace at that time alone.

Each layer's value, tangents and mixed entries travel as one stacked jet
block (see `diffengine`), so a hidden layer holds hidden width x slot
count values per point and time.  Chunks are therefore sized by bytes:
`chunk_points` takes as many points as keep one hidden-layer block of a
given number of times within CHUNK_BYTES (1 MiB), the one byte budget of
every block.  A fit step asks for its grid's times: with d|J|/dt on an
8-time grid that is 8 points at paper width, f64, and 64 at width 32.
Inference asks for one time: 64 points at paper width with d|J|/dt (8
slots), 128 with J alone (4 slots) and 512 for displacement alone, at
any worker count.  An inference call longer than one chunk pads its last
chunk to the full size and drops the padded points, so every chunk runs
its matmuls in one shape: a short last chunk would run them in another,
whose products can differ in the last bits (likely OpenBLAS's
small-matrix path).  With one BLAS thread, (rows, 256) @ (256, 256)
hidden-layer products measured the same bits in pieces down to 8 rows,
but the output layer's n = 3 product did not: 64-, 128- and 256-row
pieces of a 1024-row product differed, 512-row pieces did not.  So the
chunk size never depends on the worker count, and at paper width every
inference output product keeps at least 512 rows.  A block that fits the
per-core L2 (2 MiB on the x86-64 hosts this is measured on) stays there
between a layer's matmul and its rule: 8 MiB chunks measured 6-12 %
slower per layer.  CHUNK_BYTES stays below the CLI's 32 MiB mmap
threshold (`cli.HEAP_MMAP_THRESHOLD`), so every chunk's arrays come from
heap a previous chunk freed, not from fresh pages.

Workers.  `forward_with_derivatives` hands its equal-shape chunks to
`workers` threads (default 1; `cli` passes --threads, by default two
where the process may run on two CPUs or more) through `_run_chunks`:
the calling thread and workers - 1 helpers, each taking the next chunk
until none is left.  Each traces its chunk on its own tape and writes
that chunk's columns of the results, which are allocated once per call,
so no two workers touch one array and the results are byte-identical at
any worker count.  `_run_chunks` serves inference only: a fit step's
lanes run in two processes, not on these threads (`trainer.LaneWorker`).
Inference is bound by its matmuls, in which numpy drops the GIL, so the
workers' kernels run at once: on a 2-CPU host with one BLAS thread, J
at three times plus d|J|/dt on 24^3 took 1.07-1.22 s on two threads
against 1.05-1.14 s as two processes, which would not pay for a fork per
call and shared output arrays.  With one BLAS thread per worker (`cli`
pins it) a worker is one core.  Each helper runs in a copy of the
calling thread's context, so numpy's error state (`np.errstate`, a
context variable) holds on every worker.  Every helper is joined before
the call returns or re-raises a worker's error.

Memory bound: no hidden-layer block exceeds CHUNK_BYTES, K times of P
points in training or one time of a chunk in inference.  A dense
inference chunk holds at most the prefix plus two hidden-layer blocks
(2 MiB at the default chunk size), one rule's input and its output,
because `trace_network` drops each layer's input activation before the
layer's rule runs (the sine adds scratch of four slot panels).  So two
workers hold what one worker held on chunks of twice the size.  Past
two, peak RSS grows by each worker's chunk set and its BLAS buffers,
whatever the grid: 3.4-5 MB per worker at paper width, f64 (`cli`
docstring).  A training tape holds the same bytes grouped or not, and a
fit step holds one segment tape per lane, lane 1's in the lane worker
process when it runs on one.  The reverse sweep's transient is the
incoming cotangent, one group's block of up to
CHUNK_BYTES, plus scratch slot panels, with no second block: every
sine and leaky rule writes its input cotangent over the leading slots of
the incoming one, with at most four scratch panels, and no rule
allocates a cotangent block.  Only layer 2's input, the one-time prefix,
gets a new array: those slots summed over the times (or, in a group of
one time, the sweep's copy of them).  A weight gradient adds into its
columns of the weight's adjoint, which each lane allocates once per
step.  A recorded group keeps 2(depth - 2) - 1 blocks (layer 2's sine,
each deeper hidden layer's matmul and sine) and an omega*cos slot panel
per sine: 5.4 blocks at depth 5; with the prefix, the output block and
the loss's readers a fit step's regularizer segment records 5.7-5.8
blocks, leaves left out.
`forward_with_derivatives` returns the displacement, |I + J| with
`spatial` and d|I + J|/dt with both; it allocates each of them once at
grid size and every chunk writes its own columns.  J and dphi/dt stay on
the output jets, read by `jacobian` and `dphi_dt` where they are needed,
and are never held at grid size.  A chunk's tape and output
jets are freed before its worker traces its next chunk, so none of its
small output arrays splits a freed block's heap hole.

Time fed to the sub-network is normalized: months divided by the fitted
horizon stored on the state.  Derivatives returned here are with respect
to normalized time.
"""

from __future__ import annotations

import contextvars
import math
import threading
from dataclasses import dataclass

import numpy as np

from . import diffengine as de
from .diffengine import Jet, Node, Tape

__all__ = [
    "NetworkConfig",
    "NetworkState",
    "DerivativeRequest",
    "DisplacementResult",
    "displacement", "dphi_dt", "jacobian",
    "init_network",
    "make_leaves",
    "trace_network",
    "forward",
    "forward_with_derivatives",
]


try:  # the built-in SHA-256: `hashlib` would map OpenSSL into every process
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256


# bytes of one hidden-layer jet block, the one budget of every block: a
# fit segment's time group and an inference chunk.  Half the 2 MiB
# per-core L2, so two workers' blocks fit where one did, and at paper
# width every inference output-layer product keeps at least 512 rows (see
# the module docstring)
CHUNK_BYTES = 1 << 20


def require_finite(config):
    """Refuse a field of the dataclass `config` that holds a non-finite
    number, naming it: NaN passes every < check."""
    for name in config.__dataclass_fields__:
        value = getattr(config, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class NetworkConfig:
    hidden_width: int = 256
    depth: int = 5  # affine layers in the primary net: depth-1 sine + 1 linear
    time_hidden_width: int = 10
    time_embed_width: int = 64
    omega0: float = 30.0
    leaky_slope: float = 0.01

    def validate(self):
        require_finite(self)
        if self.hidden_width < 2:
            raise ValueError(f"hidden_width must be >= 2, got {self.hidden_width}")
        if self.depth < 2:
            raise ValueError(f"depth must be >= 2, got {self.depth}")
        if self.omega0 <= 0:
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if self.time_hidden_width < 1 or self.time_embed_width < 1:
            raise ValueError("time sub-network widths must be >= 1")

    def layer_shapes(self) -> list:
        """(out, in) of every primary affine layer, concat width included."""
        h, e, d = self.hidden_width, self.time_embed_width, self.depth
        return [(h, 3)] + [(h, h + e)] * (d - 2) + [(3, h + e)]

    def time_layer_shapes(self) -> list:
        """(out, in) of the time sub-network's two affine layers."""
        th = self.time_hidden_width
        return [(th, 1), (self.time_embed_width, th)]


@dataclass
class NetworkState:
    """All weights/biases of the primary and time sub-networks."""

    config: NetworkConfig
    psi: list  # [(W, b)] for the primary network
    theta: list  # [(W, b)] for the time sub-network
    seed: int = 0
    time_horizon: float = 1.0

    def param_arrays(self) -> list:
        """Flat parameter list in a fixed order (the Adam/serialize order)."""
        out = []
        for w, b in self.psi + self.theta:
            out.extend((w, b))
        return out

    def checksum(self) -> str:
        h = _sha256()
        for arr in self.param_arrays():
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        return h.hexdigest()


def init_network(
    seed: int = 0,
    config: NetworkConfig | None = None,
    dtype=np.float64,
    time_horizon: float = 1.0,
) -> NetworkState:
    """Sine-network initialization: first layer U(-1/fan_in, 1/fan_in),
    deeper layers U(+-sqrt(6/fan_in)/omega0); time sub-network
    U(+-sqrt(6/fan_in)); all biases zero.  Deterministic given the seed."""
    config = config or NetworkConfig()
    config.validate()
    rng = np.random.default_rng(seed)
    psi = []
    for li, (out, fan_in) in enumerate(config.layer_shapes()):
        bound = 1.0 / fan_in if li == 0 else np.sqrt(6.0 / fan_in) / config.omega0
        w = rng.uniform(-bound, bound, size=(out, fan_in)).astype(dtype)
        psi.append((w, np.zeros((out, 1), dtype=dtype)))
    theta = []
    for out, fan_in in config.time_layer_shapes():
        bound = np.sqrt(6.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(out, fan_in)).astype(dtype)
        theta.append((w, np.zeros((out, 1), dtype=dtype)))
    return NetworkState(config, psi, theta, seed=seed, time_horizon=time_horizon)


@dataclass(frozen=True)
class DerivativeRequest:
    """The tangents the traced jets carry: x, y, z with `spatial`, t with
    `temporal`, and the mixed entries d/dt of x, y, z with both."""

    spatial: bool = False
    temporal: bool = False


@dataclass
class DisplacementResult:
    """The products of the field at one time over a set of points: the
    flat (3, B) coords of `forward_with_derivatives`, or the voxel grid's
    (3, nx, ny, nz) of `trainer.predict_field`; each product has the
    points' shape, with a leading 3 for a vector."""

    coords: np.ndarray  # (3, ...)
    displacement: np.ndarray  # (3, ...)
    jac_det: np.ndarray | None = None  # (...), |I + J|, with `spatial`
    jac_det_dt: np.ndarray | None = None  # (...), d|I + J|/dt, with both

    @property
    def phi(self) -> np.ndarray:
        return self.coords + self.displacement

    @property
    def folded_count(self) -> int:
        """Points where |I + J| <= 0: the map folds there."""
        return int((self.jac_det <= 0.0).sum())


@dataclass
class Leaves:
    """Tape nodes for every parameter, mirroring the state layout."""

    psi: list
    theta: list

    @property
    def trainable(self) -> bool:
        """Whether the parameters are recorded leaves, not constants."""
        return self.psi[0][0].idx is not None

    def nodes(self) -> list:
        """Every parameter's node, in `NetworkState.param_arrays` order."""
        return [n for pair in self.psi + self.theta for n in pair]

    @classmethod
    def of(cls, state: "NetworkState", make) -> "Leaves":
        """`make`, a tape's `leaf` or `constant`, of every parameter of
        `state`; each (out, 1) bias enters as the (1, out) row that a
        point-major jet's column term is."""
        return cls(*([(make(w), make(b.T)) for w, b in part] for part in (state.psi, state.theta)))

    def on(self, tape: Tape) -> "Leaves":
        """The same parameter values as leaves of `tape`, with adjoints of
        their own: the leaves of a fit step's lane 1 when it runs on the
        calling process, whose step made its leaves with one `make_leaves`
        call."""
        return Leaves(*([(tape.leaf(w.value), tape.leaf(b.value)) for w, b in part]
                        for part in (self.psi, self.theta)))

    def grads(self) -> list:
        """The leaves' adjoints in `NetworkState.param_arrays` order and
        shapes (each bias row back to its (out, 1) column), zero where no
        gradient reached a leaf."""
        def adjoint(n):
            return np.zeros_like(n.value) if n.adjoint is None else n.adjoint

        out = []
        for w, b in self.psi + self.theta:
            out.extend((adjoint(w), adjoint(b).T))
        return out


def make_leaves(tape: Tape, state: NetworkState, trainable: bool = True) -> Leaves:
    """Tape nodes for every parameter (`Leaves.of`): recorded leaves, or
    constants of a frozen state."""
    return Leaves.of(state, tape.leaf if trainable else tape.constant)


def displacement(tape: Tape, out: Jet, time: int | None = None) -> Node:
    """The displacement of a group's output jet at its position `time`,
    (3,P), or at every time, (3,K*P) time-major."""
    return de.jet_slot(tape, out, (de.V,), time)


def dphi_dt(tape: Tape, out: Jet) -> Node:
    """d(phi)/dt of a group's output jet, (3,K*P) time-major."""
    return de.jet_slot(tape, out, (de.T,))


def jacobian(tape: Tape, out: Jet) -> Node:
    """J of a group's output jet, (3,3*K*P): row i, columns
    [j*K*P, (j+1)*K*P) hold d(disp_i)/dx_j at the points, time-major."""
    return de.jet_slot(tape, out, de.SPATIAL)


def _trace_time_embed(tape, theta, tb, config: NetworkConfig) -> Jet:
    (w1, b1), (w2, b2) = theta
    z = de.bundle_affine(tape, w1, tb, b1)
    h = de.bundle_leaky(tape, z, config.leaky_slope)
    return de.bundle_leaky(tape, de.bundle_affine(tape, w2, h, b2), config.leaky_slope)


def _time_jet(tape, times, temporal: bool) -> Jet:
    """K times as K points of the embedding's input, with their unit
    t-tangents (slots v, t) or alone (v)."""
    t = np.array(times, dtype=tape.dtype)[:, None]
    if not temporal:
        return Jet(tape.constant(t), (de.V,))
    return Jet(tape.constant(np.concatenate([t, np.ones_like(t)])), (de.V, de.T))


def trace_network(
    tape: Tape,
    leaves: Leaves,
    coords: np.ndarray,
    times,
    config: NetworkConfig,
    request: DerivativeRequest,
) -> list:
    """Trace the field at (3,P) `coords` at a sequence of normalized
    `times`; returns the output layer's jet of each time group, in order.

    The times are traced in groups of as many as fill one block (the
    last may be shorter; one time per group for frozen leaves, see the
    module docstring), each group as one jet block per layer; time k of a
    group is position k of its jet.  Time enters only through the embedding
    concatenated into the hidden layers, so the coordinate jet, the layer-1
    sine and layer 2's `W2[:, :h] @ a1` are traced once and shared by every
    group; layer 2's rule broadcasts that prefix over a group's times.
    The last group takes the only reference to the prefix and drops it
    with its layer 2's sine, and each layer drops its input activation
    once its pre-activation exists, so without a tape holding them only
    the prefix and a rule's input and output blocks are alive at a time."""
    times = [float(t) for t in times]
    coords = np.asarray(coords, dtype=tape.dtype)
    if coords.ndim != 2 or coords.shape[0] != 3:
        raise ValueError(f"coordinate block must be (3,B), got {coords.shape}")
    h = config.hidden_width
    he = h + config.time_embed_width
    points = max(1, coords.shape[1])
    k = chunk_points(config, request, tape.dtype, points) if leaves.trainable else 1
    prefix = _trace_prefix(tape, leaves, _coordinate_jet(tape, coords, request.spatial), config)
    outs = []
    for lo in range(0, len(times), k):
        group = times[lo : lo + k]
        eb = _trace_time_embed(tape, leaves.theta, _time_jet(tape, group, request.temporal), config)
        a = prefix
        if lo + k >= len(times):
            prefix = None  # the last group's layer 2 holds the only reference
        for li in range(1, config.depth):
            w, b = leaves.psi[li]
            z = a if li == 1 else de.bundle_affine(tape, w, a, cols=(0, h))
            z = de.bundle_add(tape, z, de.bundle_affine(tape, w, eb, b, cols=(h, he)))
            a = None  # freed before the rule's output is allocated
            if li < config.depth - 1:
                z = de.bundle_sine(tape, z)
            a = z
        outs.append(a)
    return outs


def _coordinate_jet(tape, coords, spatial: bool) -> Jet:
    """The coordinates with unit x, y, z tangents, or the value alone."""
    if not spatial:
        return Jet(tape.constant(np.ascontiguousarray(coords.T)), (de.V,))
    block = np.zeros((4, coords.shape[1], 3), dtype=tape.dtype)
    block[0] = coords.T
    for d in range(3):
        block[1 + d, :, d] = 1.0
    return Jet(tape.constant(block.reshape(-1, 3)), (de.V, de.X, de.Y, de.Z))


def _trace_prefix(tape, leaves, xb, config: NetworkConfig) -> Jet:
    """Layer 2's product with the layer-1 activations, `W2[:, :h] @ a1`:
    the last quantity that does not depend on time."""
    w1, b1 = leaves.psi[0]
    a1 = de.bundle_sine(tape, de.bundle_affine(tape, w1, xb, b1), config.omega0)
    return de.bundle_affine(tape, leaves.psi[1][0], a1, cols=(0, config.hidden_width))


def forward(state: NetworkState, coords: np.ndarray, times) -> DisplacementResult:
    """Displacement only; pure evaluation of a frozen state."""
    return forward_with_derivatives(state, coords, times, DerivativeRequest())


def forward_with_derivatives(
    state: NetworkState,
    coords: np.ndarray,
    times,
    request: DerivativeRequest,
    dtype=np.float64,
    workers: int = 1,
):
    """Evaluate the frozen field and the requested products at (3,B)
    coords, in chunks of `chunk_points` points within CHUNK_BYTES; when
    there is more than one chunk, the last is padded to the full chunk and
    the padding's products are dropped.  `times` is one normalized time
    (returns one DisplacementResult) or a sequence of them (returns a list,
    one result per time); each chunk traces the time-invariant prefix once
    and shares it across the times.  `workers` threads trace the chunks,
    each on its own tape (see the module docstring).

    A result carries the displacement, |I + J| with `spatial` and
    d|I + J|/dt with both; J and dphi/dt are read off an output jet
    (`jacobian`, `dphi_dt`).  Each product is allocated once at full size
    and every chunk writes its own columns, so memory is those products
    plus each worker's chunk working set: the prefix and two hidden-layer
    blocks (see the module docstring).  The parameters enter as tape
    constants, so nothing is recorded; chunking, padding, sharing and the
    worker count change no arithmetic (results are identical to one pass
    per time)."""
    size = chunk_points(state.config, request, dtype)
    single = np.ndim(times) == 0
    times = [times] if single else list(times)
    coords = np.asarray(coords, dtype=dtype)
    n = coords.shape[1]
    results = [
        DisplacementResult(
            coords,
            np.empty((3, n), dtype),
            np.empty(n, dtype) if request.spatial else None,
            np.empty(n, dtype) if request.spatial and request.temporal else None,
        )
        for _ in times
    ]

    def write(lo):
        cols = slice(lo, min(lo + size, n))
        chunk = coords[:, cols]
        if chunk.shape[1] < size < n:  # pad a short last chunk to full size
            chunk = np.pad(chunk, ((0, 0), (0, size - chunk.shape[1])))
        _write_chunk(results, cols, state, chunk, times, request, dtype)

    _run_chunks(write, range(0, n, size), workers)
    return results[0] if single else results


def _run_chunks(write, starts, workers: int):
    """Call `write(lo)` for every chunk start of a dense evaluation on
    `workers` threads, the calling one and workers - 1 helpers (no more
    than there are chunks), that each take the next start until none is
    left; with one worker the calling thread writes every chunk in order.
    Each helper runs in a copy of the calling thread's context, so the
    caller's `np.errstate` holds on every worker.  A worker that raises stops the others after their
    current chunk, and every helper is joined before the first error is
    re-raised, so no thread outlives the call."""
    workers = min(workers, len(starts))
    pending, lock, errors = iter(starts), threading.Lock(), []

    def work():
        while not errors:
            with lock:
                lo = next(pending, None)
            if lo is None:
                return
            try:
                write(lo)
            except BaseException as exc:  # re-raised by the calling thread
                errors.append(exc)

    helpers = []
    try:
        for _ in range(workers - 1):
            thread = threading.Thread(target=contextvars.copy_context().run,
                                      args=(work,), name="ndfreg-chunk")
            thread.start()
            helpers.append(thread)
        work()
    finally:
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]


def _write_chunk(results, cols, state, coords, times, request, dtype):
    """Trace one chunk of coords at every time and write each product's
    leading points into the results' columns `cols`; points past them are
    padding.  A frozen trace holds one time per group, so each product is
    row 0 of its group's.  The chunk's tape and output jets die on return,
    so none of them pins heap while the next chunk traces."""
    tape = Tape(dtype)
    leaves = make_leaves(tape, state, trainable=False)
    outs = trace_network(tape, leaves, coords, times, state.config, request)
    n = cols.stop - cols.start
    for res, out in zip(results, outs):
        res.displacement[:, cols] = displacement(tape, out).value[:, :n]
        if res.jac_det is not None:
            res.jac_det[cols] = de.jacdet(out)[0, :n]
        if res.jac_det_dt is not None:
            res.jac_det_dt[cols] = de.jacdet_dt(tape, out).value[0, :n]


def _slot_count(request: DerivativeRequest) -> int:
    """Slots of a hidden-layer jet block: v, the tangents, the mixed."""
    spatial, temporal = request.spatial, request.temporal
    return 1 + 3 * spatial + temporal + 3 * (spatial and temporal)


def _point_bytes(config: NetworkConfig, request: DerivativeRequest, dtype) -> int:
    """Bytes of one point of a hidden-layer jet block at one time: hidden
    width x slot count x itemsize."""
    return config.hidden_width * _slot_count(request) * np.dtype(dtype).itemsize


def chunk_points(config: NetworkConfig, request: DerivativeRequest, dtype,
                 times: int = 1) -> int:
    """Points per chunk: as many as keep one hidden-layer jet block of
    `times` times within CHUNK_BYTES, and at least one.  A fit step's
    regularizer segment is its grid's times; an inference chunk is one
    time.  The rule is symmetric in points and times, so with `times` the
    points P of a block it is the times per block, K (`trace_network`'s
    groups): a segment sized for its grid's times is one group."""
    return max(1, CHUNK_BYTES // (times * _point_bytes(config, request, dtype)))
