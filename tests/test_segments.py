"""Segmented fit steps: the similarity terms over the whole batch, then the
grid regularizers point chunk by point chunk, dealt to the step's fixed
lanes, each segment recorded, swept and released on its lane's tape.  The
chunked gradient is the one-tape gradient, the lanes' sums do not depend
on the worker count, lane 1 in the lane worker process or not, the chunk
rule makes every regularizer segment one time group of one CHUNK_BYTES
block, and the fit loop keeps the benchmark's iteration boundary."""

import contextlib
import functools
import gc
import os
import threading
import time
import weakref

import numpy as np
import pytest

from ndfreg import cli, losses, network as net, trainer
from ndfreg.diffengine import Tape
from ndfreg.losses import LossBreakdown, LossWeights
from ndfreg.trainer import SamplePlan
from ndfreg.volume import Volume3D, Volume4DSeries

from test_trainer import quick_config, tiny_series

WEIGHTS = LossWeights(lam=2.0, alpha=0.5, beta=0.5, gamma=3.0)
NARROW = net.NetworkConfig(hidden_width=32, depth=5, time_hidden_width=10, time_embed_width=16)
PAPER = net.NetworkConfig()
# the benchmark's fit shapes: network, batch, precision and the points of
# each regularizer segment at an 8-time grid
SHAPES = {
    "paper-f64": (PAPER, 128, np.float64, [8] * 16),
    "paper-f32": (PAPER, 128, np.float32, [16] * 8),
    "narrow-f64": (NARROW, 256, np.float64, [64] * 4),
    "narrow-f32": (NARROW, 256, np.float32, [128] * 2),
}


def _setup(points=31, config=None, seed=3):
    """Three follow-ups, four observed times, an 8-time grid and a depth-5
    network whose weights make the monotonic term non-zero."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(0, 1, size=(6, 6, 6))
    followups = [
        (m, Volume3D(np.clip(base + rng.uniform(-0.05, 0.05, base.shape), 0, 1)))
        for m in (12.0, 24.0, 36.0)
    ]
    series = Volume4DSeries(Volume3D(base), followups)
    config = config or net.NetworkConfig(
        hidden_width=16, depth=5, time_hidden_width=10, time_embed_width=8
    )
    state = net.init_network(seed=1, config=config)
    if config.hidden_width < 64:
        for w, b in state.psi + state.theta:
            w *= 2.0
            b[:] = rng.uniform(-0.2, 0.2, size=b.shape)
    plan = SamplePlan(
        coords=rng.uniform(-0.8, 0.8, size=(3, points)),
        observed_times=np.array([0.0, 1 / 3, 2 / 3, 1.0]),
        reg_grid=np.linspace(0.0, 1.0, 8),
    )
    return series, state, plan


def _force_chunks(monkeypatch, points, n):
    """Size the regularizer segments so that a `points` batch splits into
    `n` chunks."""
    size = -(-points // n)
    monkeypatch.setattr(net, "chunk_points", lambda *args, **kwargs: size)
    chunks = trainer.point_chunks(points, size)
    assert len(chunks) == n
    return chunks


def _one_tape(series, state, plan, weights):
    tape = Tape()
    leaves = net.make_leaves(tape, state)
    total, breakdown = losses.build_total_loss(tape, leaves, series, weights, plan, state.config)
    tape.backward(total)
    return leaves.grads(), breakdown


def _segmented(series, state, plan, weights, dtype=np.float64, workers=1):
    """One step's gradients, breakdown and segment tape bytes; on two
    workers or more lane 1 runs in a `LaneWorker` process, as in a fit."""
    worker = None
    if workers > 1:
        worker = trainer.LaneWorker(state, series, weights, state.config, dtype)
    tape = Tape(dtype)
    with worker or contextlib.nullcontext():
        leaves = net.make_leaves(tape, state)
        breakdown, tape_bytes = trainer.segment_gradients(
            tape, leaves, series, weights, plan, state.config, worker
        )
    assert tape.nodes == leaves.nodes()
    return leaves.grads(), breakdown, tape_bytes


def _name(segment) -> str:
    """A segment as one word: "similarity", or a chunk's "start:stop"."""
    return segment if segment is losses.SIMILARITY else f"{segment.start}:{segment.stop}"


def test_point_chunks_rule():
    """n = ceil(B / size) chunks in batch order, sizes differing by at most
    one, at least one and at most B."""
    assert trainer.point_chunks(10, 10) == [10]
    assert trainer.point_chunks(10, 9) == [5, 5]
    assert trainer.point_chunks(31, 8) == [8, 8, 8, 7]
    assert trainer.point_chunks(3, 1) == [1, 1, 1]
    assert trainer.point_chunks(3, 10**6) == [3]


@pytest.mark.parametrize("config, points, dtype, chunks", [
    *(pytest.param(*shape, id=name) for name, shape in SHAPES.items()),
    pytest.param(PAPER, 8192, np.float64, [8] * 1024, id="paper-8192-f64"),
])
def test_regularizer_segments_are_one_block_of_the_grid(config, points, dtype, chunks):
    """Each regularizer segment holds the 8 grid times of as many points
    as fill one CHUNK_BYTES block, at the benchmark's fit shapes and at
    the paper's batch."""
    weights = LossWeights(gamma=0.1)
    assert trainer._loss_chunks(weights, config, points, 8, dtype) == chunks


@pytest.mark.parametrize("n, points", [(1, 30), (2, 30), (3, 30), (3, 31)])
def test_segmented_gradients_match_one_tape(monkeypatch, n, points):
    """The segmented step's parameter gradients equal one tape's to 1e-12
    relative at f64 with gamma > 0, at 1, 2 and 3 chunks and with an
    uneven split (11, 10, 10), on one worker and on two; its breakdown
    terms agree to 1e-13."""
    series, state, plan = _setup(points)
    chunks = _force_chunks(monkeypatch, points, n)
    assert sum(chunks) == points and max(chunks) - min(chunks) <= 1
    want, want_bd = _one_tape(series, state, plan, WEIGHTS)
    assert want_bd.monotonic > 0.0
    for workers in (1, 2):
        got, got_bd, _ = _segmented(series, state, plan, WEIGHTS, workers=workers)
        for name in LossBreakdown.FIELDS:
            assert getattr(got_bd, name) == pytest.approx(getattr(want_bd, name),
                                                          rel=1e-13, abs=0.0)
        for g, ref in zip(got, want):
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_a_pickled_similarity_segment_records_the_similarity_terms():
    """A segment sent to the lane worker arrives through a pickle, as a
    string equal to SIMILARITY but not the same object: it records the
    similarity terms with the same bits.  A segment that is not None,
    SIMILARITY or a slice is refused, named."""
    import pickle

    series, state, plan = _setup()
    copy = pickle.loads(pickle.dumps(losses.SIMILARITY))
    assert copy is not losses.SIMILARITY
    values = []
    for segment in (losses.SIMILARITY, copy):
        tape = Tape()
        leaves = net.make_leaves(tape, state)
        total, breakdown = losses.build_total_loss(tape, leaves, series, WEIGHTS, plan,
                                                   state.config, segment)
        assert total is not None and breakdown.sim > 0.0
        values.append([getattr(breakdown, name).hex() for name in LossBreakdown.FIELDS])
    assert values[0] == values[1]
    tape = Tape()
    with pytest.raises(ValueError, match="unknown loss segment 'sim'"):
        losses.build_total_loss(tape, net.make_leaves(tape, state), series, WEIGHTS, plan,
                                state.config, "sim")


def test_segments_free_each_chunk_before_the_next_records(monkeypatch):
    """With the cyclic collector off, every buffer a segment's nodes hold
    is freed before `build_total_loss` records the next segment, so a
    lane's largest live tape is one segment.  On one worker the lanes run
    in turn: lane 0 records the similarity segment and the second chunk,
    then lane 1 the first and the third."""
    series, state, plan = _setup(30)
    _force_chunks(monkeypatch, 30, 3)
    build = trainer.build_total_loss
    held, alive, segments = [], [], []

    def tracking(tape, *args):
        alive.append(sum(ref() is not None for ref in held))
        out = build(tape, *args)
        segments.append(args[-1])
        held.extend(weakref.ref(n.value) for n in tape.nodes
                    if n.kind != "leaf" and isinstance(n.value, np.ndarray))
        return out

    monkeypatch.setattr(trainer, "build_total_loss", tracking)
    gc.disable()
    try:
        _segmented(series, state, plan, WEIGHTS)
    finally:
        gc.enable()
    assert segments == [losses.SIMILARITY, slice(10, 20), slice(0, 10), slice(20, 30)]
    assert alive == [0, 0, 0, 0]
    assert all(ref() is None for ref in held)


def test_leaf_adjoints_stay_one_array_across_segments(monkeypatch):
    """In a step of the similarity segment and 3 regularizer segments, two
    per lane, each sweep adds into its lane's leaves' adjoints in place:
    every leaf's adjoint is one array object per lane from the lane's first
    sweep to its last, lane 1's are its own, and lane 1's are added into
    lane 0's in place, which are the step's gradient."""
    series, state, plan = _setup(30)
    _force_chunks(monkeypatch, 30, 3)
    backward, seen = Tape.backward, {}

    def tracking(tape, output):
        backward(tape, output)
        seen.setdefault(id(tape), []).append([n.adjoint for n in tape.nodes])

    monkeypatch.setattr(Tape, "backward", tracking)
    tape = Tape()
    leaves = net.make_leaves(tape, state)
    trainer.segment_gradients(tape, leaves, series, WEIGHTS, plan, state.config)
    assert len(seen) == trainer.LANES and id(tape) in seen
    lane0 = seen.pop(id(tape))
    (lane1,) = seen.values()
    assert len(lane0) == len(lane1) == 2 and len(lane0[0]) == len(state.param_arrays())
    for sweeps in (lane0, lane1):
        assert all(a is not None for a in sweeps[0])
        assert all(a is first for a, first in zip(sweeps[1], sweeps[0]))
    assert all(a is not b for a, b in zip(lane0[0], lane1[0]))
    assert all(n.adjoint is a for n, a in zip(leaves.nodes(), lane0[0]))


def test_fit_keeps_the_iteration_boundary(monkeypatch, process_log):
    """Forced to 3 chunks, a fit on two workers still makes one
    `make_leaves(trainable=True)` call per iteration, on the calling
    process's main thread, and records 1 + 3 segments per iteration: lane
    0's (the similarity segment and the second chunk) on the calling
    process and lane 1's (the first and third chunks) on the lane worker.
    Each process keeps one tape alive at a time (weak references), so at
    most LANES are alive in all."""
    cfg = quick_config(iterations=3, batch_points=30)
    _force_chunks(monkeypatch, 30, 3)
    calls = {"leaves": 0}
    live = weakref.WeakSet()
    make_leaves, build, init = net.make_leaves, trainer.build_total_loss, Tape.__init__

    def counting_leaves(tape, state, trainable=True):
        assert threading.current_thread() is threading.main_thread()
        calls["leaves"] += trainable
        return make_leaves(tape, state, trainable)

    def counting_build(*args):
        process_log.write("segment", _name(args[-1]))  # from either process
        return build(*args)

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)
        process_log.write("tapes", len(live))

    monkeypatch.setattr(net, "make_leaves", counting_leaves)
    monkeypatch.setattr(trainer, "build_total_loss", counting_build)
    monkeypatch.setattr(Tape, "__init__", tracking_init)
    _, report = trainer.fit(tiny_series(), cfg, workers=2)
    assert calls == {"leaves": 3}
    logged = process_log.by_process()
    caller = logged.pop(os.getpid())
    (worker,) = logged.values()
    segments = {name: [f[1] for f in lines if f[0] == "segment"]
                for name, lines in (("caller", caller), ("worker", worker))}
    assert segments == {"caller": ["similarity", "10:20"] * 3, "worker": ["0:10", "20:30"] * 3}
    for lines in (caller, worker):
        assert max(int(f[1]) for f in lines if f[0] == "tapes") == 1
    assert report.chunk_points == (10, 10, 10)


def test_chunked_refits_are_bit_identical(monkeypatch):
    cfg = quick_config(iterations=4, batch_points=30)
    _force_chunks(monkeypatch, 30, 3)
    s1, r1 = trainer.fit(tiny_series(), cfg)
    s2, r2 = trainer.fit(tiny_series(), cfg)
    assert len(r1.chunk_points) == 3
    assert r1.final_checksum == r2.final_checksum
    assert [e.breakdown for e in r1.history] == [e.breakdown for e in r2.history]


def _fit_files(tmp_path, cfg, workers) -> tuple:
    """The bytes of `model.ndf` and of `report.csv` without its wall-clock
    column of a fit on `workers` workers."""
    from ndfreg import fileio

    state, report = trainer.fit(tiny_series(), cfg, workers=workers)
    path = tmp_path / f"model{workers}.ndf"
    fileio.save_model(str(path), state)
    fileio.write_csv(str(tmp_path / "report.csv"), [r[:-1] for r in report.to_rows()])
    return path.read_bytes(), (tmp_path / "report.csv").read_bytes()


@pytest.mark.parametrize("precision", ["f64", "f32"])
@pytest.mark.parametrize("network, points", [
    pytest.param(None, 4096, id="toy"),
    pytest.param(net.NetworkConfig(hidden_width=256, depth=4, time_hidden_width=4,
                                   time_embed_width=16), 96, id="width256"),
])
def test_fits_are_byte_identical_at_any_worker_count(tmp_path, precision, network, points):
    """A fit's model file and report, but for its wall-clock column, are
    the same bytes on 1, 2 and 3 workers, at f64 and f32, at a toy width
    and at width 256, each with at least 3 regularizer chunks, so a lane
    sweeps 2 segments or more: the lanes are fixed, so every sum runs in
    one order."""
    cfg = quick_config(iterations=3, batch_points=points, precision=precision, log_every=1)
    if network is not None:
        cfg.network = network
    assert len(trainer._loss_chunks(cfg.weights, cfg.network, points, 3,
                                    trainer._DTYPES[precision])) >= 3
    want = _fit_files(tmp_path, cfg, 1)
    assert _fit_files(tmp_path, cfg, 2) == want
    assert _fit_files(tmp_path, cfg, 3) == want


def test_lanes_under_a_short_switch_interval_sum_as_on_one_worker(monkeypatch):
    """Under a 1 us switch interval, which the lane worker inherits, the
    step's gradients and breakdown with lane 1 in the worker process are
    still the bytes of one worker's, over 5 chunks (3 segments per lane)."""
    import sys

    series, state, plan = _setup(30)
    _force_chunks(monkeypatch, 30, 5)
    want, want_bd, want_bytes = _segmented(series, state, plan, WEIGHTS)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got, got_bd, got_bytes = _segmented(series, state, plan, WEIGHTS, workers=2)
    finally:
        sys.setswitchinterval(interval)
    assert got_bd == want_bd and got_bytes == want_bytes
    assert [g.tobytes() for g in got] == [g.tobytes() for g in want]


def test_a_failing_lane_is_re_raised_after_every_lane_is_joined(monkeypatch):
    """A segment that raises in lane 1, in the lane worker, is re-raised by
    the step with its type and message once lane 0, still recording a
    segment of its own when it raised, has ended, and the worker is reaped
    as its context ends: no thread or process is left running."""
    series, state, plan = _setup(30)
    _force_chunks(monkeypatch, 30, 3)
    build = trainer.build_total_loss

    def failing(*args):
        if args[-1] is losses.SIMILARITY:
            time.sleep(0.05)  # lane 0's segment, still running when lane 1 fails
        elif args[-1] == slice(0, 10):  # lane 1's first
            raise ValueError("lane failed")
        return build(*args)

    monkeypatch.setattr(trainer, "build_total_loss", failing)
    before = threading.active_count()
    with pytest.raises(ValueError, match="lane failed"):
        _segmented(series, state, plan, WEIGHTS, workers=2)
    assert threading.active_count() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_report_shows_the_halved_regularizer_segment():
    """At paper width, B=128, f64, an 8-time grid, a regularizer segment is
    8 points in one CHUNK_BYTES block, and the report's largest regularizer
    tape is 7.6 MiB, leaves included (13.2 MiB at 16 points in a 2 MiB
    block); the similarity segment, one group of the 4 observed times, is
    7.7 MiB."""
    from ndfreg.phantom import PhantomSpec, generate_phantom

    series, _ = generate_phantom(PhantomSpec(dims=(8, 8, 8)))
    cfg = trainer.FitConfig(iterations=1, batch_points=128, reg_time_grid_size=8,
                            weights=LossWeights(gamma=0.1))
    _, report = trainer.fit(series, cfg, workers=2)
    assert report.chunk_points == (8,) * 16
    assert 7.5 < report.regularizer_tape_mb < 7.7
    assert 7.7 < report.similarity_tape_mb < 7.8


@functools.lru_cache(maxsize=None)
def _shape_segments(shape):
    """One segmented step at a benchmark fit shape (8-time grid, gamma >
    0): each segment's slice, its tape bytes (`Tape.stats`) and its bytes
    with the leaves left out, and the output jets of each regularizer
    trace."""
    config, points, dtype, _ = SHAPES[shape]
    series, state, plan = _setup(points, config)
    build, trace = trainer.build_total_loss, net.trace_network
    sizes, traces = [], []

    def sized(tape, *args):
        out = build(tape, *args)
        nbytes = sum(tape.stats()["bytes"].values())
        leaves = sum(n.value.nbytes for n in tape.nodes if n.kind == "leaf")
        sizes.append((args[-1], nbytes, nbytes - leaves))
        return out

    def order(size):  # segment order: the similarity segment, then the chunks
        return -1 if size[0] is losses.SIMILARITY else size[0].start

    def traced(tape, leaves, coords, times, config, request):
        outs = trace(tape, leaves, coords, times, config, request)
        if request.temporal:
            traces.append([out.times for out in outs])
        return outs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "build_total_loss", sized)
        mp.setattr(net, "trace_network", traced)
        _, _, tape_bytes = _segmented(series, state, plan, LossWeights(gamma=0.1), dtype)
    sizes.sort(key=order)
    assert tape_bytes == [n for _, n, _ in sizes]
    return sizes, traces


def _segment_bound(config, points, times, dtype) -> int:
    """Upper bound on the bytes a one-group regularizer segment of `points`
    points at `times` times records with d|J|/dt (8 slots), leaves left
    out, derived from the layer count:
      * each of the depth - 2 sines after layer 1 records its block and a
        one-slot omega*cos panel, and each hidden layer after layer 2 its
        matmul's block: 2(depth - 2) - 1 blocks and depth - 2 panels, 5
        and 3/8 blocks at depth 5;
      * the one-time prefix records layer 1's matmul and sine and layer
        2's product as v, x, y, z panels, and layer 1's omega*cos panel:
        13 one-time panels;
      * the time embedding's two affine and two leaky nodes and each
        layer's product with it hold 2 x times rows (v and t);
      * the output block and the loss's readers (J and its squares,
        dphi/dt and its squares, d|J|/dt, its two relus and a scale, the
        per-point sums) hold 24 + 32 values per point and time, and the
        reductions a few scalars."""
    h, sines, slots = config.hidden_width, config.depth - 2, 8
    hidden = slots * times * points * h * (2 * sines - 1) + times * points * h * sines
    prefix = 13 * points * h
    embed = 2 * times * (2 * config.time_hidden_width + 2 * config.time_embed_width
                         + (sines + 1) * h)
    readers = times * points * (24 + 32) + 16
    return (hidden + prefix + embed + readers) * np.dtype(dtype).itemsize


@pytest.mark.parametrize("shape", list(SHAPES))
def test_segment_tapes_are_bounded_and_sized(shape):
    """At the benchmark's fit shapes the chunk rule splits the batch as
    listed, each regularizer trace returns one output jet of all 8 grid
    times, and each regularizer segment's recorded bytes, leaves left out,
    are within the bound `_segment_bound` derives from the layer count:
    under 6 CHUNK_BYTES blocks at depth 5."""
    config, _, dtype, chunks = SHAPES[shape]
    sizes, traces = _shape_segments(shape)
    assert [s.stop - s.start for s, _, _ in sizes[1:]] == chunks
    assert traces == [[8]] * len(chunks)
    for segment, _, recorded in sizes[1:]:
        bound = _segment_bound(config, segment.stop - segment.start, 8, dtype)
        assert recorded <= bound < 6 * net.CHUNK_BYTES


def test_heap_top_holds_the_largest_regularizer_segment():
    """The freed top the CLI's heap keeps holds the whole tapes, leaves
    included, of the two lanes at once, the largest regularizer segment
    beside the similarity segment or another regularizer segment, at the
    four benchmark fit shapes."""
    for shape in SHAPES:
        sizes, _ = _shape_segments(shape)
        largest = max(n for _, n, _ in sizes[1:])
        assert largest + max(sizes[0][1], largest) <= cli.HEAP_TOP_PAD
