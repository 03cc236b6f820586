"""Segmented fit steps: the similarity terms over the whole batch, then the
grid regularizers point chunk by point chunk, each recorded, swept and
released on the iteration's one tape.  The chunked gradient is the
one-tape gradient, the chunk rule makes every regularizer segment one
time group of one BLOCK_BYTES block, and the fit loop keeps the
benchmark's iteration boundary."""

import functools
import gc
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
    "paper-f64": (PAPER, 128, np.float64, [16] * 8),
    "paper-f32": (PAPER, 128, np.float32, [32] * 4),
    "narrow-f64": (NARROW, 256, np.float64, [128] * 2),
    "narrow-f32": (NARROW, 256, np.float32, [256]),
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
    monkeypatch.setattr(net, "chunk_points", lambda config, request, dtype, times=1: size)
    chunks = trainer.point_chunks(points, size)
    assert len(chunks) == n
    return chunks


def _one_tape(series, state, plan, weights):
    tape = Tape()
    leaves = net.make_leaves(tape, state)
    total, breakdown = losses.build_total_loss(tape, leaves, series, weights, plan, state.config)
    tape.backward(total)
    return leaves.grads(), breakdown


def _segmented(series, state, plan, weights, dtype=np.float64):
    tape = Tape(dtype)
    leaves = net.make_leaves(tape, state)
    breakdown, tape_bytes = trainer.segment_gradients(
        tape, leaves, series, weights, plan, state.config
    )
    assert tape.nodes == [n for pair in leaves.psi + leaves.theta for n in pair]
    return leaves.grads(), breakdown, tape_bytes


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
    pytest.param(PAPER, 8192, np.float64, [16] * 512, id="paper-8192-f64"),
])
def test_regularizer_segments_are_one_block_of_the_grid(config, points, dtype, chunks):
    """Each regularizer segment holds the 8 grid times of as many points
    as fill one BLOCK_BYTES block, at the benchmark's fit shapes and at
    the paper's batch."""
    weights = LossWeights(gamma=0.1)
    assert trainer._loss_chunks(weights, config, points, 8, dtype) == chunks


@pytest.mark.parametrize("n, points", [(1, 30), (2, 30), (3, 30), (3, 31)])
def test_segmented_gradients_match_one_tape(monkeypatch, n, points):
    """The segmented step's parameter gradients equal one tape's to 1e-12
    relative at f64 with gamma > 0, at 1, 2 and 3 chunks and with an
    uneven split (11, 10, 10); its breakdown terms agree to 1e-13."""
    series, state, plan = _setup(points)
    chunks = _force_chunks(monkeypatch, points, n)
    assert sum(chunks) == points and max(chunks) - min(chunks) <= 1
    want, want_bd = _one_tape(series, state, plan, WEIGHTS)
    got, got_bd, _ = _segmented(series, state, plan, WEIGHTS)
    assert want_bd.monotonic > 0.0
    for name in LossBreakdown.FIELDS:
        assert getattr(got_bd, name) == pytest.approx(getattr(want_bd, name), rel=1e-13, abs=0.0)
    for g, ref in zip(got, want):
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_segments_free_each_chunk_before_the_next_records(monkeypatch):
    """With the cyclic collector off, every buffer a segment's nodes hold
    is freed before `build_total_loss` records the next segment, so the
    step's largest live tape is one segment."""
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
    assert segments == [losses.SIMILARITY, slice(0, 10), slice(10, 20), slice(20, 30)]
    assert alive == [0, 0, 0, 0]
    assert all(ref() is None for ref in held)


def test_fit_keeps_the_iteration_boundary(monkeypatch):
    """Forced to 3 chunks, a fit still makes one `make_leaves(trainable=True)`
    call and one tape per iteration, at most one tape alive at a time
    (weak references), and records 1 + 3 segments per iteration."""
    cfg = quick_config(iterations=3, batch_points=30)
    _force_chunks(monkeypatch, 30, 3)
    calls = {"leaves": 0, "segments": 0}
    live, peak = weakref.WeakSet(), [0]
    make_leaves, build, init = net.make_leaves, trainer.build_total_loss, Tape.__init__

    def counting_leaves(tape, state, trainable=True):
        calls["leaves"] += trainable
        return make_leaves(tape, state, trainable)

    def counting_build(*args):
        calls["segments"] += 1
        return build(*args)

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        live.add(self)
        peak[0] = max(peak[0], len(live))

    monkeypatch.setattr(net, "make_leaves", counting_leaves)
    monkeypatch.setattr(trainer, "build_total_loss", counting_build)
    monkeypatch.setattr(Tape, "__init__", tracking_init)
    _, report = trainer.fit(tiny_series(), cfg)
    assert calls == {"leaves": 3, "segments": 3 * 4}
    assert peak[0] == 1
    assert report.chunk_points == (10, 10, 10)


def test_chunked_refits_are_bit_identical(monkeypatch):
    cfg = quick_config(iterations=4, batch_points=30)
    _force_chunks(monkeypatch, 30, 3)
    s1, r1 = trainer.fit(tiny_series(), cfg)
    s2, r2 = trainer.fit(tiny_series(), cfg)
    assert len(r1.chunk_points) == 3
    assert r1.final_checksum == r2.final_checksum
    assert [e.breakdown for e in r1.history] == [e.breakdown for e in r2.history]


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

    def traced(tape, leaves, coords, times, config, request):
        outs = trace(tape, leaves, coords, times, config, request)
        if request.temporal:
            traces.append([out.times for out in outs])
        return outs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trainer, "build_total_loss", sized)
        mp.setattr(net, "trace_network", traced)
        _, _, tape_bytes = _segmented(series, state, plan, LossWeights(gamma=0.1), dtype)
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
    under 6 BLOCK_BYTES blocks at depth 5."""
    config, _, dtype, chunks = SHAPES[shape]
    sizes, traces = _shape_segments(shape)
    assert [s.stop - s.start for s, _, _ in sizes[1:]] == chunks
    assert traces == [[8]] * len(chunks)
    for segment, _, recorded in sizes[1:]:
        bound = _segment_bound(config, segment.stop - segment.start, 8, dtype)
        assert recorded <= bound < 6 * net.BLOCK_BYTES


def test_heap_top_holds_the_largest_regularizer_segment():
    """The freed top the CLI's heap keeps holds every regularizer segment's
    whole tape, leaves included, at the four benchmark fit shapes."""
    for shape in SHAPES:
        sizes, _ = _shape_segments(shape)
        assert max(n for _, n, _ in sizes[1:]) <= cli.HEAP_TOP_PAD
