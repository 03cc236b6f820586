"""Segmented fit steps: the similarity terms over the whole batch, then the
grid regularizers point chunk by point chunk, each recorded, swept and
released on the iteration's one tape.  The chunked gradient is the
one-tape gradient, the chunk rule keeps every segment's tape within
TAPE_BYTES, and the fit loop keeps the benchmark's iteration boundary."""

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
FULL = net.DerivativeRequest(spatial=True, temporal=True)
NARROW = net.NetworkConfig(hidden_width=32, depth=5, time_hidden_width=10, time_embed_width=16)
PAPER = net.NetworkConfig()


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


def _force_chunks(monkeypatch, config, points, n, dtype=np.float64):
    """Set TAPE_BYTES so that a `points` batch splits into `n` chunks."""
    g = net.tape_point_bytes(config, FULL, 8, dtype)
    monkeypatch.setattr(net, "TAPE_BYTES", -(-points * g // n))
    chunks = trainer.point_chunks(points, g)
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
    breakdown, largest = trainer.segment_gradients(
        tape, leaves, series, weights, plan, state.config
    )
    assert tape.nodes == [n for pair in leaves.psi + leaves.theta for n in pair]
    return leaves.grads(), breakdown, largest


def test_point_chunks_rule(monkeypatch):
    """n = ceil(B g / TAPE_BYTES) chunks in batch order, sizes differing by
    at most one, at least one and at most B."""
    monkeypatch.setattr(net, "TAPE_BYTES", 1000)
    assert trainer.point_chunks(10, 100) == [10]
    assert trainer.point_chunks(10, 101) == [5, 5]
    assert trainer.point_chunks(31, 100) == [8, 8, 8, 7]
    assert trainer.point_chunks(3, 10**6) == [1, 1, 1]


@pytest.mark.parametrize("n, points", [(1, 30), (2, 30), (3, 30), (3, 31)])
def test_segmented_gradients_match_one_tape(monkeypatch, n, points):
    """The segmented step's parameter gradients equal one tape's to 1e-12
    relative at f64 with gamma > 0, at 1, 2 and 3 chunks and with an
    uneven split (11, 10, 10); its breakdown terms agree to 1e-13."""
    series, state, plan = _setup(points)
    chunks = _force_chunks(monkeypatch, state.config, points, n)
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
    _force_chunks(monkeypatch, state.config, 30, 3)
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
    g = net.tape_point_bytes(cfg.network, FULL, cfg.reg_time_grid_size, np.float64)
    monkeypatch.setattr(net, "TAPE_BYTES", -(-30 * g // 3))
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
    g = net.tape_point_bytes(cfg.network, FULL, cfg.reg_time_grid_size, np.float64)
    monkeypatch.setattr(net, "TAPE_BYTES", -(-30 * g // 3))
    s1, r1 = trainer.fit(tiny_series(), cfg)
    s2, r2 = trainer.fit(tiny_series(), cfg)
    assert len(r1.chunk_points) == 3
    assert r1.final_checksum == r2.final_checksum
    assert [e.breakdown for e in r1.history] == [e.breakdown for e in r2.history]


def test_heap_top_is_the_tape_budget():
    assert cli.HEAP_TOP_PAD == net.TAPE_BYTES == 64 << 20


@pytest.mark.parametrize("config, points, dtype, chunks", [
    pytest.param(PAPER, 128, np.float64, [64, 64], id="paper-f64"),
    pytest.param(PAPER, 128, np.float32, [128], id="paper-f32"),
    pytest.param(NARROW, 256, np.float64, [256], id="narrow-f64"),
    pytest.param(NARROW, 256, np.float32, [256], id="narrow-f32"),
])
def test_segment_tapes_are_bounded_and_sized(monkeypatch, config, points, dtype, chunks):
    """At the benchmark's fit shapes (8-time grid, gamma > 0): the chunk
    rule splits the batch as listed, no segment's tape (`Tape.stats`)
    exceeds TAPE_BYTES, and each regularizer chunk's bytes per point,
    leaves left out, are within 10 % of `network.tape_point_bytes`."""
    series, state, plan = _setup(points, config)
    weights = LossWeights(gamma=0.1)
    g = net.tape_point_bytes(config, losses.regularizer_request(weights), 8, dtype)
    build, sizes = trainer.build_total_loss, []

    def sized(tape, *args):
        out = build(tape, *args)
        nbytes = sum(tape.stats()["bytes"].values())
        leaves = sum(n.value.nbytes for n in tape.nodes if n.kind == "leaf")
        sizes.append((args[-1], nbytes, nbytes - leaves))
        return out

    monkeypatch.setattr(trainer, "build_total_loss", sized)
    _, _, largest = _segmented(series, state, plan, weights, dtype)
    assert [s.stop - s.start for s, _, _ in sizes[1:]] == chunks
    assert largest == max(n for _, n, _ in sizes) <= net.TAPE_BYTES
    for segment, _, recorded in sizes[1:]:
        per_point = recorded / (segment.stop - segment.start)
        assert per_point == pytest.approx(g, rel=0.10)
