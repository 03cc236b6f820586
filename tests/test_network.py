"""Network tests: initialization scheme, the architecture contract, and
finite-difference verification of every analytic derivative product."""

import hashlib
import os

import numpy as np
import pytest

from ndfreg import diffengine as de, network as net
from ndfreg.diffengine import Tape

from test_losses import oracle_embed
from test_metrics import uniform_scaling_field

TOY = net.NetworkConfig(hidden_width=8, depth=5, time_hidden_width=6, time_embed_width=12)
FULL_REQ = net.DerivativeRequest(spatial=True, temporal=True)


def toy_state(seed=1, amplify=3.0, config=TOY):
    state = net.init_network(seed=seed, config=config)
    for w, _ in state.psi + state.theta:
        w *= amplify  # push displacements to O(0.1) so FD ratios are stable
    return state


def traced(state, coords, times, request=FULL_REQ):
    """J of phi (identity included), (3,3,B), and dphi/dt, (3,B), at each
    of `times`, read off one frozen trace (one time per group) by
    `network.jacobian` and `network.dphi_dt`."""
    tape = Tape()
    leaves = net.make_leaves(tape, state, trainable=False)
    products = []
    for out in net.trace_network(tape, leaves, coords, times, state.config, request):
        jac = net.jacobian(tape, out).value.reshape(3, 3, -1)
        jac[range(3), range(3)] += 1.0
        products.append((jac, net.dphi_dt(tape, out).value))
    return products


def zero_state(config=TOY):
    state = net.init_network(seed=0, config=config)
    for w, b in state.psi:
        w[:] = 0.0
        b[:] = 0.0
    return state


# ---------------------------------------------------------------------------
# init
# ---------------------------------------------------------------------------


def test_init_deterministic():
    a = net.init_network(seed=42, config=TOY)
    b = net.init_network(seed=42, config=TOY)
    for x, y in zip(a.param_arrays(), b.param_arrays()):
        assert x.tobytes() == y.tobytes()


def test_checksum_is_the_sha256_of_the_parameters():
    """The built-in SHA-256 the checksum uses gives hashlib's digest of the
    f64 parameter bytes in `param_arrays` order, at f64 and f32."""
    for dtype in (np.float64, np.float32):
        state = net.init_network(seed=7, config=TOY, dtype=dtype)
        h = hashlib.sha256()
        for arr in state.param_arrays():
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        assert state.checksum() == h.hexdigest()


def test_init_first_layer_bounds():
    cfg = net.NetworkConfig(hidden_width=64, depth=5)
    draws = []
    for seed in range(60):
        draws.append(net.init_network(seed=seed, config=cfg).psi[0][0].ravel())
    w = np.concatenate(draws)
    assert w.size > 10_000
    assert np.abs(w).max() <= 1.0 / 3.0
    assert np.abs(w).max() > 0.3  # actually fills the range


def test_init_hidden_layer_bounds_and_zero_biases():
    cfg = net.NetworkConfig(hidden_width=16, depth=5, omega0=30.0)
    state = net.init_network(seed=0, config=cfg)
    bound = np.sqrt(6.0 / (16 + 64)) / 30.0
    for w, b in state.psi[1:]:
        assert np.abs(w).max() <= bound
        assert np.all(b == 0.0)
    assert np.abs(state.theta[0][0]).max() <= np.sqrt(6.0)
    assert np.abs(state.theta[1][0]).max() <= np.sqrt(6.0 / cfg.time_hidden_width)


def test_fresh_network_small_displacement_at_t0():
    rng = np.random.default_rng(0)
    coords = rng.uniform(-1, 1, size=(3, 1000))
    norms = []
    for seed in range(5):
        state = net.init_network(seed=seed, config=net.NetworkConfig(hidden_width=32))
        disp = net.forward(state, coords, 0.0).displacement
        norms.append(np.linalg.norm(disp, axis=0).mean())
    assert max(norms) < 0.1


def test_init_validation():
    with pytest.raises(ValueError, match="hidden_width"):
        net.init_network(config=net.NetworkConfig(hidden_width=1))
    with pytest.raises(ValueError, match="omega0"):
        net.init_network(config=net.NetworkConfig(omega0=0.0))


# ---------------------------------------------------------------------------
# time embedding
# ---------------------------------------------------------------------------


def taped_embed(state, ts):
    """Embedding and its d/dt at each time of `ts`, (width, len(ts)) each,
    through the taped time sub-network."""
    ts = np.atleast_1d(np.asarray(ts, dtype=np.float64))
    tape = Tape()
    leaves = net.make_leaves(tape, state, trainable=False)
    tb = de.Jet(tape.constant(np.concatenate([ts, np.ones_like(ts)])[:, None]), (de.V, de.T))
    eb = net._trace_time_embed(tape, leaves.theta, tb, state.config)
    return tuple(de.jet_slot(tape, eb, (s,)).value for s in (de.V, de.T))


def test_time_embed_zero_theta_is_zero():
    state = toy_state()
    for w, b in state.theta:
        w[:] = 0.0
        b[:] = 0.0
    value, _ = taped_embed(state, 0.7)
    assert np.all(value == 0.0)


def test_time_embed_width_and_continuity():
    state = toy_state(seed=5)
    ts = np.linspace(-0.2, 1.4, 400)
    vals, _ = taped_embed(state, ts)
    assert vals.shape[0] == TOY.time_embed_width
    steps = np.abs(np.diff(vals, axis=1)).max()
    assert steps < 0.2  # dense sweep: no jumps beyond the Lipschitz scale


def test_time_embed_tangent_matches_fd():
    state = toy_state(seed=7)
    h = 1e-6
    for t in (0.13, 0.57, 0.94):
        expect, _ = oracle_embed(state, t)
        fd = (oracle_embed(state, t + h)[0] - oracle_embed(state, t - h)[0]) / (2 * h)
        value, tangent = taped_embed(state, t)
        np.testing.assert_allclose(value, expect, rtol=1e-12)
        rel = np.abs(tangent - fd) / np.maximum(np.abs(fd), 1e-9)
        assert rel.max() < 1e-6


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_zero_network_identity():
    state = zero_state()
    rng = np.random.default_rng(1)
    coords = rng.uniform(-1, 1, size=(3, 64))
    res = net.forward_with_derivatives(state, coords, 0.6, FULL_REQ)
    ((jac, dphi),) = traced(state, coords, [0.6])
    assert np.all(res.displacement == 0.0)
    np.testing.assert_array_equal(res.phi, coords)
    expect_j = np.repeat(np.eye(3)[:, :, None], 64, axis=2)
    np.testing.assert_array_equal(jac, expect_j)
    assert np.all(res.jac_det == 1.0)
    assert np.all(dphi == 0.0)
    assert np.all(res.jac_det_dt == 0.0)


def test_forward_pure():
    state = toy_state(seed=9)
    coords = np.random.default_rng(2).uniform(-1, 1, size=(3, 17))
    a = net.forward(state, coords, 0.3).displacement
    b = net.forward(state, coords, 0.3).displacement
    assert a.tobytes() == b.tobytes()


def chunks_of(monkeypatch, points):
    """Make `forward_with_derivatives` evaluate `points` points per chunk."""
    monkeypatch.setattr(net, "chunk_points", lambda *args, **kwargs: points)


def test_chunked_evaluation_matches_one_pass(monkeypatch):
    state = toy_state(seed=4)
    coords = np.random.default_rng(5).uniform(-1, 1, size=(3, 23))
    whole = net.forward_with_derivatives(state, coords, 0.6, FULL_REQ)
    chunks_of(monkeypatch, 5)
    chunked = net.forward_with_derivatives(state, coords, 0.6, FULL_REQ)
    for name in ("displacement", "jac_det", "jac_det_dt"):
        assert getattr(whole, name).tobytes() == getattr(chunked, name).tobytes()
    # J and dphi/dt, read off traces of 5-point pieces
    ((whole_j, whole_dt),) = traced(state, coords, [0.6])
    pieces = [traced(state, coords[:, lo : lo + 5], [0.6])[0] for lo in range(0, 23, 5)]
    for k, want in enumerate((whole_j, whole_dt)):
        assert np.concatenate([p[k] for p in pieces], axis=-1).tobytes() == want.tobytes()


def test_paper_width_short_last_chunk_matches_one_pass(monkeypatch):
    """At paper width, 130 points in the default 64-point chunks equal one
    130-point pass bit for bit: the 2-point last chunk is padded to the
    full chunk, so its matmuls run in the same shape as every other."""
    state = net.init_network(seed=1, config=net.NetworkConfig(), time_horizon=36.0)
    rng = np.random.default_rng([1, 7])
    for w, b in state.psi + state.theta:
        w *= 3.0
        b[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    coords = np.random.default_rng(8).uniform(-1, 1, size=(3, 130))
    assert net.chunk_points(state.config, FULL_REQ, np.float64) == 64
    chunked = net.forward_with_derivatives(state, coords, 0.5, FULL_REQ)
    chunks_of(monkeypatch, 130)
    whole = net.forward_with_derivatives(state, coords, 0.5, FULL_REQ)
    for name in ("displacement", "jac_det", "jac_det_dt"):
        assert getattr(chunked, name).tobytes() == getattr(whole, name).tobytes()


def test_times_sequence_matches_separate_calls_bit_for_bit(monkeypatch):
    state = toy_state(seed=6)
    coords = np.random.default_rng(7).uniform(-1, 1, size=(3, 23))
    times = [0.0, 0.35, 0.8, 1.2]
    chunks_of(monkeypatch, 5)
    shared = net.forward_with_derivatives(state, coords, times, FULL_REQ)
    shared_j = traced(state, coords, times)
    assert len(shared) == len(times)
    for t, got, (got_j, _) in zip(times, shared, shared_j):
        want = net.forward_with_derivatives(state, coords, t, FULL_REQ)
        for name in ("displacement", "jac_det", "jac_det_dt"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert got_j.tobytes() == traced(state, coords, [t])[0][0].tobytes()


def test_empty_coordinate_block_gives_empty_products():
    state = toy_state(seed=6)
    empty = np.zeros((3, 0))
    for request, names in (
        (net.DerivativeRequest(), ("displacement",)),
        (net.DerivativeRequest(spatial=True), ("displacement", "jac_det")),
        (FULL_REQ, ("displacement", "jac_det", "jac_det_dt")),
    ):
        results = net.forward_with_derivatives(state, empty, [0.0, 0.5, 1.0], request)
        assert len(results) == 3
        for res in results:
            for name in ("displacement", "jac_det", "jac_det_dt"):
                value = getattr(res, name)
                if name not in names:
                    assert value is None
                    continue
                assert value.shape == ((3, 0) if name == "displacement" else (0,))
                assert value.dtype == np.float64


def _chunk_memory(monkeypatch, process_log, workers, points):
    """The traced peak of a spatial and temporal evaluation of 700 points
    at 2 times on `workers` workers in `points`-point chunks, summed over
    the calling process and each forked worker, in blocks: the 8-slot
    hidden layer of a 256-point chunk (width x 8 x 256 x 8 bytes).  The
    products live in a shared map, which tracemalloc does not see; a
    worker logs its own peak after each of its chunks."""
    import tracemalloc

    cfg = net.NetworkConfig(hidden_width=64, depth=5, time_hidden_width=6, time_embed_width=8)
    state = net.init_network(seed=2, config=cfg)
    coords = np.random.default_rng(0).uniform(-1, 1, size=(3, 700))
    times = [0.2, 0.7]
    chunks_of(monkeypatch, points)
    net.forward_with_derivatives(state, coords, times, FULL_REQ, workers=workers)
    caller, write_chunk = os.getpid(), net._write_chunk

    def logged(*args):
        write_chunk(*args)
        if os.getpid() != caller:
            process_log.write(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(net, "_write_chunk", logged)
    tracemalloc.start()
    try:
        net.forward_with_derivatives(state, coords, times, FULL_REQ, workers=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    logs = process_log.by_process()
    assert len(logs) == workers - 1
    peak += sum(max(int(kb) for (kb,) in lines) for lines in logs.values())
    return peak / (cfg.hidden_width * 8 * 256 * 8)


def test_chunk_memory_is_the_prefix_and_two_blocks(monkeypatch, process_log):
    """The traced peak of a spatial and temporal evaluation over 3 chunks
    and 2 times stays below 3.5 blocks, a block being one chunk's 8-slot
    hidden layer (width x 8 x chunk points x 8 bytes); the products are
    not traced.

    A chunk holds the prefix (4 slots: half a block), one rule's input and
    output, and the sine rule's scratch of four (chunk, width) panels (half
    a block): 3.03 blocks measured.  An evaluation that keeps the previous
    layer's activation alive through the rule, holds every product twice
    and also returns J and dphi/dt at full size measured 4.17 blocks."""
    assert _chunk_memory(monkeypatch, process_log, 1, 256) < 3.5


def test_two_workers_hold_one_workers_chunk_memory(monkeypatch, process_log):
    """Two workers on half-size chunks, as CHUNK_BYTES makes them, stay
    within one worker's bound on full-size chunks: 3.5 blocks of a
    256-point chunk, the peaks of the calling process and the forked
    worker summed, as if they coincided: 3.05 measured, 1.5 each.  Two
    workers on 256-point chunks sum to 6.05."""
    assert _chunk_memory(monkeypatch, process_log, 2, 128) < 3.5


def test_recorded_jet_blocks_are_point_major(monkeypatch):
    """Every jet that affine, jet_sine and jet_leaky record on a training
    tape is an (S*K*P, rows) block, (S, K, P, rows) in C order: each slot
    panel is a C-contiguous (K*P, rows) array and each time's (P, rows)
    panel too.  P is the batch and K the group's 2 times, or 1 for the
    time-invariant prefix; the time embedding is the group's 2 times as
    points of one time.  Column terms are (1|K|2K, rows) rows."""
    jets = []

    def capture(rule):
        def wrapper(*args, **kwargs):
            out = rule(*args, **kwargs)
            jets.append(out)
            return out
        return wrapper

    for name in ("bundle_affine", "bundle_sine", "bundle_leaky"):
        monkeypatch.setattr(de, name, capture(getattr(de, name)))
    state = toy_state(seed=2)
    coords = np.random.default_rng(3).uniform(-1, 1, size=(3, 11))
    tape = Tape()
    net.trace_network(tape, net.make_leaves(tape, state), coords, [0.3, 0.9], TOY, FULL_REQ)
    kinds = set()
    for jet in jets:
        block = jet.node.value
        assert jet.node.idx is not None and block.flags.c_contiguous
        kinds.add(jet.node.kind)
        n_slots, kb, rows = len(jet.slots), jet.block_times, block.shape[1]
        nb = block.shape[0] // (n_slots * kb)
        assert nb * n_slots * kb == block.shape[0]
        assert (kb, nb) in ((1, 11), (2, 11), (1, 2))
        panels = block.reshape(n_slots, kb, nb, rows)
        for k in range(n_slots):
            assert panels[k].reshape(-1, rows).flags.c_contiguous
            for t in range(kb):
                lo = (k * kb + t) * nb
                assert panels[k, t].flags.c_contiguous and panels[k, t].shape == (nb, rows)
                assert np.shares_memory(panels[k, t], block[lo : lo + nb])
        for c in jet.cols:
            assert c.value.shape in ((1, rows), (jet.times, rows), (2 * jet.times, rows))
    assert kinds == {"affine", "jet_sine", "jet_leaky"}
    assert any(len(j.slots) == 8 and j.node.value.shape[0] == 8 * 2 * 11 for j in jets)


@pytest.mark.parametrize("request_, points", [
    (net.DerivativeRequest(), 1024),
    (net.DerivativeRequest(spatial=True), 256),
    (FULL_REQ, 128),
], ids=["value", "spatial", "full"])
def test_chunk_points_keep_one_hidden_block_within_block_bytes(monkeypatch, request_, points):
    """At paper width in f64 an inference chunk is as many points as keep
    one hidden-layer block of one time within CHUNK_BYTES (1 MiB), the one
    budget of every block, and a chunk of 8 times an eighth of that; the
    largest block the chunk's sines build fills CHUNK_BYTES exactly.  In
    f32 each is twice as many points."""
    cfg = net.NetworkConfig()
    assert net.CHUNK_BYTES == 1 << 20
    assert net.chunk_points(cfg, request_, np.float64) == points // 2
    assert net.chunk_points(cfg, request_, np.float32) == points
    assert net.chunk_points(cfg, request_, np.float64, 8) == points // 16
    sizes = []
    sine = de.bundle_sine

    def sized(*args, **kwargs):
        out = sine(*args, **kwargs)
        sizes.append(out.node.value.nbytes)
        return out

    monkeypatch.setattr(de, "bundle_sine", sized)
    state = net.init_network(seed=0, config=cfg)
    coords = np.random.default_rng(1).uniform(-1, 1, size=(3, points // 2 + 1))
    net.forward_with_derivatives(state, coords, 0.5, request_)
    assert max(sizes) == net.CHUNK_BYTES


@pytest.mark.parametrize("width", [32, 256])
@pytest.mark.parametrize("request_", [
    net.DerivativeRequest(), net.DerivativeRequest(spatial=True), FULL_REQ,
], ids=["value", "spatial", "full"])
@pytest.mark.parametrize("times", [0.4, [0.1, 0.5, 0.9]], ids=["one_time", "three_times"])
def test_workers_give_byte_identical_products(width, request_, times):
    """Each chunk is traced on its own tape by whichever worker takes it
    and writes only its own columns, so 1, 2 and 3 workers give the same
    bytes: over three full chunks and a padded short last one, at one time
    and at three."""
    cfg = net.NetworkConfig(hidden_width=width, time_embed_width=min(64, width))
    state = net.init_network(seed=1, config=cfg, time_horizon=36.0)
    rng = np.random.default_rng([1, 7])
    for w, b in state.psi + state.theta:
        w *= 3.0
        b[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    size = net.chunk_points(cfg, request_, np.float64)
    coords = np.random.default_rng(3).uniform(-1, 1, size=(3, 3 * size + 5))

    def products(workers):
        results = net.forward_with_derivatives(state, coords, times, request_,
                                               workers=workers)
        results = results if isinstance(results, list) else [results]
        return [None if p is None else p.tobytes()
                for r in results for p in (r.displacement, r.jac_det, r.jac_det_dt)]

    want = products(1)
    requested = 1 + request_.spatial + request_.temporal
    assert sum(p is not None for p in want) == requested * np.size(times)
    assert products(2) == want and products(3) == want


def test_more_workers_than_cores_write_every_chunk_once(monkeypatch, process_log):
    """5 workers on 1-point to 3-point chunks write every chunk exactly
    once, chunk i on worker i mod 5, the calling process being worker 0:
    a start taken twice or skipped would show in the logged starts, or as
    unwritten columns of the products."""
    write_chunk = net._write_chunk

    def recording(*args):
        process_log.write(args[1].start)
        write_chunk(*args)

    monkeypatch.setattr(net, "_write_chunk", recording)
    state = toy_state(seed=5)
    coords = np.random.default_rng(4).uniform(-1, 1, size=(3, 41))
    for size in (1, 2, 3):
        chunks_of(monkeypatch, size)
        want = net.forward_with_derivatives(state, coords, 0.3, FULL_REQ)
        os.remove(process_log.path)
        got = net.forward_with_derivatives(state, coords, 0.3, FULL_REQ, workers=5)
        logs = process_log.by_process()
        starts = range(0, 41, size)
        assert list(logs.pop(os.getpid())) == [[str(lo)] for lo in starts[::5]]
        assert sorted([int(lo) for (lo,) in lines] for lines in logs.values()) == \
            [list(starts[k::5]) for k in range(1, 5)]
        for name in ("displacement", "jac_det", "jac_det_dt"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_chunks(monkeypatch, in_caller, in_worker):
    """Make the calling process's second chunk raise when `in_caller` and
    every forked worker's first chunk when `in_worker`; a worker's other
    chunks take 0.05 s, so a worker is still busy when the caller fails."""
    import time

    write_chunk, caller, seen = net._write_chunk, os.getpid(), []

    def failing(*args):
        if os.getpid() == caller:
            seen.append(args[1].start)
            if in_caller and len(seen) == 2:
                raise ValueError("chunk failed in the caller")
        elif in_worker:
            raise ValueError("chunk failed in a worker")
        else:
            time.sleep(0.05)
        write_chunk(*args)

    monkeypatch.setattr(net, "_write_chunk", failing)
    return seen


def test_a_failing_chunk_is_re_raised_after_every_worker_is_joined(monkeypatch, forks):
    """A chunk that raises is re-raised by the call once every forked
    worker is reaped, killed if it is still busy with a chunk of its own:
    one in the calling process, or one in a worker, which comes back with
    its type and message."""
    chunks_of(monkeypatch, 5)
    state = toy_state(seed=2)
    coords = np.random.default_rng(0).uniform(-1, 1, size=(3, 23))
    for in_worker, where in ((False, "the caller"), (True, "the caller"), (True, "a worker")):
        for workers in (1, 2, 3) if where == "the caller" else (2, 3):
            seen = _failing_chunks(monkeypatch, where == "the caller", in_worker)
            with pytest.raises(ValueError, match=f"chunk failed in {where}"):
                net.forward_with_derivatives(state, coords, [0.2, 0.6], FULL_REQ,
                                             workers=workers)
            _no_child_left()
            if where == "the caller":
                assert seen == [0, 5 * workers]
    assert len(forks) == 2 * (1 + 2) + (1 + 2)


def test_an_interrupt_in_the_callers_chunk_reaps_every_worker(monkeypatch, forks):
    """A KeyboardInterrupt in the calling process's own chunk reaches the
    caller with every forked worker, still busy, killed and reaped."""
    import time

    write_chunk, caller = net._write_chunk, os.getpid()

    def interrupted(*args):
        if os.getpid() != caller:
            time.sleep(0.05)
        elif args[1].start > 0:
            raise KeyboardInterrupt
        write_chunk(*args)

    monkeypatch.setattr(net, "_write_chunk", interrupted)
    chunks_of(monkeypatch, 2)
    coords = np.random.default_rng(0).uniform(-1, 1, size=(3, 23))
    with pytest.raises(KeyboardInterrupt):
        net.forward_with_derivatives(toy_state(seed=2), coords, 0.4, FULL_REQ, workers=3)
    assert len(forks) == 2
    _no_child_left()


def test_no_worker_is_forked_for_one_chunk_or_one_worker(monkeypatch, forks):
    """One worker, a call of one chunk and an empty coordinate block fork
    no process: the calling process writes every chunk.  Three chunks on
    three workers fork two."""
    chunks_of(monkeypatch, 256)
    state = toy_state(seed=3)
    coords = np.random.default_rng(1).uniform(-1, 1, size=(3, 700))
    net.forward_with_derivatives(state, coords, [0.1, 0.8], FULL_REQ, workers=1)
    net.forward_with_derivatives(state, coords[:, :256], 0.1, FULL_REQ, workers=3)
    net.forward_with_derivatives(state, coords[:, :0], 0.1, FULL_REQ, workers=3)
    assert forks == []
    net.forward_with_derivatives(state, coords, 0.1, FULL_REQ, workers=3)
    assert len(forks) == 2


def _overflowing_chunks(monkeypatch, process_log):
    """Make every chunk of a forked worker overflow, and log the pid of
    each worker that did."""
    write_chunk, caller = net._write_chunk, os.getpid()

    def overflowing(*args):
        if os.getpid() != caller:
            process_log.write("overflow")
            np.full(4, 1e308) * 10.0
        write_chunk(*args)

    monkeypatch.setattr(net, "_write_chunk", overflowing)
    chunks_of(monkeypatch, 5)
    return toy_state(seed=2), np.random.default_rng(0).uniform(-1, 1, size=(3, 20))


def test_chunk_helpers_keep_the_callers_error_state(monkeypatch, process_log):
    """A caller's `np.errstate(over="ignore")` covers every worker's
    chunks: a forked worker keeps numpy's error state and the warning
    filters of the fork, so no worker warns (a warning would be an error
    here, and would come back as one)."""
    import warnings

    state, coords = _overflowing_chunks(monkeypatch, process_log)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with np.errstate(over="ignore"):
            net.forward_with_derivatives(state, coords, 0.5, FULL_REQ, workers=2)
    assert [len(lines) for lines in process_log.by_process().values()] == [2]


def test_a_helpers_floating_point_error_is_re_raised_after_the_join(monkeypatch, process_log):
    """Under `np.errstate(over="raise")` a forked worker's overflow raises
    FloatingPointError there, which the call re-raises once every worker
    is reaped."""
    state, coords = _overflowing_chunks(monkeypatch, process_log)
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError, match="overflow"):
            net.forward_with_derivatives(state, coords, 0.5, FULL_REQ, workers=2)
    _no_child_left()
    assert len(process_log.by_process()) == 1


def _jet_arrays(jet, time):
    """The output jet's slots, and its block and column terms at one of its
    times: every value, tangent and mixed entry that time carries."""
    k, block = jet.times, jet.node.value
    panels = block.reshape(len(jet.slots), jet.block_times, -1, block.shape[1])
    out = [jet.slots, panels[:, time].reshape(-1, block.shape[1])]
    for c in jet.cols:
        rows = c.value.shape[0]
        out.append(c.value[[0] if rows == 1 else [time] if rows == k else [time, k + time]])
    return out


READERS = (net.displacement, net.dphi_dt, net.jacobian, de.jacdet_dt)


def _scalar(tape, products):
    """A scalar that reaches every entry of `products`."""
    total = None
    for p in products:
        s = tape.sum_squares(p)
        total = s if total is None else tape.add(total, s)
    return total


def _at(product, k, points, time):
    """A group product at one of its K = `k` times: row `time` of a (K, P)
    product, or the `time`-th P columns of each row of a (rows, K*P) one."""
    return np.ascontiguousarray(product.value.reshape(-1, k, points)[:, time])


def test_trace_network_shares_prefix_exactly():
    """One trace over 8 times, one group of 8, equals 8 one-time traces on
    separate tapes: every value, tangent and mixed entry, and row k of each
    of the group's products and of |I + J|, bit for bit; and the leaf
    gradients of a scalar built from the products to rounding (the shared
    prefix and the weights sum their adjoints in another order)."""
    cfg = net.NetworkConfig(hidden_width=8, depth=5, time_hidden_width=6, time_embed_width=12)
    state = toy_state(seed=3, config=cfg)
    points = 11
    coords = np.random.default_rng(8).uniform(-1, 1, size=(3, points))
    times = np.linspace(0.0, 1.4, 8)

    tape = Tape()
    leaves = net.make_leaves(tape, state)
    (out,) = net.trace_network(tape, leaves, coords, times, cfg, FULL_REQ)
    assert out.times == len(times)
    products = [read(tape, out) for read in READERS]
    # read before the sweep, which releases every recorded node but the leaves
    disps = [net.displacement(tape, out, k).value for k in range(len(times))]
    tape.backward(_scalar(tape, products))
    shared_grads = leaves.grads()

    sep_grads = [np.zeros_like(p) for p in state.param_arrays()]
    for k, t in enumerate(times):
        one = Tape()
        one_leaves = net.make_leaves(one, state)
        (want,) = net.trace_network(one, one_leaves, coords, [t], cfg, FULL_REQ)
        got_arrays, want_arrays = _jet_arrays(out, k), _jet_arrays(want, 0)
        assert got_arrays[0] == want_arrays[0] and len(got_arrays) == len(want_arrays)
        for a, b in zip(got_arrays[1:], want_arrays[1:]):
            assert a.tobytes() == b.tobytes()
        one_products = [read(one, want) for read in READERS]
        for got, ref in zip(products, one_products):
            assert _at(got, 8, points, k).tobytes() == _at(ref, 1, points, 0).tobytes()
        assert disps[k].tobytes() == one_products[0].value.tobytes()
        assert de.jacdet(out)[k].tobytes() == de.jacdet(want)[0].tobytes()
        one.backward(_scalar(one, one_products))
        for acc, g in zip(sep_grads, one_leaves.grads()):
            acc += g
    for g, ref in zip(shared_grads, sep_grads):
        assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()


def test_output_interval_bound():
    # unit-row last layer: |disp_i| <= sum|W5 row| * max|input| + |b|
    state = toy_state(seed=11)
    w5, b5 = state.psi[-1]
    w5[:] = 1.0
    b5[:] = 0.25
    coords = np.random.default_rng(3).uniform(-1, 1, size=(3, 200))
    # interval oracle: sine activations lie in [-1,1]; embedding bounded by
    # interval propagation of the two leaky layers from t in [0, 1.5]
    (w1, b1), (w2, b2) = state.theta
    lo1 = np.minimum(w1 * 0.0, w1 * 1.5) + b1
    hi1 = np.maximum(w1 * 0.0, w1 * 1.5) + b1
    slope = state.config.leaky_slope
    lo1 = np.where(lo1 >= 0, lo1, slope * lo1)
    hi1 = np.where(hi1 >= 0, hi1, slope * hi1)
    lo2 = (np.minimum(w2 * lo1.T, w2 * hi1.T)).sum(axis=1, keepdims=True) + b2
    hi2 = (np.maximum(w2 * lo1.T, w2 * hi1.T)).sum(axis=1, keepdims=True) + b2
    lo2 = np.where(lo2 >= 0, lo2, slope * lo2)
    hi2 = np.where(hi2 >= 0, hi2, slope * hi2)
    emax = np.maximum(np.abs(lo2), np.abs(hi2)).sum()
    bound = state.config.hidden_width * 1.0 + emax + 0.25
    for t in (0.0, 0.5, 1.5):
        disp = net.forward(state, coords, t).displacement
        assert np.abs(disp).max() <= bound + 1e-9


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def test_scaling_field_closed_form():
    field = uniform_scaling_field(0.25)
    coords = np.random.default_rng(5).uniform(-1, 1, size=(3, 9))
    res = field(coords, 2.0, FULL_REQ)
    s = 1.5
    np.testing.assert_allclose(res.phi, s * coords, rtol=1e-15)
    np.testing.assert_allclose(res.jac_det, s**3, rtol=1e-15)
    np.testing.assert_allclose(res.jac_det_dt, 3 * 0.25 * s**2, rtol=1e-15)


def test_spatial_jacobian_matches_fd():
    state = toy_state(seed=13)
    rng = np.random.default_rng(6)
    coords = rng.uniform(-0.9, 0.9, size=(3, 100))
    ((jac, _),) = traced(state, coords, [0.4])
    h = 1e-5
    for j in range(3):
        shift = np.zeros((3, 1))
        shift[j] = h
        fp = net.forward(state, coords + shift, 0.4).phi
        fm = net.forward(state, coords - shift, 0.4).phi
        fd = (fp - fm) / (2 * h)
        rel = np.abs(jac[:, j, :] - fd) / np.maximum(np.abs(fd), 1e-6)
        assert rel.max() < 1e-4


def test_temporal_derivative_matches_fd():
    state = toy_state(seed=17)
    rng = np.random.default_rng(7)
    coords = rng.uniform(-0.9, 0.9, size=(3, 100))
    ((_, dphi),) = traced(state, coords, [0.45])
    h = 1e-5
    fp = net.forward(state, coords, 0.45 + h).displacement
    fm = net.forward(state, coords, 0.45 - h).displacement
    fd = (fp - fm) / (2 * h)
    rel = np.abs(dphi - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-5


def test_jacdet_dt_matches_fd():
    state = toy_state(seed=19)
    rng = np.random.default_rng(8)
    coords = rng.uniform(-0.9, 0.9, size=(3, 200))
    res = net.forward_with_derivatives(state, coords, 0.31, FULL_REQ)
    h = 1e-4
    req = net.DerivativeRequest(spatial=True)
    jp = net.forward_with_derivatives(state, coords, 0.31 + h, req).jac_det
    jm = net.forward_with_derivatives(state, coords, 0.31 - h, req).jac_det
    fd = (jp - jm) / (2 * h)
    rel = np.abs(res.jac_det_dt - fd) / np.maximum(np.abs(fd), 1e-7)
    assert rel.max() < 1e-4


def test_jacobi_consistency_thousand_points():
    state = toy_state(seed=23)
    rng = np.random.default_rng(9)
    coords = rng.uniform(-0.95, 0.95, size=(3, 1000))
    ts = rng.uniform(0.0, 1.0, size=4)
    h = 1e-4
    req = net.DerivativeRequest(spatial=True)
    for t in ts:
        res = net.forward_with_derivatives(state, coords, t, FULL_REQ)
        jp = net.forward_with_derivatives(state, coords, t + h, req).jac_det
        jm = net.forward_with_derivatives(state, coords, t - h, req).jac_det
        fd = (jp - jm) / (2 * h)
        rel = np.abs(res.jac_det_dt - fd) / np.maximum(np.abs(fd), 1e-7)
        assert rel.max() < 1e-4


def test_jacdet_equals_numpy_det():
    state = toy_state(seed=29)
    coords = np.random.default_rng(10).uniform(-1, 1, size=(3, 50))
    res = net.forward_with_derivatives(state, coords, 0.8, FULL_REQ)
    ((jac, _),) = traced(state, coords, [0.8])
    mats = np.transpose(jac, (2, 0, 1))
    np.testing.assert_allclose(res.jac_det, np.linalg.det(mats), rtol=1e-12)


def test_depth_two_variant():
    cfg = net.NetworkConfig(hidden_width=6, depth=2, time_hidden_width=4, time_embed_width=5)
    state = net.init_network(seed=31, config=cfg)
    for w, _ in state.psi + state.theta:
        w *= 3.0
    coords = np.random.default_rng(11).uniform(-0.9, 0.9, size=(3, 40))
    res = net.forward_with_derivatives(state, coords, 0.5, FULL_REQ)
    ((_, dphi),) = traced(state, coords, [0.5])
    # additive structure: displacement = A(w) + B(t), so d|J|/dt must vanish
    np.testing.assert_allclose(res.jac_det_dt, 0.0, atol=1e-15)
    h = 1e-5
    fp = net.forward(state, coords, 0.5 + h).displacement
    fm = net.forward(state, coords, 0.5 - h).displacement
    fd = (fp - fm) / (2 * h)
    rel = np.abs(dphi - fd) / np.maximum(np.abs(fd), 1e-8)
    assert rel.max() < 1e-5


def test_phi_is_coords_plus_displacement():
    state = toy_state(seed=41)
    coords = np.random.default_rng(13).uniform(-1, 1, size=(3, 25))
    res = net.forward(state, coords, 0.2)
    np.testing.assert_array_equal(res.phi, coords + res.displacement)
