"""Span tracing of ndfreg from outside the package.

The tracer replaces public functions with wrappers at the place where
callers look them up (a module attribute such as `trainer.build_total_loss`
or a class attribute such as `Tape.record`), so nothing under `src/`
changes.  Each wrapper records one span: name, start, end, parent span and
the operation it belongs to (one fit iteration, or one CLI command).  Self
time, a span's duration minus the time its child spans cover, is
accumulated online; the raw spans are kept in compact arrays and written
out when the process ends.

Counters sit at the same boundaries: tape nodes and bytes by primitive
kind, computed affine flops and bytes, live `Tape` objects, Adam steps and
their accepted flag, and garbage-collector passes.
"""

from __future__ import annotations

import functools
import gc
import time
import weakref
from array import array
from collections import defaultdict

# (module, attribute, span name): where each public function is looked up
# by its callers in the package.
SPAN_SITES = (
    ("trainer", "fit", "trainer.fit"),
    ("trainer", "sample_plan", "trainer.sample_plan"),
    ("trainer", "adam_step", "trainer.adam_step"),
    ("trainer", "build_total_loss", "losses.build_total_loss"),
    ("trainer", "predict_field", "trainer.predict_field"),
    ("trainer", "warp_volume", "trainer.warp_volume"),
    ("trainer", "trilinear_values_and_grads", "volume.sample"),
    ("network", "forward_with_derivatives", "network.forward_with_derivatives"),
    ("network", "make_leaves", "network.make_leaves"),
    ("network", "init_network", "network.init_network"),
    ("diffengine", "bundle_affine", "diffengine.bundle"),
    ("diffengine", "bundle_sine", "diffengine.bundle"),
    ("diffengine", "bundle_leaky", "diffengine.bundle"),
    ("diffengine", "bundle_add", "diffengine.bundle"),
    ("diffengine", "trilinear_values_and_grads", "volume.sample"),
    ("losses", "sample_trilinear", "volume.sample"),
    ("losses", "ncc_node", "losses.ncc"),
    ("losses", "monotonic_node", "losses.monotonic"),
    ("metrics", "structure_trajectories", "metrics.trajectories"),
    ("metrics", "warp_labels", "metrics.warp_labels"),
    ("metrics", "dice", "metrics.dice"),
    ("phantom", "generate_phantom", "phantom.generate"),
    ("fileio", "load_series", "fileio.read"),
    ("fileio", "load_model", "fileio.read"),
    ("fileio", "read_raw", "fileio.read"),
    ("fileio", "read_raw_labels", "fileio.read"),
    ("fileio", "write_raw", "fileio.write"),
    ("fileio", "write_csv", "fileio.write"),
    ("fileio", "write_manifest", "fileio.write"),
    ("fileio", "save_model", "fileio.write"),
    ("fileio", "atomic_write", "fileio.write"),
)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.op = 0
        self._stack: list[int] = []
        self._child: list[float] = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(float)
        self.tape_bytes_by_kind = defaultdict(float)
        self._live_tapes = weakref.WeakSet()
        self._gc_started = 0.0

    # ---- spans ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def parent_name(self) -> str | None:
        if not self._stack:
            return None
        return self.names[self.span_name[self._stack[-1]]]

    def open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self._child.append(0.0)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        end = time.perf_counter()
        self.span_end[idx] = end
        self._stack.pop()
        child = self._child.pop()
        dur = end - self.span_start[idx]
        name = self.names[self.span_name[idx]]
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        self.calls[name] += 1
        if self._child:
            self._child[-1] += dur

    def new_op(self):
        self.op += 1

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Replace owner.attr by a span-recording wrapper."""
        fn = getattr(owner, attr)
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, out)
            return out

        setattr(owner, attr, wrapper)

    # ---- counters ------------------------------------------------------

    def snapshot_tape(self, tape):
        """Count one finished tape: nodes and bytes of retained values."""
        self.counters["tapes"] += 1
        self.counters["tape_nodes"] += len(tape.nodes)
        for node in tape.nodes:
            nbytes = node.value.nbytes
            if node.aux is not None:
                nbytes += node.aux.nbytes
            self.tape_bytes_by_kind[node.kind] += nbytes

    def count_affine(self, w, x, cols, sweeps: int):
        """Computed flops and bytes of `sweeps` (m,k)@(k,n) products."""
        lo, hi = cols if cols is not None else (0, w.shape[1])
        m, k, n = w.shape[0], hi - lo, x.shape[1]
        self.counters["affine_flop"] += sweeps * 2.0 * m * k * n
        self.counters["affine_bytes"] += sweeps * (m * k + k * n + m * n) * x.itemsize

    def track_tape(self, tape):
        self._live_tapes.add(tape)
        live = len(self._live_tapes)
        if live > self.counters["live_tapes_max"]:
            self.counters["live_tapes_max"] = live

    def gc_callback(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
            return
        self.counters["gc_pause_s"] += time.perf_counter() - self._gc_started
        if info.get("generation") == 2:
            self.counters["gc_gen2"] += 1

    # ---- output ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "tape_bytes_by_kind": dict(self.tape_bytes_by_kind),
            "spans": len(self.span_name),
        }

    def dump_spans(self, path: str):
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )


def probe_s() -> float:
    """Wall time of a fixed pure-Python loop, a few milliseconds: how fast
    the host runs right now.  A shared host can make it, and everything
    else, up to 1.6x slower for seconds to minutes at a time."""
    started = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i
    return time.perf_counter() - started


def take_probe(points, kind):
    """Probe the host, then stamp the time: (time, probe, kind)."""
    probe = probe_s()
    points.append((time.perf_counter(), probe, kind))


def install_counters(counters, points):
    """What every run keeps, traced or not: Adam calls and rejected steps,
    from `adam_step`'s accepted flag, and host-speed probe points at the
    start of every fit iteration ("iter") and before every dense network
    evaluation ("call")."""
    from ndfreg import network, trainer

    adam = trainer.adam_step

    @functools.wraps(adam)
    def adam_step(*args, **kwargs):
        state, accepted = adam(*args, **kwargs)
        counters["adam_calls"] += 1
        if not accepted:
            counters["adam_rejected"] += 1
        return state, accepted

    trainer.adam_step = adam_step
    leaves = network.make_leaves

    @functools.wraps(leaves)
    def make_leaves(tape, state, trainable=True):
        if trainable:  # the fit loop: one call at the start of each iteration
            take_probe(points, "iter")
        return leaves(tape, state, trainable)

    network.make_leaves = make_leaves
    forward = network.forward_with_derivatives

    @functools.wraps(forward)
    def forward_with_derivatives(*args, **kwargs):
        take_probe(points, "call")
        return forward(*args, **kwargs)

    network.forward_with_derivatives = forward_with_derivatives


def install_tracer(tracer: Tracer):
    """Wrap every site in SPAN_SITES plus the Tape methods."""
    from ndfreg import diffengine, fileio, losses, metrics, network, phantom, trainer

    modules = {
        "trainer": trainer, "network": network, "diffengine": diffengine,
        "losses": losses, "metrics": metrics, "phantom": phantom, "fileio": fileio,
    }
    hooks = {
        "network.make_leaves": (_new_iteration(tracer), None),
        "network.forward_with_derivatives": (_count_voxels(tracer), None),
    }
    for mod, attr, name in SPAN_SITES:
        before, after = hooks.get(name, (None, None))
        tracer.wrap(modules[mod], attr, name, before, after)
    _wrap_trace_network(tracer, network)

    tape = diffengine.Tape
    tracer.wrap(tape, "record", "diffengine.record", after=_after_record(tracer))
    tracer.wrap(tape, "backward", "diffengine.backward",
                before=lambda args, kwargs: tracer.snapshot_tape(args[0]),
                after=_after_backward(tracer))
    init = tape.__init__

    @functools.wraps(init)
    def tape_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        tracer.track_tape(self)

    tape.__init__ = tape_init
    gc.callbacks.append(tracer.gc_callback)


def _new_iteration(tracer):
    # the fit loop builds fresh leaves at the start of every iteration
    def before(args, kwargs):
        if tracer.parent_name() == "trainer.fit":
            tracer.new_op()
            tracer.counters["iterations"] += 1

    return before


def _wrap_trace_network(tracer, network):
    """Spans split by request: value only, or with derivatives.  An
    inference tape is complete when trace_network returns inside
    forward_with_derivatives; a training tape is counted at backward."""
    fn = network.trace_network
    value_id = tracer.name_id("network.trace_value")
    deriv_id = tracer.name_id("network.trace_deriv")

    @functools.wraps(fn)
    def trace_network(tape, leaves, coords, t, config, request):
        plain = not (request.spatial or request.temporal)
        idx = tracer.open(value_id if plain else deriv_id)
        try:
            out = fn(tape, leaves, coords, t, config, request)
        finally:
            tracer.close(idx)
        if tracer.parent_name() == "network.forward_with_derivatives":
            tracer.snapshot_tape(tape)
        return out

    network.trace_network = trace_network


def _count_voxels(tracer):
    def before(args, kwargs):
        coords = args[1] if len(args) > 1 else kwargs["coords"]
        tracer.counters["forward_voxels"] += coords.shape[1]

    return before


def _after_record(tracer):
    def after(args, kwargs, out):
        if args[1] == "affine":
            inputs = args[2]
            tracer.count_affine(inputs[0].value, inputs[1].value, out.payload, 1)

    return after


def _after_backward(tracer):
    def after(args, kwargs, out):
        for node in args[0].nodes:
            if node.kind == "affine" and node.adjoint is not None:
                # reverse sweep: one product for the weight, one for the input
                tracer.count_affine(node.inputs[0].value, node.inputs[1].value,
                                    node.payload, 2)

    return after
