"""ndfreg benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  Every command the workload times runs in a fresh child process with
one BLAS thread, through the public CLI (`ndfreg.cli.main`).  Before the
timed phase the repository's own gradcheck suite runs at f64 (untimed);
after it, each workload's outputs are checked.  With --trace 0 the last
line of standard output is a JSON object with the end-to-end metrics; with
--trace 1 the run measures the same work untraced and then traced and
reports the per-layer metrics and the tracing overhead.  Every run also
writes a record under .bench_work/records/.  --smoke shrinks every size
so a run takes seconds; check_schema.py uses it.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass

from tracer import probe_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
RUN_LIMIT_S = 170.0  # every child is killed by then; the contract allows 180
# Timed figures are gated at reference host speed: each stretch of wall time
# is scaled by REF_PROBE_S over the host-speed probes (tracer.probe_s) taken
# at its ends.  A shared 2-CPU host runs everything, the program and the
# probe alike, up to 1.6x slower for seconds to minutes at a time; unscaled,
# whole runs land in the slow phase and the run-to-run spread exceeds any
# usable bound.
REF_PROBE_S = 0.005
SETUPS_BEFORE, SETUPS_AFTER = 5, 4

# Sizes per workload; "smoke" keeps the structure and shrinks everything.
SIZES = {
    "full": {
        "fit-paper": dict(dims=32, preset="noisy015", iterations=8, batch=128,
                          hidden=256, embed=64, lr=1e-4),
        "fit-narrow": dict(dims=24, preset="clean", iterations=300, batch=256,
                           hidden=32, embed=16, lr=1e-3),
        "infer-dense": dict(dims=24, preset="noisy015"),
    },
    "smoke": {
        "fit-paper": dict(dims=8, preset="noisy015", iterations=3, batch=16,
                          hidden=16, embed=8, lr=1e-4),
        "fit-narrow": dict(dims=8, preset="clean", iterations=4, batch=16,
                           hidden=8, embed=4, lr=1e-3),
        "infer-dense": dict(dims=6, preset="noisy015"),
    },
}

JAC_TIMES = (12.0, 24.0, 36.0)
PREDICT_TIME = 18.0
METRIC_TIMES = "0,12,24,36"


@dataclass
class Child:
    label: str
    rc: int  # negative: killed by that signal
    at_s: float  # start, seconds into the run
    wall_s: float
    probes: tuple  # host_probe() just before and just after the child
    usage: object  # os.wait4 resource usage
    result: dict  # what child.py wrote; empty if it died first

    @property
    def points(self):
        """Probe points the process took: (time, probe, kind)."""
        return self.result.get("probes") or []

    @property
    def work_s(self):
        """Wall time without the process's own probes."""
        return self.wall_s - sum(p for _, p, _ in self.points)

    @property
    def wall_cal_s(self):
        """work_s at reference host speed.  Each stretch between two probe
        points inside the process is scaled by the probes at its ends; the
        rest of its life (start-up, imports, exit) by the parent's probes
        around it."""
        outer = REF_PROBE_S / statistics.mean(self.probes)
        points = self.points
        if len(points) < 2:
            return self.work_s * outer
        scaled = (self.wall_s - (points[-1][0] - points[0][0]) - points[0][1]) * outer
        for (t0, p0, _), (t1, p1, _) in zip(points, points[1:]):
            scaled += (t1 - t0 - p1) * REF_PROBE_S / ((p0 + p1) / 2)
        return scaled

    @property
    def ok(self):
        return self.rc == 0

    @property
    def maxrss_mb(self):
        return self.usage.ru_maxrss / 1024.0

    @property
    def failure(self):
        if self.rc < 0:
            return f"signal {-self.rc}"
        # the CLI's documented exit codes; child.py reports MemoryError itself
        meaning = {1: "verification failure", 2: "input error", 3: "numerical abort"}
        return self.result.get("error") or meaning.get(self.rc, f"exit {self.rc}")


class Run:
    """Launches children, and counts operations attempted and failed."""

    def __init__(self, work):
        self.work = work
        self.started = time.perf_counter()
        self.deadline = self.started + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.children = []

    def count(self, what, attempted=1, failed=0):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{what}: {failed} of {attempted} failed")

    def check(self, what, ok):
        self.count(f"check {what}", 1, 0 if ok else 1)
        return ok

    def child(self, label, action, argv, traced=False, ops=1, count_ok=True):
        """Run one child to completion.  It counts as `ops` operations; a
        child that fails, dies or times out counts all of them as failed.
        With count_ok=False the caller counts a successful child itself."""
        result_path = os.path.join(self.work, f"{label}.json")
        spans_path = os.path.join(self.work, f"{label}.spans.npz")
        for path in (result_path, spans_path):
            if os.path.exists(path):
                os.remove(path)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--result", result_path]
        if traced:
            cmd += ["--spans", spans_path]
        cmd += [action] + list(argv)
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        before = host_probe()
        with open(os.path.join(self.work, f"{label}.log"), "wb") as log:
            started = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(max(self.deadline - started, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        rc = os.waitstatus_to_exitcode(status)
        proc.returncode = rc
        result = {}
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as fh:
                result = json.load(fh)
        child = Child(label, rc, started - self.started, wall,
                      (before, host_probe()), usage, result)
        self.children.append(child)
        if not child.ok:
            self.count(f"{label} ({child.failure})", ops, ops)
        elif count_ok:
            self.count(label, ops)
        return child


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

_RAW_HEADER = struct.Struct("<6sBB3I3fQ")
_RAW_DTYPES = {0: "<f4", 1: "<f8", 2: "<i4"}


def read_ndvol(path):
    """NDVOL payload exactly as written (no intensity normalization)."""
    import numpy as np

    with open(path, "rb") as fh:
        blob = fh.read()
    magic, tag, _, nx, ny, nz, _, _, _, length = _RAW_HEADER.unpack_from(blob)
    if magic != b"NDVOL1":
        raise ValueError(f"{path}: not an NDVOL file")
    data = np.frombuffer(blob, dtype=_RAW_DTYPES[tag], count=nx * ny * nz,
                         offset=_RAW_HEADER.size)
    return data.reshape((nx, ny, nz), order="F").astype(np.float64)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def all_finite(values):
    return all(math.isfinite(float(v)) for v in values)


def quantile(values, q):
    """Linear-interpolated quantile of a non-empty list."""
    vals = sorted(values)
    pos = q * (len(vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


def host_probe():
    """Fastest of three host-speed probes."""
    return min(probe_s() for _ in range(3))


def phantom_argv(out, size, seed):
    d = size["dims"]
    return ["phantom", "--out", out, "--preset", size["preset"],
            "--dims", f"{d},{d},{d}", "--seed", str(seed)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up, timed operations and output checks of one workload."""

    def __init__(self, name, seed, seconds, size, run, smoke):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.run = run
        self.smoke = smoke
        self.work = run.work
        self.phantom = os.path.join(self.work, "phantom")
        self.extra = {}  # printed and recorded, not part of the JSON line

    # set-up: phantom (and model) writing in fresh processes
    def setup_once(self, tag, traced=False):
        c = self.run.child(f"setup{tag}-phantom", "cli",
                           phantom_argv(self.phantom, self.size, self.seed), traced)
        return [c]

    def setup(self, tag, repeats, traced=False):
        """Set up `repeats` times; returns ((wall, scaled wall) of each set-up,
        children)."""
        walls, children = [], []
        for k in range(repeats):
            kids = self.setup_once(f"{tag}{k}", traced)
            children += kids
            walls.append((sum(c.work_s for c in kids), sum(c.wall_cal_s for c in kids)))
        return walls, children

    def gate(self):
        # the suite's own seed: its parameter-gradient probe is sensitive to
        # the seed (seed 11 reads 1.7e-4 against a 1e-4 tolerance)
        argv = ["gradcheck", "--precision", "f64", "--seed", "0"]
        if self.smoke:
            argv += ["--width", "8", "--points", "20"]
        self.run.child("gradcheck", "cli", argv)

    def measure(self, tag, traced=False, n_ops=None):
        """Run n_ops operations, or as many as the first one says fit in
        `seconds` (at least one); returns ((wall, scaled wall) of each timed
        sample, children, op count)."""
        samples, children, k = [], [], 0
        while n_ops is None or k < n_ops:
            started = time.perf_counter()
            got, kids = self.operation(f"{tag}{k}", traced)
            samples += got
            children += kids
            k += 1
            if not got:  # a failed operation ends the phase
                break
            if n_ops is None:
                n_ops = max(1, round(self.seconds / (time.perf_counter() - started)))
        return samples, children, k


class FitWorkload(Workload):
    def operation(self, tag, traced):
        s = self.size
        out = os.path.join(self.work, f"fit-{tag}")
        argv = ["fit", "--manifest", os.path.join(self.phantom, "manifest.txt"),
                "--out", out, "--seed", str(self.seed),
                "--iterations", str(s["iterations"]), "--batch-points", str(s["batch"]),
                "--hidden-width", str(s["hidden"]), "--time-embed-width", str(s["embed"]),
                "--depth", "5", "--time-hidden-width", "10", "--reg-grid", "8",
                "--gamma", "0.1", "--learning-rate", str(s["lr"]),
                "--precision", "f64", "--log-every", "1"]
        iters = s["iterations"]
        child = self.run.child(f"fit-{tag}", "cli", argv, traced, ops=iters,
                               count_ok=False)
        self.last_fit = out
        if not child.ok:
            return [], [child]
        # iterations that never reached adam_step were skipped as non-finite
        calls = int(child.result["counters"].get("adam_calls", 0))
        rejected = int(child.result["counters"].get("adam_rejected", 0))
        self.run.count(f"{tag} fit iterations", iters, (iters - calls) + rejected)
        self.rejected = getattr(self, "rejected", 0) + rejected
        try:
            rows = read_csv(os.path.join(out, "report.csv"))
            finite = all_finite(r["total"] for r in rows)
        except (OSError, KeyError, ValueError):
            finite = False
        if not self.run.check(f"{tag} report finite", finite):
            return [], [child]
        # iteration k runs from its start stamp to the next one, minus the
        # probe taken before the next; the first iteration is left out
        starts = [(t, p) for t, p, kind in child.points if kind == "iter"][1:]
        samples = []
        for (t0, p0), (t1, p1) in zip(starts, starts[1:]):
            wall = t1 - t0 - p1
            samples.append((wall, wall * REF_PROBE_S / ((p0 + p1) / 2)))
        return samples, [child]

    def check(self):
        from ndfreg import fileio

        import numpy as np

        state = fileio.load_model(os.path.join(self.last_fit, "model.ndf"))
        self.run.check("model finite",
                       all(np.isfinite(a).all() for a in state.param_arrays()))
        self.extra["model_checksum"] = state.checksum()


class FitNarrow(FitWorkload):
    def check(self):
        super().check()
        import numpy as np

        from ndfreg.phantom import PhantomSpec, true_jacobian_det
        from ndfreg.volume import grid_coordinates

        model = os.path.join(self.last_fit, "model.ndf")
        d = self.size["dims"]
        jac_out = os.path.join(self.work, "score-jacobian")
        met_out = os.path.join(self.work, "score-metrics")
        jc = self.run.child("score-jacobian", "cli",
                            ["jacobian", "--model", model, "--out", jac_out,
                             "--times", "36", "--dims", f"{d},{d},{d}"])
        mc = self.run.child("score-metrics", "cli",
                            ["metrics", "--model", model, "--out", met_out,
                             "--manifest", os.path.join(self.phantom, "manifest.txt"),
                             "--times", METRIC_TIMES])
        if not (jc.ok and mc.ok):
            return
        with open(os.path.join(self.phantom, "truth.json"), encoding="utf-8") as fh:
            truth = json.load(fh)
        spec = PhantomSpec(**{k: tuple(v) if isinstance(v, list) else v
                              for k, v in truth.items()})
        jac = read_ndvol(os.path.join(jac_out, "jac_36.raw"))
        true = true_jacobian_det(spec, 36.0)
        pts = grid_coordinates(spec.dims)
        core = (np.linalg.norm(pts - np.array(spec.center)[:, None], axis=0)
                <= spec.core).reshape(spec.dims)
        err = float(np.abs(jac - true)[core].mean())
        identity = float(np.abs(1.0 - true)[core].mean())
        rows = read_csv(os.path.join(met_out, "structure_metrics.csv"))
        sign = [float(r["sign_consistency"]) for r in rows if r["label"] == "1"]
        self.run.check("jacobian finite", bool(np.isfinite(jac).all()))
        self.run.check("metrics finite", all_finite(
            v for r in rows for k, v in r.items() if v not in ("", None)))
        if not self.smoke:
            self.run.check("core |J| error beats the identity map", err < identity)
        self.extra.update(core_jac_err=err, identity_jac_err=identity,
                          sign_consistency=sign[0] if sign else float("nan"))


class InferDense(Workload):
    def setup_once(self, tag, traced=False):
        kids = super().setup_once(tag, traced)
        self.model = os.path.join(self.work, "model.ndf")
        kids.append(self.run.child(f"setup{tag}-model", "make-model",
                                   [self.model, str(self.seed)], traced))
        return kids

    def operation(self, tag, traced):
        d = self.size["dims"]
        out = os.path.join(self.work, f"infer-{tag}")
        self.last_out = out
        scan = os.path.join(self.phantom, "vol_03.raw")
        cmds = [
            ("jacobian", ["jacobian", "--model", self.model, "--out", out,
                          "--times", ",".join(f"{t:g}" for t in JAC_TIMES),
                          "--dims", f"{d},{d},{d}"]),
            ("predict", ["predict", "--model", self.model, "--out", out,
                         "--time", f"{PREDICT_TIME:g}", "--with-djdt", "--scan", scan]),
            ("metrics", ["metrics", "--model", self.model, "--out", out,
                         "--manifest", os.path.join(self.phantom, "manifest.txt"),
                         "--times", METRIC_TIMES]),
        ]
        kids = [self.run.child(f"{name}-{tag}", "cli", argv, traced)
                for name, argv in cmds]
        if not all(c.ok for c in kids):
            return [], kids
        if not traced:
            self.commands = getattr(self, "commands", [])
            self.commands.append({name: c.work_s for (name, _), c in zip(cmds, kids)})
        return [(sum(c.work_s for c in kids), sum(c.wall_cal_s for c in kids))], kids

    def check(self):
        """|J| and d|J|/dt from the CLI outputs against central finite
        differences of network.forward on a fixed voxel subsample."""
        import numpy as np

        from ndfreg import fileio, network
        from ndfreg.volume import grid_coordinates

        state = fileio.load_model(self.model)
        d = self.size["dims"]
        coords = grid_coordinates((d, d, d))
        pick = np.random.default_rng([self.seed, 11]).choice(
            coords.shape[1], size=min(64, coords.shape[1]), replace=False)
        pts = coords[:, pick]

        def det_fd(tnorm, h=1e-5):
            cols = []
            for j in range(3):
                shift = np.zeros((3, 1))
                shift[j] = h
                cols.append((network.forward(state, pts + shift, tnorm).phi
                             - network.forward(state, pts - shift, tnorm).phi) / (2 * h))
            jac = np.stack(cols, axis=1)
            return np.linalg.det(np.transpose(jac, (2, 0, 1)))

        def close(got, want, tol):
            return bool(np.isfinite(got).all()) and float(np.abs(got - want).max()) <= tol

        horizon = state.time_horizon
        out = self.last_out
        for t in JAC_TIMES:
            got = read_ndvol(os.path.join(out, f"jac_{t:g}.raw")).ravel()[pick]
            self.run.check(f"|J| at {t:g} vs finite differences",
                           close(got, det_fd(t / horizon), 1e-7))
        tn, ht = PREDICT_TIME / horizon, 1e-3
        got = read_ndvol(os.path.join(out, "jacdet.raw")).ravel()[pick]
        self.run.check("predict |J| vs finite differences", close(got, det_fd(tn), 1e-7))
        want = (det_fd(tn + ht) - det_fd(tn - ht)) / (2 * ht)
        got = read_ndvol(os.path.join(out, "jacdet_dt.raw")).ravel()[pick]
        self.run.check("d|J|/dt vs finite differences",
                       close(got, want, 1e-4 * float(np.abs(want).max()) + 1e-9))
        for name in ("disp_x", "disp_y", "disp_z", "warped"):
            self.run.check(f"{name} finite", bool(
                np.isfinite(read_ndvol(os.path.join(out, f"{name}.raw"))).all()))
        rows = read_csv(os.path.join(out, "structure_metrics.csv"))
        self.run.check("metrics finite", all_finite(
            v for r in rows for k, v in r.items() if v not in ("", None)))
        n = d ** 3
        cmds = self.commands
        self.extra.update(
            jac_voxels_per_s=statistics.median(len(JAC_TIMES) * n / c["jacobian"]
                                               for c in cmds),
            djdt_voxels_per_s=statistics.median(n / c["predict"] for c in cmds),
            metrics_s=statistics.median(c["metrics"] for c in cmds),
        )


WORKLOADS = {"fit-paper": FitWorkload, "fit-narrow": FitNarrow, "infer-dense": InferDense}


# ---------------------------------------------------------------------------
# per-layer metrics from traced children
# ---------------------------------------------------------------------------


def layer_metrics(measured, setup, untraced, n_ops, overhead_s, overhead_share,
                  rejected):
    """Aggregate traced children into the PER_LAYER metrics of spec.py;
    the operating-system counters come from the untraced children."""
    def merged(children):
        self_s, total_s, calls, counters, kinds = {}, {}, {}, {}, {}
        spans = 0
        for c in children:
            tr = c.result.get("trace")
            if not tr:
                continue
            for dst, src in ((self_s, tr["self_s"]), (total_s, tr["total_s"]),
                             (calls, tr["calls"]), (counters, tr["counters"]),
                             (kinds, tr["tape_bytes_by_kind"])):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0.0) + v
            spans += tr["spans"]
        return self_s, total_s, calls, counters, kinds, spans

    self_s, total_s, calls, counters, kinds, spans = merged(measured)
    s_self, _, _, _, _, _ = merged(setup)
    ops = max(n_ops, 1)
    tapes = max(counters.get("tapes", 0.0), 1.0)
    mb = 1.0 / (1024.0 * 1024.0)

    def per_op(name):
        return self_s.get(name, 0.0) / ops

    named = ("affine", "mul", "sine", "add")
    other = sum(v for k, v in kinds.items() if k not in named)
    fwd_voxels = counters.get("forward_voxels", 0.0)
    flop = counters.get("affine_flop", 0.0)
    imports = [c.result["import_s"] for c in measured + setup if "import_s" in c.result]
    return {
        "diffengine.backward_s": per_op("diffengine.backward"),
        "diffengine.record_s": per_op("diffengine.record"),
        "diffengine.bundle_s": per_op("diffengine.bundle"),
        "diffengine.tape_nodes": counters.get("tape_nodes", 0.0) / tapes,
        "diffengine.tape_mb": sum(kinds.values()) * mb / tapes,
        **{f"diffengine.tape_mb.{k}": kinds.get(k, 0.0) * mb / tapes for k in named},
        "diffengine.tape_mb.other": other * mb / tapes,
        "diffengine.live_tapes_max": max(
            (c.result["trace"]["counters"].get("live_tapes_max", 0.0)
             for c in measured if c.result.get("trace")), default=0.0),
        "diffengine.affine_gflop_computed": flop / 1e9 / ops,
        "diffengine.affine_flop_per_byte_computed":
            flop / counters["affine_bytes"] if counters.get("affine_bytes") else 0.0,
        "network.bundle_calls": calls.get("diffengine.bundle", 0.0) / ops,
        "network.trace_value_s": per_op("network.trace_value"),
        "network.trace_deriv_s": per_op("network.trace_deriv"),
        "network.forward_s_per_kvox":
            total_s.get("network.forward_with_derivatives", 0.0) / (fwd_voxels / 1e3)
            if fwd_voxels else 0.0,
        "trainer.predict_field_s": per_op("trainer.predict_field"),
        "losses.build_self_s": per_op("losses.build_total_loss"),
        "losses.ncc_s": per_op("losses.ncc"),
        "losses.monotonic_s": per_op("losses.monotonic"),
        "trainer.sample_plan_s": per_op("trainer.sample_plan"),
        "trainer.adam_step_s": per_op("trainer.adam_step"),
        "trainer.rejected_steps": float(rejected),
        "volume.sample_s": per_op("volume.sample"),
        "metrics.trajectories_s": per_op("metrics.trajectories"),
        "metrics.warp_labels_s": per_op("metrics.warp_labels"),
        "metrics.dice_s": per_op("metrics.dice"),
        "gc.gen2_collections": counters.get("gc_gen2", 0.0) / ops,
        "gc.pause_s": counters.get("gc_pause_s", 0.0) / ops,
        "fileio.read_s": per_op("fileio.read"),
        "fileio.write_s": per_op("fileio.write"),
        "phantom.generate_s": s_self.get("phantom.generate", 0.0),
        "setup.fileio_write_s": s_self.get("fileio.write", 0.0),
        "cli.import_s": statistics.median(imports) if imports else 0.0,
        "os.minor_faults": sum(c.usage.ru_minflt for c in untraced) / ops,
        "os.user_s": sum(c.usage.ru_utime for c in untraced) / ops,
        "os.sys_s": sum(c.usage.ru_stime for c in untraced) / ops,
        "trace.overhead_s": overhead_s,
        "trace.overhead_share": overhead_share,
        "trace.spans_per_op": spans / ops,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, smoke):
    import spec

    work = os.path.join(WORK, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(work)
    size = SIZES["smoke" if smoke else "full"][name]
    wl = WORKLOADS[name](name, seed, seconds, size, run, smoke)

    if trace:
        _, setup_children = wl.setup("s", 1, traced=True)
    else:
        setups, _ = wl.setup("a", SETUPS_BEFORE)
    wl.gate()
    samples, measured, n_ops = wl.measure("m")
    if not trace:
        # more set-ups after the timed phase, so the median spans the run
        setups += wl.setup("b", SETUPS_AFTER)[0]
    traced, traced_children = [], []
    if trace:
        traced, traced_children, _ = wl.measure("t", traced=True, n_ops=n_ops)
    if samples:
        try:
            wl.check()
        except Exception:  # a check that cannot run counts as failed
            traceback.print_exc()
            run.check("outputs readable", False)

    record = {"workload": name, "seed": seed, "holdout_seed": spec.HOLDOUT_SEED,
              "seconds": seconds, "trace": trace, "smoke": smoke,
              "operations": n_ops, "op_samples": samples,
              "setups": None if trace else setups}
    e2e = {}
    # printed and recorded only; see spec.END_TO_END for why they are not gated
    shown = [("failed_ops_share", run.failed / max(run.attempted, 1), "share", "lower")]
    if samples:
        walls = [w for w, _ in samples]
        scaled = [c for _, c in samples]
        e2e = {
            "setup_s": None if trace else statistics.median(c for _, c in setups),
            "op_s.p50": statistics.median(scaled),
            "peak_rss_mb": max(c.maxrss_mb for c in measured),
        }
        if len(scaled) >= 100:  # at least ten samples above the 90th percentile
            shown.append(("op_s.p90", quantile(scaled, 0.9), "s", "lower"))
        shown += [("op_wall_s.p50", statistics.median(walls), "s", "lower"),
                  ("op_wall_s.min", min(walls), "s", "lower")]
        if not trace:
            shown.append(("setup_wall_s", statistics.median(w for w, _ in setups),
                          "s", "lower"))
    for key, unit, better in (("core_jac_err", "abs", "lower"),
                              ("sign_consistency", "share", "higher"),
                              ("jac_voxels_per_s", "1/s", "higher"),
                              ("djdt_voxels_per_s", "1/s", "higher"),
                              ("metrics_s", "s", "lower")):
        if key in wl.extra:
            shown.append((key, wl.extra[key], unit, better))
    record.update(wl.extra)
    record.update((key, value) for key, value, _, _ in shown)
    record["children"] = [(c.label, c.at_s, c.wall_s, c.probes) for c in run.children]
    record["failures"] = run.failures

    if trace:
        metrics = {}
        if samples and traced:
            base = e2e["op_s.p50"]
            with_trace = statistics.median(c for _, c in traced)
            ops = n_ops
            if isinstance(wl, FitWorkload):
                ops = sum(c.result.get("trace", {}).get("counters", {}).get("iterations", 0)
                          for c in traced_children)
            metrics = layer_metrics(traced_children, setup_children, measured, ops,
                                    with_trace - base, (with_trace - base) / base,
                                    getattr(wl, "rejected", 0))
            record["traced_op_s.p50"] = with_trace
        units = {n: (u, b, moves, wls, meaning)
                 for n, u, b, moves, wls, meaning in spec.PER_LAYER}
        out = {n: {"value": metrics.get(n), "unit": units[n][0]} for n in units}
        for n, (u, b, moves, wls, meaning) in units.items():
            print(f"{n:44s} {out[n]['value']} {u} ({b} is better; "
                  f"moves {moves} on {', '.join(wls)}; {meaning})")
    else:
        units = {n: (u, b) for n, u, b, _ in spec.END_TO_END}
        out = {n: {"value": e2e.get(n), "unit": units[n][0]} for n in units}
        for n, (u, b) in units.items():
            print(f"{n:20s} {out[n]['value']} {u} ({b} is better; "
                  f"{spec.END_TO_END_MEANING[n]})")
    for key, value, unit, better in shown:
        print(f"{key:20s} {value:.6g} {unit} ({better} is better; not gated)")
    for line in run.failures:
        print(f"FAILED {line}")
    if "model_checksum" in record:
        print(f"model checksum {record['model_checksum']} (seed {seed}; "
              f"held-out seed {spec.HOLDOUT_SEED})")

    records = os.path.join(WORK, "records")
    os.makedirs(records, exist_ok=True)
    record["metrics"] = {k: v["value"] for k, v in out.items()}
    path = os.path.join(records, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    correct = run.failed == 0 and all(
        v["value"] is not None and math.isfinite(v["value"]) for v in out.values())
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ndfreg", "cli.py")):
        print(f"perfbench: no ndfreg sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
