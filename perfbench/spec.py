"""What the benchmark measures, in one place.

`python3 perfbench/spec.py` writes BENCHMARK.json at the repository root
from these tables.  BENCHMARK.json holds only the keys its format allows;
the rest of each entry here (what a layer metric should move, and on
which workload) is printed with every traced run and kept in its record.
"""

from __future__ import annotations

import json
import os
import sys

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 30

# Seed kept out of development: a later change that claims a gain shows
# it on this seed too, after tuning on others.
HOLDOUT_SEED = 9001

WORKLOADS = [
    ("fit-paper",
     "paper width 256x5, B=128, 32^3 noisy phantom: big matmuls and big tapes, so "
     "steps are bound by reverse-sweep kernels, tape bytes and tape lifetime"),
    ("fit-narrow",
     "width 32, B=256, 300 steps on a clean 24^3 phantom: same 1734-node tape on small "
     "arrays, so per-node interpreter cost matters; scores |J| against the truth"),
    ("infer-dense",
     "jacobian, predict --with-djdt and metrics CLI commands of a paper-width model "
     "at 24^3: no reverse sweep and no Adam, so training-only changes read no change"),
]

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s.p50", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# What each end-to-end metric means on each workload.  Times are at
# reference host speed (run.REF_PROBE_S): a shared 2-CPU host runs the same
# code up to 1.6x slower for seconds to minutes at a time, so each wall time
# is scaled by a host-speed probe taken next to it; the unscaled figures are
# printed too.  The quality figures, the per-workload throughputs and
# failed_ops_share are printed and recorded but not gated: a gated metric
# has to exist, non-zero, on every workload.
END_TO_END_MEANING = {
    "setup_s": "median over 9 set-ups of phantom generation, input and model writing "
               "and the imports of each set-up process, at reference host speed",
    "op_s.p50": "median time of one operation at reference host speed: a fit "
                "iteration after the first on fit-*, one inference pass (jacobian, "
                "predict, metrics processes) on infer-dense",
    "peak_rss_mb": "largest ru_maxrss of the measured child processes",
}

FIT = ("fit-paper", "fit-narrow")
ALL = ("fit-paper", "fit-narrow", "infer-dense")

# name, unit, better, end-to-end metric it should move, workloads, meaning.
# Times are self time (span minus child spans) per operation unless stated.
PER_LAYER = [
    ("diffengine.backward_s", "s", "lower", "op_s.p50", ("fit-paper",),
     "Tape.backward self time per step; 0 on infer-dense"),
    ("diffengine.record_s", "s", "lower", "op_s.p50", ("fit-paper",),
     "Tape.record self time (forward kernels) per operation"),
    ("diffengine.bundle_s", "s", "lower", "op_s.p50", ("fit-narrow",),
     "self time of the bundle_* tangent rules per operation"),
    ("diffengine.tape_nodes", "count", "lower", "op_s.p50", ("fit-narrow",),
     "nodes of one finished tape (training at backward, inference per chunk)"),
    ("diffengine.tape_mb", "MB", "lower", "peak_rss_mb", ALL,
     "node value bytes of one finished tape"),
    ("diffengine.tape_mb.affine", "MB", "lower", "peak_rss_mb", ALL,
     "affine node bytes of one finished tape"),
    ("diffengine.tape_mb.mul", "MB", "lower", "peak_rss_mb", ALL,
     "mul node bytes of one finished tape"),
    ("diffengine.tape_mb.sine", "MB", "lower", "peak_rss_mb", ALL,
     "sine node bytes of one finished tape"),
    ("diffengine.tape_mb.add", "MB", "lower", "peak_rss_mb", ALL,
     "add node bytes of one finished tape"),
    ("diffengine.tape_mb.other", "MB", "lower", "peak_rss_mb", ALL,
     "bytes of all other node kinds of one finished tape"),
    ("diffengine.live_tapes_max", "count", "lower", "peak_rss_mb", ALL,
     "most Tape objects alive at once (weak references)"),
    ("diffengine.affine_gflop_computed", "GFLOP", "lower", "op_s.p50", ("fit-paper",),
     "2*m*k*n per affine product, forward and reverse, per operation; computed"),
    ("diffengine.affine_flop_per_byte_computed", "flop/B", "higher", "op_s.p50",
     ("fit-paper",), "affine flops over operand and result bytes; computed"),
    ("network.bundle_calls", "count", "lower", "op_s.p50", ("fit-narrow",),
     "bundle_* calls per operation"),
    ("network.trace_value_s", "s", "lower", "op_s.p50", ("fit-narrow",),
     "trace_network self time for value-only requests per operation"),
    ("network.trace_deriv_s", "s", "lower", "op_s.p50", ("fit-narrow",),
     "trace_network self time for derivative requests per operation"),
    ("network.forward_s_per_kvox", "s", "lower", "op_s.p50", ("infer-dense",),
     "forward_with_derivatives time including children per 1000 points"),
    ("trainer.predict_field_s", "s", "lower", "op_s.p50", ("infer-dense",),
     "predict_field self time per operation"),
    ("losses.build_self_s", "s", "lower", "op_s.p50", ("fit-narrow",),
     "build_total_loss self time per operation"),
    ("losses.ncc_s", "s", "lower", "op_s.p50", FIT,
     "ncc_node self time per operation; under 1% of a step"),
    ("losses.monotonic_s", "s", "lower", "op_s.p50", FIT,
     "monotonic_node self time per operation; under 1% of a step"),
    ("trainer.sample_plan_s", "s", "lower", "op_s.p50", FIT,
     "sample_plan self time per operation; under 1% of a step"),
    ("trainer.adam_step_s", "s", "lower", "op_s.p50", FIT,
     "adam_step self time per operation; under 1% of a step"),
    ("trainer.rejected_steps", "count", "lower", "failed", FIT,
     "Adam steps rejected for a non-finite gradient, over the run"),
    ("volume.sample_s", "s", "lower", "op_s.p50", FIT,
     "trilinear sampler self time per operation; under 1% of a step"),
    ("metrics.trajectories_s", "s", "lower", "op_s.p50", ("infer-dense",),
     "structure_trajectories self time per operation"),
    ("metrics.warp_labels_s", "s", "lower", "op_s.p50", ("infer-dense",),
     "warp_labels self time per operation"),
    ("metrics.dice_s", "s", "lower", "op_s.p50", ("infer-dense",),
     "dice self time per operation"),
    ("gc.gen2_collections", "count", "lower", "peak_rss_mb", ALL,
     "full garbage-collector passes per operation"),
    ("gc.pause_s", "s", "lower", "peak_rss_mb", ALL,
     "garbage-collector pause time per operation"),
    ("fileio.read_s", "s", "lower", "op_s.p50", ALL,
     "fileio read self time per operation"),
    ("fileio.write_s", "s", "lower", "op_s.p50", ALL,
     "fileio write self time per operation"),
    ("phantom.generate_s", "s", "lower", "setup_s", ALL,
     "generate_phantom self time in one set-up"),
    ("setup.fileio_write_s", "s", "lower", "setup_s", ALL,
     "fileio write self time in one set-up"),
    ("cli.import_s", "s", "lower", "setup_s", ALL,
     "median import time of ndfreg.cli and numpy in a child process"),
    ("os.minor_faults", "count", "lower", "peak_rss_mb", ALL,
     "minor page faults of the untraced measured processes per operation"),
    ("os.user_s", "s", "lower", "op_s.p50", ALL,
     "user CPU time of the untraced measured processes per operation"),
    ("os.sys_s", "s", "lower", "op_s.p50", ALL,
     "kernel CPU time (mostly page faults) of the untraced processes per operation"),
    ("trace.overhead_s", "s", "lower", "op_s.p50", ALL,
     "traced minus untraced op_s.p50 in the same run"),
    ("trace.overhead_share", "share", "lower", "op_s.p50", ALL,
     "trace.overhead_s over the untraced op_s.p50"),
    ("trace.spans_per_op", "count", "lower", "op_s.p50", ALL,
     "spans recorded per operation"),
]


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, *_ in PER_LAYER
        ],
    }


if __name__ == "__main__":
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(benchmark_json(), fh, indent=2)
        fh.write("\n")
