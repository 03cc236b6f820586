"""One benchmark child process: runs one `ndfreg` CLI command, or writes
the seeded inference model, and reports on it in a JSON file.

    python3 perfbench/child.py --result R.json [--spans S.npz] cli ARGS...
    python3 perfbench/child.py --result R.json [--spans S.npz] make-model PATH SEED

With --spans the process is traced (see tracer.py) and the raw spans are
written to that file.  The result file carries the exit code, the kind of
failure if any, import and command wall times, counters, the host-speed
probe points and, when traced, the span summary.  A child that dies before
writing it is accounted for by the parent from its wait status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import defaultdict

EXIT_MEMORY = 90


def make_model(path: str, seed: int):
    """Paper-width network from a seeded init, weights scaled and biases
    drawn so the field and its derivatives are far from the identity."""
    import numpy as np

    from ndfreg import fileio, network

    state = network.init_network(seed=seed, config=network.NetworkConfig(),
                                 time_horizon=36.0)
    rng = np.random.default_rng([seed, 7])
    for w, b in state.psi + state.theta:
        w *= 3.0
        b[:] = rng.uniform(-0.3, 0.3, size=b.shape)
    fileio.save_model(path, state)
    return 0


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser()
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("action", choices=("cli", "make-model"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    import numpy  # noqa: F401  (counted in import time, as for a user)

    from ndfreg import cli

    import tracer as tr

    imported = time.perf_counter()
    counters = defaultdict(float)
    points = []
    tr.install_counters(counters, points)
    tracer = None
    if args.spans:
        tracer = tr.Tracer()
        tr.install_tracer(tracer)

    result = {"rc": None, "error": None}
    tr.take_probe(points, "start")
    run_started = points[-1][0]
    try:
        if args.action == "cli":
            label = args.rest[0] if args.rest else "cli"
            if tracer is not None:
                idx = tracer.open(tracer.name_id(f"cli.{label}"))
                try:
                    rc = cli.main(args.rest)
                finally:
                    tracer.close(idx)
            else:
                rc = cli.main(args.rest)
        else:
            rc = make_model(args.rest[0], int(args.rest[1]))
        result["rc"] = rc
    except MemoryError:
        result.update(rc=EXIT_MEMORY, error="MemoryError")
    tr.take_probe(points, "end")
    run_s = points[-1][0] - run_started

    import resource

    result.update(
        import_s=imported - started,
        run_s=run_s,
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        counters=dict(counters),
        probes=points,
    )
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump_spans(args.spans)
    tmp = args.result + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
