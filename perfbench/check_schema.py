"""Smoke check of the benchmark's output format; not part of the test suite.

    python3 perfbench/check_schema.py

Runs every workload at smoke sizes, untraced and traced, from the current
directory (a checkout root), and checks that the last output line has
exactly the keys `correct`, `attempted`, `failed` and `metrics`, that the
metrics are exactly BENCHMARK.json's end-to-end (untraced) or per-layer
(traced) metrics with their units, and that BENCHMARK.json is what
spec.py writes.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spec  # noqa: E402


def fail(msg):
    print(f"check_schema: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    if bench != spec.benchmark_json():
        fail("BENCHMARK.json differs from spec.py; run python3 perfbench/spec.py")
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for wl in bench["workloads"]:
        for trace in (0, 1):
            cmd = bench["command"] + ["--workload", wl["name"], "--seed", "1",
                                      "--seconds", "1", "--trace", str(trace), "--smoke"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            if out.returncode != 0:
                fail(f"{wl['name']} trace {trace}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{wl['name']} trace {trace}: keys {sorted(result)}")
            if not (result["correct"] is True and result["failed"] == 0
                    and isinstance(result["attempted"], int) and result["attempted"] >= 1):
                fail(f"{wl['name']} trace {trace}: {result}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                fail(f"{wl['name']} trace {trace}: metrics {sorted(got)}")
            for k, v in result["metrics"].items():
                if set(v) != {"value", "unit"} or not math.isfinite(v["value"]):
                    fail(f"{wl['name']} trace {trace}: metric {k} = {v}")
            print(f"ok {wl['name']} trace {trace}: {len(got)} metrics")


if __name__ == "__main__":
    main()
