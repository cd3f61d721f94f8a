#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each end-to-end
metric's median and quartile spread (IQR / median), the figure the
benchmark's bounds are set against.

    python3 perfbench/spread.py --workloads kg_cold kg_finalize --seeds 1 2 3 4 5

Each run is a fresh ``perfbench/run.py`` process with the
``run_seconds`` of ``BENCHMARK.json``; every run's result line is
printed as it ends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            t0 = time.time()
            p = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            line = p.stdout.strip().splitlines()[-1] if p.stdout.strip() \
                else "{}"
            res = json.loads(line) if p.returncode == 0 else {}
            print(f"{w} seed={seed} rc={p.returncode} "
                  f"took={time.time() - t0:.1f}s {line}", flush=True)
            for k, v in res.get("metrics", {}).items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med
            else:
                spread = float("nan")
            print(f"  {w:12s} {k:36s} median={med:<12.6g} "
                  f"spread={spread:.4f} bound={bounds[k]} n={len(vs)}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
