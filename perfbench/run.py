#!/usr/bin/env python3
"""ray-kg benchmark: one workload per invocation, one JSON line out.

    python3 perfbench/run.py --workload kg_cold --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The benchmark generates its own inputs
from ``--seed`` (``synth.ensure_corpus``), starts a local Ray session with
``num_cpus`` = ``nproc`` (Arrow's thread pools get the same count) and
drives the engine only through its public calls. It is a closed loop:
one batch job at a time from this one driver process.

``--trace 0`` sets the workload up three times (``setup_s`` is the
median), runs an untimed warm-up, then repeats the timed job for
``--seconds`` and reports medians of the end-to-end metrics. Every timed
job's output is checked; a job that raises or fails its check counts in
``failed``. ``--trace 1`` sets up once and runs the layer replay of
``layers.py``, which reports the per-layer metrics.

Everything the run writes lives under ``.perfbench/`` in the checkout;
the run directory is removed at exit, the span files in
``.perfbench/traces/`` are kept. The last line of stdout is the JSON
result: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("kg_cold", "kg_finalize")
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets
# ~65 bytes below its temp dir
_RAY_TMP_MAX = 40


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _private_dirs(work: str) -> str:
    """Point every temp-file user (tempfile, the tagger-state cache, Ray)
    into the run directory; returns Ray's temp dir."""
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    os.environ["RAY_TMPDIR"] = tmp
    import tempfile
    tempfile.tempdir = tmp
    ray_tmp = os.path.join(work, "ray")
    if len(ray_tmp) > _RAY_TMP_MAX:
        # the checkout path is too long for Ray's unix sockets
        ray_tmp = tempfile.mkdtemp(prefix="pbray", dir="/tmp")
    return ray_tmp


def nproc() -> int:
    """CPUs as ``nproc`` counts them: the affinity mask, capped by
    ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def start_ray(ray_tmp: str) -> int:
    ncpu = nproc()
    # The driver and every process it starts (Ray's GCS, raylet and
    # workers inherit the mask) share the last ncpu CPUs of the mask;
    # CPU 0 takes most device interrupts. Spread over idle vCPUs of a
    # shared host, each hand-off between Ray processes waits for the
    # hypervisor to wake a vCPU, which moved whole runs by 10-30%.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-ncpu:])
    import pyarrow as pa
    pa.set_cpu_count(ncpu)
    pa.set_io_thread_count(ncpu)
    import ray
    ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
             logging_level="ERROR", object_store_memory=512 << 20,
             _temp_dir=ray_tmp)
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    return ncpu


def stop_ray() -> None:
    """Shut Ray down and wait for every process this run started."""
    import psutil
    import ray
    ray.shutdown()
    children = psutil.Process().children(recursive=True)
    for p in children:
        try:
            p.terminate()
        except psutil.NoSuchProcess:
            pass
    _, alive = psutil.wait_procs(children, timeout=10)
    for p in alive:
        p.kill()
    psutil.wait_procs(alive, timeout=10)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "casie_ray", "pipelines",
                                       "kg.py")):
        print(f"perfbench: no casie_ray package under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray workers import casie_ray too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    work = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ray_tmp = _private_dirs(work)
    try:
        ncpu = start_ray(ray_tmp)
        try:
            if args.trace:
                from layers import trace_run
                result = trace_run(args, work, ncpu)
            else:
                from workloads import timed_run
                result = timed_run(args, work)
        finally:
            stop_ray()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not ray_tmp.startswith(work):
            shutil.rmtree(ray_tmp, ignore_errors=True)
    sys.stdout.flush()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    t0 = time.time()
    rc = main()
    print(f"perfbench: done in {time.time() - t0:.1f}s", file=sys.stderr)
    sys.exit(rc)
