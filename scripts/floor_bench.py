#!/usr/bin/env python
"""Hardware/workload scaling floor for the extraction kernel (no Ray).

Runs the EXACT per-shard extraction work (``ShardFileExtractor``'s fused
sink: column-pruned parquet read -> detection and doc logic -> triple
emission + partial dedup -> events / triples / surf / convs parquet
writes) under plain ``multiprocessing`` at two worker counts, with
Arrow/OMP thread pools pinned to 1 per worker (matching Ray's worker
configuration). The resulting N->4N ratio is the ceiling ANY engine can
reach for this workload on this host — the controlled companion to
``bench.py --scaling`` (same kernels, same input, no distributed
framework), used in BASELINE.md to separate hardware frequency/bandwidth
droop from engine-attributable scaling loss.

Usage: python scripts/floor_bench.py [lo_workers hi_workers] [sf]
       python scripts/floor_bench.py --single N [sf]
The --single mode runs ONE worker level and prints its wall — used by
``bench.py --scaling`` to interleave a floor sample with each official
engine sample (same machine state), so the floor-normalized efficiency
in BASELINE.md is measured, not argued.
"""
from __future__ import annotations

import glob
import json
import multiprocessing as mp
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

CORPUS = None


def _worker(files, barrier, out, wid):
    os.environ["OMP_NUM_THREADS"] = "1"
    import pyarrow as pa
    pa.set_cpu_count(1)
    pa.set_io_thread_count(1)
    import time

    import pyarrow.parquet as pq

    from casie_ray.stages.detect import ShardFileExtractor

    entities = pq.read_table(
        os.path.join(CORPUS, "entities.parquet")).to_pylist()
    ex = ShardFileExtractor(entities)
    roots = {r: f"/tmp/floor_ev/{wid}/{r}"
             for r in ("raw", "surf", "events", "convs")}
    for root in roots.values():
        os.makedirs(os.path.join(root, f".group-{wid:05d}"), exist_ok=True)
    # the engine's fused sink itself: shard read -> detect -> events,
    # raw-triple, surf and convs writes (events without the args column)
    sink = {"gid": wid, "raw_root": roots["raw"], "surf_root": roots["surf"],
            "ev_root": roots["events"], "convs_root": roots["convs"],
            "suffix": ""}
    barrier.wait()
    t0 = time.time()
    nrows = 0
    for p in files:
        stats = ex(p, sink)
        nrows += sum(stats.column("n_events").to_pylist())
    out.put((wid, time.time() - t0, nrows))


def run_level(files, n):
    barrier = mp.Barrier(n)
    out = mp.Queue()
    procs = [mp.Process(target=_worker,
                        args=(files[w::n], barrier, out, w))
             for w in range(n)]
    for p in procs:
        p.start()
    res = [out.get() for _ in range(n)]
    for p in procs:
        p.join()
    return max(r[1] for r in res), sum(r[2] for r in res)


def main():
    global CORPUS
    from casie_ray import synth
    if len(sys.argv) > 1 and sys.argv[1] == "--single":
        n = int(sys.argv[2])
        sf = float(sys.argv[3]) if len(sys.argv) > 3 else 1.0
        CORPUS = synth.ensure_corpus(sf)
        files = sorted(glob.glob(os.path.join(CORPUS, "transcripts",
                                              "*.parquet")))
        wall, ev = run_level(files, n)
        print(json.dumps({"metric": "mp floor single level", "n": n,
                          "wall": round(wall, 2), "sf": sf,
                          "events": ev}))
        return
    lo = int(sys.argv[1]) if len(sys.argv) > 2 else 4
    hi = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    sf = float(sys.argv[3]) if len(sys.argv) > 3 else 1.0
    CORPUS = synth.ensure_corpus(sf)
    files = sorted(glob.glob(os.path.join(CORPUS, "transcripts",
                                          "*.parquet")))
    w_lo, ev = run_level(files, lo)
    w_hi, _ = run_level(files, hi)
    speed = w_lo / w_hi
    print(json.dumps({
        "metric": f"mp floor scaling {lo}->{hi} workers, extraction "
                  "kernel (no Ray)",
        "value": round(speed / (hi / lo), 3), "unit": "efficiency",
        "sf": sf, "files": len(files), "events": ev,
        "wall": {str(lo): round(w_lo, 2), str(hi): round(w_hi, 2)},
        "speedup": round(speed, 2),
    }))


if __name__ == "__main__":
    main()
