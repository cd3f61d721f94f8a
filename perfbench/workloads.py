"""The workloads: set-up, the timed job and its output check.

kg_cold      full cold build of a seed-generated corpus (stage A + the
             driver-local stage-B tier), checked against the sequential
             oracle ``casie_ray.oracle.extract_triples``.
kg_finalize  ``run_kg_pipeline(..., resume=True)`` on a KG prebuilt in
             set-up: every group is skipped by its manifest, so only
             stage B runs, in the driver-local tier that the engine
             picks at this size; checked against the in-process replay
             of the stage-B kernels.
"""

from __future__ import annotations

import gc
import glob
import os
import shutil
import statistics
import sys
import threading
import time

# kg_finalize's KG is built in groups of this many shards (four groups at
# sf0.01), so that its resume checks several manifests
FINALIZE_GROUP_SIZE = 2
# corpus scale factor: about 49k turns; see README.md for why not larger
SF = 0.01
# set-ups per timed run; setup_s is their median
SETUPS = 3
# untimed resumes before kg_finalize's timed ones: they pay first-call
# imports and caches
WARM_UP_RESUMES = 5

KEY = ["subj", "pred", "obj"]
META = ["subj_type", "obj_type", "conv_id", "turn_idx", "ev_start",
        "ev_end", "count"]


def count_turns(corpus: str) -> int:
    import pyarrow.parquet as pq
    from casie_ray.pipelines.kg import list_transcript_files
    return sum(pq.ParquetFile(f).metadata.num_rows
               for f in list_transcript_files(corpus))


def setup(workload: str, seed: int, dest: str) -> dict:
    """Program set-up for one run, from nothing: the corpus, the
    tagger-state cache and, for kg_finalize, the prebuilt KG."""
    import tempfile

    from casie_ray import synth
    from casie_ray.pipelines.kg import run_kg_pipeline
    from casie_ray.stages.detect import load_tagger_state

    gc.collect()   # see Job.prepare
    shutil.rmtree(dest, ignore_errors=True)
    shutil.rmtree(os.path.join(tempfile.gettempdir(), "casie_state_cache"),
                  ignore_errors=True)
    corpus = synth.ensure_corpus(SF, seed, root=dest)
    load_tagger_state(os.path.join(corpus, "entities.parquet"))
    kg = None
    if workload == "kg_finalize":
        kg = os.path.join(dest, "kg")
        run_kg_pipeline(corpus, kg, resume=False,
                        group_size=FINALIZE_GROUP_SIZE)
    return {"corpus": corpus, "kg": kg}


def warm_up_build(corpus: str, dest: str) -> None:
    """A cold build of a one-shard copy of the corpus: the first build in
    a Ray session pays actor start-up and first imports (about 50% on
    top of a sf0.01 build)."""
    from casie_ray.pipelines.kg import list_transcript_files, run_kg_pipeline
    os.makedirs(os.path.join(dest, "transcripts"))
    shutil.copy(os.path.join(corpus, "entities.parquet"), dest)
    shutil.copy(list_transcript_files(corpus)[0],
                os.path.join(dest, "transcripts"))
    run_kg_pipeline(dest, os.path.join(dest, "kg"), resume=False)


def triples_frame(df):
    """Triples in one column layout and order, for exact comparison."""
    df = df[KEY + META].copy()
    for c in ("turn_idx", "ev_start", "ev_end", "count"):
        df[c] = df[c].astype("int64")
    return df.sort_values(KEY).reset_index(drop=True)


def sorted_table(tbl, keys):
    return tbl.sort_by([(k, "ascending") for k in keys]).combine_chunks()


def read_dir(path: str):
    import pyarrow as pa
    import pyarrow.parquet as pq
    return pa.concat_tables([pq.read_table(f) for f in
                             sorted(glob.glob(os.path.join(path,
                                                           "*.parquet")))])


def raw_triple_files(kg_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(kg_dir, "raw_triples", "group-*",
                                         "*.parquet")))


def stage_b_kernels(raw_files: list[str], span) -> dict:
    """The driver-local finalize tier's kernel sequence, in process:
    read, surface nodes, merge edges, union-find, rewrite, dedup, nodes.
    ``span(name)`` is a context manager wrapped around each call."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.graph import components_local
    from casie_ray.stages.triples import (
        emit_nodes_batch, extract_surface_nodes, final_dedup_group,
        final_nodes_group, merge_edges_multi, rewrite_triples,
    )

    with span("finalize.read"):
        tbl = pa.concat_tables([pq.read_table(f) for f in raw_files])
    raw_rows = tbl.num_rows
    with span("finalize.surface"):
        surf = extract_surface_nodes(tbl)
    with span("finalize.merge_edges"):
        medges = merge_edges_multi(surf)
    with span("finalize.unionfind"):
        comp = components_local(list(zip(medges.column("src").to_pylist(),
                                         medges.column("dst").to_pylist())))
        mapping = {n: r for n, r in comp.items() if n != r}
    with span("finalize.rewrite"):
        if mapping:
            tbl = rewrite_triples(mapping)(tbl)
    with span("finalize.dedup"):
        edges = final_dedup_group(tbl)
    with span("finalize.nodes"):
        nodes = final_nodes_group(emit_nodes_batch(edges)) \
            .drop_columns(["bucket"])
    return {"edges": edges, "nodes": nodes, "raw_rows": raw_rows,
            "canon_merged": len(mapping)}


def no_span(_name):
    import contextlib
    return contextlib.nullcontext()


# ---- measurement helpers -------------------------------------------------

_TICK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _process_table() -> dict:
    """``{(pid, start tick): (ppid, CPU seconds)}`` for every process,
    from ``/proc/<pid>/stat``. CPU is user + system time, which on a
    kernel with paravirt steal accounting excludes time the hypervisor
    ran another guest."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            fd = os.open(f"/proc/{name}/stat", os.O_RDONLY)
        except OSError:  # exited meanwhile
            continue
        try:
            fields = os.read(fd, 4096).rsplit(b")", 1)[1].split()
        except OSError:
            continue
        finally:
            os.close(fd)
        table[(int(name), int(fields[19]))] = (
            int(fields[1]), (int(fields[11]) + int(fields[12])) / _TICK)
    return table


def _tree_cpu() -> dict:
    """``{(pid, start tick): CPU seconds}`` for this driver and every
    process below it."""
    table = _process_table()
    kids: dict = {}
    for (pid, _), (ppid, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    below, todo = set(), [os.getpid()]
    while todo:
        pid = todo.pop()
        below.add(pid)
        todo.extend(kids.get(pid, ()))
    return {key: cpu for key, (_, cpu) in table.items() if key[0] in below}


def _driver_rss() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * _PAGE


class Meter:
    """Over the ``with`` block: the driver's peak resident memory,
    sampled every 10 ms, and the CPU seconds of the driver and every
    process below it (Ray's GCS, raylet and workers), sampled every
    100 ms so that a worker that exits inside the block still counts up
    to its last sample. The sampler's own CPU time is left out."""

    PERIOD = 0.01
    CPU_EVERY = 10

    def __init__(self):
        self._stop = threading.Event()
        self.peak = 0
        self.cpu_s = 0.0
        self._first: dict = {}   # process -> CPU seconds at block entry
        self._last: dict = {}    # process -> CPU seconds at last sample
        self._own_cpu = 0.0

    def _sample_cpu(self, entry: bool = False) -> None:
        tree = _tree_cpu()
        if entry:
            self._first = tree
        self._last.update(tree)

    def _run(self):
        n = 0
        while not self._stop.wait(self.PERIOD):
            t0 = time.thread_time()
            self.peak = max(self.peak, _driver_rss())
            n += 1
            if n % self.CPU_EVERY == 0:
                self._sample_cpu()
            self._own_cpu += time.thread_time() - t0

    def __enter__(self):
        self._sample_cpu(entry=True)
        self.peak = _driver_rss()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
        self.peak = max(self.peak, _driver_rss())
        self._sample_cpu()
        self.cpu_s = sum(cpu - self._first.get(key, 0.0)
                         for key, cpu in self._last.items()) - self._own_cpu


class Reference:
    """A fixed computation of the benchmark's own, timed in CPU seconds
    on the CPU the whole process tree shares: Python dict counting, an
    Arrow group-by and an Arrow sort over a fixed 100k-row table (about
    50 ms). The shared host moves this CPU's speed by up to 40% in
    phases of tens of seconds; a job's CPU time divided by the
    reference's, measured just before and after the job, cancels most of
    that (README.md, "Steadiness decisions")."""

    REPEATS = 3

    def __init__(self):
        import random

        import pyarrow as pa
        rnd = random.Random(0)
        self._keys = [f"k{rnd.randrange(20000)}" for _ in range(100_000)]
        self._table = pa.table({"k": self._keys, "v": range(100_000)})

    def _once(self) -> float:
        import pyarrow.compute as pc
        t0 = time.thread_time()
        counts: dict = {}
        for k in self._keys:
            counts[k] = counts.get(k, 0) + 1
        self._table.group_by("k").aggregate([("v", "sum")])
        pc.sort_indices(self._table, sort_keys=[("k", "ascending")])
        return time.thread_time() - t0

    def measure(self) -> float:
        """Median CPU seconds of a few passes."""
        return statistics.median(self._once() for _ in range(self.REPEATS))


# ---- the timed loop ------------------------------------------------------

class Job:
    """One workload bound to its set-up: ``run()`` is the timed call,
    ``check()`` verifies its output (untimed)."""

    def __init__(self, workload: str, state: dict, work: str):
        self.workload = workload
        self.corpus = state["corpus"]
        self.kg = state["kg"]
        self.work = work
        self.turns = count_turns(self.corpus)
        self._result = None
        if workload == "kg_cold":
            from casie_ray.oracle import extract_triples
            self.out = os.path.join(work, "kg_cold")
            self.reference = triples_frame(extract_triples(self.corpus))
        elif workload == "kg_finalize":
            self.groups = len(os.listdir(os.path.join(self.kg,
                                                      "raw_triples")))
            ref = stage_b_kernels(raw_triple_files(self.kg), no_span)
            self.reference = {
                "edges": sorted_table(ref["edges"], KEY),
                "nodes": sorted_table(ref["nodes"], ["node_id"])}

    def warm_up(self) -> None:
        """Untimed: pay worker start-up and first-call imports."""
        gc.collect()   # see prepare
        if self.workload == "kg_cold":
            warm_up_build(self.corpus, os.path.join(self.work, "warm"))
        else:
            for _ in range(WARM_UP_RESUMES):
                gc.collect()
                self.run()

    def prepare(self) -> None:
        """Untimed per-job preparation: the cold build's emptied dir, and
        a garbage collection. Ray Data frees a finished job's actor pool
        only when Python's cyclic collector runs; until then, on one CPU,
        its actors hold the CPU and the next build's actor waits for it
        (10-15 s stalls in about one cold build in four)."""
        gc.collect()
        if self.workload == "kg_cold":
            shutil.rmtree(self.out, ignore_errors=True)

    def run(self) -> None:
        from casie_ray.pipelines.kg import run_kg_pipeline
        if self.workload == "kg_cold":
            self._result = run_kg_pipeline(self.corpus, self.out,
                                           resume=False)
        else:
            self._result = run_kg_pipeline(self.corpus, self.kg,
                                           resume=True,
                                           group_size=FINALIZE_GROUP_SIZE)

    def check(self) -> bool:
        import pandas as pd

        from casie_ray.pipelines.kg import read_triples
        if self.workload == "kg_finalize":
            return self._result["groups_skipped"] == self.groups and all(
                sorted_table(read_dir(os.path.join(self.kg, sub)), keys)
                .equals(self.reference[sub])
                for sub, keys in (("edges", KEY), ("nodes", ["node_id"])))
        try:
            pd.testing.assert_frame_equal(
                triples_frame(read_triples(self.out)), self.reference)
        except AssertionError:
            return False
        return True


def _attempt(job: Job) -> tuple[float, float, float] | None:
    """One timed job: (wall seconds, CPU seconds, driver peak RSS in
    MB), or None if it raised or failed its check."""
    job.prepare()
    try:
        with Meter() as meter:
            t0 = time.perf_counter()
            job.run()
            wall = time.perf_counter() - t0
    except Exception:  # a failed job counts; the run goes on
        import traceback
        traceback.print_exc()
        return None
    if not job.check():
        return None
    return wall, meter.cpu_s, meter.peak / 2**20


def timed_run(args, work: str) -> dict:
    setup_walls = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        state = setup(args.workload, args.seed,
                      os.path.join(work, "setup"))
        setup_walls.append(time.perf_counter() - t0)
    job = Job(args.workload, state, work)
    job.warm_up()
    ref = Reference()
    attempted = 0
    timed = []   # (wall s, CPU s, driver peak RSS MB, reference CPU s)
    ref_before = ref.measure()
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or not attempted:
        attempted += 1
        sample = _attempt(job)
        ref_after = ref.measure()
        if sample is not None:
            timed.append((*sample, (ref_before + ref_after) / 2))
        ref_before = ref_after
    print("perfbench: setup_s " + " ".join(f"{w:.3f}" for w in setup_walls)
          + " | wall_s " + " ".join(f"{s[0]:.3f}" for s in timed)
          + " | cpu_s " + " ".join(f"{s[1]:.3f}" for s in timed)
          + " | ref_cpu_s " + " ".join(f"{s[3]:.4f}" for s in timed),
          file=sys.stderr)
    if not timed:
        raise RuntimeError(f"every timed {args.workload} job failed")
    failed = attempted - len(timed)
    cpu_ref = statistics.median(s[1] / s[3] for s in timed)
    metrics = {
        "cpu_ref": (cpu_ref, "ref"),
        "turns_per_cpu_ref": (job.turns / cpu_ref, "1/ref"),
        "setup_s": (statistics.median(setup_walls), "s"),
        "driver_peak_rss_mb": (statistics.median(s[2] for s in timed),
                               "MB"),
    }
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
