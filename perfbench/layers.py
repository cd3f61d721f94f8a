"""Traced layer replay (``--trace 1``): the per-layer metrics.

One process replays, over the workload's own seed-generated inputs, the
same public calls the engine makes, with a span (name, start, end,
parent) around each call into a layer and counts at the same
boundaries:

* stage A, per shard: read -> ``ShardExtractor.extract_turns_with_events``
  (inside it ``interesting_mask``, ``detect_turn`` and
  ``extract_conversation_events``) -> ``triples_from_events`` ->
  ``partial_dedup`` -> ``extract_surface_nodes`` -> writes;
* stage B: the driver-local tier's kernel sequence over the raw triples;
* the pipeline's own ``timings`` for a cold build and for a resume that
  takes the distributed finalize, and the graph ops with the exchange
  time read from each result's ``Dataset.stats()``.

A span's self time is its duration minus the time its children cover.
Spans stay in memory and are written to
``.perfbench/traces/<workload>-seed<seed>.jsonl`` at the end. The stage-A
replay also runs untraced; the ratio of the two walls is the tracing
overhead.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import json
import os
import statistics
import sys
import time

from workloads import (
    FINALIZE_GROUP_SIZE, KEY, Meter, no_span, count_turns, raw_triple_files,
    read_dir, setup, sorted_table, stage_b_kernels, warm_up_build,
)

# A corpus-scale run writes more raw triples than the driver-local
# finalize gate allows (sf1.0 writes ~51 MB against a 32 MB gate); the
# traced resume sends the benchmark's smaller KG down that same
# distributed path.
DISTRIBUTED_FINALIZE_BYTES = 0

# share of the stage-A replay's wall the kernel spans may leave
# unattributed (the replay loop between them)
UNATTRIBUTED_MAX = 0.02


def unrounded_timings(kg):
    """``run_kg_pipeline`` rounds its ``timings`` to 10 ms, which is
    coarser than several of the phases measured here; inside this block
    the pipeline keeps them at full clock resolution."""
    from unittest import mock
    return mock.patch.object(kg, "round", lambda x, _ndigits=None: x,
                             create=True)


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter_ns()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, summed over its spans."""
        covered = [0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, float] = collections.defaultdict(float)
        for (name, t0, t1, _), c in zip(self.spans, covered):
            out[name] += (t1 - t0 - c) / 1e9
        return dict(out)

    def total_seconds(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1, _ in self.spans if n == name) / 1e9

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "start_ns": t0,
                                    "end_ns": t1, "parent": parent}) + "\n")


# ---- stage A -------------------------------------------------------------

@contextlib.contextmanager
def _traced_kernels(ext, tracer: Tracer, counts: collections.Counter):
    """Wrap the kernels ``extract_turns_with_events`` calls with spans and
    counters; restore them on exit."""
    from casie_ray.stages import detect, doclogic

    orig_detect = detect.detect_turn
    orig_events = doclogic.extract_conversation_events
    orig_mask = ext.interesting_mask

    def interesting_mask(texts):
        with tracer.span("detect.mask"):
            mask = orig_mask(texts)
        counts["detect.turns"] += len(mask)
        counts["detect.mask_pass"] += int(mask.sum())
        return mask

    def detect_turn(*a, **k):
        with tracer.span("detect.detect_turn"):
            d = orig_detect(*a, **k)
        counts["detect.useful"] += bool(d.triggers or d.mentions)
        return d

    def extract_conversation_events(*a, **k):
        with tracer.span("doclogic.events"):
            evs, rows = orig_events(*a, **k)
        counts["doclogic.events"] += len(evs)
        return evs, rows

    detect.detect_turn = detect_turn
    doclogic.extract_conversation_events = extract_conversation_events
    ext.interesting_mask = interesting_mask
    try:
        yield
    finally:
        detect.detect_turn = orig_detect
        doclogic.extract_conversation_events = orig_events
        del ext.interesting_mask


def replay_stage_a(files: list[str], state: dict, dest: str,
                   tracer: Tracer | None = None) -> dict:
    """The fused stage-A kernel over every shard, in this process, with
    the writes of ``ShardFileExtractor``'s sink. Returns the wall time and,
    when traced, the counters."""
    import pyarrow.parquet as pq

    from casie_ray.stages.detect import ShardExtractor, ShardFileExtractor
    from casie_ray.stages.triples import (
        extract_surface_nodes, partial_dedup, triples_from_events,
    )

    outs = {k: os.path.join(dest, k) for k in ("raw", "surf", "events")}
    for d in outs.values():
        os.makedirs(d, exist_ok=True)
    ext = ShardExtractor(state)
    counts: collections.Counter = collections.Counter()
    span = tracer.span if tracer else no_span
    hooks = _traced_kernels(ext, tracer, counts) if tracer \
        else contextlib.nullcontext()
    t0 = time.perf_counter()
    with hooks, span("stage_a"):
        for path in files:
            base = os.path.basename(path)
            with span("detect.read"):
                tbl = pq.read_table(path, columns=ShardFileExtractor.COLUMNS)
            with span("detect.glue"):
                events, event_objs = ext.extract_turns_with_events(tbl)
            with span("triples.emit"):
                raw = triples_from_events(event_objs)
            with span("triples.partial_dedup"):
                trip = partial_dedup(raw)
            with span("triples.surface"):
                surf = extract_surface_nodes(trip)
            with span("triples.write"):
                pq.write_table(trip, os.path.join(outs["raw"], base))
                pq.write_table(surf, os.path.join(outs["surf"], base))
                pq.write_table(events.drop_columns(["args"]),
                               os.path.join(outs["events"], base))
            counts["triples.raw"] += raw.num_rows
            counts["triples.deduped"] += trip.num_rows
    wall = time.perf_counter() - t0
    counts["triples.bytes_written"] = sum(
        os.path.getsize(os.path.join(d, f))
        for d in outs.values() for f in os.listdir(d))
    return {"wall": wall, "counts": counts}


# ---- exchange ------------------------------------------------------------

_EXCHANGE_OPS = ("SortMap", "SortReduce", "RepartitionSplit",
                 "RepartitionReduce")


def exchange_stats(ds) -> tuple[float, int]:
    """(remote task seconds, count) of the all-to-all exchanges behind a
    materialized Dataset: the groupby sort and repartition sub-operators
    of its whole lineage, each operator counted once. A map_groups
    kernel runs inside the next exchange's split task, so its time is
    included. Read from the summary ``Dataset.stats()`` prints."""
    seen: set[int] = set()
    secs, count = 0.0, 0
    todo = [ds._get_stats_summary()]
    while todo:
        summ = todo.pop()
        if summ.number in seen:
            continue
        seen.add(summ.number)
        todo.extend(summ.parents)
        for op in summ.operators_stats:
            if op.operator_name in _EXCHANGE_OPS:
                secs += (op.wall_time or {}).get("sum", 0.0)
                count += op.operator_name in ("SortMap", "RepartitionSplit")
    return secs, count


def cgroup_skew(raw_files: list[str], ncpu: int) -> float:
    """max / median rows per ``bucket % (4 x CPUs)`` group of the raw
    triples: the distributed finalize's dedup exchange groups."""
    import numpy as np
    b = read_dir_columns(raw_files, ["bucket"]).column("bucket") \
        .to_numpy(zero_copy_only=False)
    sizes = np.bincount(b % (4 * ncpu), minlength=4 * ncpu)
    return float(sizes.max() / statistics.median(sizes.tolist()))


def read_dir_columns(files: list[str], columns: list[str]):
    import pyarrow as pa
    import pyarrow.parquet as pq
    return pa.concat_tables([pq.read_table(f, columns=columns)
                             for f in files])


def sorted_frame(tbl, keys):
    return tbl.to_pandas().sort_values(keys).reset_index(drop=True)


# ---- ops.graph / ops.graphx and their DuckDB twins ----------------------

def _edges_ds(kg_dir: str):
    import ray.data
    return ray.data.read_parquet(os.path.join(kg_dir, "edges"))


def _pagerank(kg_dir):
    from casie_ray.ops import graphx
    return graphx.pagerank(_edges_ds(kg_dir))


def _components(kg_dir):
    import pyarrow as pa

    from casie_ray.ops.graph import connected_components

    def as_edge(b: pa.Table) -> pa.Table:
        return pa.table({"src": b.column("subj"), "dst": b.column("obj")})

    return connected_components(
        _edges_ds(kg_dir).select_columns(["subj", "obj"])
        .map_batches(as_edge, batch_format="pyarrow"))


def _kcore(kg_dir):
    from casie_ray.ops import graphx
    return graphx.kcore(_edges_ds(kg_dir).select_columns(["subj", "obj"]))


# name -> (engine call, result key columns)
GRAPH_OPS = {
    "pagerank": (_pagerank, ["node"]),
    "connected_components": (_components, ["node"]),
    "kcore": (_kcore, ["node"]),
}


def graph_twins(kg_dir: str, dest: str) -> dict:
    """DuckDB twins of the graph ops over the KG's edges, built the way
    ``__ray_entry__.oracle_sql`` builds them: unrolled SQL for pagerank,
    SQL over the persisted sequential union-find and k-core peel for the
    other two."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops import graphx
    from casie_ray.ops.graph import components_local

    os.makedirs(dest, exist_ok=True)
    edges = read_dir(os.path.join(kg_dir, "edges"))
    pairs = list(zip(edges.column("subj").to_pylist(),
                     edges.column("obj").to_pylist()))
    comp = components_local(pairs)
    comp_path = os.path.join(dest, "components.parquet")
    pq.write_table(pa.table({
        "node": pa.array(sorted(comp), pa.string()),
        "label": pa.array([comp[n] for n in sorted(comp)], pa.string()),
    }), comp_path)
    core = graphx.kcore_local(pairs, graphx.KCORE_K)
    core_path = os.path.join(dest, "kcore.parquet")
    pq.write_table(pa.table({
        "node": pa.array([n for n, _ in core], pa.string()),
        "deg": pa.array([d for _, d in core], pa.int64()),
    }), core_path)
    sql = {
        "pagerank": graphx.pagerank_sql(
            os.path.join(kg_dir, "edges", "*.parquet")),
        "connected_components":
            f"SELECT node, label FROM read_parquet('{comp_path}')",
        "kcore": graphx.kcore_sql(core_path),
    }
    con = duckdb.connect()
    try:
        return {op: sorted_frame(con.execute(q).arrow(), GRAPH_OPS[op][1])
                for op, q in sql.items()}
    finally:
        con.close()


def graph_results_match(results: dict, twins: dict) -> bool:
    import pandas as pd
    for op, ds in results.items():
        got = ds.to_pandas().sort_values(GRAPH_OPS[op][1]) \
            .reset_index(drop=True)
        try:
            pd.testing.assert_frame_equal(got, twins[op][got.columns],
                                          check_dtype=False)
        except (AssertionError, KeyError):
            return False
    return True


# ---- the traced run ------------------------------------------------------

def trace_run(args, work: str, ncpu: int) -> dict:
    from casie_ray.pipelines import kg
    from casie_ray.stages.detect import load_tagger_state

    tracer = Tracer()
    span = tracer.span
    checks: dict[str, bool] = {}
    m: dict[str, tuple[float, str]] = {}
    busy = Meter()

    with span("setup"):
        state = setup(args.workload, args.seed,
                      os.path.join(work, "setup"))
    corpus = state["corpus"]
    files = kg.list_transcript_files(corpus)
    tagger = load_tagger_state(os.path.join(corpus, "entities.parquet"))
    kg_dir = os.path.join(work, "kg")
    group_size = FINALIZE_GROUP_SIZE if args.workload == "kg_finalize" \
        else kg.GROUP_SIZE

    # pipelines.kg: cold build (driver-local stage-B tier at this size)
    gc.collect()   # see workloads.Job.prepare
    warm_up_build(corpus, os.path.join(work, "warm"))
    gc.collect()
    with span("kg.cold_build"), unrounded_timings(kg), \
            (busy if args.workload == "kg_cold" else
             contextlib.nullcontext()):
        cold = kg.run_kg_pipeline(corpus, kg_dir, resume=False,
                                  group_size=group_size)
    # state.manifest + the distributed finalize: resume skips every group
    kg.SMALL_FINALIZE_BYTES = DISTRIBUTED_FINALIZE_BYTES
    gc.collect()   # see workloads.Job.prepare
    with span("kg.resume"), unrounded_timings(kg), \
            (busy if args.workload == "kg_finalize" else
             contextlib.nullcontext()):
        resumed = kg.run_kg_pipeline(corpus, kg_dir, resume=True,
                                     group_size=group_size)
    raw_files = raw_triple_files(kg_dir)

    # stage A: an untraced warm-up (first-call imports and caches), then
    # untraced and traced
    replay_stage_a(files, tagger, os.path.join(work, "replay_warm"))
    plain = replay_stage_a(files, tagger, os.path.join(work, "replay0"))
    traced = replay_stage_a(files, tagger, os.path.join(work, "replay1"),
                            tracer)
    c = traced["counts"]
    checks["stage_a_raw_rows"] = c["triples.deduped"] == \
        read_dir_columns(raw_files, ["bucket"]).num_rows

    # stage B: the local tier's kernels over the engine's raw triples
    b = stage_b_kernels(raw_files, span)
    for sub, keys in (("edges", KEY), ("nodes", ["node_id"])):
        checks[f"stage_b_{sub}"] = sorted_table(b[sub], keys).equals(
            sorted_table(read_dir(os.path.join(kg_dir, sub)), keys))

    # ops.graph / ops.graphx
    results = {}
    graph: dict[str, tuple[float, int, float, int]] = {}
    for op, (fn, _) in GRAPH_OPS.items():
        with span(f"graph.{op}"):
            t0 = time.perf_counter()
            ds = fn(kg_dir).materialize()
            wall = time.perf_counter() - t0
        results[op] = ds
        graph[op] = (wall, ds.count(), *exchange_stats(ds))
    checks["graph_twins"] = graph_results_match(
        results, graph_twins(kg_dir, os.path.join(work, "twins")))

    selfs = tracer.self_seconds()
    stage_a_names = ("detect.read", "detect.mask", "detect.detect_turn",
                     "detect.glue", "doclogic.events", "triples.emit",
                     "triples.partial_dedup", "triples.surface",
                     "triples.write")
    stage_a_wall = tracer.total_seconds("stage_a")
    # the kernel spans account for the replay's wall: what is left is the
    # replay loop itself (the root span's self time)
    checks["stage_a_self_times_cover_wall"] = sum(
        selfs[n] for n in stage_a_names) >= \
        (1 - UNATTRIBUTED_MAX) * stage_a_wall
    for n in stage_a_names:
        m[f"{n}_s"] = (selfs[n], "s")
    m["detect.mask_pass"] = (c["detect.mask_pass"], "count")
    m["detect.mask_useful_ratio"] = (
        c["detect.useful"] / max(1, c["detect.mask_pass"]), "ratio")
    m["doclogic.events"] = (c["doclogic.events"], "count")
    m["triples.raw"] = (c["triples.raw"], "count")
    m["triples.partial_dedup_ratio"] = (
        c["triples.deduped"] / max(1, c["triples.raw"]), "ratio")
    m["triples.bytes_written"] = (c["triples.bytes_written"], "bytes")

    t = cold["timings"]
    m["kg.extract_s"] = (t["extract"], "s")
    m["kg.canonicalize_s"] = (t["canonicalize"], "s")
    m["kg.dedup_materialize_s"] = (t["dedup_materialize"], "s")
    m["kg.orchestration_s"] = (t["extract"] - plain["wall"], "s")
    m["manifest.skip_s"] = (resumed["timings"]["extract"], "s")
    m["manifest.groups_skipped"] = (resumed["groups_skipped"], "count")
    checks["all_groups_skipped"] = \
        resumed["groups_skipped"] == resumed["groups"]

    for n in ("read", "surface", "merge_edges", "unionfind", "rewrite",
              "dedup", "nodes"):
        m[f"finalize.{n}_s"] = (selfs[f"finalize.{n}"], "s")
    m["finalize.dedup_ratio"] = (b["edges"].num_rows / max(1, b["raw_rows"]),
                                 "ratio")
    m["finalize.canon_merged"] = (b["canon_merged"], "count")
    m["finalize.distributed_s"] = (
        resumed["timings"]["dedup_materialize"], "s")
    m["exchange.overhead_s"] = (
        resumed["timings"]["dedup_materialize"]
        - selfs["finalize.dedup"] - selfs["finalize.nodes"], "s")
    m["exchange.cgroup_skew"] = (cgroup_skew(raw_files, ncpu), "ratio")

    for op, (wall, rows, exch_s, exch_n) in graph.items():
        m[f"graph.{op}_s"] = (wall, "s")
        m[f"graph.{op}_rows"] = (rows, "count")
        m[f"graph.{op}.exchange_s"] = (exch_s, "s")
        m[f"graph.{op}.exchanges"] = (exch_n, "count")

    busy_span = "kg.cold_build" if args.workload == "kg_cold" \
        else "kg.resume"
    m["ray.cpu_busy_share"] = (busy.cpu_s / tracer.total_seconds(busy_span),
                               "ratio")
    m["trace.stage_a_wall_s"] = (stage_a_wall, "s")
    m["trace.stage_a_untraced_s"] = (plain["wall"], "s")
    m["trace.slowdown"] = (traced["wall"] / plain["wall"], "ratio")
    m["trace.unattributed_s"] = (selfs.get("stage_a", 0.0), "s")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["kg.turns"] = (count_turns(corpus), "count")

    tracer.write(os.path.join(os.path.dirname(work), "traces",
                              f"{args.workload}-seed{args.seed}.jsonl"))
    failed = [k for k, ok in checks.items() if not ok]
    if failed:
        print(f"perfbench: trace checks failed: {failed}", file=sys.stderr)
    return {"correct": not failed, "attempted": len(checks),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in m.items()}}
