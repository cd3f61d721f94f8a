"""The flagship pipeline: transcripts -> knowledge-graph tables.

Physical plan (SURVEY §4.3):

  Stage A (ONE fused kernel, one task fan-out per WAVE of resumable
  groups; it needs every conversation whole in one shard):
    [conv_partitioned=False only: a Ray Data staging pre-pass per
     group — read the group's shards with (ordinal, row) columns, one
     hash(conv_id) bucketed exchange into len(group) staging shards,
     each sorted back to file-then-row order (_stage_group)]
    extract_shards(shard paths of the wave)
      -> one plain Ray task per shard     # on pooled workers that keep
         (extract_shard_files; at most    # the extractor across the
         detect_concurrency in flight)    # build's waves; T1/T2+T4/T5
                                          # seats: detect + doc logic +
                                          # roles + realis + coref; each task
                                          # ALSO emits + partially dedupes
                                          # (S8/A7 combiner) + writes its
                                          # shard's triples, surf + convs
                                          # side tables, events
      -> ray.get the per-shard stats rows -> swap group dirs, commit
         manifests (events, turns, task seconds per group)
    (no Ray Data here: one map over a list of paths whose tasks write
    their own files needs no streaming, exchange or backpressure. The
    tagger state is loaded and broadcast only if a group is pending, so
    a resume that skips every group starts at stage B)

  Stage B (global finalize, Ray Data, reruns cheaply on resume;
  hash-shuffle):
    read surf + convs side tables (a group without them raises)
      -> conv_id bucketed check: a conversation in two shards raises
    read surf side tables
      -> entity-block hash exchange -> per bucket group of whole
         blocks: cosine merges + union-find (canonical_pairs; a merge
         never leaves its block, so no global iteration follows)
    read raw triples
      -> rewrite to canonical nodes
      -> (subj,pred,obj) hash exchange -> sort-fused exact dedup (one
         sort, run reductions, output already in key order)
      -> edges (unique triples), nodes (node_degrees + bucket exchange)
    Below SMALL_FINALIZE_BYTES of raw triples the driver runs each step
    once (_finalize_local): one canonical_pairs call for all blocks,
    one dedup, one node_degrees sorted by node_id, no bucket.

The driver owns no Ray session: callers (tests / bench / CLI) init Ray.
"""

from __future__ import annotations

import functools
import glob
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..ops.bucketing import bucket_groupby, fnv1a_hashes
from ..ops.sink import file_size, read_parquet
from ..stages.detect import (
    ShardFileExtractor, extract_shard_files, load_tagger_state,
)
from ..stages.triples import (
    N_BUCKETS, RAW_TRIPLE_SCHEMA, canonical_pairs, emit_nodes_batch,
    final_dedup_group, final_nodes_group, node_degrees, rewrite_triples,
)
from ..state import manifest

# stage A's per-group output dirs under out_dir (prune + wave dir swap)
STAGE_A_ROOTS = ("raw_triples", "surf", "events", "convs")


def _ray_data():
    import ray.data  # deferred so non-Ray callers can import the module
    return ray.data


def list_transcript_files(corpus_dir: str) -> list[str]:
    tdir = os.path.join(corpus_dir, "transcripts")
    if os.path.isdir(tdir):
        return sorted(glob.glob(os.path.join(tdir, "*.parquet")))
    return sorted(glob.glob(os.path.join(corpus_dir, "*.parquet")))


@functools.cache
def _extract_task():
    """:func:`extract_shard_files` as a Ray task with the options Ray
    Data gives a map task: one CPU, the default scheduling strategy (no
    inherited placement group), and retries for a dead worker
    (``max_retries=-1``, ``RaySystemError`` retried) but none for an
    exception the task body raises."""
    import ray
    return ray.remote(num_cpus=1, scheduling_strategy="DEFAULT",
                      max_retries=-1,
                      retry_exceptions=[ray.exceptions.RaySystemError])(
        extract_shard_files)


def extract_shards(files: list[str], entities_ref, *,
                   gids: list[int] | None = None, sink: dict | None = None,
                   detect_concurrency: int | None = None,
                   entities_path: str | None = None,
                   kb_whitelist=None, kb_blacklist=None) -> list:
    """Fused stage A over shards that each hold whole conversations
    (:func:`_stage_group` makes them so for other input): one Ray task
    per shard runs :func:`extract_shard_files`, so a retry redoes one
    shard and extraction needs no exchange. Returns one ObjectRef per
    shard, in ``files`` order. With ``sink`` (the shared roots and
    suffix, see ShardFileExtractor) each task also gets its shard's gid
    from ``gids``, writes its own events, partially deduped triples and
    side tables, and returns a one-row stats table; without it, the
    shard's event rows. ``detect_concurrency``, when set, keeps at most
    that many tasks in flight; ``entities_path`` and the KB filters let a
    task rebuild the tagger state if the ``entities_ref`` object is
    lost."""
    import ray

    if detect_concurrency is not None and detect_concurrency < 1:
        raise ValueError(f"detect_concurrency must be >= 1 or None, got "
                         f"{detect_concurrency}")
    task = _extract_task()
    refs: list = []
    inflight: list = []
    for i, path in enumerate(files):
        if detect_concurrency is not None \
                and len(inflight) >= detect_concurrency:
            _, inflight = ray.wait(inflight, num_returns=1,
                                   fetch_local=False)
        ref = task.remote(path, [entities_ref], entities_path, kb_whitelist,
                          kb_blacklist,
                          None if sink is None else {**sink, "gid": gids[i]})
        refs.append(ref)
        inflight.append(ref)
    return refs


def _stage_group(stage_dir: str, gid: int, gfiles: list[str]) -> list[str]:
    """The ``conv_partitioned=False`` pre-pass: one bucketed exchange on
    FNV-1a(conv_id) mod ``len(gfiles)`` (the group's task granularity is
    unchanged) writes each bucket as the staging shard
    ``stage_dir/g{gid}-b{bucket}.parquet`` in (source shard ordinal, row)
    order, so a repeated (conv_id, turn_idx) still keeps its last row in
    file-then-row order. Returns the staging shard paths."""
    import ray

    ordinal = {p: i for i, p in enumerate(gfiles)}

    def locate(t: "pa.Table", path: str) -> "pa.Table":
        cid = t.column("conv_id")
        if cid.null_count:
            raise ValueError(f"shard {path}: {cid.null_count} null "
                             f"conv_id value(s)")
        h = fnv1a_hashes(cid)
        return t.append_column(
            "ordinal", pa.array(np.full(t.num_rows, ordinal[path],
                                        np.int32))) \
            .append_column("row", pa.array(np.arange(t.num_rows))) \
            .append_column("bucket", pa.array(
                (h % np.uint64(len(gfiles))).astype(np.int32)))

    def write(g: "pa.Table") -> "pa.Table":
        b = g.column("bucket")[0].as_py()
        path = os.path.join(stage_dir, f"g{gid:05d}-b{b:05d}.parquet")
        pq.write_table(g.sort_by([("ordinal", "ascending"),
                                  ("row", "ascending")])
                       .select(ShardFileExtractor.COLUMNS), path)
        return pa.table({"path": [path]})

    os.makedirs(stage_dir, exist_ok=True)
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    ds = _read_path_chunks(_ray_data(), gfiles, max(ncpu, len(gfiles)),
                           columns=ShardFileExtractor.COLUMNS,
                           per_file=locate)
    return sorted(r["path"] for r in bucket_groupby(ds, write).take_all())


def _gid(name: str) -> int:
    """Group id in a group dir, temp dir or manifest name, else -1."""
    try:
        return int(name.strip(".").split("-")[1].split(".")[0])
    except (IndexError, ValueError):
        return -1


def _prune_stale(out_dir: str, keep: set[int]) -> None:
    """Remove the stage-A group dirs, leftover temps and manifests of
    every gid not in ``keep``: output from a prior run with more groups,
    or of a group emptied by shard removal, would otherwise be globbed
    into finalize and double-count triples."""
    for root in STAGE_A_ROOTS:
        for pat in ("group-*", ".group-*.tmp"):
            for d in glob.glob(os.path.join(out_dir, root, pat)):
                if _gid(os.path.basename(d)) not in keep:
                    shutil.rmtree(d, ignore_errors=True)
    for p in glob.glob(os.path.join(manifest.manifest_dir(out_dir),
                                    "group-*.json")):
        if _gid(os.path.basename(p)) not in keep:
            try:
                os.remove(p)
            except OSError:
                pass


GROUP_SIZE = 512


def _stable_groups(out_dir: str, files: list[str],
                   group_size: int = GROUP_SIZE) -> list[list[str]]:
    """Persistent file->group assignment (state/groups.json keyed by
    shard basename). Existing shards keep their group id forever; new
    shards fill the last non-full group, then open new ids. Groups whose
    file set is unchanged stay manifest-complete on a re-run, so only
    the groups touched by new data are extracted."""
    import json
    os.makedirs(manifest.manifest_dir(out_dir), exist_ok=True)
    path = os.path.join(manifest.manifest_dir(out_dir), "groups.json")
    assign: dict[str, int] = {}
    if os.path.exists(path):
        with open(path) as f:
            assign = json.load(f)
    by_base = {os.path.basename(p): p for p in files}
    # drop assignments for shards no longer present
    assign = {b: g for b, g in assign.items() if b in by_base}
    sizes: dict[int, int] = {}
    for g in assign.values():
        sizes[g] = sizes.get(g, 0) + 1
    nxt = max(sizes) if sizes else 0
    for base in sorted(by_base):
        if base in assign:
            continue
        while sizes.get(nxt, 0) >= group_size:
            nxt += 1
        assign[base] = nxt
        sizes[nxt] = sizes.get(nxt, 0) + 1
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(assign, f, sort_keys=True)
    os.replace(tmp, path)
    n = max(assign.values()) + 1 if assign else 0
    groups: list[list[str]] = [[] for _ in range(n)]
    for base in sorted(assign):
        groups[assign[base]].append(by_base[base])
    # keep empty slots: the list INDEX is the persisted gid (renumbering
    # would mismatch existing group dirs/manifests); the run loop clears
    # emptied groups' output
    return groups


# groups per fused extraction wave: ONE task fan-out covers a wave of
# resume groups. Stage-A tasks run on Ray's pooled workers, which keep
# the extractor loaded across the waves of one build (each build puts a
# new tagger-state object, so the next build sets it up again), so a
# wave pays no worker spin-up; manifests commit per GROUP after each
# wave, so the resume unit stays the group, and the wave only bounds
# how much completed work an interrupted run can lose.
WAVE_GROUPS = 8


def _extract_fused_waves(out_dir, pending, entities_ref, cfg, tagger_kw,
                         *, detect_concurrency=None, keep_events=True,
                         conv_partitioned=True) -> float:
    """Fully fused stage A over waves of groups: each shard task writes
    its own events, partially-deduped raw triples and side tables into
    per-group temp dirs and returns a stats row; the driver swaps dirs
    and commits manifests per group when the wave's tasks have all
    finished. Each manifest counts the group's events, turns and stage-A
    task seconds (``task_s``); returns the task seconds of every group
    extracted. With ``conv_partitioned=False`` the tasks run on the
    wave's staging shards (:func:`_stage_group`), which are removed once
    the wave's groups commit; manifests always record the input shards.
    ``tagger_kw`` (entities path + KB filters) rebuilds the tagger state
    if ``entities_ref`` is lost."""
    import ray

    roots = {r: os.path.join(out_dir, r) for r in STAGE_A_ROOTS
             if keep_events or r != "events"}
    stage_dir = os.path.join(out_dir, "_staging")
    sink = {"raw_root": roots["raw_triples"], "suffix": ".tmp",
            "surf_root": roots["surf"], "convs_root": roots["convs"],
            "ev_root": roots.get("events")}
    task_s = 0.0
    for w in range(0, len(pending), WAVE_GROUPS):
        wave = pending[w:w + WAVE_GROUPS]
        gids: list[int] = []
        files: list[str] = []
        for gid, gfiles in wave:
            for root in roots.values():
                td = os.path.join(root, f".group-{gid:05d}.tmp")
                shutil.rmtree(td, ignore_errors=True)
                os.makedirs(td, exist_ok=True)
            shards = gfiles if conv_partitioned \
                else _stage_group(stage_dir, gid, gfiles)
            gids += [gid] * len(shards)
            files += shards
        refs = extract_shards(files, entities_ref, gids=gids, sink=sink,
                              detect_concurrency=detect_concurrency,
                              **tagger_kw)
        try:
            stats = ray.get(refs)
        except ray.exceptions.RayError:
            # a failed shard fails the build: stop the wave's other
            # tasks, or they would write into temp dirs a rerun reuses.
            # force kills their workers: an interrupt could land inside
            # an import and leave a pooled worker half-initialized
            for r in refs:
                ray.cancel(r, force=True)
            raise
        counters = {gid: {"input_files": len(gfiles), "events": 0,
                          "turns": 0, "task_s": 0.0} for gid, gfiles in wave}
        for t in stats:
            r = t.to_pylist()[0]
            c = counters[r["gid"]]
            c["events"] += r["n_events"]
            c["turns"] += r["n_turns"]
            c["task_s"] += r["task_s"]
        for gid, gfiles in wave:
            for root in roots.values():
                manifest.atomic_dir_swap(
                    os.path.join(root, f".group-{gid:05d}.tmp"),
                    os.path.join(root, f"group-{gid:05d}"))
            task_s += counters[gid]["task_s"]
            counters[gid]["task_s"] = round(counters[gid]["task_s"], 3)
            manifest.commit(out_dir, gid, cfg, gfiles, counters[gid])
        shutil.rmtree(stage_dir, ignore_errors=True)
    return task_s


def run_kg_pipeline(corpus_dir: str, out_dir: str, *,
                    n_groups: int | None = None, resume: bool = True,
                    detect_concurrency=None,
                    keep_events: bool = True,
                    conv_partitioned: bool = True,
                    group_size: int = GROUP_SIZE,
                    kb_whitelist=None, kb_blacklist=None) -> dict:
    """Run extraction + finalize; returns counters. Requires an active
    Ray session (callers own init/shutdown). ``conv_partitioned=False``
    stages each pending group's turns by conv_id before the fused
    kernel runs (for input whose conversations span shards inside a
    group). ``kb_whitelist``/``kb_blacklist`` override the KB candidate
    typing filters (config.PipelineConfig surface; None -> lexicon
    defaults)."""
    import ray

    t0 = time.time()
    timings: dict[str, float] = {}
    os.makedirs(out_dir, exist_ok=True)
    files = list_transcript_files(corpus_dir)
    if not files:
        raise FileNotFoundError(f"no transcript shards under {corpus_dir}")
    if n_groups is None:
        # a group is the unit of checkpoint/resume; size it to ~512 input
        # shards so each group saturates the cluster and the per-group
        # barrier cost amortizes (at corpus scale there are thousands of
        # shards -> tens of groups, each itself wide). Assignment is
        # STABLE across runs (persisted file->gid map): appending new
        # shards to the corpus only creates/extends trailing groups, so
        # an incremental re-run extracts just the new data and
        # re-finalizes — streaming KG maintenance at shard granularity.
        groups = _stable_groups(out_dir, files, group_size)
    else:
        groups = [g for g in (files[i::n_groups] for i in range(n_groups))
                  if g]

    tagger_kw = {"entities_path": os.path.join(corpus_dir,
                                               "entities.parquet"),
                 "kb_whitelist": kb_whitelist, "kb_blacklist": kb_blacklist}
    cfg = manifest.config_hash()
    if kb_whitelist is not None or kb_blacklist is not None:
        # non-default typing filters are semantic config: fold them into
        # the manifest hash so resume never reuses default-filter output
        import hashlib as _hl
        cfg = _hl.blake2b(
            (cfg + repr((sorted(kb_whitelist or ()),
                         sorted(kb_blacklist or ())))).encode(),
            digest_size=8).hexdigest()

    raw_root = os.path.join(out_dir, "raw_triples")
    _prune_stale(out_dir, {gid for gid, g in enumerate(groups) if g})
    skipped = 0
    pending: list[tuple[int, list[str]]] = []
    for gid, gfiles in enumerate(groups):
        if not gfiles:
            continue
        if resume and manifest.is_complete(out_dir, gid, cfg, gfiles):
            skipped += 1
            continue
        pending.append((gid, gfiles))

    # the tagger state is loaded and broadcast only when a group needs
    # extraction: a resume that skips every group goes straight to
    # stage B
    entities_ref = ray.put(load_tagger_state(**tagger_kw)) if pending \
        else None
    task_s = _extract_fused_waves(out_dir, pending, entities_ref, cfg,
                                  tagger_kw,
                                  detect_concurrency=detect_concurrency,
                                  keep_events=keep_events,
                                  conv_partitioned=conv_partitioned)
    timings["extract"] = round(time.time() - t0, 2)
    # the stage-A tasks' own seconds (shard read to last write, summed):
    # the rest of "extract" is orchestration
    timings["extract_tasks"] = round(task_s, 2)

    # ---- stage B: canonicalize + global dedup + graph materialize ----
    # every stage-B exchange groups by a precomputed bounded-cardinality
    # BUCKET column (4096 key-hash buckets) under the default sort-based
    # shuffle: equal keys co-locate exactly as with a hash repartition,
    # each bucket group is processed by one vectorized Arrow group_by,
    # and no shuffle-strategy override (with its aggregator-actor pool)
    # is needed — measurably faster at this scale and deadlock-free at
    # low CPU counts
    info = _finalize(out_dir, raw_root, groups, skipped, timings, t0)
    turns = manifest.total_counter(out_dir, "turns")
    if turns:
        info["turns"] = turns
    return info


SMALL_FINALIZE_BYTES = 32 * 1024 * 1024
# surf side tables below this total run canonicalization driver-local
# (distinct-surface mass, typically ~1000x smaller than raw triples)
SMALL_CANON_BYTES = 64 * 1024 * 1024


def _read_local(files: list[str]) -> "pa.Table":
    """Small parquet files as one table, read in this process."""
    return pa.concat_tables([read_parquet(f) for f in files])


def _canonical_mapping_local(surf_files: list[str]) -> dict[str, str]:
    """Variant -> canonical node mapping from the surf side tables, in
    this process: one :func:`canonical_pairs` call over every block."""
    if not surf_files:
        return {}
    pairs = canonical_pairs(_read_local(surf_files))
    return dict(zip(pairs.column("node").to_pylist(),
                    pairs.column("label").to_pylist()))


def split_conversations(t: "pa.Table") -> "pa.Table":
    """Layout check over convs side-table rows (conv_id, shard, gid; a
    shard's conv_ids are distinct, so a conv_id on two rows is in two
    shards): ONE summary row with the number of split conversations, the
    smallest one with two of its shards, whether a split crosses groups
    and the ids of the groups that hold a split. Bucket-agnostic: it
    serves the in-process check and each group of a bucketed exchange."""
    g = t.group_by("conv_id").aggregate([("gid", "count")])
    hit = t.filter(pc.is_in(t["conv_id"], g.filter(
        pc.greater(g["gid_count"], 1))["conv_id"]))
    split = hit.group_by("conv_id").aggregate([
        ("shard", "min"), ("shard", "max"),
        ("gid", "count_distinct")]).sort_by("conv_id")
    first = (split.slice(0, 1).to_pylist() or [{}])[0]
    return pa.table({
        "n_split": [split.num_rows],
        "conv_id": pa.array([first.get("conv_id")], pa.string()),
        "shard_a": pa.array([first.get("shard_min")], pa.string()),
        "shard_b": pa.array([first.get("shard_max")], pa.string()),
        "cross_group": [bool(pc.any(pc.greater(
            split["gid_count_distinct"], 1)).as_py())],
        "gids": pa.array([sorted(pc.unique(hit["gid"]).to_pylist())],
                         pa.list_(pa.int32())),
    })


def _shard_name(shard: str, groups: list[list[str]]) -> str:
    """A stage-A shard for an error message: a staging shard (deleted
    once its wave commits) by its group id and that group's inputs."""
    stage_dir, base = os.path.split(shard)
    if os.path.basename(stage_dir) != "_staging":
        return shard
    gid = int(base[1:].split("-")[0])
    return f"group {gid} (input shards {', '.join(groups[gid][:3])}" \
        + (" and more)" if len(groups[gid]) > 3 else ")")


def _raise_on_split(out_dir: str, rows: list[dict],
                    groups: list[list[str]]) -> None:
    """Raise if the :func:`split_conversations` summary rows count a
    conversation stage A saw in two shards: its doc logic, realis windows
    and coreference ran on each part alone, so its triples are wrong and
    the manifests of the groups holding a split are removed (a rerun
    re-extracts them). ``groups`` names staging shards' inputs."""
    n = sum(r["n_split"] for r in rows)
    if not n:
        return
    for gid in {g for r in rows for g in r["gids"]}:
        if os.path.exists(manifest.manifest_path(out_dir, gid)):
            os.remove(manifest.manifest_path(out_dir, gid))
    hit = min((r for r in rows if r["n_split"]), key=lambda r: r["conv_id"])
    raise ValueError(
        f"{n} conversation(s) appear in more than one stage-A shard, e.g. "
        f"{hit['conv_id']!r} in {_shard_name(hit['shard_a'], groups)} and "
        f"{_shard_name(hit['shard_b'], groups)}; stage A needs each "
        f"conversation whole in one shard: re-extract with "
        f"conv_partitioned=False, which re-partitions each group's turns "
        f"by conv_id"
        + (", and with every shard of a conversation in one group (fewer "
           "n_groups, or a larger group_size)"
           if any(r["cross_group"] for r in rows) else ""))


def _finalize_local(out_dir, raw_files, surf_files, conv_files, groups,
                    skipped, timings, t0) -> dict:
    """Small-input finalize: the SAME shared kernels as the distributed
    path, each applied once in-process. Below the byte cutoff the three
    distributed executions cost more in orchestration than the data;
    output is tested identical to the distributed path.
    Canonicalization reads the surf side tables (distinct surface
    nodes), never the raw triples, with one :func:`canonical_pairs`
    call; the dedup is one sort-fused :func:`final_dedup_group` and the
    nodes one :func:`node_degrees` (no exchange, so no bucket)."""
    t1 = time.time()
    if conv_files:
        _raise_on_split(out_dir, split_conversations(
            _read_local(conv_files)).to_pylist(), groups)
    timings["split_check"] = round(time.time() - t1, 2)
    t1 = time.time()
    mapping = _canonical_mapping_local(surf_files)
    timings["canonicalize"] = round(time.time() - t1, 2)
    t1 = time.time()
    tbl = _read_local(raw_files) if raw_files \
        else RAW_TRIPLE_SCHEMA.empty_table()
    if mapping:
        tbl = rewrite_triples(mapping)(tbl)
    edges_tbl = final_dedup_group(tbl)
    for name, t in (("edges", edges_tbl),
                    ("nodes", node_degrees(edges_tbl).sort_by("node_id"))):
        shutil.rmtree(os.path.join(out_dir, name + ".tmp"),
                      ignore_errors=True)
        _publish(out_dir, name, t)
    timings["dedup_materialize"] = round(time.time() - t1, 2)
    return {"groups": len(groups), "groups_skipped": skipped,
            "edges": edges_tbl.num_rows, "canon_merged": len(mapping),
            "out_dir": out_dir, "timings": timings,
            "wall_sec": round(time.time() - t0, 2)}


def _publish(out_dir: str, name: str, tbl: "pa.Table") -> None:
    """Swap ``out_dir/name.tmp`` into ``out_dir/name``, first writing
    ``tbl`` as its one part if it holds no parquet part."""
    tmp = os.path.join(out_dir, name + ".tmp")
    if not glob.glob(os.path.join(tmp, "*.parquet")):
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(tbl, os.path.join(tmp, "part-00000.parquet"))
    manifest.atomic_dir_swap(tmp, os.path.join(out_dir, name))


def _read_path_chunks(rd, files: list[str], n_blocks: int,
                      columns: list[str] | None = None, per_file=None):
    """Read many small parquet shards as ~``n_blocks`` size-balanced
    blocks WITHOUT ParquetDatasource's driver-side per-file metadata
    prefetch: chunk the path list by cumulative byte size on the driver
    (stat only — no parquet footer reads), then each task reads its
    chunk with ``ops.sink.read_parquet``. O(1) driver work per file
    instead of a serial footer fetch; the actual reads happen in
    parallel tasks. ``per_file(table, path)``, when given, maps each
    file's table in the reading task (e.g. to append columns that
    depend on the path).

    DEPLOYMENT REQUIREMENT: paths are opened from inside worker tasks,
    so on a multi-node cluster they MUST live on storage every node
    sees — a shared filesystem (NFS/Lustre) or a URI that pyarrow's
    ``FileSystem.from_uri`` resolves (s3://, gs://); the sizing stat and
    the reads both go through the resolved filesystem. Node-local paths
    only work on the single-node test rig. The same holds for the fused
    per-group edge writes in ``_finalize`` and the shard sink writes
    in ``ShardFileExtractor`` (stages/detect.py): the whole
    checkpoint/manifest layout assumes one namespace shared by driver
    and workers, exactly as a 100 TB deployment's object store is."""
    sizes = [file_size(f) for f in files]
    target = max(1, sum(sizes) // max(1, n_blocks))
    chunks: list[list[str]] = []
    cur: list[str] = []
    acc = 0
    for f, s in zip(files, sizes):
        cur.append(f)
        acc += s
        if acc >= target and len(chunks) < n_blocks - 1:
            chunks.append(cur)
            cur, acc = [], 0
    if cur:
        chunks.append(cur)

    def load(batch: "pa.Table") -> "pa.Table":
        paths = [p for chunk in batch.column("paths").to_pylist()
                 for p in chunk]
        tbls = [read_parquet(p, columns=columns) for p in paths] or \
            [read_parquet(files[0], columns=columns).slice(0, 0)]
        if per_file is not None:
            tbls = [per_file(t, p)
                    for t, p in zip(tbls, paths or files[:1])]
        return pa.concat_tables(tbls)

    return rd.from_items([{"paths": c} for c in chunks],
                         override_num_blocks=max(1, len(chunks))) \
        .map_batches(load, batch_format="pyarrow", batch_size=None)


def _finalize(out_dir, raw_root, groups, skipped, timings, t0) -> dict:
    import ray

    rd = _ray_data()
    raw_files = sorted(glob.glob(
        os.path.join(raw_root, "group-*", "*.parquet")))
    # canonicalization reads only the per-shard surf side tables
    # (distinct surface nodes, a tiny fraction of the raw-triple mass)
    # and the layout check only the convs side tables, both written by
    # stage A with every group; a group without them would silently drop
    # its variants from the merge, or its conversations from the check
    present = sorted(os.path.basename(d)
                     for d in glob.glob(os.path.join(raw_root, "group-*")))
    side: dict[str, list[str]] = {}
    for name in ("surf", "convs"):
        root = os.path.join(out_dir, name)
        missing = [g for g in present
                   if not os.path.isdir(os.path.join(root, g))]
        if missing:
            raise FileNotFoundError(
                f"no {name} side tables under {root} for raw-triple "
                f"group(s) {', '.join(missing)}; re-extract them "
                f"(resume=False)")
        side[name] = sorted(glob.glob(os.path.join(root, "group-*",
                                                   "*.parquet")))
    surf_files, conv_files = side["surf"], side["convs"]
    raw_bytes = sum(os.path.getsize(f) for f in raw_files)
    if raw_bytes <= SMALL_FINALIZE_BYTES:
        return _finalize_local(out_dir, raw_files, surf_files, conv_files,
                               groups, skipped, timings, t0)
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    t1 = time.time()
    if conv_files:
        def conv_bucket(t: "pa.Table", _path: str) -> "pa.Table":
            return t.append_column("bucket", pa.array(
                (fnv1a_hashes(t.column("conv_id"))
                 % np.uint64(N_BUCKETS)).astype(np.int32)))

        _raise_on_split(out_dir, bucket_groupby(
            _read_path_chunks(rd, conv_files, ncpu, per_file=conv_bucket),
            split_conversations, coarse_per_cpu=4).take_all(), groups)
    timings["split_check"] = round(time.time() - t1, 2)
    t1 = time.time()
    if sum(os.path.getsize(f) for f in surf_files) <= SMALL_CANON_BYTES:
        # size-aware escape hatch (as for the small finalize): below
        # the cutoff the entity-block exchange's fixed cost exceeds the
        # work, and the kernel is the same either way
        mapping = _canonical_mapping_local(surf_files)
    else:
        mapping = compute_canonical_mapping(
            _read_path_chunks(rd, surf_files, ncpu))
    # size read blocks to ~128 MB of on-disk raw triples (never fewer
    # than one per CPU): the raw dir holds one tiny file per input
    # shard, and letting the reader split per-file would pay per-task
    # overhead thousands of times at corpus scale. The read is a manual
    # path-chunk map (the extraction stage's own idiom), NOT
    # read_parquet: ParquetDatasource prefetches per-file metadata on
    # the driver — a measured ~5 ms x len(raw_files) SERIAL constant
    # (3.7 s at sf1.0's 667 shard files) that scales with shard count,
    # not cluster size, and was the single biggest non-scaling term in
    # the 4-vs-16-CPU efficiency measurement.
    n_blocks = int(max(ncpu, raw_bytes // (128 << 20)))
    raw = _read_path_chunks(rd, raw_files, n_blocks)
    timings["canonicalize"] = round(time.time() - t1, 2)
    t1 = time.time()
    if isinstance(mapping, dict):
        n_merged = len(mapping)
        if mapping:
            raw = raw.map_batches(rewrite_triples(ray.put(mapping)),
                                  batch_format="pyarrow", batch_size=None)
    else:
        # mapping too large to broadcast: bloom-pruned join rewrite
        # (stages.triples.rewrite_triples_ds) — no driver collect
        from ..stages.triples import rewrite_triples_ds
        n_merged = mapping.count()
        raw = rewrite_triples_ds(raw, mapping)
    # ONE fused execution for edges + nodes: the (subj,pred,obj)-keyed
    # exchange co-locates equal triples (4096 hash buckets coarsened to
    # ~4 groups per task slot), each group task runs the vectorized
    # final dedup, WRITES ITS OWN edge parquet shard (deterministic
    # per-group filename -> idempotent under task retry), and emits
    # node partial rows straight into the chained node-keyed exchange —
    # no intermediate read-back of the edge table, no second and third
    # dataset executions with their fixed orchestration cost. Hot keys
    # only grow one group's O(rows) Arrow aggregate, never a per-key
    # Python loop.
    tmp = os.path.join(out_dir, "edges.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)

    def dedup_write_emit_nodes(g: "pa.Table") -> "pa.Table":
        # writes from worker tasks into `tmp`: requires driver+workers
        # to share one filesystem namespace (see _read_path_chunks); the
        # group's smallest bucket names its part (each bucket is in one
        # group, so the names are unique)
        first = pc.min(g.column("bucket")).as_py()
        out = final_dedup_group(g)
        pq.write_table(out, os.path.join(tmp, f"part-{first:05d}.parquet"))
        return emit_nodes_batch(out)

    nodes = bucket_groupby(raw, dedup_write_emit_nodes, coarse_per_cpu=4,
                           pre_repartition=False)
    # the node partials come out of the cgroup exchange already ~one
    # block per task slot — skip the coalesce pass
    nodes = bucket_groupby(nodes, final_nodes_group, coarse_per_cpu=4,
                           pre_repartition=False) \
        .drop_columns(["bucket"])
    ntmp = os.path.join(out_dir, "nodes.tmp")
    shutil.rmtree(ntmp, ignore_errors=True)
    nodes.write_parquet(ntmp)
    # an edge-free build writes no part: each table gets one empty part
    empty = final_dedup_group(RAW_TRIPLE_SCHEMA.empty_table())
    _publish(out_dir, "edges", empty)
    _publish(out_dir, "nodes", node_degrees(empty))
    n_edges = sum(pq.ParquetFile(f).metadata.num_rows for f in
                  glob.glob(os.path.join(out_dir, "edges", "*.parquet")))

    timings["dedup_materialize"] = round(time.time() - t1, 2)
    return {"groups": len(groups), "groups_skipped": skipped,
            "edges": n_edges, "canon_merged": n_merged,
            "out_dir": out_dir, "timings": timings,
            "wall_sec": round(time.time() - t0, 2)}


# mapping-row count above which the canonical mapping stays a Dataset
# and the rewrite runs as bloom-pruned bucketed joins instead of a
# take_all -> dict -> ray.put broadcast (the r4 verdict's one
# whole-table driver collect). ~1M short-string pairs is tens of MB —
# comfortably broadcastable; past that, variant mass tracks web-scale
# entity cardinality and must not land on the driver.
CANON_BROADCAST_MAX = 1_000_000


def compute_canonical_mapping(surf_ds) -> "dict[str, str] | object":
    """Cross-conversation canonicalization over (surface node, entity
    block) rows: block-wise union-find, one :func:`canonical_pairs` call
    per bucket group of the entity-block exchange -> variant node ->
    canonical node mapping. A merge edge never leaves its block and
    equal blocks share a bucket, so each group's union-find labels are
    the global ones: no round of label propagation follows. Returns a
    dict (collected + broadcast) while the mapping is at most
    CANON_BROADCAST_MAX rows; above that returns the (node, label)
    mapping as a materialized Ray Dataset for the join-based rewrite —
    driver memory stays bounded at any entity cardinality."""
    # the input rows are per-shard distinct and the per-block merge
    # kernel dedupes again — no per-node shuffle
    mapping_ds = bucket_groupby(surf_ds, canonical_pairs,
                                coarse_per_cpu=4).materialize()
    if mapping_ds.count() <= CANON_BROADCAST_MAX:
        return {r["node"]: r["label"] for r in mapping_ds.take_all()}
    return mapping_ds


def read_triples(out_dir: str):
    """Engine triples as a pandas DataFrame (for tests / comparison)."""
    import pandas as pd
    files = sorted(glob.glob(os.path.join(out_dir, "edges", "*.parquet")))
    df = pd.concat([pq.read_table(f).to_pandas() for f in files],
                   ignore_index=True)
    return df.sort_values(["subj", "pred", "obj"]).reset_index(drop=True)


def main():
    """CLI / `ray job submit` entrypoint.

    On a cluster, the Ray Jobs runtime exports RAY_ADDRESS for the
    job driver; the default below picks it up, so the same command
    line works both ways:

        # laptop / single node
        python -m casie_ray.pipelines.kg /data/corpus --out /data/kg

        # fixed-size cluster (N or 4N nodes — the scaling protocol
        # runs the SAME submit at both sizes and compares the
        # turns_per_sec fields of the JSON line below)
        ray job submit --working-dir . -- \
            python -m casie_ray.pipelines.kg /data/corpus --out /data/kg

    The run is resumable: re-submitting after a failure skips
    finished groups via the per-partition manifests.
    """
    import argparse
    import json

    import ray
    ap = argparse.ArgumentParser()
    ap.add_argument("corpus_dir")
    ap.add_argument("--out", required=True)
    ap.add_argument("--no-resume", action="store_true")
    ap.add_argument("--num-cpus", type=int, default=None)
    ap.add_argument("--address",
                    default=os.environ.get("RAY_ADDRESS", "local"),
                    help="Ray address: 'local' starts a local "
                         "instance; under `ray job submit` the "
                         "runtime's RAY_ADDRESS connects to the "
                         "cluster (default: $RAY_ADDRESS or local)")
    ap.add_argument("--status", action="store_true",
                    help="print the resume-status manifest summary for "
                         "--out and exit (no Ray, no reads of row data)")
    args = ap.parse_args()
    if args.status:
        print(json.dumps(manifest.summarize(args.out), indent=1))
        return
    if not ray.is_initialized():
        kw = dict(include_dashboard=False, logging_level="ERROR")
        if args.address == "local":
            kw["num_cpus"] = args.num_cpus
        ray.init(address=args.address, **kw)
    try:
        info = run_kg_pipeline(args.corpus_dir, args.out,
                               resume=not args.no_resume)
        info["cluster_cpus"] = int(
            ray.cluster_resources().get("CPU", 0))
        info["cluster_nodes"] = sum(
            1 for n in ray.nodes() if n.get("Alive"))
        if info.get("wall_sec") and info.get("turns"):
            info["turns_per_sec"] = round(
                info["turns"] / info["wall_sec"], 1)
        print(json.dumps(info))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()
