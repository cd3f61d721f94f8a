"""Triple emission + exact dedup + node/edge materialization.

Emission is the engine equivalent of the reference's brat frame writers
(report.py:260-481 → SURVEY S8). Raw triples carry their provenance
as the typed columns the edges have (conv_id, turn_idx, ev_start,
ev_end). Dedup (SURVEY A7) is a salted two-phase aggregate: a per-shard
combine (:func:`partial_dedup`, pre-aggregation before the shuffle)
followed by a bucketed ``groupby("bucket").map_groups`` final
(:func:`final_dedup_group`) — the bucket column spreads hot keys (e.g.
hot-entity `targets` edges) across 4096 reducers. Both phases are one
sort-fused run-reduce: one Arrow sort, then numpy run reductions, never
per-key Python. Canonicalization reads the surf side tables
(:func:`extract_surface_nodes` per shard) that stage A writes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..ops.bucketing import fnv1a_hashes
from ..ops.graph import components_local
from ..schema import TRIPLE_SCHEMA
from ..semantics import (canon_block_key, canon_merge_edges,
                         emit_triple_columns, parse_surface_node)

N_BUCKETS = 4096


def triple_buckets(subj, pred, obj) -> np.ndarray:
    """Dedup-exchange bucket = FNV-1a of the \\x00-joined key, shared
    by every path that (re)computes it (emit, rewrite) so equal keys
    always co-locate. Takes Arrow string arrays (or ChunkedArrays): the
    key column is one ``binary_join_element_wise`` and the hash reads
    its buffers directly."""
    keys = pc.binary_join_element_wise(subj, pred, obj, "\x00")
    return (fnv1a_hashes(keys) % np.uint64(N_BUCKETS)).astype(np.int32)


RAW_TRIPLE_SCHEMA = pa.schema([
    ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
    ("subj_type", pa.string()), ("obj_type", pa.string()),
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("ev_start", pa.int32()), ("ev_end", pa.int32()),
    ("count", pa.int64()), ("bucket", pa.int32()),
])
_KEY = ("subj", "pred", "obj")
_PROV = ("conv_id", "turn_idx", "ev_start", "ev_end")


def triples_from_events(events: list) -> pa.Table:
    """Event OBJECTS -> raw triple table, built columnar: the
    :func:`semantics.emit_triple_columns` lists become one pa.array per
    column, the provenance columns are built once per event and taken by
    the repeated event index, and the FNV buckets are one Arrow pass —
    the fused extraction path calls this directly on the Events it
    already holds, so the hot path never round-trips through event rows
    and formats no per-row strings in Python."""
    cols, counts = emit_triple_columns(events)
    if not cols[0]:
        return RAW_TRIPLE_SCHEMA.empty_table()
    subj, pred, obj, subj_type, obj_type = (pa.array(c, pa.string())
                                            for c in cols)
    prov = pa.table({
        "conv_id": pa.array([e.conv_id for e in events], pa.string()),
        "turn_idx": pa.array([e.turn_idx for e in events], pa.int32()),
        "ev_start": pa.array([e.nugget_start for e in events], pa.int32()),
        "ev_end": pa.array([e.nugget_end for e in events], pa.int32()),
    }).take(np.repeat(np.arange(len(events)), counts))
    return pa.table({
        "subj": subj, "pred": pred, "obj": obj,
        "subj_type": subj_type, "obj_type": obj_type,
        **{c: prov.column(c) for c in _PROV},
        "count": pa.array(np.ones(len(subj), np.int64)),
        "bucket": pa.array(triple_buckets(subj, pred, obj), pa.int32()),
    }, schema=RAW_TRIPLE_SCHEMA)


def _run_starts(cols: list, n: int) -> np.ndarray:
    """Row positions where a run of equal keys begins, for columns that
    are already sorted: adjacent rows are compared column by column."""
    change = np.zeros(n, dtype=bool)
    change[0] = True
    for col in cols:
        change[1:] |= pc.not_equal(col.slice(1), col.slice(0, n - 1)) \
            .to_numpy(zero_copy_only=False)
    return np.flatnonzero(change)


def _run_min_strings(col, order: np.ndarray, starts: np.ndarray) -> pa.Array:
    """Per-run minimum of a string column, with Arrow's ``min`` order and
    null skipping: each row becomes the rank of its value in the sorted
    dictionary (nulls rank last), rows are put in run ``order``, and
    ``np.minimum.reduceat`` takes each run's smallest rank."""
    enc = pc.dictionary_encode(col.combine_chunks()
                               if isinstance(col, pa.ChunkedArray) else col)
    by_value = pc.sort_indices(enc.dictionary)
    k = len(by_value)
    rank = np.empty(k + 1, np.int64)
    rank[by_value.to_numpy()] = np.arange(k)
    rank[k] = k
    codes = pc.fill_null(enc.indices, k).to_numpy(zero_copy_only=False)
    best = np.minimum.reduceat(rank[codes][order], starts)
    return enc.dictionary.take(by_value).take(pa.array(best, mask=best == k))


def partial_dedup(t: pa.Table) -> pa.Table:
    """Exact dedup of raw triple rows on (subj, pred, obj) ->
    RAW_TRIPLE_SCHEMA rows in key order: stage A's per-shard combiner
    (runs before the dedup exchange) and the one run-reduce that
    :func:`final_dedup_group` projects. Sort-fused, with no hash
    aggregate and no output re-sort: ONE sort by (subj, pred, obj,
    conv_id, turn_idx, ev_start, ev_end) makes each key a run whose first
    row carries the minimal provenance tuple (SURVEY A7's keep-first
    rule) and its bucket, which is a function of the key; ``count`` is a
    run sum and each type a run minimum (over sorted-dictionary ranks).
    A null key, provenance or count raises ValueError."""
    n = t.num_rows
    if n == 0:
        return RAW_TRIPLE_SCHEMA.empty_table()
    for c in _KEY + _PROV + ("count",):
        if t.column(c).null_count:
            raise ValueError(f"triple dedup: null {c} value(s)")
    idx = pc.sort_indices(t, [(c, "ascending") for c in _KEY + _PROV])
    keys = [t.column(c).take(idx).combine_chunks() for c in _KEY]
    starts = _run_starts(keys, n)
    order = idx.to_numpy()
    first = t.select(_PROV + ("bucket",)).take(order[starts])
    return pa.table({
        **{c: k.take(pa.array(starts)) for c, k in zip(_KEY, keys)},
        **{c: _run_min_strings(t.column(c), order, starts)
           for c in ("subj_type", "obj_type")},
        **{c: first.column(c) for c in first.column_names},
        "count": np.add.reduceat(t.column("count").to_numpy()[order],
                                 starts),
    }, schema=RAW_TRIPLE_SCHEMA)


def final_dedup_group(group: pa.Table) -> pa.Table:
    """The final reduce of the dedup exchange (one call per bucket
    group) and of the driver-local finalize: :func:`partial_dedup`
    projected onto TRIPLE_SCHEMA, rows in key order."""
    t = partial_dedup(group).drop_columns(["bucket"])
    return t.add_column(TRIPLE_SCHEMA.get_field_index("weight"),
                        TRIPLE_SCHEMA.field("weight"),
                        pa.array(np.ones(t.num_rows, np.float32)))


NODE_SCHEMA = pa.schema([
    ("node_id", pa.string()), ("type", pa.string()),
    ("degree", pa.int64()), ("bucket", pa.int32()),
])


def node_degrees(edges: pa.Table) -> pa.Table:
    """Unique-triple rows -> (node_id, type, degree) per endpoint node,
    unsorted: ONE ``group_by`` over the subj+obj / subj_type+obj_type
    chunks, so degree counts endpoints (a self-loop twice) and type is
    the minimal non-null one. The node kernel of both finalize tiers."""
    ids = pa.chunked_array(edges.column("subj").chunks
                           + edges.column("obj").chunks, pa.string())
    types = pa.chunked_array(edges.column("subj_type").chunks
                             + edges.column("obj_type").chunks, pa.string())
    g = pa.table({"node_id": ids, "type": types}).group_by("node_id") \
        .aggregate([([], "count_all"), ("type", "min")])
    return g.select(["node_id", "type_min", "count_all"]) \
        .rename_columns(NODE_SCHEMA.names[:3])


def emit_nodes_batch(batch: pa.Table) -> pa.Table:
    """:func:`node_degrees` plus the FNV bucket of node_id that the
    distributed node exchange groups by."""
    g = node_degrees(batch)
    bucket = (fnv1a_hashes(g.column("node_id"))
              % np.uint64(N_BUCKETS)).astype(np.int32)
    return g.append_column(NODE_SCHEMA.field("bucket"), pa.array(bucket))


def final_nodes_group(group: pa.Table) -> pa.Table:
    if group.num_rows == 0:
        return NODE_SCHEMA.empty_table()
    g = group.group_by(["node_id"]).aggregate([("degree", "sum"),
                                               ("type", "min"),
                                               ("bucket", "min")])
    g = g.rename_columns(["node_id", "degree", "type", "bucket"])
    return g.select(NODE_SCHEMA.names).cast(NODE_SCHEMA) \
        .sort_by([("node_id", "ascending")])


# ---------------------------------------------------------------------------
# Cross-conversation entity canonicalization (SURVEY §7.3 shuffle #2):
# surface nodes -> entity blocks -> cosine merge edges -> union-find per
# group of whole blocks -> node rewrite. Kernels shared with the
# sequential oracle (casie_ray.oracle.canonical_mapping) so both sides
# merge identically.
# ---------------------------------------------------------------------------

SURFACE_SCHEMA = pa.schema([("node", pa.string()), ("block", pa.string())])
CC_EDGE_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string())])
CANON_PAIR_SCHEMA = pa.schema([("node", pa.string()),
                               ("label", pa.string())])


def extract_surface_nodes(batch: pa.Table) -> pa.Table:
    """Raw triple rows -> distinct (surface node, entity block) rows,
    bucketed by block hash for the canonicalization exchange. Arrow
    ``unique`` collapses repeats before the per-value parse, so the
    Python loop runs over distinct node ids only."""
    uniq = pc.unique(pa.chunked_array([
        batch.column("subj").combine_chunks(),
        batch.column("obj").combine_chunks()]))
    nodes = set()
    for v in uniq.to_pylist():
        p = parse_surface_node(v)
        if p is not None:
            nodes.add((v, canon_block_key(*p)))
    pairs = sorted(nodes)
    blocks = pa.array([b for _, b in pairs], pa.string())
    bucket = (fnv1a_hashes(blocks) % np.uint64(N_BUCKETS)).astype(np.int32)
    return pa.table({
        "node": pa.array([n for n, _ in pairs], pa.string()),
        "block": blocks,
        "bucket": pa.array(bucket, pa.int32()),
    })


def rewrite_triples(mapping_ref):
    """Apply the canonical mapping to subj/obj and recompute the dedup
    bucket (the key changed). mapping is broadcast once via ray.put —
    its size is proportional to the merged-variant mass, not the corpus."""
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        mapping = ray.get(mapping_ref) if not isinstance(mapping_ref, dict) \
            else mapping_ref
        keys = pa.array(list(mapping.keys()), pa.string())
        vals = pa.array(list(mapping.values()), pa.string())

        def replace(col):
            idx = pc.index_in(col, value_set=keys)
            rep = pc.take(vals, idx)
            arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) \
                else col
            return pc.if_else(pc.is_null(idx), arr, rep), \
                pc.is_valid(idx).to_numpy(zero_copy_only=False)

        subj, s_hit = replace(batch.column("subj"))
        obj, o_hit = replace(batch.column("obj"))
        # bucket must stay the SAME function of (subj,pred,obj) as
        # triples_from_events (equal keys -> equal bucket across changed
        # and unchanged rows), so recompute the FNV-1a bucket — but only
        # for the rows a mapping actually touched (the variant mass)
        changed = np.nonzero(s_hit | o_hit)[0]
        bucket = batch.column("bucket").to_numpy(
            zero_copy_only=False).copy()
        if len(changed):
            idx = pa.array(changed)
            bucket[changed] = triple_buckets(
                pc.take(subj, idx), pc.take(batch.column("pred"), idx),
                pc.take(obj, idx))
        cols = {c: batch.column(c) for c in batch.column_names}
        cols.update(subj=subj, obj=obj, bucket=bucket)
        return pa.table(cols, schema=RAW_TRIPLE_SCHEMA)
    return fn


def rewrite_triples_ds(raw_ds, mapping_ds):
    """Distributed canonical rewrite: apply a (node -> label) mapping
    DATASET to subj/obj via bucketed left-outer joins — the scale path
    for mappings too large to broadcast as a driver dict (the r4
    verdict's one whole-table driver collect). A bloom filter over the
    mapping keys (512 KB, broadcast once) splits the triples first:
    rows whose subj AND obj both miss the bloom cannot be variants and
    bypass the join exchanges entirely with their bucket intact, so
    the two join exchanges move only the (bloom-positive) variant-ish
    mass, never the corpus. The upstream read executes twice (once per
    split side) — a linear re-scan, cheaper at scale than shuffling
    every triple through two joins.

    Output rows are bit-identical to ``rewrite_triples`` with the
    collected dict (tested byte-equal through the full pipeline); row
    ORDER differs, which the downstream (subj,pred,obj) dedup exchange
    erases."""
    import ray

    from ..ops.join import bloom_may_contain, build_bloom, hash_join

    bloom_ref = ray.put(build_bloom(mapping_ds, "node",
                                    key_type=pa.string()))

    def _dirty_mask(batch: pa.Table) -> np.ndarray:
        words = ray.get(bloom_ref)
        s = bloom_may_contain(words, batch.column("subj"))
        o = bloom_may_contain(words, batch.column("obj"))
        return s | o

    def clean_part(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(~_dirty_mask(batch)))

    def dirty_part(batch: pa.Table) -> pa.Table:
        return batch.filter(pa.array(_dirty_mask(batch)))

    clean = raw_ds.map_batches(clean_part, batch_format="pyarrow",
                               batch_size=None)
    dirty = raw_ds.map_batches(dirty_part, batch_format="pyarrow",
                               batch_size=None)

    def fold(key: str, canon: str, last: bool):
        def fn(batch: pa.Table) -> pa.Table:
            canon_arr = batch.column(canon).combine_chunks()
            folded = pc.if_else(pc.is_valid(canon_arr), canon_arr,
                                batch.column(key).combine_chunks())
            cols = {c: batch.column(c) for c in batch.column_names
                    if c not in (key, canon)}
            cols[key] = folded
            if last:
                cols["bucket"] = pa.array(triple_buckets(
                    cols["subj"], cols["pred"], cols["obj"]), pa.int32())
            t = pa.table(cols)
            return t.select(RAW_TRIPLE_SCHEMA.names).cast(
                RAW_TRIPLE_SCHEMA) if last else t
        return fn

    # the bucket is left out of the join (the key may change) and
    # recomputed after the folds
    unbucketed = pa.schema([f for f in RAW_TRIPLE_SCHEMA
                            if f.name != "bucket"])

    def canon_join(left, key: str, canon: str):
        # the join casts both mapping columns to string
        return hash_join(
            left, mapping_ds.rename_columns({"label": canon}), on=key,
            right_on="node", left_schema=unbucketed,
            right_schema=pa.schema([("node", pa.string()),
                                    (canon, pa.string())]),
            how="left outer")

    j1 = canon_join(dirty, "subj", "canon_subj") \
        .map_batches(fold("subj", "canon_subj", last=False),
                     batch_format="pyarrow", batch_size=None)
    j2 = canon_join(j1, "obj", "canon_obj") \
        .map_batches(fold("obj", "canon_obj", last=True),
                     batch_format="pyarrow", batch_size=None)
    return clean.union(j2)


def merge_edges_multi(batch: pa.Table) -> pa.Table:
    """(node, block) rows holding whole entity blocks -> every block's
    merge edges: ``canon_merge_edges`` per block node list in sorted
    block order, with the src/dst columns built once for all blocks."""
    by_block: dict[str, list[str]] = {}
    for b, n in zip(batch.column("block").to_pylist(),
                    batch.column("node").to_pylist()):
        by_block.setdefault(b, []).append(n)
    edges = [e for b in sorted(by_block)
             for e in canon_merge_edges(by_block[b])]
    return pa.table([pa.array([a for a, _ in edges], pa.string()),
                     pa.array([b for _, b in edges], pa.string())],
                    schema=CC_EDGE_SCHEMA)


def canonical_pairs(surf: pa.Table) -> pa.Table:
    """(node, block) rows holding whole entity blocks -> one (node,
    label) row per variant node, label the minimum member of its merge
    component: the block merge edges, then the sequential union-find.
    The canonicalization kernel of both finalize tiers. A merge edge
    never leaves its block, so every component lies inside one block,
    and the union of this kernel over any split of the blocks into
    groups is the global mapping."""
    medges = merge_edges_multi(surf)
    comp = components_local(list(zip(medges.column("src").to_pylist(),
                                     medges.column("dst").to_pylist())))
    pairs = [(n, r) for n, r in comp.items() if n != r]
    return pa.table([pa.array([n for n, _ in pairs], pa.string()),
                     pa.array([r for _, r in pairs], pa.string())],
                    schema=CANON_PAIR_SCHEMA)
