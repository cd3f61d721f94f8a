"""Triple emission + exact dedup + node/edge materialization.

Emission is the engine equivalent of the reference's brat frame writers
(report.py:260-481 → SURVEY S8). Dedup (SURVEY A7) is a salted
two-phase aggregate: a vectorized per-batch Arrow ``group_by`` combine
(pre-aggregation before the shuffle) followed by a bucketed
``groupby("bucket").map_groups`` final — the bucket column spreads hot
keys (e.g. hot-entity `targets` edges) across 4096 reducers, and each
reducer is itself vectorized Arrow, never per-key Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..ops.bucketing import fnv1a_hashes
from ..schema import TRIPLE_SCHEMA, row_to_event
from ..semantics import emit_triples

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
    ("prov", pa.string()), ("count", pa.int64()), ("bucket", pa.int32()),
])


def _pad8(ints: pa.Array) -> pa.Array:
    """Zero-padded decimal text, as f"{v:08d}" formats a non-negative
    int (a longer value keeps all its digits). Negative values would
    pad differently, so they raise."""
    if len(ints) and pc.min(ints).as_py() < 0:
        raise ValueError("provenance ints must be non-negative")
    return pc.utf8_lpad(pc.cast(ints, pa.string()), 8, "0")


def _prov(conv_id: pa.Array, turn_idx: pa.Array, start: pa.Array,
          end: pa.Array) -> pa.Array:
    # \x00 separator sorts below every printable char, so the string min
    # over provenances orders exactly like the (conv_id, turn, start, end)
    # tuple even when one conv_id is a proper prefix of another
    return pc.binary_join_element_wise(
        conv_id, _pad8(turn_idx), _pad8(start), _pad8(end), "\x00")


def triples_from_events(events: list) -> pa.Table:
    """Event OBJECTS -> raw triple table, built columnar: one pa.array
    per column, then Arrow kernels for the provenance strings and the
    FNV buckets — the fused extraction path calls this directly on the
    Events it already holds, so the hot path never round-trips through
    event rows and formats no per-row strings in Python."""
    trips = emit_triples(events)
    if not trips:
        return RAW_TRIPLE_SCHEMA.empty_table()

    def col(name, typ=pa.string()):
        return pa.array([t[name] for t in trips], typ)

    subj, pred, obj = col("subj"), col("pred"), col("obj")
    return pa.table({
        "subj": subj, "pred": pred, "obj": obj,
        "subj_type": col("subj_type"), "obj_type": col("obj_type"),
        "prov": _prov(col("conv_id"), col("turn_idx", pa.int64()),
                      col("ev_start", pa.int64()),
                      col("ev_end", pa.int64())),
        "count": pa.array(np.ones(len(trips), np.int64)),
        "bucket": pa.array(triple_buckets(subj, pred, obj), pa.int32()),
    }).cast(RAW_TRIPLE_SCHEMA)


def emit_triples_batch(batch: pa.Table) -> pa.Table:
    """Event ROWS -> raw triple rows (flat_map-style expansion); the
    general-layout fallback — the fused path uses triples_from_events."""
    return triples_from_events([row_to_event(r) for r in batch.to_pylist()])


_AGG = [("count", "sum"), ("prov", "min"), ("subj_type", "min"),
        ("obj_type", "min"), ("bucket", "min")]
_RENAME = {"count_sum": "count", "prov_min": "prov",
           "subj_type_min": "subj_type", "obj_type_min": "obj_type",
           "bucket_min": "bucket"}


def _dedup_table(t: pa.Table) -> pa.Table:
    """Vectorized exact dedup of one Arrow table on (subj, pred, obj):
    sum counts, keep the provenance-minimal row."""
    g = t.group_by(["subj", "pred", "obj"]).aggregate(_AGG)
    g = g.rename_columns([_RENAME.get(c, c) for c in g.column_names])
    return g.select(RAW_TRIPLE_SCHEMA.names).cast(RAW_TRIPLE_SCHEMA)


def partial_dedup(batch: pa.Table) -> pa.Table:
    """Per-batch combiner (runs before the shuffle)."""
    if batch.num_rows == 0:
        return RAW_TRIPLE_SCHEMA.empty_table()
    return _dedup_table(batch)


def final_dedup_group(group: pa.Table) -> pa.Table:
    """Per-bucket final dedup + decode provenance -> TRIPLE_SCHEMA."""
    import numpy as np
    if group.num_rows == 0:
        return TRIPLE_SCHEMA.empty_table()
    g = _dedup_table(group)
    # vectorized provenance decode: the suffix is fixed-width ASCII
    # ("\x00%08d" x 3 = 27 codeunits), so negative-index slices recover
    # the fields even when conv_id itself contains the separator
    prov = g.column("prov")
    conv = pc.utf8_slice_codeunits(prov, start=0, stop=-27)
    ti = pc.cast(pc.utf8_slice_codeunits(prov, start=-26, stop=-18),
                 pa.int32())
    st = pc.cast(pc.utf8_slice_codeunits(prov, start=-17, stop=-9),
                 pa.int32())
    en = pc.cast(pc.utf8_slice_codeunits(prov, start=-8), pa.int32())
    # deterministic output order within the bucket
    out = pa.table({
        "subj": g.column("subj"), "pred": g.column("pred"),
        "obj": g.column("obj"), "subj_type": g.column("subj_type"),
        "obj_type": g.column("obj_type"),
        "conv_id": conv, "turn_idx": ti, "ev_start": st, "ev_end": en,
        "weight": pa.array(np.ones(g.num_rows, np.float32)),
        "count": g.column("count"),
    }).cast(TRIPLE_SCHEMA)
    return out.sort_by([("subj", "ascending"), ("pred", "ascending"),
                        ("obj", "ascending")])


NODE_SCHEMA = pa.schema([
    ("node_id", pa.string()), ("type", pa.string()),
    ("degree", pa.int64()), ("bucket", pa.int32()),
])


def emit_nodes_batch(batch: pa.Table) -> pa.Table:
    """Unique-triple rows -> (node_id, type, degree=1) rows for both
    endpoints, pre-aggregated within the batch."""
    if batch.num_rows == 0:
        return NODE_SCHEMA.empty_table()
    ones = pa.array([1] * batch.num_rows, pa.int64())
    subj = pa.table({"node_id": batch.column("subj"),
                     "type": batch.column("subj_type"), "degree": ones})
    obj = pa.table({"node_id": batch.column("obj"),
                    "type": batch.column("obj_type"), "degree": ones})
    t = pa.concat_tables([subj, obj])
    g = t.group_by(["node_id"]).aggregate([("degree", "sum"),
                                           ("type", "min")])
    g = g.rename_columns(["node_id", "degree", "type"])
    # vectorized FNV bucket (pure function of node_id, so equal nodes
    # co-locate; the bucket column is dropped from the final output)
    h = fnv1a_hashes(g.column("node_id"))
    bucket = pa.array((h % np.uint64(N_BUCKETS)).astype(np.int32),
                      pa.int32())
    return pa.table({"node_id": g.column("node_id"),
                     "type": g.column("type"),
                     "degree": g.column("degree"),
                     "bucket": bucket}).cast(NODE_SCHEMA)


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
# surface nodes -> entity blocks -> cosine merge edges -> distributed
# union-find -> node rewrite. Kernels shared with the sequential oracle
# (casie_ray.oracle.canonical_mapping) so both sides merge identically.
# ---------------------------------------------------------------------------

SURFACE_SCHEMA = pa.schema([("node", pa.string()), ("block", pa.string())])
CC_EDGE_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string())])


def extract_surface_nodes(batch: pa.Table) -> pa.Table:
    """Raw triple rows -> distinct (surface node, entity block) rows,
    bucketed by block hash for the canonicalization exchange. Arrow
    ``unique`` collapses repeats before the per-value parse, so the
    Python loop runs over distinct node ids only."""
    from ..semantics import canon_block_key, parse_surface_node
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


def surface_dedup_group(group: pa.Table) -> pa.Table:
    return group.slice(0, 1)


def merge_edges_group(group: pa.Table) -> pa.Table:
    """One entity block -> pairwise cosine merge edges."""
    from ..semantics import canon_merge_edges
    edges = canon_merge_edges(group.column("node").to_pylist())
    if not edges:
        return CC_EDGE_SCHEMA.empty_table()
    return pa.table({"src": pa.array([a for a, _ in edges], pa.string()),
                     "dst": pa.array([b for _, b in edges], pa.string())})


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
        return pa.table({
            "subj": subj,
            "pred": batch.column("pred"),
            "obj": obj,
            "subj_type": batch.column("subj_type"),
            "obj_type": batch.column("obj_type"),
            "prov": batch.column("prov"),
            "count": batch.column("count"),
            "bucket": pa.array(bucket, pa.int32()),
        }).cast(RAW_TRIPLE_SCHEMA)
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
        # bucket is dropped (the key may change; hash_join appends its
        # own co-partition bucket) and recomputed after the folds
        return batch.filter(pa.array(_dirty_mask(batch))) \
            .drop_columns(["bucket"])

    clean = raw_ds.map_batches(clean_part, batch_format="pyarrow",
                               batch_size=None)
    dirty = raw_ds.map_batches(dirty_part, batch_format="pyarrow",
                               batch_size=None)

    def _as_canon(name: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({"node": t.column("node").cast(pa.string()),
                             name: t.column("label").cast(pa.string())})
        return fn

    def fold(key: str, canon: str, last: bool):
        def fn(batch: pa.Table) -> pa.Table:
            canon_arr = batch.column(canon).combine_chunks()
            folded = pc.if_else(pc.is_valid(canon_arr), canon_arr,
                                batch.column(key).combine_chunks())
            cols = {c: batch.column(c) for c in batch.column_names
                    if c not in (key, canon, "bucket")}
            cols[key] = folded
            if last:
                cols["bucket"] = pa.array(triple_buckets(
                    cols["subj"], cols["pred"], cols["obj"]), pa.int32())
            t = pa.table(cols)
            return t.select(RAW_TRIPLE_SCHEMA.names).cast(
                RAW_TRIPLE_SCHEMA) if last else t
        return fn

    m_subj = mapping_ds.map_batches(_as_canon("canon_subj"),
                                    batch_format="pyarrow",
                                    batch_size=None)
    m_obj = mapping_ds.map_batches(_as_canon("canon_obj"),
                                   batch_format="pyarrow",
                                   batch_size=None)
    j1 = hash_join(dirty, m_subj, on="subj", right_on="node",
                   how="left outer") \
        .map_batches(fold("subj", "canon_subj", last=False),
                     batch_format="pyarrow", batch_size=None)
    j2 = hash_join(j1, m_obj, on="obj", right_on="node",
                   how="left outer") \
        .map_batches(fold("obj", "canon_obj", last=True),
                     batch_format="pyarrow", batch_size=None)
    return clean.union(j2)


def merge_edges_multi(batch: pa.Table) -> pa.Table:
    """Whole hash-partitioned block -> merge edges for every complete
    entity block it contains (vectorized per block)."""
    if batch.num_rows == 0:
        return CC_EDGE_SCHEMA.empty_table()
    out = [CC_EDGE_SCHEMA.empty_table()]
    blocks = batch.column("block").to_pylist()
    nodes = batch.column("node").to_pylist()
    by_block: dict[str, list[str]] = {}
    for b, n in zip(blocks, nodes):
        by_block.setdefault(b, []).append(n)
    for b in sorted(by_block):
        t = merge_edges_group(pa.table({
            "node": pa.array(by_block[b], pa.string()),
            "block": pa.array([b] * len(by_block[b]), pa.string())}))
        if t.num_rows:
            out.append(t)
    return pa.concat_tables(out)
