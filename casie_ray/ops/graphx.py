"""Graph analytics over the materialized KG edge table.

The KG pipeline ends at node/edge parquet (stages/triples.py); a real
knowledge-graph deployment then ASKS things of that graph. This module
is the analytics surface: degree distribution, co-mention pairs
(subjects sharing objects — the classic entity-affinity signal), and
PageRank — each expressed in the engine's standard bucketed-exchange
shape (ops/bucketing.py): derive a bounded ``bucket`` column from the
key hash, exchange once, process each bucket group with vectorized
Arrow/numpy kernels over all its keys at once. No per-node Python
calls, no driver-side graph materialization; per-round state is the
node-sized rank table, exactly like ops/graph.py's union-find labels.

PageRank is computed in FIXED-POINT integer arithmetic (rank scaled by
1e6, damping 85/100 as integer multiply-divide): integer sums are
associative, so distributed reduction order can never change the
result, and the whole iteration unrolls into plain (non-recursive)
DuckDB SQL for exact value checking. Dangling-node mass is dropped
(the standard simplification) identically in both dataflows.

At 100 TB: degree/co-mention are one exchange each (plus the tiny
final); PageRank is two exchanges per iteration over edge mass with
node-sized materialized state between rounds. The ``obj_cap`` guard in
co-mention bounds the pair explosion of boilerplate objects the same
way the Jaccard df_cap does (ops/dedup.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bucketing import bucket_groupby, fnv1a_hashes

N_GRAPH_BUCKETS = 64

# PageRank fixed-point: ranks scaled by SCALE; damping d = DAMP_NUM/DAMP_DEN
PR_SCALE = 1_000_000
DAMP_NUM, DAMP_DEN = 85, 100
PR_BASE = PR_SCALE * (DAMP_DEN - DAMP_NUM) // DAMP_DEN  # 150000


def _str_hashes(col) -> np.ndarray:
    """FNV-1a of a string column's values, a null hashing as ''."""
    return fnv1a_hashes(pc.fill_null(col.cast(pa.string()), ""))


def _str_bucket(col, n_buckets: int = N_GRAPH_BUCKETS) -> pa.Array:
    """Vectorized FNV-1a hash bucket for a string column."""
    return pa.array((_str_hashes(col) % np.uint64(n_buckets))
                    .astype(np.int32))


# ---------------------------------------------------------------------------
# Degree histogram
# ---------------------------------------------------------------------------

_DEG_PART_SCHEMA = pa.schema([
    ("node", pa.string()), ("deg", pa.int64()), ("bucket", pa.int32()),
])


def _degree_partial(batch: pa.Table) -> pa.Table:
    """Per-block combiner: count each edge row once per endpoint."""
    ends = pa.table({"node": pa.concat_arrays([
        batch.column("subj").combine_chunks().cast(pa.string()),
        batch.column("obj").combine_chunks().cast(pa.string())])})
    g = ends.group_by(["node"]).aggregate([([], "count_all")])
    g = g.rename_columns(["node", "deg"])
    return pa.table({
        "node": g.column("node"),
        "deg": g.column("deg").cast(pa.int64()),
        "bucket": _str_bucket(g.column("node")),
    })


def _degree_reduce_to_hist_partial(group: pa.Table) -> pa.Table:
    """One node bucket: final per-node degree, then the bucket's partial
    histogram (degree -> node count) — the second exchange ships only
    #distinct-degrees rows per bucket."""
    g = group.group_by(["node"]).aggregate([("deg", "sum")])
    h = g.group_by(["deg_sum"]).aggregate([([], "count_all")])
    h = h.rename_columns(["degree", "n_nodes"])
    deg = h.column("degree").to_numpy().astype(np.int64)
    return pa.table({
        "degree": pa.array(deg, pa.int64()),
        "n_nodes": h.column("n_nodes").cast(pa.int64()),
        "bucket": pa.array((deg % N_GRAPH_BUCKETS).astype(np.int32)),
    })


def _hist_final(group: pa.Table) -> pa.Table:
    g = group.group_by(["degree"]).aggregate([("n_nodes", "sum")])
    return g.rename_columns(["degree", "n_nodes"])


def degree_hist(edges_ds):
    """Node-degree distribution of the KG: (degree, n_nodes).

    Degree = incident unique-edge rows (the same count kg_nodes
    reports). Shape: per-block combiner -> hash(node) exchange with an
    in-bucket histogram partial -> tiny hash(degree) final.
    """
    parts = edges_ds.map_batches(_degree_partial, batch_format="pyarrow",
                                 batch_size=None)
    hist_parts = bucket_groupby(parts, _degree_reduce_to_hist_partial)
    return bucket_groupby(hist_parts, _hist_final)


# ---------------------------------------------------------------------------
# Co-mention pairs (subjects sharing objects)
# ---------------------------------------------------------------------------

_SO_SCHEMA = pa.schema([
    ("subj", pa.string()), ("obj", pa.string()), ("bucket", pa.int32()),
])

_CO_PART_SCHEMA = pa.schema([
    ("subj_a", pa.string()), ("subj_b", pa.string()),
    ("n", pa.int64()), ("bucket", pa.int32()),
])


def _subj_obj_partial(batch: pa.Table) -> pa.Table:
    t = pa.table({"subj": batch.column("subj").cast(pa.string()),
                  "obj": batch.column("obj").cast(pa.string())})
    g = t.group_by(["subj", "obj"]).aggregate([])
    return pa.table({
        "subj": g.column("subj"), "obj": g.column("obj"),
        "bucket": _str_bucket(g.column("obj")),
    })


def _co_pairs_bucket(obj_cap: int):
    def pairs(group: pa.Table) -> pa.Table:
        # distinct across blocks, drop boilerplate objects, expand pairs
        g = group.group_by(["subj", "obj"]).aggregate([])
        g = g.sort_by([("obj", "ascending"), ("subj", "ascending")])
        obj = np.asarray(g.column("obj").to_pylist(), dtype=object)
        subj = np.asarray(g.column("subj").to_pylist(), dtype=object)
        # object run sizes (rows are distinct (subj,obj): size = #subjects)
        if len(obj) == 0:
            return _CO_PART_SCHEMA.empty_table()
        change = np.concatenate([[True], obj[1:] != obj[:-1]])
        seg_id = np.cumsum(change) - 1
        sizes = np.bincount(seg_id)
        keep = sizes[seg_id] <= obj_cap
        obj, subj = obj[keep], subj[keep]
        from .bucketing import segment_pair_indices
        ia, ib = segment_pair_indices([obj])
        if len(ia) == 0:
            return _CO_PART_SCHEMA.empty_table()
        a, b = subj[ia], subj[ib]       # sorted by subj within obj: a < b
        h = (fnv1a_hashes(list(a)) ^ fnv1a_hashes(list(b)))
        return pa.table({
            "subj_a": pa.array(list(a), pa.string()),
            "subj_b": pa.array(list(b), pa.string()),
            "n": pa.array(np.ones(len(a), np.int64)),
            "bucket": pa.array(
                (h % np.uint64(N_GRAPH_BUCKETS)).astype(np.int32)),
        })
    return pairs


def _co_final(min_shared: int):
    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["subj_a", "subj_b"]).aggregate([("n", "sum")])
        g = g.rename_columns(["subj_a", "subj_b", "n_shared"])
        return g.filter(pc.greater_equal(g.column("n_shared"),
                                         pa.scalar(min_shared, pa.int64())))
    return final


def co_mention_pairs(edges_ds, obj_cap: int = 32, min_shared: int = 2):
    """Subject pairs sharing >= ``min_shared`` distinct objects:
    (subj_a, subj_b, n_shared), subj_a < subj_b.

    Objects with more than ``obj_cap`` distinct subjects are excluded
    from pair generation (boilerplate guard — a hub object contributes
    O(cap^2) pairs instead of O(n^2)); the SQL oracle applies the same
    cap, so values stay exact.
    """
    so = edges_ds.map_batches(_subj_obj_partial, batch_format="pyarrow",
                              batch_size=None)
    pairs = bucket_groupby(so, _co_pairs_bucket(obj_cap))
    return bucket_groupby(pairs, _co_final(min_shared))


# ---------------------------------------------------------------------------
# PageRank (fixed-point integer, exact)
# ---------------------------------------------------------------------------


def _pr_edges_partial(batch: pa.Table) -> pa.Table:
    t = pa.table({"src": batch.column("subj").cast(pa.string()),
                  "dst": batch.column("obj").cast(pa.string())})
    g = t.group_by(["src", "dst"]).aggregate([])
    return pa.table({
        "src": g.column("src"), "dst": g.column("dst"),
        "bucket": _str_bucket(g.column("src")),
    })


def _pr_edges_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["src", "dst"]).aggregate([])
    return pa.table({
        "src": g.column("src"), "dst": g.column("dst"),
        "bucket": _str_bucket(g.column("src")),
    })


def _pr_nodes_partial(batch: pa.Table) -> pa.Table:
    u = pc.unique(pa.concat_arrays([
        batch.column("src").combine_chunks(),
        batch.column("dst").combine_chunks()]))
    return pa.table({"node": u, "bucket": _str_bucket(u)})


def _pr_outdeg_bucket(group: pa.Table) -> pa.Table:
    """One src bucket of distinct edges: (node=src, outdeg)."""
    g = group.group_by(["src"]).aggregate([([], "count_all")])
    g = g.rename_columns(["node", "outdeg"])
    return pa.table({
        "node": g.column("node"),
        "outdeg": g.column("outdeg").cast(pa.int64()),
        "bucket": _str_bucket(g.column("node")),
    })


def _pr_init_bucket(group: pa.Table) -> pa.Table:
    """One node bucket of node rows (outdeg null) + outdeg rows:
    (node, rank=SCALE, outdeg)."""
    g = group.group_by(["node"]).aggregate([("outdeg", "max")])
    g = g.rename_columns(["node", "outdeg"])
    n = g.num_rows
    return pa.table({
        "node": g.column("node"),
        "rank": pa.array(np.full(n, PR_SCALE, np.int64)),
        "outdeg": pc.fill_null(g.column("outdeg"), 0),
        "bucket": _str_bucket(g.column("node")),
    })


def _pr_contrib_bucket(group: pa.Table) -> pa.Table:
    """One hash bucket keyed by src: rank rows (dst null) + edge rows.
    Vectorized join; each rank row also emits its (node, 0, outdeg)
    seed so every node survives the reduce with its outdeg intact."""
    is_rank = pc.is_valid(group.column("rank"))
    ranks = group.filter(is_rank)
    edges = group.filter(pc.invert(is_rank)).select(["src", "dst"])
    rt = pa.table({"src": ranks.column("src"),
                   "rank": ranks.column("rank"),
                   "outdeg": ranks.column("outdeg")})
    fwd = edges.join(rt, keys="src", join_type="inner")
    r = fwd.column("rank").to_numpy()
    od = fwd.column("outdeg").to_numpy()
    od = np.where(od > 0, od, 1)          # src of an edge always has outdeg>0
    contrib = (r * DAMP_NUM // DAMP_DEN) // od
    return pa.table({
        "node": pa.concat_arrays([
            fwd.column("dst").combine_chunks(),
            rt.column("src").combine_chunks()]),
        "contrib": pa.array(np.concatenate(
            [contrib, np.zeros(rt.num_rows, np.int64)]), pa.int64()),
        "outdeg": pa.concat_arrays([
            pa.nulls(fwd.num_rows, pa.int64()),
            rt.column("outdeg").combine_chunks()]),
    })


def _pr_reduce_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["node"]).aggregate([("contrib", "sum"),
                                            ("outdeg", "max")])
    g = g.rename_columns(["node", "c", "outdeg"])
    return pa.table({
        "node": g.column("node"),
        "rank": pc.add(pa.scalar(PR_BASE, pa.int64()),
                       g.column("c").cast(pa.int64())),
        "outdeg": g.column("outdeg"),
        "bucket": _str_bucket(g.column("node")),
    })


def pagerank(edges_ds, iters: int = 3):
    """Fixed-point integer PageRank over distinct (subj -> obj) edges:
    (node, pr) with pr = rank * 1e6 after ``iters`` iterations,
    damping 0.85, dangling mass dropped.

    rank'(n) = 150000 + sum over in-edges (m,n) of
               (rank(m) * 85 // 100) // outdeg(m)

    All-integer, so the distributed sum is order-independent and the
    unrolled DuckDB oracle matches bit-for-bit. Two bucketed exchanges
    per iteration; inter-round state is the node-sized rank table.
    """
    ep = edges_ds.map_batches(_pr_edges_partial, batch_format="pyarrow",
                              batch_size=None)
    edges = bucket_groupby(ep, _pr_edges_bucket).materialize()

    outdeg = bucket_groupby(edges, _pr_outdeg_bucket)
    node_rows = edges.map_batches(_pr_nodes_partial,
                                  batch_format="pyarrow", batch_size=None)

    def as_node_row(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"),
                         "outdeg": pa.nulls(batch.num_rows, pa.int64()),
                         "bucket": batch.column("bucket")})

    seed = node_rows.map_batches(as_node_row, batch_format="pyarrow") \
        .union(outdeg)
    ranks = bucket_groupby(seed, _pr_init_bucket).materialize()

    def as_rank_row(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": batch.column("node"),
            "dst": pa.nulls(batch.num_rows, pa.string()),
            "rank": batch.column("rank"),
            "outdeg": batch.column("outdeg"),
            "bucket": batch.column("bucket"),
        })

    def as_edge_row(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "src": batch.column("src"),
            "dst": batch.column("dst"),
            "rank": pa.nulls(n, pa.int64()),
            "outdeg": pa.nulls(n, pa.int64()),
            "bucket": batch.column("bucket"),
        })

    def rebucket_node(fn):
        def wrapped(g: pa.Table) -> pa.Table:
            t = fn(g)
            if "bucket" in t.column_names:
                return t
            return t.append_column("bucket", _str_bucket(t.column("node")))
        return wrapped

    for _ in range(iters):
        mixed = ranks.map_batches(as_rank_row, batch_format="pyarrow") \
            .union(edges.map_batches(as_edge_row, batch_format="pyarrow"))
        contribs = bucket_groupby(mixed, rebucket_node(_pr_contrib_bucket))
        ranks = bucket_groupby(contribs, _pr_reduce_bucket).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"),
                         "pr": batch.column("rank")})

    return ranks.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Personalized PageRank (seed-restart variant of the pagerank fixed point)
# ---------------------------------------------------------------------------
#
# Same all-integer fixed point as :func:`pagerank`, but the reset mass
# returns only to a SEED set instead of uniformly: rank measures
# proximity to the seeds (the standard PPR recommendation/expansion
# primitive). Seeds are chosen deterministically as the ``n_seeds``
# highest out-degree nodes (ties by node ascending) — derivable
# identically in the engine (bounded partial top-k over the node-sized
# out-degree table) and in the SQL twin (ORDER BY outdeg DESC, src).
#
#   rank0(n)  = SCALE if n in seeds else 0
#   rank'(n)  = (BASE if n in seeds else 0)
#               + sum over in-edges (m, n) of (rank(m)*85//100)//outdeg(m)
#
# Dataflow is pagerank's: two bucketed exchanges per iteration,
# inter-round state is the node-sized rank table. The seed set is tiny
# (n_seeds strings) and rides into the reduce kernel by closure.

PPR_SEEDS = 8


def _top_outdeg_partial(k: int):
    def kern(batch: pa.Table) -> pa.Table:
        t = batch.select(["node", "outdeg"])
        idx = pc.sort_indices(t, sort_keys=[("outdeg", "descending"),
                                            ("node", "ascending")])
        return t.take(idx[:k])
    return kern


def _ppr_reduce_bucket(seed_list: list[str]):
    seeds_arr = pa.array(sorted(seed_list), pa.string())

    def kern(group: pa.Table) -> pa.Table:
        g = group.group_by(["node"]).aggregate([("contrib", "sum"),
                                                ("outdeg", "max")])
        g = g.rename_columns(["node", "c", "outdeg"])
        base = pc.if_else(
            pc.is_in(g.column("node"), value_set=seeds_arr),
            pa.scalar(PR_BASE, pa.int64()), pa.scalar(0, pa.int64()))
        return pa.table({
            "node": g.column("node"),
            "rank": pc.add(base, g.column("c").cast(pa.int64())),
            "outdeg": g.column("outdeg"),
            "bucket": _str_bucket(g.column("node")),
        })
    return kern


def ppr(edges_ds, iters: int = 3, n_seeds: int = PPR_SEEDS):
    """Personalized PageRank: (node, pr) after ``iters`` iterations of
    the seed-restart fixed point above. All-integer, bit-exact vs the
    unrolled DuckDB twin (:func:`ppr_sql`)."""
    ep = edges_ds.map_batches(_pr_edges_partial, batch_format="pyarrow",
                              batch_size=None)
    edges = bucket_groupby(ep, _pr_edges_bucket).materialize()

    outdeg = bucket_groupby(edges, _pr_outdeg_bucket).materialize()

    # deterministic seed set: bounded partial top-k per block, then a
    # single tiny final merge — never the whole degree table
    cand = outdeg.map_batches(_top_outdeg_partial(n_seeds),
                              batch_format="pyarrow")
    top = cand.repartition(1).map_batches(
        _top_outdeg_partial(n_seeds), batch_format="pyarrow",
        batch_size=None).take_all()
    seed_list = [r["node"] for r in top]
    seeds_arr = pa.array(sorted(seed_list), pa.string())

    node_rows = edges.map_batches(_pr_nodes_partial,
                                  batch_format="pyarrow", batch_size=None)

    def as_node_row(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"),
                         "outdeg": pa.nulls(batch.num_rows, pa.int64()),
                         "bucket": batch.column("bucket")})

    def init_bucket(group: pa.Table) -> pa.Table:
        g = group.group_by(["node"]).aggregate([("outdeg", "max")])
        g = g.rename_columns(["node", "outdeg"])
        rank = pc.if_else(
            pc.is_in(g.column("node"), value_set=seeds_arr),
            pa.scalar(PR_SCALE, pa.int64()), pa.scalar(0, pa.int64()))
        return pa.table({
            "node": g.column("node"),
            "rank": rank,
            "outdeg": pc.fill_null(g.column("outdeg"), 0),
            "bucket": _str_bucket(g.column("node")),
        })

    seed = node_rows.map_batches(as_node_row, batch_format="pyarrow") \
        .union(outdeg)
    ranks = bucket_groupby(seed, init_bucket).materialize()

    def as_rank_row(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": batch.column("node"),
            "dst": pa.nulls(batch.num_rows, pa.string()),
            "rank": batch.column("rank"),
            "outdeg": batch.column("outdeg"),
            "bucket": batch.column("bucket"),
        })

    def as_edge_row(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "src": batch.column("src"),
            "dst": batch.column("dst"),
            "rank": pa.nulls(n, pa.int64()),
            "outdeg": pa.nulls(n, pa.int64()),
            "bucket": batch.column("bucket"),
        })

    def rebucket_node(fn):
        def wrapped(g: pa.Table) -> pa.Table:
            t = fn(g)
            if "bucket" in t.column_names:
                return t
            return t.append_column("bucket", _str_bucket(t.column("node")))
        return wrapped

    reduce_kern = _ppr_reduce_bucket(seed_list)
    for _ in range(iters):
        mixed = ranks.map_batches(as_rank_row, batch_format="pyarrow") \
            .union(edges.map_batches(as_edge_row, batch_format="pyarrow"))
        contribs = bucket_groupby(mixed, rebucket_node(_pr_contrib_bucket))
        ranks = bucket_groupby(contribs, reduce_kern).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"),
                         "pr": batch.column("rank")})

    return ranks.map_batches(finish, batch_format="pyarrow")


def ppr_local(edges: list[tuple[str, str]], iters: int = 3,
              n_seeds: int = PPR_SEEDS) -> dict[str, int]:
    """Sequential fixed-point oracle for tests."""
    e = sorted(set(edges))
    nodes = sorted({a for a, _ in e} | {b for _, b in e})
    outdeg: dict[str, int] = {}
    for a, _ in e:
        outdeg[a] = outdeg.get(a, 0) + 1
    seeds = set(n for n, _ in sorted(
        outdeg.items(), key=lambda kv: (-kv[1], kv[0]))[:n_seeds])
    rank = {n: (PR_SCALE if n in seeds else 0) for n in nodes}
    for _ in range(iters):
        nxt = {n: (PR_BASE if n in seeds else 0) for n in nodes}
        for a, b in e:
            nxt[b] += (rank[a] * DAMP_NUM // DAMP_DEN) // outdeg[a]
        rank = nxt
    return rank


def ppr_sql(triples_glob: str, iters: int = 3,
            n_seeds: int = PPR_SEEDS) -> str:
    """Unrolled DuckDB oracle for :func:`ppr` — one CTE per iteration,
    all-integer arithmetic, bit-exact vs the engine."""
    sql = [f"""WITH e AS (SELECT DISTINCT CAST(subj AS VARCHAR) AS src,
                   CAST(obj AS VARCHAR) AS dst
            FROM read_parquet('{triples_glob}')),
 nodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
 od AS (SELECT src, count(*) AS outdeg FROM e GROUP BY src),
 seeds AS (SELECT src AS node FROM od
           ORDER BY outdeg DESC, src LIMIT {n_seeds}),
 r0 AS (SELECT node, CAST(CASE WHEN node IN (SELECT node FROM seeds)
                          THEN {PR_SCALE} ELSE 0 END AS BIGINT) AS pr
        FROM nodes)"""]
    for i in range(1, iters + 1):
        sql.append(f""",
 r{i} AS (SELECT n.node,
          CAST(CASE WHEN n.node IN (SELECT node FROM seeds)
               THEN {PR_BASE} ELSE 0 END
               + coalesce(s.c, 0) AS BIGINT) AS pr
          FROM nodes n LEFT JOIN (
            SELECT e.dst AS node,
                   sum((r.pr * {DAMP_NUM} // {DAMP_DEN}) // od.outdeg) AS c
            FROM e JOIN r{i - 1} r ON e.src = r.node
                   JOIN od ON e.src = od.src
            GROUP BY e.dst) s ON n.node = s.node)""")
    sql.append(f"\nSELECT node, pr FROM r{iters}")
    return "".join(sql)


# ---------------------------------------------------------------------------
# Triangle counting (degree-oriented, exact)
# ---------------------------------------------------------------------------
#
# Per-node triangle participation over the UNDIRECTED distinct edge set.
# The classic degree-orientation trick makes this scale: orient every
# edge from its (degree, node)-smaller endpoint to the larger, so each
# triangle is discovered exactly once from its smallest corner and the
# wedge mass is bounded by sum(out_deg^2) = O(m^1.5) regardless of hub
# skew — no cap needed, unlike co_mention's obj_cap. Dataflow: distinct
# canonical edges -> degree table -> two tagged-union bucket joins to
# attach endpoint degrees -> orient -> per-src wedge emission -> wedge
# vs edge bucket join -> per-corner count. Every stage is a bucketed
# exchange with vectorized Arrow/numpy kernels; inter-stage state is
# edge- or wedge-mass Datasets, never driver memory.


def _pair_bucket(a, b) -> pa.Array:
    from .bucketing import hash_bucket
    return pa.array(hash_bucket([_str_hashes(a), _str_hashes(b)],
                                N_GRAPH_BUCKETS))


def _tri_canon_partial(batch: pa.Table) -> pa.Table:
    """Per-block: canonical (min, max) endpoints, self-loops dropped,
    block-local distinct, bucketed by the ordered pair hash."""
    s = batch.column("subj").cast(pa.string()).combine_chunks()
    o = batch.column("obj").cast(pa.string()).combine_chunks()
    m = pc.less(s, o)
    t = pa.table({"a": pc.if_else(m, s, o), "b": pc.if_else(m, o, s)})
    t = t.filter(pc.not_equal(t.column("a"), t.column("b")))
    g = t.group_by(["a", "b"]).aggregate([])
    return g.append_column("bucket", _pair_bucket(g.column("a"),
                                                  g.column("b")))


def _tri_distinct_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["a", "b"]).aggregate([])
    return g.append_column("bucket", _pair_bucket(g.column("a"),
                                                  g.column("b")))


def _tri_deg_partial(batch: pa.Table) -> pa.Table:
    ends = pa.table({"node": pa.concat_arrays([
        batch.column("a").combine_chunks(),
        batch.column("b").combine_chunks()])})
    g = ends.group_by(["node"]).aggregate([([], "count_all")])
    g = g.rename_columns(["node", "deg"])
    return pa.table({
        "node": g.column("node"),
        "deg": g.column("deg").cast(pa.int64()),
        "bucket": _str_bucket(g.column("node")),
    })


def _tri_deg_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["node"]).aggregate([("deg", "sum")])
    g = g.rename_columns(["node", "deg"])
    return g.append_column("bucket", _str_bucket(g.column("node")))


def _tri_orient_bucket(group: pa.Table) -> pa.Table:
    """Second degree join + orientation: src = (deg, node)-smaller
    endpoint; carries dst_deg so wedge pairs can be ordered without a
    third join. Re-buckets by hash(src)."""
    is_deg = pc.is_valid(group.column("deg"))
    degs = pa.table({"key": group.filter(is_deg).column("key"),
                     "deg_b": group.filter(is_deg).column("deg")})
    edges = group.filter(pc.invert(is_deg)).drop_columns(["deg", "bucket"])
    j = edges.join(degs, keys="key", join_type="inner")
    a, b = j.column("a").combine_chunks(), j.column("key").combine_chunks()
    da = j.column("deg_a").combine_chunks()
    db = j.column("deg_b").combine_chunks()
    fwd = pc.or_(pc.less(da, db),
                 pc.and_(pc.equal(da, db), pc.less(a, b)))
    src = pc.if_else(fwd, a, b)
    return pa.table({
        "src": src,
        "dst": pc.if_else(fwd, b, a),
        "dst_deg": pc.if_else(fwd, db, da),
        "bucket": _str_bucket(src),
    })


_WEDGE_SCHEMA = pa.schema([
    ("v", pa.string()), ("w", pa.string()), ("u", pa.string()),
    ("bucket", pa.int32()),
])


def _tri_wedge_bucket(group: pa.Table) -> pa.Table:
    """One src bucket of oriented edges: all out-neighbor pairs (v, w)
    with (deg_v, v) < (deg_w, w) — the orientation order, so the closing
    edge (if any) is exactly v -> w. Emits (v, w, u=src corner)."""
    from .bucketing import segment_pair_indices
    g = group.sort_by([("src", "ascending"), ("dst_deg", "ascending"),
                       ("dst", "ascending")])
    src = np.asarray(g.column("src").to_pylist(), dtype=object)
    dst = np.asarray(g.column("dst").to_pylist(), dtype=object)
    ia, ib = segment_pair_indices([src])
    if len(ia) == 0:
        return _WEDGE_SCHEMA.empty_table()
    v, w = dst[ia], dst[ib]
    va = pa.array(list(v), pa.string())
    wa = pa.array(list(w), pa.string())
    return pa.table({
        "v": va, "w": wa,
        "u": pa.array(list(src[ia]), pa.string()),
        "bucket": _pair_bucket(
            pa.chunked_array([va]), pa.chunked_array([wa])),
    })


def _tri_match_bucket(group: pa.Table) -> pa.Table:
    """One (v, w) pair bucket of wedge rows (u set) + edge rows
    (u null): wedges whose pair closes are triangles; emit one count
    row per corner, bucketed by node for the final sum."""
    is_edge = pc.invert(pc.is_valid(group.column("u")))
    closers = group.filter(is_edge).select(["v", "w"]) \
        .group_by(["v", "w"]).aggregate([])
    wedges = group.filter(pc.invert(is_edge)).select(["v", "w", "u"])
    tri = wedges.join(closers, keys=["v", "w"], join_type="inner")
    node = pa.concat_arrays([tri.column("u").combine_chunks(),
                             tri.column("v").combine_chunks(),
                             tri.column("w").combine_chunks()])
    return pa.table({
        "node": node,
        "n": pa.array(np.ones(len(node), np.int64)),
        "bucket": _str_bucket(pa.chunked_array([node])),
    })


def _tri_final_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["node"]).aggregate([("n", "sum")])
    return g.rename_columns(["node", "n_triangles"])


def _simple_graph(edges_ds):
    """Distinct canonical (a < b) edge set and its degree table, both
    materialized with a consistent ``bucket`` column — the base every
    undirected analytic (triangles, clustering, neighbor Jaccard)
    shares."""
    canon = edges_ds.map_batches(_tri_canon_partial,
                                 batch_format="pyarrow", batch_size=None)
    e = bucket_groupby(canon, _tri_distinct_bucket).materialize()
    dp = e.map_batches(_tri_deg_partial, batch_format="pyarrow",
                       batch_size=None)
    deg = bucket_groupby(dp, _tri_deg_bucket).materialize()
    return e, deg


def _oriented_edges(e, deg):
    """Degree-orient a materialized canonical edge set: two tagged-union
    bucket joins attach endpoint degrees, then src = (deg, node)-smaller
    endpoint. Returns the materialized oriented Dataset
    (src, dst, dst_deg, bucket) — shared by triangle counting and the
    k-truss support rounds."""

    def deg_as_join_row(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch.column("node"),
            "a": pa.nulls(n, pa.string()),
            "deg_a": pa.nulls(n, pa.int64()),
            "deg": batch.column("deg"),
            "bucket": batch.column("bucket"),
        })

    def edge_keyed_a(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch.column("a"),
            "a": batch.column("b"),          # the other endpoint rides
            "deg_a": pa.nulls(n, pa.int64()),
            "deg": pa.nulls(n, pa.int64()),
            "bucket": _str_bucket(batch.column("a")),
        })

    mixed1 = e.map_batches(edge_keyed_a, batch_format="pyarrow") \
        .union(deg.map_batches(deg_as_join_row, batch_format="pyarrow"))

    def join_a_bucket(group: pa.Table) -> pa.Table:
        """Attach deg of endpoint min -> rows keyed by the OTHER
        endpoint for the second join."""
        is_deg = pc.is_valid(group.column("deg"))
        degs = pa.table({"key": group.filter(is_deg).column("key"),
                         "dg": group.filter(is_deg).column("deg")})
        edges = group.filter(pc.invert(is_deg)) \
            .select(["key", "a"]).rename_columns(["key", "other"])
        j = edges.join(degs, keys="key", join_type="inner")
        return pa.table({
            "key": j.column("other"),        # now keyed by endpoint b
            "a": j.column("key"),            # original a rides along
            "deg_a": j.column("dg"),
            "deg": pa.nulls(j.num_rows, pa.int64()),
            "bucket": _str_bucket(j.column("other")),
        })

    keyed_b = bucket_groupby(mixed1, join_a_bucket)
    mixed2 = keyed_b.union(
        deg.map_batches(deg_as_join_row, batch_format="pyarrow"))
    return bucket_groupby(mixed2, _tri_orient_bucket).materialize()


def _triangle_core(edges_ds):
    """Shared pipeline: returns (deg_ds, tri_ds) — the simple-graph
    degree table and the per-node triangle counts, both keyed by node
    with a consistent ``bucket`` column for downstream joins."""
    e, deg = _simple_graph(edges_ds)
    oriented = _oriented_edges(e, deg)

    wedges = bucket_groupby(oriented, _tri_wedge_bucket)

    def edge_as_pair_row(batch: pa.Table) -> pa.Table:
        return pa.table({
            "v": batch.column("src"),
            "w": batch.column("dst"),
            "u": pa.nulls(batch.num_rows, pa.string()),
            "bucket": _pair_bucket(batch.column("src"),
                                   batch.column("dst")),
        })

    mixed3 = wedges.union(
        oriented.map_batches(edge_as_pair_row, batch_format="pyarrow"))
    corners = bucket_groupby(mixed3, _tri_match_bucket)
    return deg, bucket_groupby(corners, _tri_final_bucket)


def triangle_counts(edges_ds):
    """Per-node triangle participation counts over the undirected
    distinct (subj, obj) edge set: (node, n_triangles); nodes in no
    triangle are absent. Exact at any skew — degree orientation bounds
    wedge mass at O(m^1.5) with no hub cap."""
    return _triangle_core(edges_ds)[1]


# ---------------------------------------------------------------------------
# k-truss (bounded-round edge peel)
# ---------------------------------------------------------------------------
#
# The k-truss of a graph is the maximal subgraph where every edge sits
# in >= k-2 triangles OF THE SUBGRAPH — the standard cohesive-subgraph
# / community-core primitive one notch stronger than k-core. Exact
# trussness needs peeling to a fixpoint; this operator runs a FIXED
# number of synchronous peel rounds (exact once converged — on the KG
# fixtures 3 rounds converge; `rounds` is the knob), so the unrolled
# DuckDB twin is bit-exact by construction. Each round recomputes
# per-edge triangle support with the same degree-oriented wedge
# machinery as triangle_counts (wedge mass O(m^1.5), no hub cap),
# emitting the 3 edges of each triangle instead of the 3 corners.
# Inter-round state is the surviving edge Dataset — never the driver.


def _truss_match_bucket(group: pa.Table) -> pa.Table:
    """One (v, w) pair bucket of wedge rows (u set) + edge rows
    (u null): each closed wedge is a triangle; emit its 3 edges as
    canonical (min, max) pairs for the per-edge support sum."""
    is_edge = pc.invert(pc.is_valid(group.column("u")))
    closers = group.filter(is_edge).select(["v", "w"]) \
        .group_by(["v", "w"]).aggregate([])
    wedges = group.filter(pc.invert(is_edge)).select(["v", "w", "u"])
    tri = wedges.join(closers, keys=["v", "w"], join_type="inner")
    u = tri.column("u").combine_chunks()
    v = tri.column("v").combine_chunks()
    w = tri.column("w").combine_chunks()
    x = pa.concat_arrays([u, u, v])
    y = pa.concat_arrays([v, w, w])
    lt = pc.less(x, y)
    a = pc.if_else(lt, x, y)
    b = pc.if_else(lt, y, x)
    return pa.table({
        "a": a, "b": b,
        "n": pa.array(np.ones(len(a), np.int64)),
        "bucket": _pair_bucket(pa.chunked_array([a]),
                               pa.chunked_array([b])),
    })


def _truss_reduce_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["a", "b"]).aggregate([("n", "sum")])
    g = g.rename_columns(["a", "b", "support"])
    return g.append_column("bucket", _pair_bucket(g.column("a"),
                                                  g.column("b")))


def _edge_support(e, deg):
    """Per-edge triangle support over a materialized canonical edge set:
    (a, b, support, bucket); zero-support edges are absent."""
    oriented = _oriented_edges(e, deg)
    wedges = bucket_groupby(oriented, _tri_wedge_bucket)

    def edge_as_pair_row(batch: pa.Table) -> pa.Table:
        return pa.table({
            "v": batch.column("src"),
            "w": batch.column("dst"),
            "u": pa.nulls(batch.num_rows, pa.string()),
            "bucket": _pair_bucket(batch.column("src"),
                                   batch.column("dst")),
        })

    mixed = wedges.union(
        oriented.map_batches(edge_as_pair_row, batch_format="pyarrow"))
    sides = bucket_groupby(mixed, _truss_match_bucket)
    return bucket_groupby(sides, _truss_reduce_bucket)


def ktruss(edges_ds, k: int = 4, rounds: int = 3):
    """Bounded-round k-truss peel (k >= 3, rounds >= 1) over the
    undirected distinct (subj, obj) edge set: (src, dst, support) for the
    canonical edges surviving ``rounds`` synchronous peels, with the
    support that qualified them in the final round."""
    if k < 3 or rounds < 1:
        raise ValueError(f"ktruss needs k >= 3 and rounds >= 1, "
                         f"got k={k}, rounds={rounds}")
    thr = pa.scalar(k - 2, pa.int64())

    def keep_edges(batch: pa.Table) -> pa.Table:
        kept = batch.filter(pc.greater_equal(batch.column("support"), thr))
        return kept.select(["a", "b", "bucket"])

    e, deg = _simple_graph(edges_ds)
    sup = _edge_support(e, deg).materialize()
    for _ in range(rounds - 1):
        # the peeled edge set and its degrees feed only the next round
        e = sup.map_batches(keep_edges, batch_format="pyarrow") \
            .materialize()
        dp = e.map_batches(_tri_deg_partial, batch_format="pyarrow",
                           batch_size=None)
        deg = bucket_groupby(dp, _tri_deg_bucket).materialize()
        sup = _edge_support(e, deg).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        kept = batch.filter(
            pc.greater_equal(batch.column("support"), thr))
        return pa.table({"src": kept.column("a"),
                         "dst": kept.column("b"),
                         "support": kept.column("support")})

    return sup.map_batches(finish, batch_format="pyarrow")


def ktruss_local(edges: list[tuple[str, str]], k: int = 4,
                 rounds: int = 3) -> dict[tuple[str, str], int]:
    """Sequential peel oracle for tests: canonical edge -> final-round
    support for the surviving edges."""
    cur = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    sup: dict[tuple[str, str], int] = {}
    for _ in range(rounds):
        adj: dict[str, set] = {}
        for a, b in cur:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        sup = {(a, b): len(adj[a] & adj[b]) for a, b in cur}
        cur = {e for e, s in sup.items() if s >= k - 2}
    return {e: s for e, s in sup.items() if s >= k - 2}


def ktruss_sql(triples_glob: str, k: int = 4, rounds: int = 3) -> str:
    """Unrolled DuckDB oracle for :func:`ktruss`, bit-exact vs the
    engine. Support counts triangles over low->high (degree, node)
    oriented wedges, so each triangle is found once from its smallest
    corner and the wedge mass stays O(m^1.5) whatever the hub skew
    (joining both endpoints' full adjacency does not). Each peel round is
    a MATERIALIZED triangle / support / survivor CTE triple, so DuckDB
    never re-expands the chain."""
    sql = [_oriented_cte(triples_glob)]
    prev = "o"
    for i in range(1, rounds + 1):
        sql.append(f""",
        t{i} AS MATERIALIZED ({_tri_select(prev)}
        ), s{i} AS MATERIALIZED (
          SELECT least(x, y) AS a, greatest(x, y) AS b, count(*) AS s
          FROM (SELECT u AS x, v AS y FROM t{i}
                UNION ALL SELECT u, w FROM t{i}
                UNION ALL SELECT v, w FROM t{i})
          GROUP BY 1, 2
        )""")
        if i < rounds:
            sql.append(f""", o{i} AS MATERIALIZED (
          SELECT p.src, p.dst FROM {prev} p
          JOIN s{i} q ON q.a = least(p.src, p.dst)
                     AND q.b = greatest(p.src, p.dst)
          WHERE q.s >= {k - 2}
        )""")
            prev = f"o{i}"
    sql.append(f"""
        SELECT a AS src, b AS dst, CAST(s AS BIGINT) AS support
        FROM s{rounds} WHERE s >= {k - 2}""")
    return "".join(sql)


CC_SCALE = 1_000_000


def _cc_join_bucket(group: pa.Table) -> pa.Table:
    """One node bucket of degree rows (n_triangles null) + triangle
    rows: left join (zero-triangle nodes kept), integer coefficient
    2 * tri * 1e6 // (deg * (deg - 1)) for deg >= 2."""
    is_deg = pc.is_valid(group.column("deg"))
    degs = group.filter(is_deg).select(["node", "deg"])
    degs = degs.filter(pc.greater_equal(degs.column("deg"),
                                        pa.scalar(2, pa.int64())))
    tris = group.filter(pc.invert(is_deg)).select(["node", "n_triangles"])
    j = degs.join(tris, keys="node", join_type="left outer")
    d = j.column("deg").to_numpy(zero_copy_only=False).astype(np.int64)
    t = pc.fill_null(j.column("n_triangles"), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "node": j.column("node"),
        "degree": pa.array(d, pa.int64()),
        "n_triangles": pa.array(t, pa.int64()),
        "coeff_micro": pa.array(2 * t * CC_SCALE // (d * (d - 1)),
                                pa.int64()),
    })


def clustering_coefficients(edges_ds):
    """Local clustering coefficient per node with degree >= 2:
    (node, degree, n_triangles, coeff_micro) where coeff_micro =
    floor(2 * triangles * 1e6 / (deg * (deg - 1))) — integer-exact, so
    the oracle compares bit-for-bit. One node-keyed exchange on top of
    the shared triangle pipeline."""
    deg, tri = _triangle_core(edges_ds)

    def deg_row(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch.column("node"),
            "deg": batch.column("deg"),
            "n_triangles": pa.nulls(batch.num_rows, pa.int64()),
            "bucket": batch.column("bucket"),
        })

    def tri_row(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch.column("node"),
            "deg": pa.nulls(batch.num_rows, pa.int64()),
            "n_triangles": batch.column("n_triangles"),
            "bucket": _str_bucket(batch.column("node")),
        })

    mixed = deg.map_batches(deg_row, batch_format="pyarrow") \
        .union(tri.map_batches(tri_row, batch_format="pyarrow"))
    return bucket_groupby(mixed, _cc_join_bucket)


def triangle_counts_local(edges: list[tuple[str, str]]) -> dict[str, int]:
    """Sequential brute-force oracle for tests."""
    und = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    adj: dict[str, set] = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    counts: dict[str, int] = {}
    for a, b in und:                        # a < b by canonicalization
        for c in adj[a] & adj[b]:
            if c > b:                       # each triangle once: a < b < c
                for n in (a, b, c):
                    counts[n] = counts.get(n, 0) + 1
    return counts


def _oriented_cte(triples_glob: str) -> str:
    """Shared CTE head for the triangle-family oracles: canonical edges
    ``e0`` -> degrees ``deg`` -> edges ``o`` oriented from the
    (degree, node)-smaller endpoint, via row-value comparison."""
    return f"""
        WITH e0 AS (
          SELECT DISTINCT
                 least(CAST(subj AS VARCHAR), CAST(obj AS VARCHAR)) AS a,
                 greatest(CAST(subj AS VARCHAR), CAST(obj AS VARCHAR)) AS b
          FROM read_parquet('{triples_glob}')
          WHERE CAST(subj AS VARCHAR) <> CAST(obj AS VARCHAR)
        ), deg AS (
          SELECT n, CAST(count(*) AS BIGINT) AS d
          FROM (SELECT a AS n FROM e0 UNION ALL SELECT b FROM e0)
          GROUP BY n
        ), o AS MATERIALIZED (
          SELECT CASE WHEN (da.d, e0.a) < (db.d, e0.b)
                      THEN e0.a ELSE e0.b END AS src,
                 CASE WHEN (da.d, e0.a) < (db.d, e0.b)
                      THEN e0.b ELSE e0.a END AS dst
          FROM e0 JOIN deg da ON da.n = e0.a JOIN deg db ON db.n = e0.b
        )"""


def _tri_select(o: str) -> str:
    """Every triangle (u, v, w) of the oriented edge table ``o``, once,
    from its smallest corner u."""
    return f"""
          SELECT e1.src AS u, e1.dst AS v, e2.dst AS w
          FROM {o} e1
          JOIN {o} e2 ON e2.src = e1.src AND e1.dst <> e2.dst
          JOIN {o} e3 ON e3.src = e1.dst AND e3.dst = e2.dst"""


def _tri_cte(triples_glob: str) -> str:
    """Shared CTE body (oriented edges -> triangles -> corner rows) for
    the triangle-count oracles."""
    return _oriented_cte(triples_glob) + f""", tri AS ({_tri_select("o")}
        ), corners AS (
          SELECT u AS n FROM tri
          UNION ALL SELECT v FROM tri
          UNION ALL SELECT w FROM tri
        )"""


def triangles_sql(triples_glob: str) -> str:
    """DuckDB twin of :func:`triangle_counts` — identical canonical
    edge set, identical (degree, node) orientation via row-value
    comparison, each triangle found once from its smallest corner."""
    return _tri_cte(triples_glob) + """
        SELECT n AS node, CAST(count(*) AS BIGINT) AS n_triangles
        FROM corners GROUP BY n"""


def clustering_sql(triples_glob: str) -> str:
    """DuckDB twin of :func:`clustering_coefficients` — same triangle
    CTE, degree-joined, integer floor-division coefficient."""
    return _tri_cte(triples_glob) + f""",
        tc AS (SELECT n, CAST(count(*) AS BIGINT) AS t
               FROM corners GROUP BY n)
        SELECT deg.n AS node, CAST(deg.d AS BIGINT) AS degree,
               CAST(coalesce(tc.t, 0) AS BIGINT) AS n_triangles,
               CAST(2 * coalesce(tc.t, 0) * {CC_SCALE}
                    // (deg.d * (deg.d - 1)) AS BIGINT) AS coeff_micro
        FROM deg LEFT JOIN tc ON tc.n = deg.n
        WHERE deg.d >= 2"""


# ---------------------------------------------------------------------------
# Bounded-depth BFS reach (multi-hop neighborhood)
# ---------------------------------------------------------------------------


def _bfs_sym_partial(batch: pa.Table) -> pa.Table:
    s = batch.column("subj").cast(pa.string()).combine_chunks()
    o = batch.column("obj").cast(pa.string()).combine_chunks()
    t = pa.table({"src": pa.concat_arrays([s, o]),
                  "dst": pa.concat_arrays([o, s])})
    g = t.group_by(["src", "dst"]).aggregate([])
    return g.append_column("bucket", _str_bucket(g.column("src")))


def _bfs_sym_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["src", "dst"]).aggregate([])
    return g.append_column("bucket", _str_bucket(g.column("src")))


def _bfs_expand_bucket(depth: int):
    """One hash(src) bucket of visited rows (dst null) + edge rows:
    frontier rows (dist == depth-1) join edges to reach neighbors at
    ``depth``; visited rows pass through; bucketed min-dist reduce
    follows."""
    def fn(group: pa.Table) -> pa.Table:
        is_vis = pc.is_valid(group.column("dist"))
        vis = group.filter(is_vis)
        edges = group.filter(pc.invert(is_vis)).select(["src", "dst"])
        frontier = vis.filter(pc.equal(vis.column("dist"),
                                       pa.scalar(depth - 1, pa.int64())))
        ft = pa.table({"src": frontier.column("src")})
        j = edges.join(ft, keys="src", join_type="inner")
        node = pa.concat_arrays([vis.column("src").combine_chunks(),
                                 j.column("dst").combine_chunks()])
        dist = pa.concat_arrays([
            vis.column("dist").combine_chunks(),
            pa.array(np.full(j.num_rows, depth, np.int64))])
        return pa.table({
            "node": node, "dist": dist,
            "bucket": _str_bucket(pa.chunked_array([node])),
        })
    return fn


def _bfs_min_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["node"]).aggregate([("dist", "min")])
    g = g.rename_columns(["node", "dist"])
    return g.append_column("bucket", _str_bucket(g.column("node")))


def bfs_reach(edges_ds, seed: str | None = None, max_depth: int = 3):
    """Shortest-hop distance (<= ``max_depth``) from ``seed`` over the
    UNDIRECTED edge set: (node, dist). Default seed = lexicographically
    smallest node, computed with a per-block combiner + one-task merge
    (never a driver fold). One bucketed join + one bucketed min-reduce
    per level; inter-level state is the visited-node table."""
    sp = edges_ds.map_batches(_bfs_sym_partial, batch_format="pyarrow",
                              batch_size=None)
    edges = bucket_groupby(sp, _bfs_sym_bucket).materialize()

    if seed is None:
        def min_partial(batch: pa.Table) -> pa.Table:
            m = pc.min(batch.column("src"))
            return pa.table({"node": pa.array([m.as_py()], pa.string())})

        def min_merge(batch: pa.Table) -> pa.Table:
            return pa.table({"node": pa.array(
                [pc.min(batch.column("node")).as_py()], pa.string())})

        seed = edges.map_batches(min_partial, batch_format="pyarrow",
                                 batch_size=None) \
            .repartition(1) \
            .map_batches(min_merge, batch_format="pyarrow",
                         batch_size=None).take_all()[0]["node"]

    import ray.data
    visited = ray.data.from_arrow(pa.table({
        "node": pa.array([seed], pa.string()),
        "dist": pa.array([0], pa.int64()),
        "bucket": _str_bucket(pa.chunked_array(
            [pa.array([seed], pa.string())])),
    }))

    def vis_as_src_row(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": batch.column("node"),
            "dst": pa.nulls(batch.num_rows, pa.string()),
            "dist": batch.column("dist"),
            "bucket": batch.column("bucket"),
        })

    def edge_row(batch: pa.Table) -> pa.Table:
        return pa.table({
            "src": batch.column("src"),
            "dst": batch.column("dst"),
            "dist": pa.nulls(batch.num_rows, pa.int64()),
            "bucket": batch.column("bucket"),
        })

    for depth in range(1, max_depth + 1):
        mixed = visited.map_batches(vis_as_src_row,
                                    batch_format="pyarrow") \
            .union(edges.map_batches(edge_row, batch_format="pyarrow"))
        expanded = bucket_groupby(mixed, _bfs_expand_bucket(depth))
        visited = bucket_groupby(expanded, _bfs_min_bucket).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"),
                         "dist": batch.column("dist")})

    return visited.map_batches(finish, batch_format="pyarrow")


def bfs_reach_sql(triples_glob: str, max_depth: int = 3) -> str:
    """DuckDB twin: depth-bounded recursive CTE over the symmetric
    edge set, min-hop per node, seed = min endpoint."""
    return f"""
        WITH RECURSIVE e AS (
          SELECT DISTINCT CAST(subj AS VARCHAR) AS src,
                 CAST(obj AS VARCHAR) AS dst
          FROM read_parquet('{triples_glob}')
          UNION
          SELECT DISTINCT CAST(obj AS VARCHAR), CAST(subj AS VARCHAR)
          FROM read_parquet('{triples_glob}')
        ), r(node, d) AS (
          SELECT (SELECT min(src) FROM e), 0
          UNION
          SELECT e.dst, r.d + 1 FROM r JOIN e ON e.src = r.node
          WHERE r.d < {max_depth}
        )
        SELECT node, CAST(min(d) AS BIGINT) AS dist FROM r GROUP BY node"""


def pagerank_sql(triples_glob: str, iters: int = 3) -> str:
    """Unrolled DuckDB oracle for :func:`pagerank` — one CTE per
    iteration, all-integer arithmetic, bit-exact vs the engine."""
    sql = [f"""WITH e AS (SELECT DISTINCT CAST(subj AS VARCHAR) AS src,
                   CAST(obj AS VARCHAR) AS dst
            FROM read_parquet('{triples_glob}')),
 nodes AS (SELECT src AS node FROM e UNION SELECT dst FROM e),
 od AS (SELECT src, count(*) AS outdeg FROM e GROUP BY src),
 r0 AS (SELECT node, CAST({PR_SCALE} AS BIGINT) AS pr FROM nodes)"""]
    for i in range(1, iters + 1):
        sql.append(f""",
 r{i} AS (SELECT n.node,
          CAST({PR_BASE} + coalesce(s.c, 0) AS BIGINT) AS pr
          FROM nodes n LEFT JOIN (
            SELECT e.dst AS node,
                   sum((r.pr * {DAMP_NUM} // {DAMP_DEN}) // od.outdeg) AS c
            FROM e JOIN r{i - 1} r ON e.src = r.node
                   JOIN od ON e.src = od.src
            GROUP BY e.dst) s ON n.node = s.node)""")
    sql.append(f"\nSELECT node, pr FROM r{iters}")
    return "".join(sql)


# ---------------------------------------------------------------------------
# Deterministic random walks (node2vec/DeepWalk corpus generation)
# ---------------------------------------------------------------------------

_RW_FRONTIER_SCHEMA = pa.schema([
    ("start_node", pa.string()), ("walk", pa.int64()),
    ("node", pa.string()), ("bucket", pa.int32()),
])

_RW_MIX_SCHEMA = pa.schema([
    ("src", pa.string()), ("dst", pa.string()),
    ("start_node", pa.string()), ("walk", pa.int64()),
    ("bucket", pa.int32()),
])


def _rw_edge_partial(batch: pa.Table) -> pa.Table:
    """Per-block combiner: distinct directed (src, dst), bucketed by
    src so each walk step is a src-keyed exchange."""
    t = pa.table({"src": batch.column("subj"),
                  "dst": batch.column("obj")})
    t = t.group_by(["src", "dst"]).aggregate([])
    t = t.rename_columns(["src", "dst"])
    return t.append_column("bucket", _str_bucket(t.column("src")))


def _rw_edge_dedup(group: pa.Table) -> pa.Table:
    g = group.group_by(["src", "dst", "bucket"]).aggregate([])
    return g.rename_columns(["src", "dst", "bucket"])


def _rw_starts(n_walks: int):
    """Bucket kernel: one step-0 frontier row per (distinct src,
    walk_idx) — every node with out-degree >= 1 starts n_walks walks."""

    def kern(group: pa.Table) -> pa.Table:
        srcs = np.asarray(pc.unique(group.column("src")).to_pylist())
        srcs = np.sort(srcs)
        rep = np.repeat(srcs, n_walks)
        walks = np.tile(np.arange(n_walks, dtype=np.int64), len(srcs))
        nodes = pa.array(rep, pa.string())
        return pa.table({
            "start_node": nodes, "walk": pa.array(walks),
            "node": nodes,
            "bucket": _str_bucket(pa.chunked_array([nodes])),
        })

    return kern


def _rw_edge_row(batch: pa.Table) -> pa.Table:
    return pa.table({
        "src": batch.column("src"), "dst": batch.column("dst"),
        "start_node": pa.nulls(batch.num_rows, pa.string()),
        "walk": pa.nulls(batch.num_rows, pa.int64()),
        "bucket": batch.column("bucket"),
    })


def _rw_frontier_row(batch: pa.Table) -> pa.Table:
    return pa.table({
        "src": batch.column("node"),
        "dst": pa.nulls(batch.num_rows, pa.string()),
        "start_node": batch.column("start_node"),
        "walk": batch.column("walk"),
        "bucket": batch.column("bucket"),
    })


def _rw_step_bucket(step: int):
    """Bucket kernel for one walk step: per frontier row standing on
    node u, the next hop is u's sorted-neighbor list indexed by
    mix64([fnv1a(u), walk << 32 | step]) % outdeg(u) — the choice is a
    pure function of (node, walk, step), so any execution order (and
    the SQL twin) reproduces it bit-for-bit. Dead ends (outdeg 0)
    terminate the walk."""
    from .bucketing import fnv1a_hashes as _fnv
    from .bucketing import mix64

    def kern(group: pa.Table) -> pa.Table:
        is_edge = pc.is_valid(group.column("dst"))
        edges = group.filter(is_edge)
        fr = group.filter(pc.invert(is_edge))
        if fr.num_rows == 0 or edges.num_rows == 0:
            return _RW_FRONTIER_SCHEMA.empty_table()
        esrc = np.asarray(edges.column("src").to_pylist())
        edst = np.asarray(edges.column("dst").to_pylist())
        order = np.lexsort((edst, esrc))
        esrc, edst = esrc[order], edst[order]
        fsrc = np.asarray(fr.column("src").to_pylist())
        lo = np.searchsorted(esrc, fsrc, side="left")
        hi = np.searchsorted(esrc, fsrc, side="right")
        deg = (hi - lo).astype(np.uint64)
        alive = deg > 0
        if not alive.any():
            return _RW_FRONTIER_SCHEMA.empty_table()
        lo, deg, fsrc = lo[alive], deg[alive], fsrc[alive]
        walks = fr.column("walk").to_numpy(zero_copy_only=False)[alive]
        starts = np.asarray(
            fr.column("start_node").to_pylist())[alive]
        a2 = (walks.astype(np.uint64) * np.uint64(1 << 32)
              + np.uint64(step))
        r = mix64([_fnv(list(fsrc)), a2])
        nxt = pa.array(edst[lo + (r % deg).astype(np.int64)],
                       pa.string())
        return pa.table({
            "start_node": pa.array(starts, pa.string()),
            "walk": pa.array(walks.astype(np.int64)),
            "node": nxt,
            "bucket": _str_bucket(pa.chunked_array([nxt])),
        })

    return kern


def _rw_stamp(step: int):
    def fn(batch: pa.Table) -> pa.Table:
        return pa.table({
            "start_node": batch.column("start_node"),
            "walk": batch.column("walk"),
            "step": pa.array(
                np.full(batch.num_rows, step, dtype=np.int64)),
            "node": batch.column("node"),
        })

    return fn


def random_walks(edges_ds, n_walks: int = 2, walk_len: int = 3):
    """Deterministic random-walk corpus over the directed KG edge set
    (node2vec/DeepWalk training input): ``n_walks`` walks of up to
    ``walk_len`` hops from every node with out-degree >= 1, emitted as
    (start_node, walk, step, node) rows (step 0 = the start itself; a
    dead end stops the walk early). Each hop's pseudo-randomness is
    mix64([fnv1a(current), walk << 32 | step]) over the current node's
    dst-sorted distinct neighbors — no RNG state, so the walk corpus
    is reproducible on any cluster shape and bit-exact vs the
    :func:`random_walks_sql` DuckDB twin.

    Shape: one src-keyed exchange to dedup/partition edges, then ONE
    bucketed exchange per hop (the BFS/pagerank iteration class) whose
    exchanged mass is the frontier (nodes x n_walks rows, shrinking
    with dead ends) plus the edge table; inter-level state is the
    frontier, never the walks-so-far (steps are emitted as they
    happen, so walk payload never crosses the wire twice)."""
    sp = edges_ds.map_batches(_rw_edge_partial, batch_format="pyarrow",
                              batch_size=None)
    edges = bucket_groupby(sp, _rw_edge_dedup).materialize()
    frontier = bucket_groupby(
        edges, _rw_starts(n_walks), pre_repartition=False).materialize()
    levels = [frontier.map_batches(_rw_stamp(0),
                                   batch_format="pyarrow")]
    for k in range(walk_len):
        mixed = edges.map_batches(
            _rw_edge_row, batch_format="pyarrow").union(
            frontier.map_batches(_rw_frontier_row,
                                 batch_format="pyarrow"))
        frontier = bucket_groupby(
            mixed, _rw_step_bucket(k)).materialize()
        levels.append(frontier.map_batches(_rw_stamp(k + 1),
                                           batch_format="pyarrow"))
    out = levels[0]
    for lv in levels[1:]:
        out = out.union(lv)
    return out


def random_walks_sql(triples_glob: str, n_walks: int = 2,
                     walk_len: int = 3) -> str:
    """Unrolled DuckDB oracle for :func:`random_walks`: the identical
    fnv1a + two-absorb mix64 chain per hop (ops.bucketing single
    sources), neighbor rank via row_number over dst order."""
    from .bucketing import (SPLITMIX_C1, SPLITMIX_C2, SPLITMIX_PHI,
                            SQL_M64, sql_fnv1a, sql_mulmod64)

    def plus1(expr: str) -> str:
        return (f"CAST((CAST({expr} AS HUGEINT) + 1) % {SQL_M64} "
                "AS UBIGINT)")

    sql = [f"""WITH e AS (
  SELECT DISTINCT CAST(subj AS VARCHAR) AS src,
         CAST(obj AS VARCHAR) AS dst
  FROM read_parquet('{triples_glob}')),
nbr AS (
  SELECT src, dst,
         row_number() OVER (PARTITION BY src ORDER BY dst) - 1 AS idx,
         count(*) OVER (PARTITION BY src) AS deg
  FROM e),
w0 AS (
  SELECT s.src AS start_node, CAST(g.range AS BIGINT) AS walk,
         s.src AS node
  FROM (SELECT DISTINCT src FROM e) s, range(0, {n_walks}) g)"""]
    for k in range(walk_len):
        sql.append(f""",
h{k}a AS (SELECT start_node, walk, node,
  {plus1(sql_mulmod64(sql_fnv1a('node'), SPLITMIX_PHI))} AS h
  FROM w{k}),
h{k}b AS (SELECT start_node, walk, node,
  xor(h, CAST(walk AS UBIGINT) * 4294967296
         + CAST({k} AS UBIGINT)) AS h FROM h{k}a),
h{k}c AS (SELECT start_node, walk, node,
  {plus1(sql_mulmod64('h', SPLITMIX_PHI))} AS h FROM h{k}b),
h{k}d AS (SELECT start_node, walk, node, xor(h, h >> 30) AS h
  FROM h{k}c),
h{k}e AS (SELECT start_node, walk, node,
  {sql_mulmod64('h', SPLITMIX_C1)} AS h FROM h{k}d),
h{k}f AS (SELECT start_node, walk, node, xor(h, h >> 27) AS h
  FROM h{k}e),
h{k}g AS (SELECT start_node, walk, node,
  {sql_mulmod64('h', SPLITMIX_C2)} AS h FROM h{k}f),
h{k}h AS (SELECT start_node, walk, node, xor(h, h >> 31) AS h
  FROM h{k}g),
w{k + 1} AS (
  SELECT f.start_node, f.walk, n.dst AS node
  FROM h{k}h f JOIN nbr n ON n.src = f.node
   AND CAST(f.h % CAST(n.deg AS UBIGINT) AS BIGINT) = n.idx)""")
    parts = [f"SELECT start_node, walk, CAST({k} AS BIGINT) AS step, "
             f"node FROM w{k}" for k in range(walk_len + 1)]
    sql.append("\n" + "\nUNION ALL\n".join(parts))
    return "".join(sql)


# ---------------------------------------------------------------------------
# Neighbor Jaccard (link-prediction similarity)
# ---------------------------------------------------------------------------
# For every node pair sharing >= NJ_MIN_COMMON neighbors in the simple
# undirected graph: |N(a) & N(b)| and the Jaccard coefficient
# floor(1e6 * common / (deg_a + deg_b - common)) — the classic
# common-neighbors / Jaccard link-prediction and entity-blocking score.
# Integer-exact, so the DuckDB twin compares bit-for-bit.
#
# Dataflow (all bucketed exchanges, wedge-mass inter-stage state):
# distinct canonical edges + degree table (_simple_graph, shared with
# triangles) -> per-CENTER neighbor lists (one node-keyed exchange);
# centers with deg > hub_cap are excluded from common-neighbor
# generation IN BOTH the engine and the SQL twin (the co_mention
# obj_cap semantics — a hub's wedge mass is deg^2 and its shared-hub
# signal is near-zero information) -> pair-keyed count exchange ->
# two tagged-union node-keyed exchanges attach deg_a / deg_b (the
# _triangle_core join idiom; no broadcast of the node-sized degree
# table).

NJ_HUB_CAP = 32
NJ_MIN_COMMON = 2
NJ_SCALE = 1_000_000

_NJ_MIX_SCHEMA = pa.schema([
    ("key", pa.string()), ("other", pa.string()),
    ("n_common", pa.int64()), ("deg_a", pa.int64()),
    ("deg", pa.int64()), ("bucket", pa.int32()),
])

_NJ_PAIR_SCHEMA = pa.schema([
    ("na", pa.string()), ("nb", pa.string()), ("bucket", pa.int32()),
])


def _nj_center_partial(batch: pa.Table) -> pa.Table:
    """Route each distinct edge in both directions, keyed by center."""
    a = batch.column("a").combine_chunks()
    b = batch.column("b").combine_chunks()
    c = pa.concat_arrays([a, b])
    nbr = pa.concat_arrays([b, a])
    return pa.table({"c": c, "nbr": nbr,
                     "bucket": _str_bucket(pa.chunked_array([c]))})


def _nj_wedges_bucket(hub_cap: int):
    def fn(group: pa.Table) -> pa.Table:
        from .bucketing import segment_pair_indices
        g = group.sort_by([("c", "ascending"), ("nbr", "ascending")])
        c = np.asarray(g.column("c").to_pylist(), dtype=object)
        if len(c) == 0:
            return _NJ_PAIR_SCHEMA.empty_table()
        # segment sizes = center degree (edges are globally distinct);
        # drop hub centers BEFORE pair generation
        change = np.concatenate([[True], c[1:] != c[:-1]])
        starts = np.nonzero(change)[0]
        sizes = np.diff(np.append(starts, len(c)))
        keep = np.repeat(sizes <= hub_cap, sizes)
        if not keep.any():
            return _NJ_PAIR_SCHEMA.empty_table()
        seg = np.cumsum(change).astype(np.int64)[keep]
        nbr = np.asarray(g.column("nbr").to_pylist(), dtype=object)[keep]
        ia, ib = segment_pair_indices([seg])
        if len(ia) == 0:
            return _NJ_PAIR_SCHEMA.empty_table()
        na = pa.array(list(nbr[ia]), pa.string())   # nbr-sorted: na < nb
        nb_ = pa.array(list(nbr[ib]), pa.string())
        return pa.table({
            "na": na, "nb": nb_,
            "bucket": _pair_bucket(pa.chunked_array([na]),
                                   pa.chunked_array([nb_])),
        })
    return fn


def _nj_common_bucket(min_common: int):
    def fn(group: pa.Table) -> pa.Table:
        g = group.select(["na", "nb"]).group_by(["na", "nb"]) \
            .aggregate([([], "count_all")]) \
            .rename_columns(["na", "nb", "n_common"])
        g = g.filter(pc.greater_equal(
            g.column("n_common").cast(pa.int64()),
            pa.scalar(min_common, pa.int64())))
        n = g.num_rows
        return pa.table({
            "key": g.column("na"),
            "other": g.column("nb"),
            "n_common": g.column("n_common").cast(pa.int64()),
            "deg_a": pa.nulls(n, pa.int64()),
            "deg": pa.nulls(n, pa.int64()),
            "bucket": _str_bucket(g.column("na")),
        })
    return fn


def _nj_deg_row(batch: pa.Table) -> pa.Table:
    n = batch.num_rows
    return pa.table({
        "key": batch.column("node"),
        "other": pa.nulls(n, pa.string()),
        "n_common": pa.nulls(n, pa.int64()),
        "deg_a": pa.nulls(n, pa.int64()),
        "deg": batch.column("deg").cast(pa.int64()),
        "bucket": batch.column("bucket"),
    })


def _nj_attach_a_bucket(group: pa.Table) -> pa.Table:
    """Attach deg of node_a, rekey by node_b for the second join."""
    is_deg = pc.is_valid(group.column("deg"))
    degs = pa.table({"key": group.filter(is_deg).column("key"),
                     "dg": group.filter(is_deg).column("deg")})
    pairs = group.filter(pc.invert(is_deg)) \
        .select(["key", "other", "n_common"])
    j = pairs.join(degs, keys="key", join_type="inner")
    return pa.table({
        "key": j.column("other"),
        "other": j.column("key"),
        "n_common": j.column("n_common"),
        "deg_a": j.column("dg"),
        "deg": pa.nulls(j.num_rows, pa.int64()),
        "bucket": _str_bucket(j.column("other")),
    })


def _nj_final_bucket(group: pa.Table) -> pa.Table:
    is_deg = pc.is_valid(group.column("deg"))
    degs = pa.table({"key": group.filter(is_deg).column("key"),
                     "dg": group.filter(is_deg).column("deg")})
    pairs = group.filter(pc.invert(is_deg)) \
        .select(["key", "other", "n_common", "deg_a"])
    j = pairs.join(degs, keys="key", join_type="inner")
    com = j.column("n_common").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    da = j.column("deg_a").to_numpy(zero_copy_only=False) \
        .astype(np.int64)
    db = j.column("dg").to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.table({
        "node_a": j.column("other"),
        "node_b": j.column("key"),
        "n_common": pa.array(com, pa.int64()),
        "jaccard_ppm": pa.array(NJ_SCALE * com // (da + db - com),
                                pa.int64()),
    })


def neighbor_jaccard(edges_ds, hub_cap: int = NJ_HUB_CAP,
                     min_common: int = NJ_MIN_COMMON):
    """(node_a, node_b, n_common, jaccard_ppm) for every node pair
    with >= min_common shared neighbors through non-hub centers; see
    the section comment for the exact contract and hub-cap
    semantics."""
    e, deg = _simple_graph(edges_ds)
    centers = e.map_batches(_nj_center_partial, batch_format="pyarrow",
                            batch_size=None)
    wedges = bucket_groupby(centers, _nj_wedges_bucket(hub_cap))
    common = bucket_groupby(wedges, _nj_common_bucket(min_common),
                            pre_repartition=False)
    mixed1 = common.union(
        deg.map_batches(_nj_deg_row, batch_format="pyarrow"))
    keyed_b = bucket_groupby(mixed1, _nj_attach_a_bucket)
    mixed2 = keyed_b.union(
        deg.map_batches(_nj_deg_row, batch_format="pyarrow"))
    return bucket_groupby(mixed2, _nj_final_bucket)


def neighbor_jaccard_sql(gold_path: str, hub_cap: int = NJ_HUB_CAP,
                         min_common: int = NJ_MIN_COMMON) -> str:
    """DuckDB twin over the persisted gold triples: identical simple
    graph, hub cap, and integer Jaccard arithmetic."""
    return f"""
        WITH so AS (
          SELECT DISTINCT
            least(CAST(subj AS VARCHAR), CAST(obj AS VARCHAR)) AS a,
            greatest(CAST(subj AS VARCHAR), CAST(obj AS VARCHAR)) AS b
          FROM read_parquet('{gold_path}')
          WHERE CAST(subj AS VARCHAR) <> CAST(obj AS VARCHAR)
        ), adj AS (
          SELECT a AS c, b AS n FROM so
          UNION ALL SELECT b, a FROM so
        ), deg AS (
          SELECT c AS node, CAST(count(*) AS BIGINT) AS deg
          FROM adj GROUP BY c
        ), ok AS (
          SELECT node FROM deg WHERE deg <= {hub_cap}
        ), pairs AS (
          SELECT x.n AS na, y.n AS nb
          FROM adj x JOIN adj y ON x.c = y.c AND x.n < y.n
          JOIN ok ON x.c = ok.node
        ), com AS (
          SELECT na, nb, CAST(count(*) AS BIGINT) AS n_common
          FROM pairs GROUP BY na, nb
          HAVING count(*) >= {min_common}
        )
        SELECT com.na AS node_a, com.nb AS node_b, com.n_common,
               CAST({NJ_SCALE} * com.n_common //
                    (da.deg + db.deg - com.n_common) AS BIGINT)
                   AS jaccard_ppm
        FROM com
        JOIN deg da ON da.node = com.na
        JOIN deg db ON db.node = com.nb"""


# ---------------------------------------------------------------------------
# Predicate bigrams (2-hop path pattern counts — KG schema mining)
# ---------------------------------------------------------------------------
# For every ordered predicate pair (p_in, p_out): the number of 2-hop
# directed paths s -p_in-> m -p_out-> o through any middle node — the
# schema/motif statistic behind relation-composition mining ("targets
# followed by patches", "discovers followed by fixes") and join-order
# stats for KG query planning. Round-trip paths (s == o) count, as in
# the plain relational self-join definition the twin uses.
#
# Skew-proof by construction: per middle node the engine never expands
# paths — it counts distinct-in-pred × distinct-out-pred products, so
# per-node work is O(|pred vocab|²) regardless of degree (a hub with
# 10^6 in/out edges contributes the same handful of partial rows).
# ONE node-keyed exchange over edge mass + one pred-pair-keyed exchange
# over vocabulary-sized partials.

_PB_PART_SCHEMA = pa.schema([
    ("m", pa.string()), ("pred", pa.string()),
    ("c_in", pa.int64()), ("c_out", pa.int64()), ("bucket", pa.int32()),
])


def _pb_partial(batch: pa.Table) -> pa.Table:
    """Per-block in/out pred-count halves keyed by the middle node.
    Input must already be GLOBALLY distinct triples (pred_bigrams runs
    the distinct exchange first), so no per-block re-distinct here."""
    t = batch.select(["subj", "pred", "obj"])
    inc = t.group_by(["obj", "pred"]).aggregate([([], "count_all")]) \
        .rename_columns(["m", "pred", "c_in"])
    out = t.group_by(["subj", "pred"]).aggregate([([], "count_all")]) \
        .rename_columns(["m", "pred", "c_out"])
    z_in = pa.nulls(out.num_rows, pa.int64())
    z_out = pa.nulls(inc.num_rows, pa.int64())
    merged = pa.table({
        "m": pa.concat_arrays([inc.column("m").combine_chunks(),
                               out.column("m").combine_chunks()]),
        "pred": pa.concat_arrays([inc.column("pred").combine_chunks(),
                                  out.column("pred").combine_chunks()]),
        "c_in": pa.concat_arrays([
            inc.column("c_in").cast(pa.int64()).combine_chunks(), z_in]),
        "c_out": pa.concat_arrays([
            z_out, out.column("c_out").cast(pa.int64()).combine_chunks()]),
    })
    return merged.append_column("bucket", _str_bucket(merged.column("m")))


def _pb_paths_bucket(group: pa.Table) -> pa.Table:
    """One node bucket: per-m final in/out pred counts (edges may
    repeat across blocks — triples are re-distinct-counted globally by
    summing block-distinct halves ONLY when upstream is globally
    distinct; see pred_bigrams), then the per-m cross product of pred
    count vectors, emitted as (p1, p2, n) partials."""
    g = group.group_by(["m", "pred"]) \
        .aggregate([("c_in", "sum"), ("c_out", "sum")])
    m = np.asarray(g.column("m").to_pylist(), dtype=object)
    order = np.argsort(m, kind="stable")
    m = m[order]
    pred = np.asarray(g.column("pred").to_pylist(), dtype=object)[order]
    ci = pc.fill_null(g.column("c_in_sum"), 0).to_numpy(
        zero_copy_only=False).astype(np.int64)[order]
    co = pc.fill_null(g.column("c_out_sum"), 0).to_numpy(
        zero_copy_only=False).astype(np.int64)[order]
    if len(m) == 0:
        return pa.table({"p1": pa.array([], pa.string()),
                         "p2": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64()),
                         "bucket": pa.array([], pa.int32())})
    from .bucketing import segment_pair_indices
    # all ordered (row_i, row_j) pairs within one m, including i == j
    change = np.concatenate([[True], m[1:] != m[:-1]])
    seg = np.cumsum(change).astype(np.int64)
    ia, ib = segment_pair_indices([seg])
    ia, ib = (np.concatenate([ia, ib, np.arange(len(m))]),
              np.concatenate([ib, ia, np.arange(len(m))]))
    n = ci[ia] * co[ib]
    live = n > 0
    p1 = pred[ia[live]]
    p2 = pred[ib[live]]
    t = pa.table({"p1": pa.array(list(p1), pa.string()),
                  "p2": pa.array(list(p2), pa.string()),
                  "n": pa.array(n[live], pa.int64())}) \
        .group_by(["p1", "p2"]).aggregate([("n", "sum")]) \
        .rename_columns(["p1", "p2", "n"])
    return t.append_column("bucket", _pair_bucket(t.column("p1"),
                                                  t.column("p2")))


def _pb_final_bucket(group: pa.Table) -> pa.Table:
    g = group.select(["p1", "p2", "n"]).group_by(["p1", "p2"]) \
        .aggregate([("n", "sum")])
    return g.rename_columns(["p1", "p2", "n_paths"])


def pred_bigrams(edges_ds):
    """(p1, p2, n_paths): directed 2-hop path pattern counts over the
    distinct-triple graph. Requires globally distinct triples before
    the count halves, so the first exchange distincts (subj, pred,
    obj) exactly like the co_mention family."""
    t = edges_ds.map_batches(_pb_distinct_partial,
                             batch_format="pyarrow", batch_size=None)
    triples = bucket_groupby(t, _pb_distinct_bucket)
    halves = triples.map_batches(_pb_partial, batch_format="pyarrow",
                                 batch_size=None)
    paths = bucket_groupby(halves, _pb_paths_bucket)
    return bucket_groupby(paths, _pb_final_bucket,
                          pre_repartition=False)


def _pb_distinct_partial(batch: pa.Table) -> pa.Table:
    from .bucketing import hash_bucket
    t = pa.table({"subj": batch.column("subj").cast(pa.string()),
                  "pred": batch.column("pred").cast(pa.string()),
                  "obj": batch.column("obj").cast(pa.string())})
    g = t.group_by(["subj", "pred", "obj"]).aggregate([])
    # order-sensitive mixer, NOT xor: xor would collapse symmetric
    # triples (a,p,b)/(b,p,a) into one bucket and cancel self-loops
    # down to hash(pred), defeating the 64-way skew spread
    b = hash_bucket([_str_hashes(g.column(c))
                     for c in ("subj", "pred", "obj")], N_GRAPH_BUCKETS)
    return g.append_column("bucket", pa.array(b))


def _pb_distinct_bucket(group: pa.Table) -> pa.Table:
    return group.group_by(["subj", "pred", "obj"]).aggregate([])


def pred_bigrams_sql(gold_path: str) -> str:
    """DuckDB twin: distinct triples, relational 2-hop self-join."""
    return f"""
        WITH e AS (
          SELECT DISTINCT CAST(subj AS VARCHAR) AS subj,
                          CAST(pred AS VARCHAR) AS pred,
                          CAST(obj AS VARCHAR) AS obj
          FROM read_parquet('{gold_path}')
        )
        SELECT a.pred AS p1, b.pred AS p2,
               CAST(count(*) AS BIGINT) AS n_paths
        FROM e a JOIN e b ON a.obj = b.subj
        GROUP BY p1, p2"""


# ---------------------------------------------------------------------------
# k-core decomposition (fixed k): iterative parallel peeling
# ---------------------------------------------------------------------------
#
# The k-core is the maximal subgraph in which every node has degree
# >= k — the standard density filter before community/centrality work
# (Seidman 1983; parallel peeling as in Montresor et al.). The
# fixpoint is UNIQUE (independent of removal order), so the
# distributed result is checkable against a sequential peel.
#
# Engine shape: ONE bucketed kill-message exchange per round, the
# ops/graph.py union-find idiom. The round stream holds two row kinds
# under one schema, bucketed by hash(node):
#   edge row (node, dst):  a surviving directed copy node -> dst
#   kill row (node, dead): "delete edge node -> dead" (sender was
#                          removed last round)
# Per-bucket vectorized kernel: anti-join kills out of the bucket's
# edges, recompute out-degree, nodes with 0 < deg < k are REMOVED —
# their edges become next round's kill rows (bucketed by the other
# endpoint) and are not re-emitted. Nodes keep/lose whole edge sets;
# a node whose last edge is killed simply vanishes from the stream.
# Converges when a round removes nothing (no kill rows out).
#
# Scale: per-round cost is the surviving edge mass through one
# exchange (like connected_components); round count is the graph's
# parallel peeling depth — small for heavy-tailed KG/web graphs
# (hubs hold cores together), O(n/2) only for adversarial k=2 chain
# graphs, guarded by max_rounds with a loud failure rather than a
# silent approximation.

KCORE_K = 3
_KC_SCHEMA = pa.schema([
    ("node", pa.string()), ("dst", pa.string()), ("dead", pa.string()),
    ("bucket", pa.int32()),
])


def kcore_local(pairs, k: int = KCORE_K) -> list[tuple[str, int]]:
    """Sequential peeling twin: [(node, degree-in-core)] sorted."""
    adj: dict[str, set[str]] = {}
    for a, b in pairs:
        a, b = str(a), str(b)
        if a == b:
            continue
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    while True:
        drop = [n for n, s in adj.items() if len(s) < k]
        if not drop:
            break
        for n in drop:
            for m in adj.pop(n):
                if m in adj:
                    adj[m].discard(n)
    return sorted((n, len(s)) for n, s in adj.items())


def _kcore_round(k: int):
    def kernel(group: pa.Table) -> pa.Table:
        is_kill = pc.is_valid(group.column("dead"))
        edges = group.filter(pc.invert(is_kill)).select(["node", "dst"])
        kills = group.filter(is_kill)
        if kills.num_rows:
            kt = pa.table({
                "node": kills.column("node").combine_chunks(),
                "dst": kills.column("dead").combine_chunks(),
                "_k": pa.array(
                    np.ones(kills.num_rows, np.int8), pa.int8()),
            })
            j = edges.join(kt.group_by(["node", "dst"]).aggregate(
                [("_k", "min")]).rename_columns(["node", "dst", "_k"]),
                keys=["node", "dst"], join_type="left outer")
            edges = j.filter(pc.is_null(j.column("_k"))) \
                .select(["node", "dst"])
        if not edges.num_rows:
            return _KC_SCHEMA.empty_table()
        deg = edges.group_by(["node"]).aggregate([([], "count_all")])
        deg = deg.rename_columns(["node", "deg"])
        removed = deg.filter(pc.less(deg.column("deg"), k)) \
            .select(["node"]).append_column(
                "_r", pa.array(np.ones(
                    len(deg.filter(pc.less(deg.column("deg"), k))),
                    np.int8), pa.int8()))
        j = edges.join(removed, keys=["node"], join_type="left outer")
        gone = j.filter(pc.is_valid(j.column("_r")))
        kept = j.filter(pc.is_null(j.column("_r")))
        n_kept, n_gone = kept.num_rows, gone.num_rows
        out_node = pa.concat_arrays([
            kept.column("node").combine_chunks().cast(pa.string()),
            gone.column("dst").combine_chunks().cast(pa.string())])
        out_dst = pa.concat_arrays([
            kept.column("dst").combine_chunks().cast(pa.string()),
            pa.nulls(n_gone, pa.string())])
        out_dead = pa.concat_arrays([
            pa.nulls(n_kept, pa.string()),
            gone.column("node").combine_chunks().cast(pa.string())])
        return pa.table({
            "node": out_node, "dst": out_dst, "dead": out_dead,
            "bucket": _str_bucket(pa.chunked_array([out_node])),
        })
    return kernel


def kcore(edges_ds, k: int = KCORE_K, max_rounds: int = 256):
    """(node, deg) rows of the k-core of the undirected simple graph
    over (subj, obj). Requires an active Ray session."""
    e, _deg = _simple_graph(edges_ds)

    def both_dirs(batch: pa.Table) -> pa.Table:
        a = batch.column("a").combine_chunks()
        b = batch.column("b").combine_chunks()
        node = pa.concat_arrays([a, b])
        dst = pa.concat_arrays([b, a])
        return pa.table({
            "node": node, "dst": dst,
            "dead": pa.nulls(len(node), pa.string()),
            "bucket": _str_bucket(pa.chunked_array([node])),
        })

    msgs = e.map_batches(both_dirs, batch_format="pyarrow")
    kernel = _kcore_round(k)
    for _ in range(max_rounds):
        msgs = bucket_groupby(msgs, kernel).materialize()

        def n_kills(batch: pa.Table) -> pa.Table:
            return pa.table({"n": pa.array(
                [int(pc.sum(pc.is_valid(batch.column("dead")).cast(
                    pa.int64())).as_py() or 0)], pa.int64())})

        pending = msgs.map_batches(
            n_kills, batch_format="pyarrow").sum("n")
        if not pending:
            break
    else:
        raise RuntimeError(
            f"k-core peeling did not converge in {max_rounds} rounds "
            "(adversarial peeling depth — raise max_rounds)")

    def final_deg(group: pa.Table) -> pa.Table:
        g = group.group_by(["node"]).aggregate([([], "count_all")])
        return g.rename_columns(["node", "deg"])

    return bucket_groupby(msgs, final_deg, pre_repartition=False)


def kcore_sql(gold_kcore_path: str) -> str:
    """DuckDB twin: the persisted sequential peel (the fixpoint is
    unique, so engine == sequential at any parallelism)."""
    return f"""
        SELECT CAST(node AS VARCHAR) AS node, CAST(deg AS BIGINT) AS deg
        FROM read_parquet('{gold_kcore_path}')"""


# ---------------------------------------------------------------------------
# HITS hubs & authorities (fixed-point integer, unrolled-SQL-checkable)
# ---------------------------------------------------------------------------
#
# Kleinberg's HITS over the distinct directed edge set:
#   a(d) <- sum over in-edges (s, d) of h(s)
#   h(s) <- sum over out-edges (s, d) of a(d)
# with an integer renormalization after every half-step
# (val * HITS_SCALE // max(val)) replacing the float L2 norm — floor
# division is deterministic and exactly expressible in DuckDB, so the
# whole iteration unrolls into plain SQL like pagerank. Each half-step
# is two bucketed exchanges (tagged-union join on the contributing
# endpoint, then a reduce keyed by the receiving endpoint) with
# node-sized inter-round state. Values are bounded by
# max_degree * HITS_SCALE (renorm pins the vector max to HITS_SCALE),
# so the renorm multiply stays under 2^63 up to ~9e12-degree hubs;
# guarded by an explicit overflow assert rather than silent wrap.

HITS_SCALE = 1_000_000
HITS_ITERS = 2


def _hits_distinct_edges(edges_ds):
    def part(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "src": batch.column("subj").cast(pa.string()),
            "dst": batch.column("obj").cast(pa.string()),
        })
        g = t.group_by(["src", "dst"]).aggregate([])
        return g.append_column("bucket", _pair_bucket(
            g.column("src"), g.column("dst")))

    def distinct(group: pa.Table) -> pa.Table:
        return group.group_by(["src", "dst"]).aggregate([])

    return bucket_groupby(
        edges_ds.map_batches(part, batch_format="pyarrow",
                             batch_size=None), distinct).materialize()


def _hits_half(vec, edges, key_col: str, other_col: str):
    """One half-step: contributions flow from ``key_col`` (where the
    current vector lives) to ``other_col``; returns the renormalized
    receiving vector, materialized."""
    import ray

    def vec_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch.column("node"), "other": pa.nulls(n, pa.string()),
            "val": batch.column("val"),
            "bucket": _str_bucket(batch.column("node")),
        })

    def edge_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch.column(key_col), "other": batch.column(other_col),
            "val": pa.nulls(n, pa.int64()),
            "bucket": _str_bucket(batch.column(key_col)),
        })

    def contrib(group: pa.Table) -> pa.Table:
        has_val = pc.is_valid(group.column("val"))
        v = group.filter(has_val)
        e = group.filter(pc.invert(has_val))
        j = e.select(["key", "other"]).join(
            v.select(["key", "val"]), keys="key", join_type="inner")
        g = j.group_by(["other"]).aggregate([("val", "sum")])
        g = g.rename_columns(["node", "val"])
        return pa.table({
            "node": g.column("node"),
            "val": g.column("val").cast(pa.int64()),
            "bucket": _str_bucket(g.column("node")),
        })

    def reduce_(group: pa.Table) -> pa.Table:
        g = group.group_by(["node"]).aggregate([("val", "sum")])
        g = g.rename_columns(["node", "val"])
        return g.append_column("bucket", _str_bucket(g.column("node")))

    mixed = vec.map_batches(vec_rows, batch_format="pyarrow").union(
        edges.map_batches(edge_rows, batch_format="pyarrow"))
    red = bucket_groupby(bucket_groupby(mixed, contrib), reduce_) \
        .materialize()
    mx = max(int(red.max("val") or 0), 1)
    if mx > (1 << 62) // HITS_SCALE:
        raise OverflowError("HITS renorm would overflow int64")

    def renorm(batch: pa.Table) -> pa.Table:
        v = batch.column("val").to_numpy()
        return pa.table({
            "node": batch.column("node"),
            "val": pa.array(v * np.int64(HITS_SCALE) // np.int64(mx),
                            pa.int64()),
            "bucket": batch.column("bucket"),
        })

    return red.map_batches(renorm, batch_format="pyarrow").materialize()


def hits(edges_ds, iters: int = HITS_ITERS):
    """(node, hub, auth) integer HITS scores after ``iters`` full
    iterations (vector max pinned at HITS_SCALE; nodes receiving no
    mass score 0). Requires an active Ray session."""
    e = _hits_distinct_edges(edges_ds)

    def node_part(batch: pa.Table) -> pa.Table:
        u = pc.unique(pa.concat_arrays([
            batch.column("src").combine_chunks(),
            batch.column("dst").combine_chunks()]))
        return pa.table({"node": u, "bucket": _str_bucket(
            pa.chunked_array([u]))})

    def node_distinct(group: pa.Table) -> pa.Table:
        g = group.group_by(["node"]).aggregate([])
        return g.append_column("bucket", _str_bucket(g.column("node")))

    nodes = bucket_groupby(
        e.map_batches(node_part, batch_format="pyarrow",
                      batch_size=None), node_distinct).materialize()

    def ones(batch: pa.Table) -> pa.Table:
        return pa.table({
            "node": batch.column("node"),
            "val": pa.array(np.ones(batch.num_rows, np.int64)),
            "bucket": batch.column("bucket"),
        })

    h = nodes.map_batches(ones, batch_format="pyarrow")
    a = None
    for _ in range(iters):
        a = _hits_half(h, e, "src", "dst")
        h = _hits_half(a, e, "dst", "src")

    def tag(col: str):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            z = pa.array(np.zeros(n, np.int64))
            return pa.table({
                "node": batch.column("node"),
                "hub": batch.column("val") if col == "hub" else z,
                "auth": batch.column("val") if col == "auth" else z,
                "bucket": batch.column("bucket"),
            })
        return fn

    def zeros(batch: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(batch.num_rows, np.int64))
        return pa.table({"node": batch.column("node"), "hub": z,
                         "auth": z, "bucket": batch.column("bucket")})

    mixed = h.map_batches(tag("hub"), batch_format="pyarrow") \
        .union(a.map_batches(tag("auth"), batch_format="pyarrow")) \
        .union(nodes.map_batches(zeros, batch_format="pyarrow"))

    def fold(group: pa.Table) -> pa.Table:
        g = group.group_by(["node"]).aggregate(
            [("hub", "sum"), ("auth", "sum")])
        return g.rename_columns(["node", "hub", "auth"])

    return bucket_groupby(mixed, fold)


def hits_sql(triples_glob: str, iters: int = HITS_ITERS) -> str:
    """Unrolled DuckDB twin: identical integer renorm per half-step."""
    S = HITS_SCALE
    frags = ["""e AS (SELECT DISTINCT CAST(subj AS VARCHAR) AS src,
                            CAST(obj AS VARCHAR) AS dst
                FROM read_parquet('{g}')),
        nodes AS (SELECT src AS node FROM e
                  UNION SELECT dst FROM e),
        h0 AS (SELECT node, CAST(1 AS BIGINT) AS val FROM nodes)"""
             .replace("{g}", triples_glob)]
    prev_h = "h0"
    a_name = None
    for i in range(1, iters + 1):
        a_raw, a_name = f"a{i}r", f"a{i}"
        frags.append(f"""{a_raw} AS (
            SELECT e.dst AS node, sum({prev_h}.val) AS raw
            FROM e JOIN {prev_h} ON e.src = {prev_h}.node
            GROUP BY e.dst)""")
        frags.append(f"""{a_name} AS (
            SELECT node, raw * {S} //
                   greatest((SELECT max(raw) FROM {a_raw}), 1) AS val
            FROM {a_raw})""")
        h_raw, h_name = f"h{i}r", f"h{i}"
        frags.append(f"""{h_raw} AS (
            SELECT e.src AS node, sum({a_name}.val) AS raw
            FROM e JOIN {a_name} ON e.dst = {a_name}.node
            GROUP BY e.src)""")
        frags.append(f"""{h_name} AS (
            SELECT node, raw * {S} //
                   greatest((SELECT max(raw) FROM {h_raw}), 1) AS val
            FROM {h_raw})""")
        prev_h = h_name
    return f"""
        WITH {', '.join(frags)}
        SELECT n.node,
               CAST(coalesce(h.val, 0) AS BIGINT) AS hub,
               CAST(coalesce(a.val, 0) AS BIGINT) AS auth
        FROM nodes n
        LEFT JOIN {prev_h} h ON n.node = h.node
        LEFT JOIN {a_name} a ON n.node = a.node"""


# ---------------------------------------------------------------------------
# Bounded-hop weighted shortest paths (Bellman-Ford relaxation rounds)
# ---------------------------------------------------------------------------
# The KG-ops family has hop distances (bfs_reach) but no weighted
# variant; entity-importance queries ("closest infrastructure to this
# attacker, counting predicate cost") need one. Semantics: min total
# weight over paths with <= SSSP_MAX_HOPS edges from the seed, over the
# UNDIRECTED edge set, weight(src,dst) = min over that pair's
# predicates of 1 + length(pred) % 4 — a deterministic positive integer
# both dataflows derive identically, so the whole computation is
# integer-exact against a depth-bounded recursive-CTE DuckDB twin.
#
# Shape: one symmetric min-weight edge exchange up front, then per
# round ONE bucketed join (dist table + in-bucket edges -> relaxed
# candidates) and ONE bucketed min-reduce — the same per-round cost
# structure as pagerank/bfs_reach. Inter-round state is the node-sized
# dist table; each round k yields exactly "min weight over <= k-edge
# paths" (the Bellman-Ford DP), which is what the twin's `hops < H`
# enumeration collapses to under min(). At 100 TB: rounds are fixed
# (H), each round's join mass is the dist-adjacent edge set, and hot
# seeds salt the same way the components labels do.

SSSP_MAX_HOPS = 4
_SSSP_WT_MOD = 4


def _sssp_edges_partial(batch: pa.Table) -> pa.Table:
    s = batch.column("subj").cast(pa.string()).combine_chunks()
    o = batch.column("obj").cast(pa.string()).combine_chunks()
    p = batch.column("pred").cast(pa.string()).combine_chunks()
    ln = pc.utf8_length(p).to_numpy(zero_copy_only=False).astype(np.int64)
    wt = pa.array(ln % _SSSP_WT_MOD + 1, pa.int64())
    t = pa.table({"src": pa.concat_arrays([s, o]),
                  "dst": pa.concat_arrays([o, s]),
                  "wt": pa.concat_arrays([wt, wt])})
    g = t.group_by(["src", "dst"]).aggregate([("wt", "min")])
    g = g.rename_columns(["src", "dst", "wt"])
    return g.append_column("bucket", _str_bucket(g.column("src")))


def _sssp_edge_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["src", "dst"]).aggregate([("wt", "min")])
    g = g.rename_columns(["src", "dst", "wt"])
    return g.append_column("bucket", _str_bucket(g.column("src")))


def _sssp_expand_bucket(group: pa.Table) -> pa.Table:
    """One hash(src) bucket of dist rows (dst null) + weighted edge
    rows: every dist row relaxes its in-bucket out-edges (full
    Bellman-Ford round); dist rows pass through for the min-reduce."""
    is_d = pc.is_valid(group.column("val"))
    d = group.filter(is_d)
    e = group.filter(pc.invert(is_d))
    j = e.select(["src", "dst", "wt"]).join(
        pa.table({"src": d.column("src"), "val": d.column("val")}),
        keys="src", join_type="inner")
    node = pa.concat_arrays([
        d.column("src").combine_chunks(),
        j.column("dst").combine_chunks()])
    dist = pa.concat_arrays([
        d.column("val").combine_chunks(),
        pc.add(j.column("val"), j.column("wt")).cast(pa.int64())
        .combine_chunks()])
    return pa.table({
        "node": node, "dist": dist,
        "bucket": _str_bucket(pa.chunked_array([node])),
    })


def _sssp_min_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["node"]).aggregate([("dist", "min")])
    g = g.rename_columns(["node", "dist"])
    return g.append_column("bucket", _str_bucket(g.column("node")))


def sssp(edges_ds, seed: str | None = None,
         max_hops: int = SSSP_MAX_HOPS):
    """(node, dist): minimum predicate-weighted distance from ``seed``
    over paths of <= ``max_hops`` edges on the undirected KG (weights
    ``1 + len(pred) % 4``, min per pair). Default seed = lexicographic
    minimum endpoint, computed with a per-block combiner + one-task
    merge (never a driver fold). Requires an active Ray session."""
    sp = edges_ds.map_batches(_sssp_edges_partial,
                              batch_format="pyarrow", batch_size=None)
    edges = bucket_groupby(sp, _sssp_edge_bucket).materialize()

    if seed is None:
        def min_partial(batch: pa.Table) -> pa.Table:
            m = pc.min(batch.column("src"))
            return pa.table({"node": pa.array([m.as_py()], pa.string())})

        def min_merge(batch: pa.Table) -> pa.Table:
            return pa.table({"node": pa.array(
                [pc.min(batch.column("node")).as_py()], pa.string())})

        seed = edges.map_batches(min_partial, batch_format="pyarrow",
                                 batch_size=None) \
            .repartition(1) \
            .map_batches(min_merge, batch_format="pyarrow",
                         batch_size=None).take_all()[0]["node"]

    import ray.data
    dist = ray.data.from_arrow(pa.table({
        "node": pa.array([seed], pa.string()),
        "dist": pa.array([0], pa.int64()),
        "bucket": _str_bucket(pa.chunked_array(
            [pa.array([seed], pa.string())])),
    }))

    def dist_as_src_row(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "src": batch.column("node"),
            "dst": pa.nulls(n, pa.string()),
            "wt": pa.nulls(n, pa.int64()),
            "val": batch.column("dist"),
            "bucket": batch.column("bucket"),
        })

    def edge_row(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "src": batch.column("src"),
            "dst": batch.column("dst"),
            "wt": batch.column("wt"),
            "val": pa.nulls(n, pa.int64()),
            "bucket": batch.column("bucket"),
        })

    for _ in range(max_hops):
        mixed = dist.map_batches(dist_as_src_row,
                                 batch_format="pyarrow") \
            .union(edges.map_batches(edge_row, batch_format="pyarrow"))
        expanded = bucket_groupby(mixed, _sssp_expand_bucket)
        dist = bucket_groupby(expanded, _sssp_min_bucket).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"),
                         "dist": batch.column("dist")})

    return dist.map_batches(finish, batch_format="pyarrow")


def sssp_local(edges: list[tuple[str, str, str]],
               max_hops: int = SSSP_MAX_HOPS) -> dict[str, int]:
    """Sequential Bellman-Ford oracle for tests over (subj, pred, obj)
    triples — identical weight rule and hop bound."""
    INF = 1 << 60
    w: dict[tuple[str, str], int] = {}
    for s, p, o in edges:
        wt = len(p) % _SSSP_WT_MOD + 1
        for a, b in ((s, o), (o, s)):
            k = (a, b)
            if wt < w.get(k, INF):
                w[k] = wt
    if not w:
        return {}
    seed = min(a for a, _ in w)
    dist = {seed: 0}
    for _ in range(max_hops):
        nxt = dict(dist)
        for (a, b), wt in w.items():
            if a in dist and dist[a] + wt < nxt.get(b, INF):
                nxt[b] = dist[a] + wt
        dist = nxt
    return dist


def sssp_sql(triples_glob: str, max_hops: int = SSSP_MAX_HOPS) -> str:
    """DuckDB twin: hop-bounded recursive CTE over the symmetric
    min-weight edge set; min accumulated weight per node collapses the
    path enumeration to the engine's Bellman-Ford DP."""
    return f"""
        WITH RECURSIVE b AS (
          SELECT CAST(subj AS VARCHAR) AS s, CAST(obj AS VARCHAR) AS o,
                 1 + length(CAST(pred AS VARCHAR)) % {_SSSP_WT_MOD} AS wt
          FROM read_parquet('{triples_glob}')
        ), e AS (
          SELECT src, dst, min(wt) AS wt FROM (
            SELECT s AS src, o AS dst, wt FROM b
            UNION ALL SELECT o, s, wt FROM b)
          GROUP BY src, dst
        ), r(node, hops, w) AS (
          SELECT (SELECT min(src) FROM e), 0, 0
          UNION
          SELECT e.dst, r.hops + 1, r.w + e.wt
          FROM r JOIN e ON e.src = r.node
          WHERE r.hops < {max_hops}
        )
        SELECT node, CAST(min(w) AS BIGINT) AS dist FROM r GROUP BY node"""


# ---------------------------------------------------------------------------
# Label-propagation communities (synchronous, fixed rounds)
# ---------------------------------------------------------------------------
# Community structure over the entity graph (which actors/orgs/CVEs
# cluster together) — the classic complement to connected components:
# components give reachability classes, label propagation gives dense
# sub-groups. Deterministic variant: every node starts labeled with
# itself; each of LP_ROUNDS synchronous rounds relabels EVERY node with
# the most frequent label among its (undirected) neighbors, ties broken
# by the lexicographically smallest label. Fixed rounds + deterministic
# tie-break make the result exactly reproducible at any parallelism,
# so the whole iteration unrolls into plain windowed DuckDB SQL.
#
# Shape per round: ONE bucketed join (labels + dst-keyed edges -> per
# (node, neighbor-label) partial counts) and ONE bucketed argmax
# reduce — two exchanges per round over edge mass, node-sized
# inter-round state, exactly the components/pagerank cost class.

LP_ROUNDS = 3


def _lp_join_bucket(group: pa.Table) -> pa.Table:
    """One hash(key) bucket of label rows (other null) + edge rows
    keyed by dst: attach dst labels, emit per-(src, label) partial
    counts bucketed by src."""
    has_lab = pc.is_valid(group.column("lab"))
    l = group.filter(has_lab)
    e = group.filter(pc.invert(has_lab))
    j = e.select(["key", "other"]).join(
        l.select(["key", "lab"]), keys="key", join_type="inner")
    g = j.group_by(["other", "lab"]).aggregate([([], "count_all")])
    g = g.rename_columns(["node", "lab", "n"])
    return pa.table({
        "node": g.column("node"), "lab": g.column("lab"),
        "n": g.column("n").cast(pa.int64()),
        "bucket": _str_bucket(g.column("node")),
    })


def _lp_argmax_bucket(group: pa.Table) -> pa.Table:
    """Sum the per-(node, label) partials, then per node keep the
    (count desc, label asc) argmax — vectorized first-of-sorted-run."""
    g = group.group_by(["node", "lab"]).aggregate([("n", "sum")])
    g = g.rename_columns(["node", "lab", "n"])
    idx = pc.sort_indices(g, sort_keys=[
        ("node", "ascending"), ("n", "descending"),
        ("lab", "ascending")])
    g = g.take(idx)
    codes = g.column("node").combine_chunks().dictionary_encode() \
        .indices.to_numpy(zero_copy_only=False)
    first = np.ones(len(codes), bool)
    if len(codes) > 1:
        first[1:] = codes[1:] != codes[:-1]
    out = g.filter(pa.array(first))
    return pa.table({
        "node": out.column("node"), "label": out.column("lab"),
        "bucket": _str_bucket(out.column("node")),
    })


def lp_communities(edges_ds, rounds: int = LP_ROUNDS):
    """(node, label) after ``rounds`` synchronous label-propagation
    rounds over the undirected distinct edge set (most-frequent
    neighbor label, ties -> smallest). Requires an active Ray
    session."""
    sp = edges_ds.map_batches(_bfs_sym_partial, batch_format="pyarrow",
                              batch_size=None)
    sym = bucket_groupby(sp, _bfs_sym_bucket).materialize()

    def init_labels(batch: pa.Table) -> pa.Table:
        u = pc.unique(batch.column("src").combine_chunks())
        return pa.table({"node": u, "label": u, "bucket": _str_bucket(
            pa.chunked_array([u]))})

    def label_distinct(group: pa.Table) -> pa.Table:
        g = group.group_by(["node", "label"]).aggregate([])
        return g.append_column("bucket", _str_bucket(g.column("node")))

    labels = bucket_groupby(
        sym.map_batches(init_labels, batch_format="pyarrow",
                        batch_size=None), label_distinct).materialize()

    def lab_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch.column("node"),
            "other": pa.nulls(n, pa.string()),
            "lab": batch.column("label"),
            "bucket": batch.column("bucket"),
        })

    def edge_rows(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table({
            "key": batch.column("dst"),
            "other": batch.column("src"),
            "lab": pa.nulls(n, pa.string()),
            "bucket": _str_bucket(batch.column("dst")),
        })

    for _ in range(rounds):
        mixed = labels.map_batches(lab_rows, batch_format="pyarrow") \
            .union(sym.map_batches(edge_rows, batch_format="pyarrow"))
        counted = bucket_groupby(mixed, _lp_join_bucket)
        labels = bucket_groupby(counted, _lp_argmax_bucket).materialize()

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table({"node": batch.column("node"),
                         "label": batch.column("label")})

    return labels.map_batches(finish, batch_format="pyarrow")


def lp_communities_local(pairs: list[tuple[str, str]],
                         rounds: int = LP_ROUNDS) -> dict[str, str]:
    """Sequential synchronous label-propagation oracle for tests."""
    from collections import Counter, defaultdict

    adj: dict[str, set] = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    lab = {n: n for n in adj}
    for _ in range(rounds):
        nxt = {}
        for n in adj:
            cnt = Counter(lab[v] for v in adj[n])
            nxt[n] = min(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        lab = nxt
    return lab


def lp_communities_sql(triples_glob: str,
                       rounds: int = LP_ROUNDS) -> str:
    """Unrolled DuckDB twin: per round, count neighbor labels over the
    symmetric distinct edge set and keep the (count desc, label asc)
    window argmax — identical tie-break to the engine."""
    frags = [f"""e AS (
          SELECT DISTINCT src, dst FROM (
            SELECT CAST(subj AS VARCHAR) AS src,
                   CAST(obj AS VARCHAR) AS dst
            FROM read_parquet('{triples_glob}')
            UNION ALL
            SELECT CAST(obj AS VARCHAR), CAST(subj AS VARCHAR)
            FROM read_parquet('{triples_glob}'))),
        l0 AS (SELECT DISTINCT src AS node, src AS lab FROM e)"""]
    for i in range(1, rounds + 1):
        frags.append(f"""c{i} AS (
          SELECT e.src AS node, l.lab, count(*) AS n
          FROM e JOIN l{i - 1} l ON e.dst = l.node
          GROUP BY e.src, l.lab)""")
        frags.append(f"""l{i} AS (
          SELECT node, lab FROM (
            SELECT node, lab, row_number() OVER (
              PARTITION BY node ORDER BY n DESC, lab) AS rk
            FROM c{i}) WHERE rk = 1)""")
    return f"""
        WITH {', '.join(frags)}
        SELECT node, lab AS label FROM l{rounds}"""


# ---------------------------------------------------------------------------
# Event-type transition counts (per-conversation Markov bigrams)
# ---------------------------------------------------------------------------
# What follows what: within each conversation, order the extracted KG
# events by (turn_idx, event_id) and count consecutive (etype ->
# etype) transitions — the first-order Markov structure of the attack
# narratives ("DiscoverVulnerability -> PatchVulnerability" vs
# "Databreach -> Ransom"). One conv-keyed exchange (conversations are
# already the engine's partitioning unit, so at scale this exchange is
# a near-no-op over the conv-partitioned layout), vectorized
# sort+shift per bucket, then a tiny etype-keyed reduce (<= 25 rows).

def _etrans_partial(batch: pa.Table) -> pa.Table:
    g = batch.select(["conv_id", "turn_idx", "event_id", "etype"])
    return g.append_column("bucket", _str_bucket(g.column("conv_id")))


def _etrans_bucket(group: pa.Table) -> pa.Table:
    """One hash(conv_id) bucket holding complete conversations: order
    by (conv_id, turn_idx, event_id), pair each event with its
    predecessor in the same conversation, emit partial (from, to, n)
    counts."""
    idx = pc.sort_indices(group, sort_keys=[
        ("conv_id", "ascending"), ("turn_idx", "ascending"),
        ("event_id", "ascending")])
    g = group.take(idx)
    conv = g.column("conv_id").combine_chunks().dictionary_encode() \
        .indices.to_numpy(zero_copy_only=False)
    et = g.column("etype").combine_chunks()
    if len(conv) < 2:
        return pa.table({
            "etype_from": pa.array([], pa.string()),
            "etype_to": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "bucket": pa.array([], pa.int32()),
        })
    same = pa.array(conv[1:] == conv[:-1])
    pairs = pa.table({
        "etype_from": et.slice(0, len(et) - 1),
        "etype_to": et.slice(1),
    }).filter(same)
    c = pairs.group_by(["etype_from", "etype_to"]) \
        .aggregate([([], "count_all")])
    c = c.rename_columns(["etype_from", "etype_to", "n"])
    return pa.table({
        "etype_from": c.column("etype_from"),
        "etype_to": c.column("etype_to"),
        "n": c.column("n").cast(pa.int64()),
        "bucket": _str_bucket(c.column("etype_from")),
    })


def _etrans_reduce(group: pa.Table) -> pa.Table:
    g = group.group_by(["etype_from", "etype_to"]) \
        .aggregate([("n", "sum")])
    return g.rename_columns(["etype_from", "etype_to", "n"])


def event_transitions(events_ds):
    """(etype_from, etype_to, n): counts of consecutive event-type
    pairs within each conversation under (turn_idx, event_id)
    ordering. Requires an active Ray session."""
    sp = events_ds.map_batches(_etrans_partial, batch_format="pyarrow",
                               batch_size=None)
    partials = bucket_groupby(sp, _etrans_bucket)
    return bucket_groupby(partials, _etrans_reduce)


def event_transitions_sql(events_glob: str) -> str:
    """DuckDB twin: LAG over the identical (turn_idx, event_id)
    ordering per conversation."""
    return f"""
        WITH s AS (
          SELECT conv_id, etype,
                 lag(etype) OVER (PARTITION BY conv_id
                                  ORDER BY turn_idx, event_id) AS prev
          FROM read_parquet('{events_glob}'))
        SELECT prev AS etype_from, etype AS etype_to,
               CAST(count(*) AS BIGINT) AS n
        FROM s WHERE prev IS NOT NULL GROUP BY prev, etype"""


# ---------------------------------------------------------------------------
# Degree-assortativity registers (exact integer graph statistic)
# ---------------------------------------------------------------------------
# Does the KG wire hubs to hubs or hubs to leaves? Pearson degree
# assortativity answers it, and its numerator/denominator decompose
# into four integer sums over the symmetric half-edge set — so the op
# ships REGISTERS (the same contract class as the HLL / count-min /
# bloom entries): one row (n_halfedges, sum_deg, sum_deg_sq,
# sum_deg_prod) over the simple undirected graph, from which the float
# coefficient is one driver-side formula. Exact at any parallelism.
#
# Shape: symmetric distinct edge exchange -> in-bucket degree count
# (each src bucket holds ALL of a node's edges) -> one join exchange
# attaching deg(src) to each half-edge keyed by dst -> one join
# exchange attaching deg(dst) -> per-bucket integer partial sums ->
# single-row merge. Register mass is constant; edge mass crosses two
# joins, the co_mention/pagerank cost class.

def _assort_deg_bucket(group: pa.Table) -> pa.Table:
    """src-keyed bucket of symmetric edges: global (src, dst) dedup
    happens HERE (all copies of a pair share the src bucket), then
    per-node degree rows plus the bucket's half-edges re-keyed by dst
    carrying deg(src) — both emitted in one pass, tagged by null
    columns."""
    group = group.group_by(["src", "dst"]).aggregate([])
    g = group.group_by(["src"]).aggregate([([], "count_all")])
    g = g.rename_columns(["node", "deg"])
    deg_rows = pa.table({
        "key": g.column("node"),
        "deg_src": pa.nulls(g.num_rows, pa.int64()),
        "deg": g.column("deg").cast(pa.int64()),
        "bucket": _str_bucket(g.column("node")),
    })
    j = group.select(["src", "dst"]).join(
        pa.table({"src": g.column("node"),
                  "d": g.column("deg").cast(pa.int64())}),
        keys="src", join_type="inner")
    edge_rows = pa.table({
        "key": j.column("dst"),
        "deg_src": j.column("d"),
        "deg": pa.nulls(j.num_rows, pa.int64()),
        "bucket": _str_bucket(j.column("dst")),
    })
    return pa.concat_tables([deg_rows, edge_rows])


def _assort_sum_bucket(group: pa.Table) -> pa.Table:
    """dst-keyed bucket of half-edges (deg null) + degree rows: attach
    deg(dst), emit one integer partial-sum register row."""
    is_deg = pc.is_valid(group.column("deg"))
    d = group.filter(is_deg)
    e = group.filter(pc.invert(is_deg))
    j = e.select(["key", "deg_src"]).join(
        pa.table({"key": d.column("key"), "deg_dst": d.column("deg")}),
        keys="key", join_type="inner")
    x = j.column("deg_src").to_numpy(zero_copy_only=False)
    y = j.column("deg_dst").to_numpy(zero_copy_only=False)
    # mirror the SQL twin's HUGEINT-then-CAST: fail loudly instead of
    # wrapping if max_deg^2 x half-edges could leave int64
    if len(x) and int(x.max()) ** 2 * len(x) > (1 << 62):
        raise OverflowError(
            "assortativity sum_deg_sq partial would overflow int64")
    return pa.table({
        "n_halfedges": pa.array([len(x)], pa.int64()),
        "sum_deg": pa.array([int(x.sum())], pa.int64()),
        "sum_deg_sq": pa.array([int((x * x).sum())], pa.int64()),
        "sum_deg_prod": pa.array([int((x * y).sum())], pa.int64()),
    })


def assortativity_registers(edges_ds):
    """Single-row integer registers (n_halfedges, sum_deg, sum_deg_sq,
    sum_deg_prod) over the symmetric distinct simple graph — the exact
    sufficient statistics for Pearson degree assortativity (x = deg of
    a half-edge's source, symmetric so sum over x == sum over y).
    Requires an active Ray session."""
    sp = edges_ds.map_batches(_bfs_sym_partial, batch_format="pyarrow",
                              batch_size=None)
    mixed = bucket_groupby(sp, _assort_deg_bucket)
    parts = bucket_groupby(mixed, _assort_sum_bucket)

    def merge(batch: pa.Table) -> pa.Table:
        # <= N_GRAPH_BUCKETS register rows: sum in unbounded Python
        # ints and fail loudly (like the twin's HUGEINT CAST) if the
        # total leaves int64
        out = {}
        for c in ("n_halfedges", "sum_deg", "sum_deg_sq",
                  "sum_deg_prod"):
            v = sum(batch.column(c).to_pylist())
            if v >= (1 << 63):
                raise OverflowError(f"assortativity {c} overflows int64")
            out[c] = pa.array([v], pa.int64())
        return pa.table(out)

    return parts.repartition(1).map_batches(
        merge, batch_format="pyarrow", batch_size=None)


def assortativity_local(pairs: list[tuple[str, str]]) -> dict[str, int]:
    """Sequential register oracle for tests."""
    from collections import defaultdict

    adj: dict[str, set] = defaultdict(set)
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    n = s = s2 = sp_ = 0
    for u in adj:
        for v in adj[u]:
            n += 1
            s += len(adj[u])
            s2 += len(adj[u]) ** 2
            sp_ += len(adj[u]) * len(adj[v])
    return {"n_halfedges": n, "sum_deg": s, "sum_deg_sq": s2,
            "sum_deg_prod": sp_}


def assortativity_sql(triples_glob: str) -> str:
    """DuckDB twin: identical symmetric distinct graph, identical
    integer registers (HUGEINT sums cast back to BIGINT so overflow
    errors loudly instead of wrapping)."""
    return f"""
        WITH e AS (
          SELECT DISTINCT src, dst FROM (
            SELECT CAST(subj AS VARCHAR) AS src,
                   CAST(obj AS VARCHAR) AS dst
            FROM read_parquet('{triples_glob}')
            UNION ALL
            SELECT CAST(obj AS VARCHAR), CAST(subj AS VARCHAR)
            FROM read_parquet('{triples_glob}'))
        ), deg AS (
          SELECT src AS node, count(*) AS d FROM e GROUP BY src
        )
        SELECT CAST(count(*) AS BIGINT) AS n_halfedges,
               CAST(sum(CAST(a.d AS HUGEINT)) AS BIGINT) AS sum_deg,
               CAST(sum(CAST(a.d AS HUGEINT) * a.d) AS BIGINT)
                   AS sum_deg_sq,
               CAST(sum(CAST(a.d AS HUGEINT) * b.d) AS BIGINT)
                   AS sum_deg_prod
        FROM e JOIN deg a ON e.src = a.node
               JOIN deg b ON e.dst = b.node"""
