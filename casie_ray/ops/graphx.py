"""Graph analytics over the materialized KG edge table.

The KG pipeline ends at node/edge parquet (stages/triples.py); a real
knowledge-graph deployment then ASKS things of that graph. This module
is that query surface: degree and co-mention statistics, (personalized)
PageRank, HITS, hop and weighted distances, label-propagation
communities, triangles / clustering / k-truss / k-core, neighbor
Jaccard, predicate bigrams, event transitions, assortativity registers
and random walks. Each op has a sequential or DuckDB twin that it
matches exactly.

Every op is a chain of bucketed exchanges (ops/bucketing.py): derive a
bounded ``bucket`` column from the key hash, exchange once, process
each bucket group with vectorized Arrow/numpy kernels over all its keys
at once. No per-node Python calls, no driver-side graph. Two shapes
cover the joins:

- ``bucket_join(left, right, fn)``: both keyed sides in ONE exchange,
  ``fn(left_rows, right_rows)`` per bucket group (an Arrow join on the
  real keys) — edge/degree attachment, wedge closing, the clustering
  and Jaccard degree joins, a random-walk hop.
- ``superstep(state, edges, message, combine)``: a ``bucket_join`` of
  the node-sized state with the edges, then a reduce keyed by each
  message's destination — one round of PageRank/PPR, HITS, SSSP/BFS
  and label propagation, with the materialized state between rounds.

Iterative ops use integer arithmetic (PageRank ranks scaled by 1e6,
damping 85/100; HITS renormalized by floor division), so a distributed
sum can never change with reduction order and each iteration unrolls
into plain DuckDB SQL for exact checking. ``obj_cap`` / ``hub_cap``
bound the pair explosion of hub nodes identically in the engine and the
twins; degree orientation bounds triangle wedges at O(m^1.5).

Connected components (ops/graph.py) and k-core keep their own round
kernel: their one exchange per round carries edge rows in the state
stream, which is not a state/edge join.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bucketing import (N_GRAPH_BUCKETS, _str_bucket, bucket_groupby,
                        bucket_join, fnv1a_hashes, superstep, with_bucket)

# PageRank fixed-point: ranks scaled by SCALE; damping d = DAMP_NUM/DAMP_DEN
PR_SCALE = 1_000_000
DAMP_NUM, DAMP_DEN = 85, 100
PR_BASE = PR_SCALE * (DAMP_DEN - DAMP_NUM) // DAMP_DEN  # 150000


def _check_params(op: str, least: int = 0, **params) -> None:
    """ValueError unless every integer parameter is >= ``least``; the
    engine ops and their SQL twins share it."""
    bad = {k: v for k, v in params.items() if v < least}
    if bad:
        raise ValueError(f"{op} needs {', '.join(params)} >= {least}, "
                         f"got {bad}")


def _edge_pairs(t: pa.Table, weight: bool) -> pa.Table:
    """Distinct (src, dst[, min wt]) rows of ``t`` plus a src bucket."""
    g = t.group_by(["src", "dst"]).aggregate(
        [("wt", "min")] if weight else [])
    return with_bucket(g.rename_columns(
        ["src", "dst"] + (["wt"] if weight else [])), "src")


def _edge_partial(symmetric: bool = False, weight=None):
    """Per-block combiner over (subj, obj) edge rows: the block's
    distinct (src, dst) pairs bucketed by src. ``symmetric`` adds every
    reversed pair; ``weight(batch)`` -> int64 per-row weights adds a
    ``wt`` column holding the pair's minimum weight."""
    def part(batch: pa.Table) -> pa.Table:
        s = batch.column("subj").cast(pa.string()).combine_chunks()
        o = batch.column("obj").cast(pa.string()).combine_chunks()
        cols = {"src": pa.concat_arrays([s, o]) if symmetric else s,
                "dst": pa.concat_arrays([o, s]) if symmetric else o}
        if weight:
            w = weight(batch)
            cols["wt"] = pa.concat_arrays([w, w]) if symmetric else w
        return _edge_pairs(pa.table(cols), bool(weight))
    return part


def _distinct_edges(edges_ds, *, symmetric: bool = False, weight=None):
    """The globally distinct pairs of :func:`_edge_partial`: one
    src-keyed exchange, materialized (src, dst[, wt], bucket). Distinct
    is bucket-agnostic, so any bucketing gives the same rows."""
    def dedup(group: pa.Table) -> pa.Table:
        return _edge_pairs(group.drop_columns(["bucket"]), bool(weight))

    return bucket_groupby(edges_ds.map_batches(
        _edge_partial(symmetric, weight), batch_format="pyarrow",
        batch_size=None), dedup).materialize()


# column sets the joins declare for their inputs (bucket_join pads each
# side to its schema, so an empty input still reaches the kernel)
_NODE_SCHEMA = pa.schema([("node", pa.string())])
_EDGE_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string())])
_WT_EDGE_SCHEMA = _EDGE_SCHEMA.append(pa.field("wt", pa.int64()))


def _endpoints(batch: pa.Table) -> pa.Table:
    """Per-block combiner over (src, dst) edges: the block's distinct
    endpoints as (node, bucket)."""
    return with_bucket(pa.table({"node": pc.unique(pa.concat_arrays([
        batch.column("src").combine_chunks(),
        batch.column("dst").combine_chunks()]))}), "node")


# ---------------------------------------------------------------------------
# Degree histogram
# ---------------------------------------------------------------------------


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
        # distinct across blocks, drop boilerplate objects, expand pairs;
        # a null object is shared with nobody (the SQL twin's equi-join)
        g = group.group_by(["subj", "obj"]).aggregate([])
        g = g.filter(pc.is_valid(g.column("obj")))
        g = g.sort_by([("obj", "ascending"), ("subj", "ascending")])
        # sorted, so equal objects are one run of equal dictionary codes;
        # run size = #subjects (rows are distinct (subj, obj))
        obj = g.column("obj").combine_chunks().dictionary_encode() \
            .indices.to_numpy(zero_copy_only=False)
        keep = np.bincount(obj)[obj] <= obj_cap
        from .bucketing import segment_pair_indices
        ia, ib = segment_pair_indices([obj[keep]])
        if len(ia) == 0:
            return _CO_PART_SCHEMA.empty_table()
        subj = g.column("subj").combine_chunks().filter(pa.array(keep))
        a, b = subj.take(ia), subj.take(ib)  # subj-sorted in obj: a < b
        h = fnv1a_hashes(a) ^ fnv1a_hashes(b)
        return pa.table({
            "subj_a": a, "subj_b": b,
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
# PageRank and personalized PageRank (fixed-point integer, exact)
# ---------------------------------------------------------------------------
#
# One seed-restart fixed point over the distinct (subj -> obj) edges:
#
#   rank0(n)  = SCALE if n in seeds else 0
#   rank'(n)  = (BASE if n in seeds else 0)
#               + sum over in-edges (m, n) of (rank(m)*85//100)//outdeg(m)
#
# PageRank makes every node a seed (the uniform reset). PPR returns the
# reset mass only to a SEED set, so rank measures proximity to the seeds
# (the standard recommendation/expansion primitive). PPR's seeds are the
# ``n_seeds`` highest out-degree nodes (ties by node ascending) —
# derivable identically in the engine (bounded partial top-k over the
# node-sized out-degree table) and in the SQL twin (ORDER BY outdeg
# DESC, src). Dangling-node mass is dropped in both dataflows. All
# integer, so the distributed sum is order-independent and the unrolled
# DuckDB twins match bit-for-bit.
#
# Dataflow: distinct edges -> out-degrees -> one node/out-degree join
# for the initial ranks -> one superstep per iteration (contributions
# along src-keyed edges, summed at dst). Inter-round state is the
# node-sized rank table; the seed set rides into the kernels by closure.

PPR_SEEDS = 8
_OUTDEG_SCHEMA = pa.schema([("node", pa.string()), ("outdeg", pa.int64())])
_RANK_SCHEMA = _OUTDEG_SCHEMA.insert(1, pa.field("rank", pa.int64()))


def _top_outdeg_partial(k: int):
    def kern(batch: pa.Table) -> pa.Table:
        t = batch.select(["node", "outdeg"])
        idx = pc.sort_indices(t, sort_keys=[("outdeg", "descending"),
                                            ("node", "ascending")])
        return t.take(idx[:k])
    return kern


def _seeded_pagerank(edges_ds, iters: int, n_seeds: int | None):
    """(node, pr) after ``iters`` iterations of the fixed point above;
    every node is a seed when ``n_seeds`` is None."""
    edges = _distinct_edges(edges_ds)

    def count_out(group: pa.Table) -> pa.Table:
        g = group.group_by(["src"]).aggregate([([], "count_all")])
        return pa.table({"node": g.column("src"),
                         "outdeg": g.column("count_all").cast(pa.int64())})

    outdeg = bucket_groupby(edges, count_out).materialize()
    seeds = None
    if n_seeds is not None:
        # bounded partial top-k per block, then a single tiny final
        # merge — never the whole degree table
        top = outdeg.map_batches(_top_outdeg_partial(n_seeds),
                                 batch_format="pyarrow") \
            .repartition(1).map_batches(
                _top_outdeg_partial(n_seeds), batch_format="pyarrow",
                batch_size=None).take_all()
        seeds = pa.array(sorted(r["node"] for r in top), pa.string())

    def restart(node, value: int):
        """``value`` at the seed nodes, 0 elsewhere (int64)."""
        if seeds is None:
            return pa.array(np.full(len(node), value, np.int64))
        return pc.if_else(pc.is_in(node, value_set=seeds),
                          pa.scalar(value, pa.int64()),
                          pa.scalar(0, pa.int64()))

    def init(nodes: pa.Table, od: pa.Table) -> pa.Table:
        g = pa.table({"node": pc.unique(nodes.column("node"))}) \
            .join(od, keys="node", join_type="left outer")
        return pa.table({"node": g.column("node"),
                         "rank": restart(g.column("node"), PR_SCALE),
                         "outdeg": pc.fill_null(g.column("outdeg"), 0)})

    def contribute(r: pa.Table, e: pa.Table) -> pa.Table:
        """Each edge carries its src's damped rank share to dst; each
        rank row also sends (node, 0, outdeg), so every node survives
        the reduce with its out-degree."""
        j = e.join(r, keys="src", right_keys="node", join_type="inner")
        od = j.column("outdeg").to_numpy()
        share = (j.column("rank").to_numpy() * DAMP_NUM // DAMP_DEN) \
            // np.where(od > 0, od, 1)   # the src of an edge has outdeg>0
        return pa.table({
            "node": pa.concat_arrays([j.column("dst").combine_chunks(),
                                      r.column("node").combine_chunks()]),
            "contrib": pa.array(np.concatenate(
                [share, np.zeros(r.num_rows, np.int64)]), pa.int64()),
            "outdeg": pa.concat_arrays([
                pa.nulls(j.num_rows, pa.int64()),
                r.column("outdeg").combine_chunks()]),
        })

    def reduce_(m: pa.Table) -> pa.Table:
        g = m.group_by(["node"]).aggregate([("contrib", "sum"),
                                            ("outdeg", "max")])
        return pa.table({
            "node": g.column("node"),
            "rank": pc.add(restart(g.column("node"), PR_BASE),
                           g.column("contrib_sum").cast(pa.int64())),
            "outdeg": g.column("outdeg_max")})

    nodes = edges.map_batches(_endpoints, batch_format="pyarrow",
                              batch_size=None)
    ranks = bucket_join(nodes, outdeg, init, on="node",
                        left_schema=_NODE_SCHEMA,
                        right_schema=_OUTDEG_SCHEMA).materialize()
    for _ in range(iters):
        ranks = superstep(ranks, edges, contribute, reduce_,
                          state_schema=_RANK_SCHEMA,
                          edge_schema=_EDGE_SCHEMA)
    return ranks.select_columns(["node", "rank"]) \
        .rename_columns({"rank": "pr"})


def pagerank(edges_ds, iters: int = 3):
    """Fixed-point integer PageRank over distinct (subj -> obj) edges:
    (node, pr) with pr = rank * 1e6 after ``iters`` iterations,
    damping 0.85, dangling mass dropped — the fixed point above with
    every node a seed:

    rank'(n) = 150000 + sum over in-edges (m,n) of
               (rank(m) * 85 // 100) // outdeg(m)
    """
    _check_params("pagerank", iters=iters)
    return _seeded_pagerank(edges_ds, iters, None)


def ppr(edges_ds, iters: int = 3, n_seeds: int = PPR_SEEDS):
    """Personalized PageRank: (node, pr) after ``iters`` iterations of
    the seed-restart fixed point above. All-integer, bit-exact vs the
    unrolled DuckDB twin (:func:`ppr_sql`)."""
    _check_params("ppr", iters=iters, n_seeds=n_seeds)
    return _seeded_pagerank(edges_ds, iters, n_seeds)


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
    _check_params("ppr_sql", iters=iters, n_seeds=n_seeds)
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
# canonical edges -> degree table -> two bucket joins attach the
# endpoint degrees -> orient -> per-src wedge emission -> one wedge vs
# edge bucket join -> per-corner count. Every stage is a bucketed
# exchange with vectorized Arrow/numpy kernels; inter-stage state is
# edge- or wedge-mass Datasets, never driver memory.


def _tri_canon_partial(batch: pa.Table) -> pa.Table:
    """Per-block: canonical (min, max) endpoints, self-loops dropped,
    block-local distinct, bucketed by the ordered pair hash."""
    s = batch.column("subj").cast(pa.string()).combine_chunks()
    o = batch.column("obj").cast(pa.string()).combine_chunks()
    m = pc.less(s, o)
    t = pa.table({"a": pc.if_else(m, s, o), "b": pc.if_else(m, o, s)})
    t = t.filter(pc.not_equal(t.column("a"), t.column("b")))
    return with_bucket(t.group_by(["a", "b"]).aggregate([]), ["a", "b"])


def _tri_distinct_bucket(group: pa.Table) -> pa.Table:
    return group.group_by(["a", "b"]).aggregate([])


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
    return g.rename_columns(["node", "deg"])


def _attach_deg_a(e: pa.Table, deg: pa.Table) -> pa.Table:
    """First degree join (keyed by endpoint a): (a, b, deg_a)."""
    return e.join(deg, keys="a", right_keys="node", join_type="inner") \
        .rename_columns(["a", "b", "deg_a"])


def _orient(e: pa.Table, deg: pa.Table) -> pa.Table:
    """Second degree join (keyed by endpoint b) + orientation: src =
    (deg, node)-smaller endpoint; carries dst_deg so wedge pairs can be
    ordered without a third join. Bucketed by src for the wedges."""
    j = e.join(deg, keys="b", right_keys="node", join_type="inner")
    a, b = j.column("a"), j.column("b")
    da, db = j.column("deg_a"), j.column("deg")
    fwd = pc.or_(pc.less(da, db),
                 pc.and_(pc.equal(da, db), pc.less(a, b)))
    return with_bucket(pa.table({
        "src": pc.if_else(fwd, a, b),
        "dst": pc.if_else(fwd, b, a),
        "dst_deg": pc.if_else(fwd, db, da),
    }), "src")


def _tri_wedge_bucket(group: pa.Table) -> pa.Table:
    """One src bucket of oriented edges: all out-neighbor pairs (v, w)
    with (deg_v, v) < (deg_w, w) — the orientation order, so the closing
    edge (if any) is exactly v -> w. Emits (v, w, u=src corner)."""
    from .bucketing import segment_pair_indices
    g = group.sort_by([("src", "ascending"), ("dst_deg", "ascending"),
                       ("dst", "ascending")])
    src = g.column("src").combine_chunks()
    dst = g.column("dst").combine_chunks()
    ia, ib = segment_pair_indices([src.dictionary_encode().indices
                                   .to_numpy(zero_copy_only=False)])
    return pa.table({"v": dst.take(ia), "w": dst.take(ib),
                     "u": src.take(ia)})


_CANON_SCHEMA = pa.schema([("a", pa.string()), ("b", pa.string())])
_DEG_SCHEMA = pa.schema([("node", pa.string()), ("deg", pa.int64())])
_DEG_A_SCHEMA = _CANON_SCHEMA.append(pa.field("deg_a", pa.int64()))
_WEDGE_SCHEMA = pa.schema([
    ("v", pa.string()), ("w", pa.string()), ("u", pa.string()),
])


def _closed(fn):
    """Wedge-closing join kernel: the wedges (v, w, u) whose pair is an
    oriented edge (v -> w) are the triangles, each once from its
    smallest corner u; ``fn(u, v, w)`` turns them into output rows.
    Oriented edges are distinct, so each triangle matches once."""
    def kern(wedges: pa.Table, edges: pa.Table) -> pa.Table:
        tri = wedges.join(edges, keys=["v", "w"],
                          right_keys=["src", "dst"], join_type="inner")
        return fn(*(tri.column(c).combine_chunks() for c in "uvw"))
    return kern


@_closed
def _tri_corners(u, v, w) -> pa.Table:
    """One count row per triangle corner, bucketed by node."""
    node = pa.concat_arrays([u, v, w])
    return with_bucket(pa.table({
        "node": node, "n": pa.array(np.ones(len(node), np.int64))}),
        "node")


def _tri_final_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["node"]).aggregate([("n", "sum")])
    return g.rename_columns(["node", "n_triangles"])


def _canonical_edges(edges_ds):
    """The materialized distinct canonical (a < b) edge set — the base
    every undirected analytic (triangles, clustering, neighbor Jaccard,
    k-truss, k-core) shares."""
    canon = edges_ds.map_batches(_tri_canon_partial,
                                 batch_format="pyarrow", batch_size=None)
    return bucket_groupby(canon, _tri_distinct_bucket).materialize()


def _simple_graph(edges_ds):
    """:func:`_canonical_edges` and its (node, deg) table."""
    e = _canonical_edges(edges_ds)
    return e, _degrees(e)


def _degrees(e):
    """The materialized (node, deg) table of a canonical edge set."""
    dp = e.map_batches(_tri_deg_partial, batch_format="pyarrow",
                       batch_size=None)
    return bucket_groupby(dp, _tri_deg_bucket).materialize()


def _closed_wedges(e, deg, fn):
    """Degree-orient a materialized canonical edge set (two bucket joins
    attach the endpoint degrees), emit its wedges per src, and join them
    against the oriented edges with the :func:`_closed` kernel ``fn`` —
    shared by triangle counting and the k-truss support rounds."""
    with_a = bucket_join(e, deg, _attach_deg_a, on="a", right_on="node",
                         left_schema=_CANON_SCHEMA, right_schema=_DEG_SCHEMA)
    oriented = bucket_join(with_a, deg, _orient, on="b", right_on="node",
                           left_schema=_DEG_A_SCHEMA,
                           right_schema=_DEG_SCHEMA).materialize()
    wedges = bucket_groupby(oriented, _tri_wedge_bucket)
    return bucket_join(wedges, oriented, fn, on=["v", "w"],
                       right_on=["src", "dst"], left_schema=_WEDGE_SCHEMA,
                       right_schema=_EDGE_SCHEMA)


def _triangle_core(edges_ds):
    """Shared pipeline: returns (deg_ds, tri_ds) — the simple-graph
    degree table and the per-node triangle counts."""
    e, deg = _simple_graph(edges_ds)
    corners = _closed_wedges(e, deg, _tri_corners)
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


@_closed
def _truss_edges(u, v, w) -> pa.Table:
    """The 3 edges of each triangle as canonical (min, max) pairs for
    the per-edge support sum, bucketed by the pair."""
    x = pa.concat_arrays([u, u, v])
    y = pa.concat_arrays([v, w, w])
    lt = pc.less(x, y)
    return with_bucket(pa.table({
        "a": pc.if_else(lt, x, y), "b": pc.if_else(lt, y, x),
        "n": pa.array(np.ones(len(x), np.int64))}), ["a", "b"])


def _truss_reduce_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["a", "b"]).aggregate([("n", "sum")])
    return g.rename_columns(["a", "b", "support"])


def _edge_support(e, deg):
    """Per-edge triangle support over a materialized canonical edge set:
    (a, b, support); zero-support edges are absent."""
    return bucket_groupby(_closed_wedges(e, deg, _truss_edges),
                          _truss_reduce_bucket)


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
        return kept.select(["a", "b"])

    e, deg = _simple_graph(edges_ds)
    sup = _edge_support(e, deg).materialize()
    for _ in range(rounds - 1):
        # the peeled edge set and its degrees feed only the next round
        e = sup.map_batches(keep_edges, batch_format="pyarrow") \
            .materialize()
        sup = _edge_support(e, _degrees(e)).materialize()

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


_TRI_SCHEMA = pa.schema([("node", pa.string()),
                         ("n_triangles", pa.int64())])


def _cc_join(degs: pa.Table, tris: pa.Table) -> pa.Table:
    """One node bucket of degree rows + triangle rows: left join
    (zero-triangle nodes kept), integer coefficient
    2 * tri * 1e6 // (deg * (deg - 1)) for deg >= 2."""
    degs = degs.filter(pc.greater_equal(degs.column("deg"),
                                        pa.scalar(2, pa.int64())))
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
    the oracle compares bit-for-bit. One node-keyed bucket join on top
    of the shared triangle pipeline."""
    deg, tri = _triangle_core(edges_ds)
    return bucket_join(deg, tri, _cc_join, on="node",
                       left_schema=_DEG_SCHEMA, right_schema=_TRI_SCHEMA)


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
# Unit-weight :func:`sssp`: round k of the shared Bellman-Ford relaxation
# is the minimum over paths of at most k edges, so with weight 1 it is
# exactly the shortest hop count within ``max_depth``.


def _unit_weight(batch: pa.Table) -> pa.Array:
    return pa.array(np.ones(batch.num_rows, np.int64))


def bfs_reach(edges_ds, seed: str | None = None, max_depth: int = 3):
    """Shortest-hop distance (<= ``max_depth``) from ``seed`` over the
    UNDIRECTED edge set: (node, dist). Default seed = lexicographically
    smallest node, computed with a per-block combiner + one-task merge
    (never a driver fold). One superstep per level; inter-level state
    is the visited-node table."""
    _check_params("bfs_reach", max_depth=max_depth)
    return _shortest_paths(_distinct_edges(
        edges_ds, symmetric=True, weight=_unit_weight), seed, max_depth)


def bfs_reach_sql(triples_glob: str, max_depth: int = 3) -> str:
    """DuckDB twin: depth-bounded recursive CTE over the symmetric
    edge set, min-hop per node, seed = min endpoint."""
    _check_params("bfs_reach_sql", max_depth=max_depth)
    return f"""
        WITH RECURSIVE e AS (
          SELECT DISTINCT CAST(subj AS VARCHAR) AS src,
                 CAST(obj AS VARCHAR) AS dst
          FROM read_parquet('{triples_glob}')
          UNION
          SELECT DISTINCT CAST(obj AS VARCHAR), CAST(subj AS VARCHAR)
          FROM read_parquet('{triples_glob}')
        ), r(node, d) AS (
          SELECT min(src), 0 FROM e HAVING min(src) IS NOT NULL
          UNION
          SELECT e.dst, r.d + 1 FROM r JOIN e ON e.src = r.node
          WHERE r.d < {max_depth}
        )
        SELECT node, CAST(min(d) AS BIGINT) AS dist FROM r GROUP BY node"""


def pagerank_sql(triples_glob: str, iters: int = 3) -> str:
    """Unrolled DuckDB oracle for :func:`pagerank` — one CTE per
    iteration, all-integer arithmetic, bit-exact vs the engine."""
    _check_params("pagerank_sql", iters=iters)
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
    ("node", pa.string()),
])


def _rw_starts(n_walks: int):
    """Bucket kernel: one step-0 frontier row per (distinct src,
    walk_idx) — every node with out-degree >= 1 starts n_walks walks."""

    def kern(group: pa.Table) -> pa.Table:
        srcs = np.asarray(pc.unique(group.column("src")).to_pylist())
        srcs = np.sort(srcs)
        rep = np.repeat(srcs, n_walks)
        walks = np.tile(np.arange(n_walks, dtype=np.int64), len(srcs))
        nodes = pa.array(rep, pa.string())
        return pa.table({"start_node": nodes, "walk": pa.array(walks),
                         "node": nodes})

    return kern


def _rw_step(step: int):
    """Bucket-join kernel for one walk step: per frontier row standing on
    node u, the next hop is u's sorted-neighbor list indexed by
    mix64([fnv1a(u), walk << 32 | step]) % outdeg(u) — the choice is a
    pure function of (node, walk, step), so any execution order (and
    the SQL twin) reproduces it bit-for-bit. Dead ends (outdeg 0)
    terminate the walk."""
    from .bucketing import mix64

    def kern(fr: pa.Table, edges: pa.Table) -> pa.Table:
        if fr.num_rows == 0 or edges.num_rows == 0:
            return _RW_FRONTIER_SCHEMA.empty_table()
        esrc = np.asarray(edges.column("src").to_pylist())
        edst = np.asarray(edges.column("dst").to_pylist())
        order = np.lexsort((edst, esrc))
        esrc, edst = esrc[order], edst[order]
        fsrc = np.asarray(fr.column("node").to_pylist())
        lo = np.searchsorted(esrc, fsrc, side="left")
        hi = np.searchsorted(esrc, fsrc, side="right")
        deg = (hi - lo).astype(np.uint64)
        alive = deg > 0
        if not alive.any():
            return _RW_FRONTIER_SCHEMA.empty_table()
        lo, deg = lo[alive], deg[alive]
        walks = fr.column("walk").to_numpy(zero_copy_only=False)[alive]
        starts = np.asarray(
            fr.column("start_node").to_pylist())[alive]
        a2 = (walks.astype(np.uint64) * np.uint64(1 << 32)
              + np.uint64(step))
        r = mix64([fnv1a_hashes(fr.column("node").filter(alive)), a2])
        return pa.table({
            "start_node": pa.array(starts, pa.string()),
            "walk": pa.array(walks.astype(np.int64)),
            "node": pa.array(edst[lo + (r % deg).astype(np.int64)],
                             pa.string()),
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
    bucket join per hop (frontier keyed by node, edges by src) whose
    exchanged mass is the frontier (nodes x n_walks rows, shrinking
    with dead ends) plus the edge table; inter-level state is the
    frontier, never the walks-so-far (steps are emitted as they
    happen, so walk payload never crosses the wire twice)."""
    edges = _distinct_edges(edges_ds)
    frontier = bucket_groupby(
        edges, _rw_starts(n_walks), pre_repartition=False).materialize()
    out = frontier.map_batches(_rw_stamp(0), batch_format="pyarrow")
    for k in range(walk_len):
        frontier = bucket_join(frontier, edges, _rw_step(k), on="node",
                               right_on="src",
                               left_schema=_RW_FRONTIER_SCHEMA,
                               right_schema=_EDGE_SCHEMA).materialize()
        out = out.union(frontier.map_batches(_rw_stamp(k + 1),
                                             batch_format="pyarrow"))
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
# two node-keyed bucket joins attach deg_a / deg_b (no broadcast of the
# node-sized degree table).

NJ_HUB_CAP = 32
NJ_MIN_COMMON = 2
NJ_SCALE = 1_000_000

_NJ_COMMON_SCHEMA = pa.schema([
    ("na", pa.string()), ("nb", pa.string()), ("n_common", pa.int64()),
])
_NJ_WITH_A_SCHEMA = _NJ_COMMON_SCHEMA.append(pa.field("deg_a", pa.int64()))


def _nj_center_partial(batch: pa.Table) -> pa.Table:
    """Route each distinct edge in both directions, keyed by center."""
    a = batch.column("a").combine_chunks()
    b = batch.column("b").combine_chunks()
    return with_bucket(pa.table({"c": pa.concat_arrays([a, b]),
                                 "nbr": pa.concat_arrays([b, a])}), "c")


def _nj_wedges_bucket(hub_cap: int):
    def fn(group: pa.Table) -> pa.Table:
        from .bucketing import segment_pair_indices
        g = group.sort_by([("c", "ascending"), ("nbr", "ascending")])
        # sorted, so a center is one run of equal dictionary codes; run
        # size = center degree (edges are globally distinct). Drop hub
        # centers BEFORE pair generation
        c = g.column("c").combine_chunks().dictionary_encode().indices \
            .to_numpy(zero_copy_only=False)
        keep = np.bincount(c)[c] <= hub_cap
        ia, ib = segment_pair_indices([c[keep]])
        nbr = g.column("nbr").combine_chunks().filter(pa.array(keep))
        return with_bucket(pa.table({        # nbr-sorted: na < nb
            "na": nbr.take(ia), "nb": nbr.take(ib)}), ["na", "nb"])
    return fn


def _nj_common_bucket(min_common: int):
    def fn(group: pa.Table) -> pa.Table:
        g = group.group_by(["na", "nb"]).aggregate([([], "count_all")]) \
            .rename_columns(["na", "nb", "n_common"])
        return g.filter(pc.greater_equal(g.column("n_common"),
                                         pa.scalar(min_common, pa.int64())))
    return fn


def _nj_attach_a(pairs: pa.Table, deg: pa.Table) -> pa.Table:
    """Attach deg of node_a (the join is keyed by na)."""
    return pairs.join(deg, keys="na", right_keys="node",
                      join_type="inner") \
        .rename_columns(["na", "nb", "n_common", "deg_a"])


def _nj_final(pairs: pa.Table, deg: pa.Table) -> pa.Table:
    """Attach deg of node_b (keyed by nb); integer Jaccard."""
    j = pairs.join(deg, keys="nb", right_keys="node", join_type="inner")
    com, da, db = (j.column(c).to_numpy(zero_copy_only=False)
                   .astype(np.int64) for c in ("n_common", "deg_a", "deg"))
    return pa.table({
        "node_a": j.column("na"),
        "node_b": j.column("nb"),
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
    with_a = bucket_join(common, deg, _nj_attach_a, on="na",
                         right_on="node", left_schema=_NJ_COMMON_SCHEMA,
                         right_schema=_DEG_SCHEMA)
    return bucket_join(with_a, deg, _nj_final, on="nb", right_on="node",
                       left_schema=_NJ_WITH_A_SCHEMA,
                       right_schema=_DEG_SCHEMA)


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
    return with_bucket(t, ["p1", "p2"])


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
    t = pa.table({"subj": batch.column("subj").cast(pa.string()),
                  "pred": batch.column("pred").cast(pa.string()),
                  "obj": batch.column("obj").cast(pa.string())})
    g = t.group_by(["subj", "pred", "obj"]).aggregate([])
    # order-sensitive mixer, NOT xor: xor would collapse symmetric
    # triples (a,p,b)/(b,p,a) into one bucket and cancel self-loops
    # down to hash(pred), defeating the 64-way skew spread
    return with_bucket(g, ["subj", "pred", "obj"])


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
    e = _canonical_edges(edges_ds)

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
# is one superstep (a bucket join of the vector with the edges keyed by
# the contributing endpoint, then a reduce keyed by the receiving
# endpoint) with node-sized inter-round state. Values are bounded by
# max_degree * HITS_SCALE (renorm pins the vector max to HITS_SCALE),
# so the renorm multiply stays under 2^63 up to ~9e12-degree hubs;
# guarded by an explicit overflow assert rather than silent wrap.

HITS_SCALE = 1_000_000
HITS_ITERS = 2
_VAL_SCHEMA = pa.schema([("node", pa.string()), ("val", pa.int64())])


def _hits_half(vec, edges, key_col: str, other_col: str):
    """One half-step: contributions flow from ``key_col`` (where the
    current vector lives) to ``other_col``; returns the renormalized
    receiving vector, materialized."""
    def contrib(v: pa.Table, e: pa.Table) -> pa.Table:
        j = e.join(v, keys=key_col, right_keys="node", join_type="inner")
        g = j.group_by([other_col]).aggregate([("val", "sum")])
        return g.rename_columns(["node", "val"])

    def total(m: pa.Table) -> pa.Table:
        g = m.group_by(["node"]).aggregate([("val", "sum")])
        return g.rename_columns(["node", "val"])

    red = superstep(vec, edges, contrib, total, state_schema=_VAL_SCHEMA,
                    edge_schema=_EDGE_SCHEMA, edge_on=key_col)
    mx = max(int(red.max("val") or 0), 1)
    if mx > (1 << 62) // HITS_SCALE:
        raise OverflowError("HITS renorm would overflow int64")

    def renorm(batch: pa.Table) -> pa.Table:
        v = batch.column("val").to_numpy()
        return pa.table({
            "node": batch.column("node"),
            "val": pa.array(v * np.int64(HITS_SCALE) // np.int64(mx),
                            pa.int64()),
        })

    return red.map_batches(renorm, batch_format="pyarrow").materialize()


def _hits_fold(hub: pa.Table, auth: pa.Table) -> pa.Table:
    j = hub.rename_columns(["node", "hub"]).join(
        auth.rename_columns(["node", "auth"]), keys="node",
        join_type="full outer")
    return pa.table({"node": j.column("node"),
                     "hub": pc.fill_null(j.column("hub"), 0),
                     "auth": pc.fill_null(j.column("auth"), 0)})


def hits(edges_ds, iters: int = HITS_ITERS):
    """(node, hub, auth) integer HITS scores after ``iters`` >= 1 full
    iterations (vector max pinned at HITS_SCALE; nodes receiving no
    mass score 0). Every node is a src or a dst, so it has a hub or an
    auth row and the final full outer join keeps it. Requires an active
    Ray session."""
    _check_params("hits", least=1, iters=iters)
    e = _distinct_edges(edges_ds)

    def ones(group: pa.Table) -> pa.Table:
        g = group.group_by(["node"]).aggregate([])
        return g.append_column(
            "val", pa.array(np.ones(g.num_rows, np.int64)))

    h = bucket_groupby(e.map_batches(_endpoints, batch_format="pyarrow",
                                     batch_size=None), ones).materialize()
    for _ in range(iters):
        a = _hits_half(h, e, "src", "dst")
        h = _hits_half(a, e, "dst", "src")
    return bucket_join(h, a, _hits_fold, on="node",
                       left_schema=_VAL_SCHEMA, right_schema=_VAL_SCHEMA)


def hits_sql(triples_glob: str, iters: int = HITS_ITERS) -> str:
    """Unrolled DuckDB twin: identical integer renorm per half-step."""
    _check_params("hits_sql", least=1, iters=iters)
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
# Shape: one symmetric min-weight edge exchange up front, then one
# superstep per round (dist table + src-keyed edges -> relaxed
# candidates, min-reduced per node) — the pagerank cost structure.
# Inter-round state is the node-sized dist table; each round k yields
# exactly "min weight over <= k-edge paths" (the Bellman-Ford DP), which
# is what the twin's `hops < H` enumeration collapses to under min().
# bfs_reach is the same relaxation with unit weights. At 100 TB: rounds
# are fixed (H), each round's join mass is the dist-adjacent edge set,
# and hot seeds salt the same way the components labels do.

SSSP_MAX_HOPS = 4
_SSSP_WT_MOD = 4
_DIST_SCHEMA = pa.schema([("node", pa.string()), ("dist", pa.int64())])


def _pred_weight(batch: pa.Table) -> pa.Array:
    ln = pc.utf8_length(batch.column("pred").cast(pa.string())) \
        .to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.array(ln % _SSSP_WT_MOD + 1, pa.int64())


def _min_src(edges) -> str | None:
    """The lexicographically smallest src of an edge Dataset (None when
    it has no rows): a per-block combiner + one-task merge (never a
    driver fold)."""
    def smallest(batch: pa.Table) -> pa.Table:
        return pa.table({"src": pa.array(
            [pc.min(batch.column("src")).as_py()], pa.string())})

    rows = edges.map_batches(smallest, batch_format="pyarrow",
                             batch_size=None) \
        .repartition(1) \
        .map_batches(smallest, batch_format="pyarrow",
                     batch_size=None).take_all()
    return rows[0]["src"] if rows else None


def _relax(d: pa.Table, e: pa.Table) -> pa.Table:
    """Every dist row relaxes its out-edges; dist rows pass through."""
    j = e.join(d, keys="src", right_keys="node", join_type="inner")
    return pa.table({
        "node": pa.concat_arrays([d.column("node").combine_chunks(),
                                  j.column("dst").combine_chunks()]),
        "dist": pa.concat_arrays([
            d.column("dist").combine_chunks(),
            pc.add(j.column("dist"), j.column("wt")).combine_chunks()]),
    })


def _shortest(m: pa.Table) -> pa.Table:
    g = m.group_by(["node"]).aggregate([("dist", "min")])
    return g.rename_columns(["node", "dist"])


def _shortest_paths(edges, seed: str | None, rounds: int):
    """(node, dist) after ``rounds`` Bellman-Ford supersteps from
    ``seed`` (default: the smallest src; no rows when there is no edge
    to take it from) over materialized weighted (src, dst, wt) edges."""
    import ray.data
    if seed is None:
        seed = _min_src(edges)
        if seed is None:
            return ray.data.from_arrow(_DIST_SCHEMA.empty_table())
    dist = ray.data.from_arrow(pa.table({
        "node": pa.array([seed], pa.string()),
        "dist": pa.array([0], pa.int64())}))
    for _ in range(rounds):
        dist = superstep(dist, edges, _relax, _shortest,
                         state_schema=_DIST_SCHEMA,
                         edge_schema=_WT_EDGE_SCHEMA)
    return dist


def sssp(edges_ds, seed: str | None = None,
         max_hops: int = SSSP_MAX_HOPS):
    """(node, dist): minimum predicate-weighted distance from ``seed``
    over paths of <= ``max_hops`` edges on the undirected KG (weights
    ``1 + len(pred) % 4``, min per pair). Default seed = lexicographic
    minimum endpoint, computed with a per-block combiner + one-task
    merge (never a driver fold). Requires an active Ray session."""
    _check_params("sssp", max_hops=max_hops)
    return _shortest_paths(_distinct_edges(
        edges_ds, symmetric=True, weight=_pred_weight), seed, max_hops)


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
    _check_params("sssp_sql", max_hops=max_hops)
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
          SELECT min(src), 0, 0 FROM e HAVING min(src) IS NOT NULL
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
# Shape per round: one superstep — a bucket join of the labels with the
# dst-keyed edges (-> per (node, neighbor-label) partial counts), then
# the argmax reduce keyed by node — over edge mass, with node-sized
# inter-round state: the components/pagerank cost class.

LP_ROUNDS = 3
_LABEL_SCHEMA = pa.schema([("node", pa.string()), ("label", pa.string())])


def _lp_count(labels: pa.Table, e: pa.Table) -> pa.Table:
    """Attach each edge's dst label; per-(src, label) partial counts,
    addressed to src."""
    j = e.join(labels, keys="dst", right_keys="node", join_type="inner")
    g = j.group_by(["src", "label"]).aggregate([([], "count_all")])
    return g.rename_columns(["node", "label", "n"])


def _lp_argmax(m: pa.Table) -> pa.Table:
    """Sum the per-(node, label) partials, then per node keep the
    (count desc, label asc) argmax — vectorized first-of-sorted-run."""
    g = m.group_by(["node", "label"]).aggregate([("n", "sum")])
    g = g.rename_columns(["node", "label", "n"])
    g = g.take(pc.sort_indices(g, sort_keys=[
        ("node", "ascending"), ("n", "descending"),
        ("label", "ascending")]))
    codes = g.column("node").combine_chunks().dictionary_encode() \
        .indices.to_numpy(zero_copy_only=False)
    first = np.ones(len(codes), bool)
    first[1:] = codes[1:] != codes[:-1]
    return g.filter(pa.array(first)).select(["node", "label"])


def lp_communities(edges_ds, rounds: int = LP_ROUNDS):
    """(node, label) after ``rounds`` synchronous label-propagation
    rounds over the undirected distinct edge set (most-frequent
    neighbor label, ties -> smallest). Requires an active Ray
    session."""
    _check_params("lp_communities", rounds=rounds)
    sym = _distinct_edges(edges_ds, symmetric=True)

    def self_label(group: pa.Table) -> pa.Table:
        u = pc.unique(group.column("node"))
        return pa.table({"node": u, "label": u})

    labels = bucket_groupby(sym.map_batches(
        _endpoints, batch_format="pyarrow", batch_size=None),
        self_label).materialize()
    for _ in range(rounds):
        labels = superstep(labels, sym, _lp_count, _lp_argmax,
                           state_schema=_LABEL_SCHEMA,
                           edge_schema=_EDGE_SCHEMA, edge_on="dst")
    return labels


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
    _check_params("lp_communities_sql", rounds=rounds)
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
    sp = edges_ds.map_batches(_edge_partial(symmetric=True),
                              batch_format="pyarrow", batch_size=None)
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
