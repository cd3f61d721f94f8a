"""The graph ops' exchange seam: ``bucket_join`` against an in-process
Arrow join, the bucketed-exchange count of every op built on
``bucket_join`` / ``superstep``, and loud failure on out-of-domain
round / seed parameters in the engine ops and their SQL twins."""

from __future__ import annotations

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st


def _colliding_keys(n: int = 3) -> list[str]:
    """``n`` distinct keys that share one string bucket."""
    from casie_ray.ops.bucketing import _str_bucket

    keys = [f"k{i}" for i in range(400)]
    by_bucket: dict[int, list[str]] = {}
    for k, b in zip(keys, _str_bucket(pa.array(keys)).to_pylist()):
        by_bucket.setdefault(b, []).append(k)
    return next(v for v in by_bucket.values() if len(v) >= n)[:n]


KEYS = st.sampled_from(["a", "b", "", None] + _colliding_keys())
ROWS = st.lists(st.tuples(KEYS, st.integers(-5, 5)), max_size=12)


def _dataset(t: pa.Table, layout: str):
    """``t`` as a Ray Dataset: one block, a lazy map whose schema is not
    known yet, a sliced table, two chunks per column, or two blocks."""
    import ray.data

    k = t.num_rows // 2
    if layout == "lazy":
        return ray.data.from_arrow(t).map_batches(
            lambda b: b, batch_format="pyarrow")
    if layout == "sliced":
        pad = pa.table({c: pa.nulls(1, t.schema.field(c).type)
                        for c in t.column_names})
        t = pa.concat_tables([pad, t]).combine_chunks().slice(1)
    elif layout == "chunked":
        t = pa.concat_tables([t.slice(0, k), t.slice(k)])
    elif layout == "blocks":
        return ray.data.from_arrow([t.slice(0, k), t.slice(k)])
    return ray.data.from_arrow(t)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ROWS, ROWS,
       st.sampled_from(["inner", "left outer", "full outer"]),
       st.sampled_from(["plain", "lazy", "sliced", "chunked", "blocks"]),
       st.sampled_from(["plain", "lazy", "sliced", "chunked", "blocks"]))
@example([], [("a", 1)], "left outer", "lazy", "plain")
@example([("a", 1), (None, 2)], [("a", 3), (None, 4)], "full outer",
         "lazy", "sliced")
def test_bucket_join_matches_arrow_join(ray_session, left, right, how,
                                        l_layout, r_layout):
    """Repeated keys, an empty side, keys sharing a bucket, null and ''
    keys, lazy / sliced / two-chunk / two-block inputs, and sides keyed
    by different column names: the per-bucket join equals one Arrow
    join of the whole tables (a null key never matches)."""
    from casie_ray.ops.bucketing import bucket_join

    lt = pa.table({"k": pa.array([k for k, _ in left], pa.string()),
                   "lv": pa.array([v for _, v in left], pa.int64())})
    rt = pa.table({"rk": pa.array([k for k, _ in right], pa.string()),
                   "rv": pa.array([v for _, v in right], pa.int64())})

    def join(a: pa.Table, b: pa.Table) -> pa.Table:
        return a.join(b, keys="k", right_keys="rk", join_type=how)

    joined = bucket_join(_dataset(lt, l_layout), _dataset(rt, r_layout),
                         join, on="k", right_on="rk",
                         left_schema=lt.schema, right_schema=rt.schema)
    want = join(lt, rt).to_pylist()
    assert sorted(map(repr, joined.take_all())) == sorted(map(repr, want))


def test_bucket_join_rejects_conflicting_column_types(ray_session):
    import ray.data

    from casie_ray.ops.bucketing import bucket_join

    a = pa.table({"k": ["x"], "v": [1]})
    b = pa.table({"k": ["x"], "v": ["1"]})
    with pytest.raises(TypeError, match="'v'"):
        bucket_join(ray.data.from_arrow(a), ray.data.from_arrow(b),
                    lambda x, y: x, on="k", left_schema=a.schema,
                    right_schema=b.schema)


def test_bucket_join_empty_side_gets_its_declared_schema(ray_session):
    """An exchange over no rows yields a Dataset with no schema; the
    declared schema stands in for it, so ``fn`` still gets that side
    as an empty table with its columns."""
    import ray.data

    from casie_ray.ops.bucketing import bucket_groupby, bucket_join

    empty = bucket_groupby(ray.data.from_arrow(pa.table({
        "rk": pa.array([], pa.string()),
        "bucket": pa.array([], pa.int32())})), lambda g: g).materialize()
    assert empty.schema(fetch_if_missing=False) is None
    left = pa.table({"k": ["a", "b"]})

    def join(a: pa.Table, b: pa.Table) -> pa.Table:
        return a.join(b, keys="k", right_keys="rk", join_type="left outer")

    got = bucket_join(ray.data.from_arrow(left), empty, join, on="k",
                      right_on="rk", left_schema=left.schema,
                      right_schema=pa.schema([("rk", pa.string()),
                                              ("rv", pa.int64())]))
    assert sorted(map(repr, got.take_all())) == [
        "{'k': 'a', 'rv': None}", "{'k': 'b', 'rv': None}"]


def _planted_edges():
    """A 5-clique, a triangle hanging off it, a tail and a hub star, with
    predicates of three lengths (so SSSP weights differ)."""
    import ray.data

    clique = [(a, b) for i, a in enumerate("abcde") for b in "abcde"[i + 1:]]
    pairs = clique + [("e", "f"), ("f", "g"), ("g", "e"), ("g", "h"),
                      ("h", "i")] + [("hub", f"x{i}") for i in range(6)]
    preds = ["targets", "uses", "is"]
    return ray.data.from_arrow(pa.table({
        "subj": [a for a, _ in pairs],
        "pred": [preds[i % 3] for i in range(len(pairs))],
        "obj": [b for _, b in pairs]}))


# bucket_groupby calls per op at default parameters: the exchange
# structure each op had before it moved onto bucket_join / superstep
EXCHANGES = {
    "pagerank": 9, "ppr": 9, "bfs_reach": 7, "sssp": 9,
    "lp_communities": 8, "hits": 11, "triangle_counts": 7, "ktruss": 19,
    "neighbor_jaccard": 6, "clustering_coefficients": 8, "random_walks": 5,
    # k-core: one distinct-edge exchange, one per peeling round (three
    # here) and the final degree count; it builds no degree table
    "kcore": 5,
}


@pytest.mark.parametrize("op", sorted(EXCHANGES))
def test_graph_op_exchange_count(ray_session, monkeypatch, op):
    """A port that adds an exchange per round (or drops one) fails."""
    from casie_ray.ops import bucketing, graphx

    calls = []
    real = bucketing.bucket_groupby

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(bucketing, "bucket_groupby", counting)
    monkeypatch.setattr(graphx, "bucket_groupby", counting)
    assert getattr(graphx, op)(_planted_edges()).count() > 0
    assert len(calls) == EXCHANGES[op]


def test_components_null_endpoint_raises(ray_session):
    import ray.data

    from casie_ray.ops.graph import connected_components

    edges = ray.data.from_arrow(pa.table({
        "src": pa.array(["a", None], pa.string()), "dst": ["b", "c"]}))
    # Ray re-raises a map task's ValueError as a UserCodeException
    with pytest.raises(Exception, match="null src or dst"):
        connected_components(edges).materialize()


OUT_OF_DOMAIN = [
    ("pagerank", {"iters": -1}), ("ppr", {"iters": -1}),
    ("ppr", {"n_seeds": -1}), ("bfs_reach", {"max_depth": -1}),
    ("sssp", {"max_hops": -1}), ("lp_communities", {"rounds": -1}),
    ("hits", {"iters": 0}), ("hits", {"iters": -2}),
]


@pytest.mark.parametrize("twin", [False, True], ids=["engine", "sql"])
@pytest.mark.parametrize("op,kwargs", OUT_OF_DOMAIN,
                         ids=[f"{o}-{next(iter(k))}={next(iter(k.values()))}"
                              for o, k in OUT_OF_DOMAIN])
def test_graph_op_out_of_domain_parameter_raises(ray_session, op, kwargs,
                                                 twin):
    """A negative round / seed count (and HITS with no iteration) raises
    ValueError in the engine op and in its SQL twin, instead of
    returning the initial state, crashing, or emitting invalid SQL."""
    from casie_ray.ops import graphx

    if twin:
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            getattr(graphx, f"{op}_sql")("edges/*.parquet", **kwargs)
    else:
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            getattr(graphx, op)(_planted_edges(), **kwargs).materialize()


def _edge_table(pairs) -> pa.Table:
    return pa.table({"subj": pa.array([a for a, _ in pairs], pa.string()),
                     "pred": pa.array(["p"] * len(pairs), pa.string()),
                     "obj": pa.array([b for _, b in pairs], pa.string())})


@pytest.mark.parametrize("n_walks", [2, 0])
def test_random_walks_dead_ends_match_sql_twin(ray_session, tmp_path,
                                               n_walks):
    """Every walk on a star dies after one hop (and ``n_walks=0`` starts
    none), so later hops join an empty frontier: the walks still equal
    the DuckDB twin's."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data

    from casie_ray.ops.graphx import random_walks, random_walks_sql

    t = _edge_table([("hub", f"x{i}") for i in range(5)])
    pq.write_table(t, f"{tmp_path}/edges.parquet")
    got = random_walks(ray.data.from_arrow(t), n_walks=n_walks,
                       walk_len=3).take_all()
    want = duckdb.sql(random_walks_sql(f"{tmp_path}/edges.parquet",
                                       n_walks, 3)).fetchall()
    assert sorted(tuple(r.values()) for r in got) == sorted(want)
    assert len(want) == 2 * n_walks


@pytest.mark.parametrize("op", ["bfs_reach", "sssp"])
def test_shortest_paths_empty_graph_with_seed(ray_session, op):
    """No edges, an explicit seed: the seed alone at distance 0."""
    import ray.data

    from casie_ray.ops import graphx

    got = getattr(graphx, op)(ray.data.from_arrow(_edge_table([])),
                              seed="z").take_all()
    assert got == [{"node": "z", "dist": 0}]


@pytest.mark.parametrize("op", ["bfs_reach", "sssp"])
def test_shortest_paths_empty_graph_without_seed_matches_sql_twin(
        ray_session, tmp_path, op):
    """No edges and no seed: no node to start from, so no (node, dist)
    row, in the engine op and in its DuckDB twin alike."""
    import duckdb
    import pyarrow.parquet as pq
    import ray.data

    from casie_ray.ops import graphx

    t = _edge_table([])
    pq.write_table(t, f"{tmp_path}/edges.parquet")
    got = getattr(graphx, op)(ray.data.from_arrow(t)).take_all()
    want = duckdb.sql(getattr(graphx, f"{op}_sql")(
        f"{tmp_path}/edges.parquet")).fetchall()
    assert got == [] and want == []


def test_co_mention_null_object_is_shared_with_nobody(ray_session):
    """A null object joins no other row, as in the SQL twin's equi-join
    on obj (duckdb over the same rows)."""
    import duckdb
    import ray.data

    from casie_ray.ops.graphx import co_mention_pairs

    t = _edge_table([("s1", "o1"), ("s2", "o1"), ("s1", "o2"),
                     ("s2", "o2"), ("s1", None), ("s2", None),
                     ("s3", None), ("s3", "o3"), ("s1", "o3")])
    got = co_mention_pairs(ray.data.from_arrow(t)).take_all()
    want = duckdb.sql("""
        WITH so AS (SELECT DISTINCT subj, obj FROM t),
        ok AS (SELECT obj FROM so GROUP BY obj HAVING count(*) <= 32),
        p AS (SELECT a.subj AS subj_a, b.subj AS subj_b
              FROM so a JOIN so b ON a.obj = b.obj
                        JOIN ok ON a.obj = ok.obj
              WHERE a.subj < b.subj)
        SELECT subj_a, subj_b, count(*) AS n_shared FROM p
        GROUP BY subj_a, subj_b HAVING count(*) >= 2""").fetchall()
    assert sorted(tuple(r.values()) for r in got) == sorted(want)
    assert want == [("s1", "s2", 2)]
