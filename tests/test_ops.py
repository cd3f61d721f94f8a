"""Driver-contract parity tests: every SQL-checkable queries() entry is
compared against its oracle_sql() twin exactly the way the driver does
(row count + schema + order-insensitive values), on the real testdata at
sf0.01. Plus unit tests for the distributed union-find primitive.
"""

from __future__ import annotations

import random

import duckdb
import pandas as pd
import pytest

SF_DIR = "/root/testdata/sf0.01"
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


@pytest.fixture(scope="session")
def ddb():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF_DIR}/{t}.parquet')")
    return con


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def _to_df(result) -> pd.DataFrame:
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    return result


SQL_CHECKED = [
    "doc_stats", "doc_token_count", "doc_corpus_stats", "dedup_exact",
    "dedup_jaccard_pairs", "dedup_minhash_lsh", "dedup_simhash_pairs",
    "dedup_embedding_pairs", "dup_clusters", "doc_lang_id",
    "doc_fingerprint", "media_features", "event_class_weights",
    "transcripts_split", "turn_token_features", "doc_sample",
    "vocab_top_words", "vocab_collocations", "media_dedup",
    "ann_topk", "lineitem_agg", "segment_revenue", "top_customers",
    "events_hourly", "distinct_users", "events_asof_orders",
    "events_sessions", "events_prev_gap", "events_funnel",
    "events_pivot",
    "order_lineitem_totals",
    "customer_event_values",
    "events_hourly_watermark",
    "lineitem_price_quantiles", "events_orders_range_join",
    "vocab_top_words_sketch", "hll_distinct_users", "pack_sequences",
    "shuffled_windows", "token_budget_sample", "decontaminate",
    "decontaminate_fuzzy",
    "doc_repetition",
    "customers_no_events", "top_docs_per_lang",
    "kg_degree_hist", "kg_co_mentions", "kg_pagerank",
    "kg_triangles", "kg_reach", "kg_clustering",
    "transcripts_redact",
    # round-3 additions
    "pack_sequences_bpe", "kg_incremental", "dedup_substring_pairs",
    "doc_quality_filter", "doc_stratified_sample", "doc_lm_score",
    "doc_dsir_weights",
    "lineitem_quantiles_by_flag", "events_sliding_counts",
    "lineitem_agg_rollup", "doc_normalize", "doc_bm25_topk",
    "doc_export_partitioned",
    # round-4 additions
    "events_retention", "events_cube", "doc_top_terms",
    "inverted_index", "doc_length_rank", "kmv_distinct_users",
    "curation_pack", "lineitem_corr", "hll_users_by_type",
    "decontaminate_substring", "embedding_pca_gram",
    "events_props_extract", "bloom_segment_registers",
    # the KG trio checks the distributed engine against the persisted
    # sequential-oracle extraction (driver-style, at sf0.01)
    "kg_edges", "kg_nodes", "kg_events", "kg_components",
    "doc_mixture_sample", "doc_ngrams", "events_hourly_anomaly",
    "kg_walks", "similar_docs", "kg_neighbor_jaccard",
    "kg_pred_bigrams", "conv_profiles",
    # round-5 additions (multimodal near-dup family over the
    # integer-exact synthetic media fixture; quantizer family under the
    # exact-integer metric vs persisted sequential twins)
    "media_phash_pairs", "media_audio_fp_pairs", "media_video_near_dup",
    "ann_topk_ivf", "ann_topk_lsh", "embedding_clusters",
    "semantic_dedup_pairs", "dedup_embedding_pairs_lsh",
    "kg_kcore", "countmin_users", "media_shot_boundaries",
    "embedding_pq_codes", "events_window_dedup", "kg_hits",
    "kg_sssp", "kg_communities", "kg_event_transitions",
    "kg_assortativity", "dedup_winnow_pairs",
    "doc_chunks", "transcript_boilerplate",
    "chunk_dup_groups", "transcript_windows",
    "kb_typed_candidates", "tool_transitions",
    "conv_opening_dup_groups", "turn_dep_features", "turn_svo_triples",
    "kg_event_timeline", "kg_negative_samples", "sft_pairs",
    "transcripts_roundtrip",
    # late round-5: personalized PageRank (seed-restart fixed point),
    # bounded-round k-truss peel, KMV register set algebra
    "kg_ppr", "kg_truss", "kmv_type_overlap",
]


@pytest.mark.parametrize("name", SQL_CHECKED)
def test_query_matches_oracle_sql(ray_session, ddb, name):
    import __ray_entry__ as entrymod
    q = entrymod.queries()[name]
    sql = entrymod.oracle_sql()[name]
    got = _normalize(_to_df(q(SF_DIR)))
    want = _normalize(ddb.execute(sql).fetchdf())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want), f"{name}: {len(got)} vs {len(want)} rows"
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_dep_features_hand_checked_tree():
    """Pin the rule-dependency arcs on a hand-derived sentence: root =
    first verb; nsubj before / obj after the verb; right-headed
    compound inside the noun run; nmod through the preposition; the
    root_path truncation at 3 arcs."""
    import pyarrow as pa

    from casie_ray.ops.deps import dep_features_batch

    t = pa.table({
        "conv_id": pa.array(["c1"], pa.string()),
        "turn_idx": pa.array([0], pa.int32()),
        "text": pa.array(
            ["The hackers breached the main server in March"],
            pa.string()),
    })
    df = dep_features_batch(t).to_pandas().set_index("tok_idx")
    want = {
        1: ("DET", 2, "det", 2, "det/nsubj/root"),
        2: ("NOUN", 3, "nsubj", 1, "nsubj/root"),
        3: ("VERB", 0, "root", 0, "root"),
        4: ("DET", 5, "det", 3, "det/compound/obj/+"),
        5: ("NOUN", 6, "compound", 2, "compound/obj/root"),
        6: ("NOUN", 3, "obj", 1, "obj/root"),
        7: ("PREP", 8, "case", 3, "case/nmod/obj/+"),
        8: ("NOUN", 6, "nmod", 2, "nmod/obj/root"),
    }
    for tok, (pos, gov, rel, depth, path) in want.items():
        row = df.loc[tok]
        assert (row["pos"], row["gov_id"], row["gov_rel"],
                row["depth"], row["root_path"]) == \
            (pos, gov, rel, depth, path), f"tok {tok}: {dict(row)}"
    assert df.loc[3, "gov_pos"] == "ROOT" and \
        df.loc[3, "gov_surface"] is None
    assert df.loc[8, "gov_surface"] == "server" and \
        df.loc[8, "gov_pos"] == "NOUN"


def test_svo_triples_hand_checked():
    import pyarrow as pa

    from casie_ray.ops.deps import svo_triples_batch

    t = pa.table({
        "conv_id": pa.array(["c1", "c1"], pa.string()),
        "turn_idx": pa.array([0, 1], pa.int32()),
        "text": pa.array(
            ["The hackers breached the main server in March",
             "attackers stole credentials and exploited flaws"],
            pa.string()),
    })
    got = svo_triples_batch(t).to_pandas()
    trips = set(map(tuple, got[["turn_idx", "subj", "verb", "obj"]]
                    .itertuples(index=False)))
    assert (0, "hackers", "breached", "server") in trips
    assert (1, "attackers", "stole", "credentials") in trips


def test_dep_features_acyclic_and_single_root(ray_session):
    """Structural invariants over real corpus text: exactly one gov-0
    token per non-empty turn, every governor points at an existing
    token of the same turn, and following governors always terminates
    (depth -1 only for chains past the cap, which must still be
    finite)."""
    import collections

    import __ray_entry__ as entrymod

    df = entrymod.queries()["turn_dep_features"](SF_DIR).to_pandas()
    df = df[df.conv_id.isin(df.conv_id.unique()[:40])]
    roots = df[df.gov_id == 0].groupby(["conv_id", "turn_idx"]).size()
    per_turn = df.groupby(["conv_id", "turn_idx"]).size()
    assert (roots == 1).all() and len(roots) == len(per_turn)
    by_turn = collections.defaultdict(dict)
    for row in df.itertuples():
        by_turn[(row.conv_id, row.turn_idx)][row.tok_idx] = row.gov_id
    for govs in by_turn.values():
        for tok, gov in govs.items():
            assert gov == 0 or gov in govs
            seen = set()
            cur = tok
            while cur != 0:
                assert cur not in seen, "cycle in dep tree"
                seen.add(cur)
                cur = govs[cur]


def test_grouped_hll_estimates(ray_session, ddb):
    """Per-type register tables are the exact contract (SQL_CHECKED);
    each group's derived estimate must sit in the HLL error band."""
    import pyarrow as pa

    from casie_ray.ops.sketch import hll_estimate, hll_users_by_type

    regs = pa.concat_tables(hll_users_by_type(SF_DIR)
                            .iter_batches(batch_format="pyarrow")) \
        .to_pandas()
    for et, sub in regs.groupby("event_type"):
        est = hll_estimate(pa.Table.from_pandas(
            sub[["register", "max_rank"]], preserve_index=False))
        exact = ddb.execute(
            "SELECT count(DISTINCT user_id) FROM events "
            "WHERE event_type = ?", [et]).fetchone()[0]
        assert abs(est - exact) / exact < 0.08


def test_pca_components_vs_numpy(ray_session):
    """The Gram register table is the exact contract (SQL_CHECKED);
    the derived eigendecomposition must match a direct numpy
    covariance eigendecomposition of the quantized embeddings."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.pca import (PCA_SCALE, _quantize,
                                   embedding_pca_gram, pca_components)

    regs = pa.concat_tables(embedding_pca_gram(SF_DIR)
                            .iter_batches(batch_format="pyarrow"))
    w, comps = pca_components(regs, k=5)
    m = np.stack(pq.read_table(f"{SF_DIR}/embeddings.parquet")
                 .column("embedding").to_pylist())
    q = _quantize(m).astype(np.int64).astype(np.float64) / PCA_SCALE
    cov = np.cov(q, rowvar=False, bias=True)
    wref = np.sort(np.linalg.eigvalsh(cov))[::-1][:5]
    assert np.allclose(w, wref, atol=1e-9)
    # components diagonalize the covariance to the same eigenvalues
    assert np.allclose(comps @ cov @ comps.T, np.diag(w), atol=1e-9)


def test_corr_from_registers_vs_duckdb(ray_session, ddb):
    """The wrap-mod registers are the exact contract (SQL_CHECKED);
    the derived Pearson r / OLS slope must match duckdb corr()/
    regr_slope() on the same micro-unit columns."""
    import numpy as np
    import pyarrow as pa

    from casie_ray.ops.relational import (corr_from_registers,
                                          lineitem_corr)

    regs = pa.concat_tables(lineitem_corr(SF_DIR)
                            .iter_batches(batch_format="pyarrow"))
    mine = corr_from_registers(regs).set_index("l_returnflag") \
        .sort_index()
    ref = ddb.execute(
        "SELECT l_returnflag,"
        " corr(round(l_quantity*100), round(l_extendedprice*100)) c,"
        " regr_slope(round(l_extendedprice*100),"
        "            round(l_quantity*100)) s "
        "FROM lineitem GROUP BY 1").fetchdf() \
        .set_index("l_returnflag").sort_index()
    assert np.allclose(mine["corr"], ref["c"], atol=1e-9)
    assert np.allclose(mine["slope"], ref["s"], atol=1e-6)


def test_hll_estimate_accuracy(ray_session, ddb):
    """The HLL registers are the exactly-checked contract (see
    SQL_CHECKED); the derived estimate must land within the standard
    ~1.04/sqrt(4096) error band of the true distinct count."""
    import pyarrow as pa

    from casie_ray.ops.sketch import hll_estimate, hll_user_registers

    regs = pa.concat_tables(hll_user_registers(SF_DIR)
                            .iter_batches(batch_format="pyarrow"))
    est = hll_estimate(regs)
    exact = ddb.execute(
        "SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert abs(est - exact) / exact < 0.05


def _kv_schema(key: str, val: str, key_type=None):
    import pyarrow as pa

    return pa.schema([(key, key_type or pa.string()), (val, pa.int64())])


def test_hash_join_unit(ray_session):
    """General bucketed equi-join: inner + left outer, string keys
    (FNV hash path), duplicate right keys, and the payload-collision
    guard."""
    import ray

    from casie_ray.ops.join import hash_join

    left = ray.data.from_items(
        [{"k": "a", "lx": 1}, {"k": "b", "lx": 2}, {"k": "c", "lx": 3}])
    right = ray.data.from_items(
        [{"k2": "b", "ry": 10}, {"k2": "b", "ry": 11}, {"k2": "d", "ry": 12}])
    schemas = dict(left_schema=_kv_schema("k", "lx"),
                   right_schema=_kv_schema("k2", "ry"))

    inner = hash_join(left, right, on="k", right_on="k2",
                      **schemas).to_pandas()
    inner = inner.sort_values(["k", "ry"]).reset_index(drop=True)
    assert list(inner["k"]) == ["b", "b"]
    assert list(inner["lx"]) == [2, 2]
    assert list(inner["ry"]) == [10, 11]

    outer = hash_join(left, right, on="k", right_on="k2",
                      how="left outer", **schemas).to_pandas()
    outer = outer.sort_values(["k", "ry"]).reset_index(drop=True)
    assert list(outer.columns) == ["k", "lx", "ry"]
    assert list(outer["k"]) == ["a", "b", "b", "c"]
    assert outer["ry"].isna().sum() == 2

    bad = ray.data.from_items([{"k2": "b", "lx": 9}])
    with pytest.raises(ValueError, match="colliding"):
        hash_join(left, bad, on="k", right_on="k2",
                  left_schema=schemas["left_schema"],
                  right_schema=_kv_schema("k2", "lx"))


def test_hash_join_right_side_mapped_to_no_rows(ray_session):
    """A right side whose map yields no rows has no schema in Ray; the
    declared one stands in: the inner join is an empty table of the
    declared columns, the left-outer join keeps every left row."""
    import ray

    from casie_ray.ops.join import hash_join

    left = ray.data.from_items([{"k": "a", "lx": 1}, {"k": "b", "lx": 2}])
    right = ray.data.from_items([{"k2": "a", "ry": 10}]).map_batches(
        lambda b: b.slice(0, 0), batch_format="pyarrow")
    schemas = dict(left_schema=_kv_schema("k", "lx"),
                   right_schema=_kv_schema("k2", "ry"))

    inner = hash_join(left, right, on="k", right_on="k2",
                      **schemas).materialize()
    assert inner.count() == 0
    assert inner.schema().names == ["k", "lx", "ry"]
    outer = hash_join(left, right, on="k", right_on="k2",
                      how="left outer", **schemas)
    assert sorted(map(repr, outer.take_all())) == [
        "{'k': 'a', 'lx': 1, 'ry': None}", "{'k': 'b', 'lx': 2, 'ry': None}"]


def test_chained_hash_join_runs_upstream_once_per_block(ray_session,
                                                         tmp_path):
    """Building a chain of two joins executes nothing (no schema probe
    of a lazy input); running it calls the upstream map once per input
    block. Calls are counted through a file, since the map runs in Ray
    workers."""
    import pyarrow as pa
    import ray

    from casie_ray.ops.join import hash_join

    calls = tmp_path / "calls"
    calls.write_text("")

    def counted(b: pa.Table) -> pa.Table:
        with open(calls, "a") as f:
            f.write("x\n")
        return b

    src = pa.table({"k": ["a", "b", "c", "d"], "lx": [1, 2, 3, 4]})
    left = ray.data.from_arrow([src.slice(0, 2), src.slice(2)]) \
        .map_batches(counted, batch_format="pyarrow", batch_size=None)
    r1 = ray.data.from_items([{"k1": "a", "r1": 10}, {"k1": "c", "r1": 30}])
    r2 = ray.data.from_items([{"k2": "a", "r2": 100}])
    j1 = hash_join(left, r1, on="k", right_on="k1",
                   left_schema=_kv_schema("k", "lx"),
                   right_schema=_kv_schema("k1", "r1"))
    j2 = hash_join(j1, r2, on="k", right_on="k2", how="left outer",
                   left_schema=pa.schema([("k", pa.string()),
                                          ("lx", pa.int64()),
                                          ("r1", pa.int64())]),
                   right_schema=_kv_schema("k2", "r2"))
    assert calls.read_text() == ""
    got = sorted(map(repr, j2.take_all()))
    assert got == ["{'k': 'a', 'lx': 1, 'r1': 10, 'r2': 100}",
                   "{'k': 'c', 'lx': 3, 'r1': 30, 'r2': None}"]
    assert calls.read_text() == "x\n" * 2


def test_customers_without_events_keeps_null_segment(ray_session,
                                                      tmp_path):
    """A customer with a null market segment and no events is kept, as
    in the SQL twin: the side of a row is its tag, not a null test."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as entrymod
    from casie_ray.ops.relational import customers_without_events

    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_mktsegment": pa.array(["BUILDING", None, "MACHINERY"])}),
        tmp_path / "customer.parquet")
    pq.write_table(pa.table({"user_id": pa.array([3], pa.int64())}),
                   tmp_path / "events.parquet")
    con = duckdb.connect()
    for t in ("customer", "events"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{tmp_path / t}.parquet')")
    want = _normalize(con.execute(
        entrymod.oracle_sql()["customers_no_events"]).fetchdf())
    got = _normalize(customers_without_events(str(tmp_path)).to_pandas())
    assert list(want["c_custkey"]) == [1, 2]
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


_ONE_CPU_RUN = """
import sys
import ray
ray.init(address="local", num_cpus=1, include_dashboard=False,
         logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
import ray.data
from casie_ray.ops import curation, mlprep
op, arg = sys.argv[1], sys.argv[2]
out = (mlprep.kg_negative_samples(ray.data.read_parquet(arg))
       if op == "kg_negative_samples" else curation.curation_pack(arg))
print(out.count())
ray.shutdown()
"""


@pytest.mark.parametrize("op", ["kg_negative_samples", "curation_pack"])
def test_two_exchange_inputs_finish_at_one_cpu(ray_session, oracle_triples,
                                               tmp_path, op):
    """The two ops whose join reads two exchange-fed inputs finish in a
    Ray session of one logical CPU, with the rows of the shared 4-CPU
    session. The run is a subprocess with its own session; on timeout
    its whole process group (driver and Ray daemons) is killed, so a
    hang fails the test and leaves no process behind."""
    import os
    import signal
    import subprocess
    import sys

    import ray

    from casie_ray.ops import curation, mlprep

    if op == "kg_negative_samples":
        arg = str(tmp_path / "edges.parquet")
        oracle_triples[["subj", "pred", "obj"]].to_parquet(arg, index=False)
        want = mlprep.kg_negative_samples(ray.data.read_parquet(arg)).count()
    else:
        arg = SF_DIR
        want = curation.curation_pack(arg).count()
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_RUN, op, arg], cwd=repo,
        start_new_session=True, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    try:
        log, _ = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{op} at 1 CPU did not finish in 180 s")
    assert proc.returncode == 0, log[-3000:]
    assert int(log.strip().splitlines()[-1]) == want > 0


def test_bloom_filter_unit(ray_session):
    """build_bloom: zero false negatives, FPR within the analytic
    bound, and string keys route through the FNV path."""
    import numpy as np
    import pyarrow as pa
    import ray

    from casie_ray.ops.join import bloom_may_contain, build_bloom

    keys = np.arange(0, 70_000, 7, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"k": keys})).repartition(4)
    words = build_bloom(ds, "k")
    assert bloom_may_contain(
        words, pa.chunked_array([pa.array(keys)])).all()
    non = pa.chunked_array(
        [pa.array(np.arange(1_000_000, 1_050_000, dtype=np.int64))])
    assert bloom_may_contain(words, non).mean() < 1e-3

    sds = ray.data.from_items(
        [{"s": f"key{i}"} for i in range(500)]).repartition(2)
    swords = build_bloom(sds, "s")
    present = pa.chunked_array([pa.array([f"key{i}" for i in range(500)])])
    absent = pa.chunked_array([pa.array([f"nope{i}" for i in range(500)])])
    assert bloom_may_contain(swords, present).all()
    assert bloom_may_contain(swords, absent).mean() < 0.01


def test_bloom_pruned_join_identical(ray_session):
    """bloom_prune must never change join results — only cut exchange
    volume. Selective fixture: 10% of right keys have a left match."""
    import numpy as np
    import pyarrow as pa
    import ray

    from casie_ray.ops.join import hash_join

    rng = np.random.default_rng(5)
    left = ray.data.from_items(
        [{"k": int(i), "lv": int(i * 3)}
         for i in range(0, 1000, 10)]).repartition(2)
    right = ray.data.from_items(
        [{"rk": int(k), "rv": int(k + 1)}
         for k in rng.integers(0, 1000, 2000)]).repartition(4)

    def norm(df):
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    schemas = dict(left_schema=_kv_schema("k", "lv", pa.int64()),
                   right_schema=_kv_schema("rk", "rv", pa.int64()))
    base = norm(hash_join(left, right, on="k", right_on="rk", **schemas)
                .to_pandas())
    got = norm(hash_join(left, right, on="k", right_on="rk",
                         bloom_prune="right", **schemas).to_pandas())
    pd.testing.assert_frame_equal(got, base, check_exact=True)


def test_bloom_prune_mixed_key_types(ray_session):
    """Castable but unequal key types (left string vs right int): the
    bloom must hash BOTH sides through the join key type or it
    silently drops every match (ADVICE r2, medium)."""
    import pyarrow as pa
    import ray

    from casie_ray.ops.join import hash_join

    left = ray.data.from_items(
        [{"k": str(i), "lv": int(i)} for i in range(0, 100, 10)])
    right = ray.data.from_items(
        [{"rk": int(i), "rv": int(i * 2)} for i in range(100)])

    def norm(df):
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    schemas = dict(left_schema=_kv_schema("k", "lv"),
                   right_schema=_kv_schema("rk", "rv", pa.int64()))
    base = norm(hash_join(left, right, on="k", right_on="rk", **schemas)
                .to_pandas())
    assert len(base) == 10  # the un-pruned join matches as expected
    got = norm(hash_join(left, right, on="k", right_on="rk",
                         bloom_prune="right", **schemas).to_pandas())
    pd.testing.assert_frame_equal(got, base, check_exact=True)


def test_hash_join_null_keys(ray_session):
    """Null join keys must not crash the FNV hash path; SQL semantics:
    null never matches null, left-outer keeps the unmatched left row
    (ADVICE r2, low)."""
    import ray

    from casie_ray.ops.join import hash_join

    left = ray.data.from_items(
        [{"k": "a", "lx": 1}, {"k": None, "lx": 2}])
    right = ray.data.from_items(
        [{"k2": "a", "ry": 10}, {"k2": None, "ry": 20}])

    schemas = dict(left_schema=_kv_schema("k", "lx"),
                   right_schema=_kv_schema("k2", "ry"))
    inner = hash_join(left, right, on="k", right_on="k2",
                      **schemas).to_pandas()
    assert list(inner["k"]) == ["a"]
    assert list(inner["ry"]) == [10]

    outer = hash_join(left, right, on="k", right_on="k2",
                      how="left outer", **schemas).to_pandas()
    outer = outer.sort_values("lx").reset_index(drop=True)
    assert len(outer) == 2
    assert outer["k"].isna().sum() == 1
    assert pd.isna(outer.loc[1, "ry"])


def test_pack_sequences_tokens(ray_session):
    """emit_tokens payload: every window's list has n_tokens entries,
    recomputing the checksum from the emitted tokens reproduces the
    checksum column, and the concatenated per-bucket token stream
    equals a sequential local pack of the same bucket's docs."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.bucketing import fnv1a_hashes, hash_bucket
    from casie_ray.ops.mlprep import N_PACK_BUCKETS, pack_sequences

    out = pa.concat_tables(
        pack_sequences(SF_DIR, emit_tokens=True)
        .iter_batches(batch_format="pyarrow")).combine_chunks()
    toks = out.column("tokens").to_pylist()
    ns = out.column("n_tokens").to_pylist()
    assert all(len(t) == n for t, n in zip(toks, ns))
    for t, c in zip(toks, out.column("checksum").to_pylist()):
        a = np.array(t, np.uint64)
        with np.errstate(over="ignore"):
            w = a * (np.arange(len(a), dtype=np.uint64) + np.uint64(1))
        assert int(w.sum(dtype=np.uint64)) == c

    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "text"])
    ids = docs.column("doc_id").to_numpy()
    buckets = hash_bucket([ids], n_buckets=N_PACK_BUCKETS)
    df = docs.to_pandas().assign(bucket=buckets)
    got_by_bucket = {}
    for b, w, t in zip(out.column("bucket").to_pylist(),
                       out.column("window_idx").to_pylist(), toks):
        got_by_bucket.setdefault(b, []).append((w, t))
    some = 0
    for b, grp in df.groupby("bucket"):
        words = []
        for t in grp.sort_values("doc_id")["text"]:
            words.extend((t or "").split(" "))
        expect = fnv1a_hashes(words).tolist()
        stream = [x for _, t in sorted(got_by_bucket[b]) for x in t]
        assert stream == expect
        some += 1
    assert some > 1


def test_shuffled_windows_is_permutation(ray_session):
    """shuffle_pos is exactly 0..n_windows-1 (the SQL parity test pins
    WHICH window gets which position; this pins the permutation
    property independently of the oracle)."""
    import numpy as np
    import pyarrow as pa

    from casie_ray.ops.mlprep import shuffled_windows

    out = pa.concat_tables(
        shuffled_windows(SF_DIR)
        .iter_batches(batch_format="pyarrow")).combine_chunks()
    pos = np.sort(out.column("shuffle_pos").to_numpy())
    assert pos.tolist() == list(range(out.num_rows))
    assert out.num_rows > 50


def test_token_budget_sample_properties(ray_session):
    """Every language stays within budget, every language is present
    (budget chosen below each group's total mass), and the selection is
    greedy-maximal: each group's spent budget plus its smallest
    unselected doc would overflow — checked against the raw table."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.mlprep import TOKEN_BUDGET, token_budget_sample

    out = pa.concat_tables(
        token_budget_sample(SF_DIR)
        .iter_batches(batch_format="pyarrow")).combine_chunks()
    df = out.to_pandas()
    spent = df.groupby("lang")["n_tokens"].sum()
    assert (spent <= TOKEN_BUDGET).all()
    docs = pq.read_table(f"{SF_DIR}/documents.parquet",
                         columns=["doc_id", "lang"]).to_pandas()
    assert set(spent.index) == set(docs["lang"])
    n_docs = docs.groupby("lang").size()
    n_sel = df.groupby("lang").size()
    assert (n_sel < n_docs).all()  # budget actually binds per group


def test_rows_only_queries_run(ray_session):
    import __ray_entry__ as entrymod
    qs = entrymod.queries()
    for name in ["ann_topk_lsh", "dedup_embedding_pairs_lsh"]:
        df = _to_df(qs[name](SF_DIR))
        assert df is not None


def test_lsh_variants_vs_exact(ray_session):
    """The approximate variants' contracts vs their exact twins:
    embedding_dup_pairs_lsh must be a SUBSET of the exact pairs
    (within-bucket verification is exact, so precision is 1.0 by
    construction — only recall is approximate), and ann_topk_lsh must
    be deterministic across runs, bounded at k rows per query, and
    overlap the exact top-k (single-probe recall floor; the trade-off
    the rows-only driver status documents)."""
    from casie_ray.ops.ann import ann_topk, ann_topk_lsh
    from casie_ray.ops.dedup import (embedding_dup_pairs,
                                     embedding_dup_pairs_lsh)

    exact_pairs = embedding_dup_pairs(SF_DIR).to_pandas()
    lsh_pairs = embedding_dup_pairs_lsh(SF_DIR).to_pandas()
    cols = ["vec_id_a", "vec_id_b"]
    se = set(map(tuple, exact_pairs[cols].values))
    sl = set(map(tuple, lsh_pairs[cols].values))
    assert sl <= se and len(se) >= 1

    ex = ann_topk(SF_DIR).to_pandas()
    l1 = ann_topk_lsh(SF_DIR).to_pandas()
    l2 = ann_topk_lsh(SF_DIR).to_pandas()
    key = ["query_id", "neighbor_id"]
    assert sorted(map(tuple, l1[key].values)) \
        == sorted(map(tuple, l2[key].values))  # deterministic
    per_q = l1.groupby("query_id")["neighbor_id"].agg(["count", "nunique"])
    assert (per_q["count"] == per_q["nunique"]).all()
    assert per_q["count"].max() <= ex.groupby("query_id").size().max()
    ke = set(map(tuple, ex[key].values))
    kl = set(map(tuple, l1[key].values))
    assert len(ke & kl) / len(ke) >= 0.1


@pytest.fixture(scope="module")
def late_events_dir(tmp_path_factory):
    """Events table with genuinely out-of-order arrivals: ~2% of rows
    are pushed 10-60 min behind the preceding maximum, so the watermark
    actually drops data (the real testdata stream is near-monotone and
    never exercises the late path)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    rng = np.random.default_rng(11)
    n = 5000
    base = 1_700_000_000_000_000
    ts = base + np.arange(n) * 30_000_000 + rng.integers(0, 60_000_000, n)
    late = rng.choice(n - 100, size=120, replace=False) + 100
    ts[late] -= rng.integers(700_000_000, 3_600_000_000, size=120)
    d = tmp_path_factory.mktemp("late_events")
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n), pa.int64()),
        "ts": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        "event_type": pa.array([f"t{i % 3}" for i in range(n)]),
        "value": pa.array(np.ones(n)),
        "props": pa.array([""] * n),
    }), str(d / "events.parquet"))
    return str(d)


def test_watermark_drops_late_events(ray_session, late_events_dir):
    import __ray_entry__ as entrymod
    from casie_ray.ops.streaming import events_hourly_watermark

    got = _normalize(_to_df(
        events_hourly_watermark(late_events_dir, range_size=512)))
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM read_parquet("
                f"'{late_events_dir}/events.parquet')")
    want = _normalize(
        con.execute(entrymod.oracle_sql()["events_hourly_watermark"])
        .fetchdf())
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert got["n_events"].sum() < 5000  # late rows actually dropped


def test_top_words_sketch_fallback_path(ray_session):
    """With a tiny candidate budget the exactness proof fails and the
    operator must fall back to the exchange plan — result identical to
    vocab_top_words either way."""
    import pyarrow as pa

    from casie_ray.ops.sketch import top_words_sketch
    from casie_ray.ops.text import vocab_top_words

    got = top_words_sketch(SF_DIR, k=20, cand_k=2).to_pandas()
    ds = vocab_top_words(SF_DIR, 20)
    want = pa.concat_tables(
        [b for b in ds.iter_batches(batch_format="pyarrow")]).to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values(["word"]).reset_index(drop=True),
        want.sort_values(["word"]).reset_index(drop=True))


def test_top_words_sketch_proof_path(ray_session, tmp_path, monkeypatch):
    """A skewed vocabulary where the exactness proof SUCCEEDS: the
    sketch plan must return the exact top-k without falling back (the
    fallback is monkeypatched to explode)."""
    import collections

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops import sketch as sk

    rng = np.random.default_rng(5)
    vocab = [f"w{i:03d}" for i in range(200)]
    # Zipf-ish: heavy head, long flat tail
    weights = 1.0 / np.arange(1, len(vocab) + 1) ** 1.5
    weights /= weights.sum()
    docs = [" ".join(rng.choice(vocab, size=40, p=weights))
            for _ in range(400)]
    d = tmp_path / "skew"
    d.mkdir()
    pq.write_table(pa.table({"doc_id": pa.array(range(len(docs)),
                                                pa.int64()),
                             "text": pa.array(docs, pa.string())}),
                   str(d / "documents.parquet"))

    def boom(*a, **kw):
        raise AssertionError("sketch proof failed; fallback taken")

    monkeypatch.setattr("casie_ray.ops.text.vocab_top_words", boom)
    got = sk.top_words_sketch(str(d), k=10, cand_k=128).to_pandas()
    counts = collections.Counter(w for t in docs for w in t.split(" "))
    want = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["word"], got["n"])) == want


def test_exact_quantiles_refinement_path(ray_session):
    """Force the histogram-refinement loop (tiny collect_cap) and check
    exact agreement with a local sort at every rank rule."""
    import math

    import numpy as np
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.quantiles import exact_quantiles

    rng = np.random.default_rng(3)
    # heavy-tailed + duplicate-heavy values across many 2^16 buckets
    vals = np.concatenate([
        rng.integers(0, 50_000_000, 4000),
        np.full(1500, 123_456),                 # hot duplicate value
        rng.integers(0, 2_000, 1000),
    ])
    tbl = pa.table({"price": pa.array(vals / 100.0, pa.float64())})

    def factory():
        return ray.data.from_arrow(tbl)

    qs = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
    got = exact_quantiles(factory, "price", qs,
                          collect_cap=64).to_pandas()
    cents = np.sort(np.int64(np.round(vals / 100.0 * 100)))
    n = len(cents)
    for q, v in zip(got["q"], got["value_cents"]):
        assert v == cents[max(1, math.ceil(q * n)) - 1], q


def test_connected_components_vs_local_oracle(ray_session):
    import pyarrow as pa
    import ray.data
    from casie_ray.ops.graph import components_local, connected_components

    rng = random.Random(7)
    nodes = [f"n{i:03d}" for i in range(120)]
    edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(90)]
    edges += [("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a5")]

    want = components_local(edges)
    tbl = pa.table({"src": [a for a, _ in edges],
                    "dst": [b for _, b in edges]})
    got_ds = connected_components(ray.data.from_arrow(tbl))
    got = {r["node"]: r["label"] for r in got_ds.take_all()}
    assert got == want


@pytest.fixture(scope="module")
def dense_docs_dir(tmp_path_factory):
    """Synthetic documents table with boilerplate-heavy near-dups: a hot
    shingle shared by every doc plus per-group unique content."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    out = tmp_path_factory.mktemp("dense")
    boiler = "all rights reserved by the site"
    rows = []
    for g in range(6):
        base = f"group {g} unique words alpha{g} beta{g} gamma{g} " \
               f"delta{g} epsilon{g} zeta{g} eta{g} theta{g}"
        rows.append((g * 10, f"{base} {boiler}"))
        rows.append((g * 10 + 1, f"{base} {boiler}"))  # exact dup pair
    tbl = pa.table({"doc_id": pa.array([r[0] for r in rows], pa.int64()),
                    "text": pa.array([r[1] for r in rows], pa.string())})
    pq.write_table(tbl, str(out / "documents.parquet"))
    return str(out)


def test_jaccard_df_cap_keeps_exact_values(ray_session, dense_docs_dir):
    """df_cap drops hot shingles from candidate generation only; every
    surviving pair's (inter, uni) must still be the exact full-set
    values, and identical-doc pairs (which share non-hot shingles) must
    all survive."""
    from casie_ray.ops.dedup import jaccard_pairs
    uncapped = jaccard_pairs(dense_docs_dir, df_cap=None).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    capped = jaccard_pairs(dense_docs_dir, df_cap=4).to_pandas() \
        .sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(uncapped) == 6           # one identical pair per group
    pd.testing.assert_frame_equal(capped, uncapped)


def test_substring_pairs_planted(ray_session, tmp_path):
    """Char-level exact-substring pairs: a copied 60-char passage links
    two otherwise different docs; unrelated docs emit nothing; the
    df_cap guard drops a corpus-wide boilerplate window while the
    passage pair survives."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.dedup import substring_pairs

    passage = "the quick brown fox jumps over the lazy dog near the bank"
    boiler = "c" * 55
    rows = [(1, f"alpha {passage} omega"),
            (2, f"gamma {passage} delta"),
            (3, "totally unrelated text with its own words " + "x" * 30)]
    # doc-unique chars directly before the common suffix, so the ONLY
    # cross-doc shared windows are the ones fully inside the boiler
    # (each shared by all 8 docs -> df 8 > cap 4 -> dropped)
    rows += [(10 + i, f"doc {i} prefix {chr(97 + i) * 6} {boiler}")
             for i in range(8)]
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows])}),
        str(tmp_path / "documents.parquet"))

    full = substring_pairs(str(tmp_path), df_cap=None).to_pandas()
    assert ((full.doc_a == 1) & (full.doc_b == 2)).any()
    assert not ((full.doc_a == 3) | (full.doc_b == 3)).any()

    capped = substring_pairs(str(tmp_path), df_cap=4).to_pandas()
    # boilerplate-only pairs (the 10+i docs) are gone; the passage
    # pair survives with its exact shared-window count
    assert set(zip(capped.doc_a, capped.doc_b)) == {(1, 2)}
    want = full[(full.doc_a == 1) & (full.doc_b == 2)]
    assert capped.iloc[0]["n_shared"] == want.iloc[0]["n_shared"]


def test_quality_filter_rules(ray_session, tmp_path):
    """Each C4-style rejection rule fires on its planted doc and the
    clean doc passes."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.curation import quality_filter

    docs = {
        1: "this is a perfectly fine sentence with enough words.",
        2: "too short.",                                  # < MIN_WORDS
        3: "code leak here { return x } with words around it.",
        4: "no terminal punctuation at all in this one alas",
        5: "a doc with one absurdly long word "
           + "x" * 1500 + " and a period.",
    }
    pq.write_table(pa.table({
        "doc_id": pa.array(sorted(docs), pa.int64()),
        "text": pa.array([docs[k] for k in sorted(docs)])}),
        str(tmp_path / "documents.parquet"))
    got = quality_filter(str(tmp_path)).to_pandas() \
        .set_index("doc_id")["keep"]
    assert got.to_dict() == {1: 1, 2: 0, 3: 0, 4: 0, 5: 0}


def test_stratified_sample_exact(ray_session, tmp_path):
    """Exactly k per group, picked by splitmix64(doc_id) order —
    matches a local scalar reference."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.bucketing import mix64
    from casie_ray.ops.curation import stratified_sample

    rng = np.random.default_rng(4)
    n = 200
    langs = rng.choice(["en", "es", "fr"], n)
    ids = np.arange(n, dtype=np.int64)
    pq.write_table(pa.table({
        "doc_id": pa.array(ids),
        "lang": pa.array(langs.tolist()),
        "text": pa.array(["x"] * n)}),
        str(tmp_path / "documents.parquet"))

    keys = mix64([ids])
    want = set()
    for lg in ("en", "es", "fr"):
        sel = [(keys[i], ids[i]) for i in range(n) if langs[i] == lg]
        for _, d in sorted(sel)[:5]:
            want.add((lg, int(d)))
    got = stratified_sample(str(tmp_path), k=5).to_pandas()
    assert len(got) == 15
    assert got["sample_rank"].max() == 5
    assert set(zip(got["lang"], got["doc_id"])) == want


def test_lm_score_small(ray_session, tmp_path):
    """Bigram LM scoring on a hand-checkable fixture: repeated bigrams
    score higher than unique ones."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.curation import lm_score

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": pa.array(["a b c", "a b d", "x y z"])}),
        str(tmp_path / "documents.parquet"))
    got = lm_score(str(tmp_path)).to_pandas().set_index("doc_id")
    # doc1 bigrams: "a b"(corpus c=2), "b c"(1) -> n=2, sum=3
    assert got.loc[1, "n_bigrams"] == 2 and got.loc[1, "sum_counts"] == 3
    assert got.loc[2, "sum_counts"] == 3
    assert got.loc[3, "sum_counts"] == 2   # all unique


def test_score_cli(tmp_path, capsys):
    """The user-facing scorer CLI (reference score.py argparse twin):
    mention f1, the -O analogue, confusion matrix, and triple mode."""
    import json
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.score import main

    gold = pa.table({
        "conv_id": ["c1", "c1", "c2"], "turn_idx": [0, 0, 1],
        "start": [0, 10, 5], "end": [4, 14, 9],
        "label": ["Databreach", "Phishing", "Ransom"]})
    pred = pa.table({
        "conv_id": ["c1", "c1", "c2"], "turn_idx": [0, 0, 1],
        "start": [0, 10, 5], "end": [4, 14, 9],
        "label": ["Databreach", "Ransom", "Ransom"]})
    gp, pp = str(tmp_path / "g.parquet"), str(tmp_path / "p.parquet")
    pq.write_table(gold, gp)
    pq.write_table(pred, pp)

    assert main(["--gold", gp, "--pred", pp, "--metric", "f1"]) == 0
    r = json.loads(capsys.readouterr().out)
    assert r["n_gold"] == 3 and 0 < r["f1"] < 1   # label mismatch costs

    assert main(["--gold", gp, "--pred", pp, "--metric", "f1",
                 "--no-label-match"]) == 0
    r = json.loads(capsys.readouterr().out)
    assert r["f1"] == 1.0                         # spans align exactly

    assert main(["--gold", gp, "--pred", pp,
                 "--metric", "confusion"]) == 0
    out = capsys.readouterr().out
    assert "Databreach" in out and "total" in out

    gt = pa.table({"subj": ["a", "b"], "pred": ["p", "p"],
                   "obj": ["x", "y"]})
    pt = pa.table({"subj": ["a"], "pred": ["p"], "obj": ["x"]})
    gtp, ptp = str(tmp_path / "gt.parquet"), str(tmp_path / "pt.parquet")
    pq.write_table(gt, gtp)
    pq.write_table(pt, ptp)
    assert main(["--gold", gtp, "--pred", ptp, "--options", "triple",
                 "--metric", "f1"]) == 0
    r = json.loads(capsys.readouterr().out)
    assert r == {"precision": 1.0, "recall": 0.5,
                 "f1": 2 / 3, "n_gold": 2, "n_pred": 1, "n_match": 1}


def test_bpe_vocab_roundtrip():
    """Deterministic training + encode/decode roundtrip: same corpus ->
    same merges; decode(encode(w)) == w for in-alphabet words."""
    from casie_ray.ops.bpe import BpeTokenizer, train_bpe, word_frequencies

    texts = ["the cat sat on the mat", "the cat ran", "a mat on a cat"]
    freq = word_frequencies(texts)
    s1 = train_bpe(freq, n_merges=20)
    s2 = train_bpe(dict(reversed(list(freq.items()))), n_merges=20)
    assert s1["merges"] == s2["merges"]        # order-independent input
    assert s1["vocab"] == s2["vocab"]
    tok = BpeTokenizer(s1)
    for w in freq:
        ids = tok.encode_word(w)
        assert tok.decode(ids) == w
        assert tok.encode_word(w) == ids       # cache stability
    # frequent words should compress below character granularity
    assert len(tok.encode_word("the")) < 3
    # unknown characters fall back to <unk>
    assert 0 in tok.encode_word("zęta")


def test_bpe_state_cache_stable(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.bpe import load_bpe_state

    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": pa.array(["hello world hello", "world of words"])}),
        str(tmp_path / "documents.parquet"))
    s1 = load_bpe_state(str(tmp_path / "documents.parquet"), 16)
    s2 = load_bpe_state(str(tmp_path / "documents.parquet"), 16)
    assert s1["merges"] == s2["merges"] and s1["vocab"] == s2["vocab"]


def test_pack_sequences_bpe_vs_sequential_oracle(ray_session):
    """Distributed BPE pack == the independent scalar sequential pack
    (plain-Python splitmix + loop pack), row for row; emit_tokens
    payload re-derives the same checksums."""
    import numpy as np
    from casie_ray.ops.bpe import (
        pack_sequences_bpe, sequential_pack_oracle,
    )
    from casie_ray.ops.bucketing import mix64

    want = sequential_pack_oracle(f"{SF_DIR}/documents.parquet") \
        .to_pandas().sort_values(["bucket", "window_idx"]) \
        .reset_index(drop=True)
    got = pack_sequences_bpe(SF_DIR).to_pandas() \
        .sort_values(["bucket", "window_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    toks = pack_sequences_bpe(SF_DIR, emit_tokens=True).to_pandas()
    for _, r in toks.head(5).iterrows():
        ids = np.asarray(r["tokens"], dtype=np.uint64)
        assert len(ids) == r["n_tokens"]
        pos = np.arange(len(ids), dtype=np.uint64) + np.uint64(1)
        with np.errstate(over="ignore"):
            csum = int((mix64([ids]) * pos).sum())
        assert csum % (1 << 64) == r["checksum"]


def test_asof_hot_key_salting(ray_session, tmp_path):
    """events_asof_orders skew escape hatch: a planted mega-user holding
    30% of event rows routes through the salted path (events spread over
    N_SALTS sub-buckets, orders replicated) — results must be exactly
    identical to the unsalted exact join."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.relational import events_asof_orders, hot_keys
    from casie_ray.ops.relational import _read

    rng = np.random.default_rng(11)
    n_ev = 3000
    mega = 7
    users = np.where(np.arange(n_ev) < int(n_ev * 0.3), mega,
                     rng.integers(100, 200, n_ev))
    base = 1_600_000_000
    ev_ts = base + rng.integers(0, 10_000_000, n_ev)
    pq.write_table(pa.table({
        "event_id": pa.array(np.arange(n_ev), pa.int64()),
        "user_id": pa.array(users, pa.int64()),
        "ts": pa.array(ev_ts, pa.int64()).cast(pa.timestamp("s")),
    }), str(tmp_path / "events.parquet"))
    n_ord = 400
    ord_users = np.concatenate([
        np.full(20, mega), rng.integers(100, 200, n_ord - 20)])
    ord_ts = base + rng.integers(-1_000_000, 9_000_000, n_ord)
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(n_ord), pa.int64()),
        "o_custkey": pa.array(ord_users, pa.int64()),
        "o_orderdate": pa.array(ord_ts, pa.int64())
            .cast(pa.timestamp("s")),
    }), str(tmp_path / "orders.parquet"))

    hot = hot_keys(_read(str(tmp_path), "events", ["user_id"]),
                   "user_id", 500)
    assert list(hot) == [mega]    # the guard actually fires

    def norm(ds):
        return ds.to_pandas().sort_values("event_id") \
            .reset_index(drop=True)

    unsalted = norm(events_asof_orders(str(tmp_path), hot_cap=None))
    salted = norm(events_asof_orders(str(tmp_path), hot_cap=500))
    pd.testing.assert_frame_equal(salted, unsalted)
    assert (unsalted["event_id"].to_numpy()[:5] >= 0).all()


def test_minhash_band_cap_guard(ray_session, tmp_path):
    """band_cap drops corpus-wide band collisions (planted boilerplate:
    40 identical docs collide in EVERY band) from candidate generation
    while pairs in small segments survive with exact values."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.dedup import minhash_lsh_pairs

    boiler = " ".join(f"w{i}" for i in range(12))
    rows = [(i, boiler) for i in range(40)]
    near = ("unique content alpha beta gamma delta epsilon zeta eta "
            "theta iota kappa")
    rows.append((100, near))
    rows.append((101, near))
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows], pa.string())}),
        str(tmp_path / "documents.parquet"))

    full = minhash_lsh_pairs(str(tmp_path), band_cap=None).to_pandas()
    assert len(full) == 40 * 39 // 2 + 1
    capped = minhash_lsh_pairs(str(tmp_path), band_cap=16).to_pandas()
    # boilerplate cluster dropped (every one of its band segments is
    # over the cap); the small-segment pair survives, values exact
    assert len(capped) == 1
    row = capped.iloc[0]
    want = full[(full.doc_a == 100) & (full.doc_b == 101)].iloc[0]
    assert (row == want).all()


def test_embedding_pairs_dense_vs_bruteforce(ray_session, tmp_path):
    """Exact chunked all-pairs vs a local numpy oracle on a dense
    near-dup embedding set; the LSH variant must recover all
    near-identical pairs."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.dedup import (
        embedding_dup_pairs, embedding_dup_pairs_lsh,
    )

    rng = np.random.default_rng(3)
    base = rng.standard_normal((8, 16)).astype(np.float32)
    vecs, ids = [], []
    for i in range(8):
        for j in range(4):    # 4 jittered copies of each base vector
            vecs.append(base[i] + 0.01 * rng.standard_normal(16)
                        .astype(np.float32))
            ids.append(i * 4 + j)
    mat = np.stack(vecs)
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in mat],
                              pa.list_(pa.float32()))}),
        str(tmp_path / "embeddings.parquet"))

    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = nm @ nm.T
    want = sorted((ids[i], ids[j]) for i in range(len(ids))
                  for j in range(len(ids))
                  if ids[i] < ids[j] and sims[i, j] > 0.5)

    got = embedding_dup_pairs(str(tmp_path)).to_pandas()
    got_pairs = sorted(zip(got["vec_id_a"], got["vec_id_b"]))
    assert got_pairs == want

    lsh = embedding_dup_pairs_lsh(str(tmp_path)).to_pandas()
    lsh_pairs = set(zip(lsh["vec_id_a"], lsh["vec_id_b"]))
    near_identical = {(ids[i], ids[j]) for i in range(len(ids))
                      for j in range(len(ids))
                      if ids[i] < ids[j] and sims[i, j] > 0.99}
    assert near_identical <= lsh_pairs <= set(want)


def test_semantic_dedup_clusters(ray_session, tmp_path):
    """embedding_clusters: deterministic full-coverage assignment;
    semantic_dedup_pairs: subset of the exact global pairs, recovers
    every near-identical pair. n_cells < n_base_clusters so cell
    boundaries fall BETWEEN bases — with n_cells above the base count
    k-means over-segments and splits even near-identical copies (the
    real SemDeDup cell-size tradeoff)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.ann import embedding_clusters, semantic_dedup_pairs
    from casie_ray.ops.dedup import embedding_dup_pairs

    rng = np.random.default_rng(9)
    base = rng.standard_normal((6, 16)).astype(np.float32)
    vecs, ids = [], []
    for i in range(6):
        for j in range(5):
            vecs.append(base[i] + 0.01 * rng.standard_normal(16)
                        .astype(np.float32))
            ids.append(i * 5 + j)
    mat = np.stack(vecs)
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in mat],
                              pa.list_(pa.float32()))}),
        str(tmp_path / "embeddings.parquet"))

    c1 = embedding_clusters(str(tmp_path), n_cells=4).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    c2 = embedding_clusters(str(tmp_path), n_cells=4).to_pandas() \
        .sort_values("vec_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(c1, c2)          # deterministic
    assert sorted(c1["vec_id"]) == sorted(ids)      # full coverage

    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = nm @ nm.T
    exact = {(ids[i], ids[j]) for i in range(len(ids))
             for j in range(len(ids))
             if ids[i] < ids[j] and sims[i, j] > 0.5}
    near = {(ids[i], ids[j]) for i in range(len(ids))
            for j in range(len(ids))
            if ids[i] < ids[j] and sims[i, j] > 0.99}
    got = semantic_dedup_pairs(str(tmp_path), n_cells=4).to_pandas()
    got_pairs = set(zip(got["vec_id_a"], got["vec_id_b"]))
    assert near <= got_pairs <= exact


def test_minhash_deterministic_and_sensitive():
    from casie_ray.ops.dedup import minhash_signature, shingle_hashes

    t1 = "the quick brown fox jumps over the lazy dog again and again"
    t2 = "the quick brown fox jumps over the lazy cat again and again"
    s1 = minhash_signature(shingle_hashes(t1))
    s1b = minhash_signature(shingle_hashes(t1))
    s2 = minhash_signature(shingle_hashes(t2))
    assert (s1 == s1b).all()
    frac = (s1 == s2).mean()
    assert 0.2 < frac < 1.0  # similar but not identical


def test_ann_ivf_recall_vs_exact(ray_session):
    """IVF probing must recover most of the exact top-k (the testdata's
    near-dup clusters concentrate neighbors in one cell) and never
    return a neighbor the exact scan ranks outside its similarity
    range. Deterministic: seeded centroids, fixed iterations."""
    from casie_ray.ops.ann import ann_topk, ann_topk_ivf

    exact = ann_topk(SF_DIR).to_pandas()
    ivf = ann_topk_ivf(SF_DIR).to_pandas()
    got = {(r.query_id, r.neighbor_id) for r in ivf.itertuples()}
    want = {(r.query_id, r.neighbor_id) for r in exact.itertuples()}
    recall = len(got & want) / len(want)
    assert recall >= 0.6, recall
    ivf2 = ann_topk_ivf(SF_DIR).to_pandas()
    pd.testing.assert_frame_equal(
        ivf.sort_values(["query_id", "rank"]).reset_index(drop=True),
        ivf2.sort_values(["query_id", "rank"]).reset_index(drop=True))


def test_triangle_counts_vs_local_bruteforce(ray_session):
    """Distributed degree-oriented triangle counting vs the sequential
    brute-force oracle on a skewed fixture: a hub star (no triangles by
    itself), a clique, a chain, duplicate and reversed edge rows."""
    import ray

    from casie_ray.ops.graphx import triangle_counts, triangle_counts_local

    edges = []
    clique = [f"c{i}" for i in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            edges.append((clique[i], clique[j]))
    edges += [("hub", f"leaf{i}") for i in range(40)]      # star: 0 tris
    edges += [("hub", "c0"), ("hub", "c1")]                # closes with c0-c1
    edges += [(f"p{i}", f"p{i+1}") for i in range(8)]      # path: 0 tris
    edges += [("c1", "c0"), ("c2", "c2"), ("c0", "c1")]    # rev dup + loop
    want = triangle_counts_local(edges)
    ds = ray.data.from_items(
        [{"subj": a, "obj": b} for a, b in edges]).repartition(5)
    got_df = triangle_counts(ds).to_pandas()
    got = dict(zip(got_df["node"], got_df["n_triangles"]))
    assert got == want
    assert got["c0"] == 11  # C(5,2) within the clique + (hub, c1)


def test_random_walks_planted_graph(ray_session, tmp_path):
    """Deterministic random walks on a planted graph: bit-exact vs
    the DuckDB twin, every consecutive (node, next) pair is a real
    edge, dead ends stop early, and every src node starts exactly
    n_walks walks at step 0."""
    import duckdb as _duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from casie_ray.ops.graphx import random_walks, random_walks_sql

    edges = [("A", "B"), ("A", "C"), ("B", "C"), ("C", "A"),
             ("C", "D"), ("C", "E"), ("D", "A"), ("B", "C")]  # dup
    # E is a dead end: any walk reaching it stops
    t = pa.table({"subj": [a for a, _ in edges],
                  "obj": [b for _, b in edges]})
    pq.write_table(t, f"{tmp_path}/edges.parquet")
    ds = ray.data.read_parquet(f"{tmp_path}/edges.parquet") \
        .repartition(3)
    got = random_walks(ds, n_walks=3, walk_len=4).to_pandas() \
        .sort_values(["start_node", "walk", "step"]) \
        .reset_index(drop=True)
    want = _duckdb.sql(
        random_walks_sql(f"{tmp_path}/edges.parquet", 3, 4)).df() \
        .sort_values(["start_node", "walk", "step"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    eset = set(edges)
    starts = {a for a, _ in edges}
    for (s, w), g in got.groupby(["start_node", "walk"]):
        steps = g["step"].tolist()
        assert steps == list(range(len(steps)))  # contiguous from 0
        nodes = g["node"].tolist()
        assert nodes[0] == s
        for u, v in zip(nodes, nodes[1:]):
            assert (u, v) in eset
        # early stop only at the dead end
        if len(nodes) < 5:
            assert nodes[-1] == "E"
    assert set(got[got["step"] == 0]["start_node"]) == starts
    step0 = got[got["step"] == 0]
    assert all(step0.groupby("start_node")["walk"].count() == 3)


def test_bfs_reach_random_graphs_vs_local(ray_session):
    """bfs_reach on seeded random graphs vs a plain-dict BFS oracle,
    including an unreachable component and explicit + derived seeds."""
    import numpy as np
    import ray

    from casie_ray.ops.graphx import bfs_reach

    rng = np.random.default_rng(17)
    for trial in range(3):
        n = int(rng.integers(8, 30))
        m = int(rng.integers(n, 4 * n))
        edges = [(f"n{int(rng.integers(n))}", f"n{int(rng.integers(n))}")
                 for _ in range(m)]
        edges += [("zz_far1", "zz_far2")]       # unreachable from min seed
        seed = min(min(a, b) for a, b in edges)
        adj: dict[str, set] = {}
        for a, b in edges:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        want, frontier = {seed: 0}, [seed]
        for d in (1, 2, 3):
            nxt = []
            for u in frontier:
                for v in adj.get(u, ()):
                    if v not in want:
                        want[v] = d
                        nxt.append(v)
            frontier = nxt
        ds = ray.data.from_items(
            [{"subj": a, "obj": b} for a, b in edges]).repartition(3)
        got_df = bfs_reach(ds, max_depth=3).to_pandas()
        got = dict(zip(got_df["node"], got_df["dist"]))
        assert got == want, f"trial {trial}"


def test_bm25_random_corpus_vs_duckdb(ray_session, tmp_path):
    """bm25_topk on a seeded random corpus (skewed term frequencies,
    empty docs, absent query terms) vs the SQL twin, value-exact."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.retrieval import bm25_sql, bm25_topk

    rng = np.random.default_rng(23)
    vocab = ["alpha", "beta", "gamma", "delta", "rare", "x"]
    probs = np.array([0.3, 0.25, 0.2, 0.15, 0.02, 0.08])
    docs = []
    for i in range(150):
        ln = int(rng.integers(0, 40))
        docs.append({"doc_id": i,
                     "text": " ".join(rng.choice(vocab, ln, p=probs))})
    d = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(docs), f"{d}/documents.parquet")
    terms = ("alpha", "rare", "absentterm")
    got = bm25_topk(d, terms=terms, k=15).to_pandas() \
        .sort_values("rank").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    want = con.execute(bm25_sql(terms=terms, k=15)).df() \
        .sort_values("rank").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got, want.astype({c: got[c].dtype for c in got.columns}),
        check_exact=True)


def test_clustering_coefficients_vs_local(ray_session):
    """clustering_coefficients on the planted skew fixture vs direct
    computation from the local triangle oracle + degree counts."""
    import ray

    from casie_ray.ops.graphx import (CC_SCALE, clustering_coefficients,
                                      triangle_counts_local)

    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"),
             ("e", "c"), ("hub", "a"), ("hub", "b"), ("hub", "x1"),
             ("hub", "x2"), ("b", "a")]
    tri = triangle_counts_local(edges)
    und = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    deg: dict[str, int] = {}
    for a, b in und:
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    want = {n: (d, tri.get(n, 0), 2 * tri.get(n, 0) * CC_SCALE
                // (d * (d - 1)))
            for n, d in deg.items() if d >= 2}
    ds = ray.data.from_items(
        [{"subj": a, "obj": b} for a, b in edges]).repartition(3)
    df = clustering_coefficients(ds).to_pandas()
    got = {r.node: (r.degree, r.n_triangles, r.coeff_micro)
           for r in df.itertuples()}
    assert got == want
    assert got["hub"][2] == 2 * 1 * CC_SCALE // (4 * 3)


def test_write_partitioned_resume_byte_identical(ray_session, tmp_path):
    """Generic resumable sink: hive layout, per-partition manifests,
    resume skips completed partitions without touching their bytes, and
    a damaged partition is re-landed byte-identical to from-scratch."""
    import hashlib
    import shutil

    import ray

    from casie_ray.ops.sink import write_partitioned

    out = str(tmp_path / "export")

    def run():
        ds = ray.data.read_parquet(f"{SF_DIR}/documents.parquet",
                                   columns=["doc_id", "text", "lang"])
        return write_partitioned(ds, out, "lang",
                                 config="v1").to_pandas() \
            .sort_values("partition").reset_index(drop=True)

    s1 = run()
    assert not s1["skipped"].any() and s1["n_rows"].sum() == 500

    def digest():
        return {p: hashlib.sha256(
            open(f"{out}/lang={p}/part.parquet", "rb").read()).hexdigest()
            for p in s1["partition"]}

    d1 = digest()
    s2 = run()                              # clean resume: all skipped
    assert s2["skipped"].all()
    assert digest() == d1

    victim = s1["partition"].iloc[0]
    shutil.rmtree(f"{out}/lang={victim}")   # simulate a died-mid-write run
    s3 = run()
    assert set(s3[~s3["skipped"]]["partition"]) == {victim}
    assert digest() == d1                   # re-landed byte-identical

    ds = ray.data.read_parquet(f"{out}/lang={victim}")
    assert ds.count() == int(s1.set_index("partition")
                             .loc[victim, "n_rows"])


def test_decontaminate_fuzzy_planted_fixture(ray_session, tmp_path):
    """Fuzzy vs exact decontamination semantics on a planted split:
    a near-paraphrase of a bench doc IS flagged, a doc sharing one
    incidental shingle is NOT (exact decontaminate would flag it),
    and bench docs themselves never appear."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.dedup import decontaminate_fuzzy

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    docs = [
        {"doc_id": 0, "text": base},                     # bench (0 % 20)
        {"doc_id": 1, "text": base + " extra"},          # near-dup -> flag
        # one shared 3-gram ("alpha beta gamma") inside unrelated text:
        {"doc_id": 2, "text": "alpha beta gamma xx yy zz qq ww ee rr "
                              "tt uu ii oo pp aa ss dd ff gg hh jj kk"},
        {"doc_id": 3, "text": "totally different words only here"},
        {"doc_id": 20, "text": "another bench document entirely"},  # bench
    ]
    d = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(docs), f"{d}/documents.parquet")
    got = decontaminate_fuzzy(d, threshold_pct=50).to_pandas()
    flagged = dict(zip(got["doc_id"], got["n_bench_matches"]))
    assert flagged == {1: 1}


def test_cli_list_and_run(ray_session, tmp_path, capsys):
    """Query-runner CLI: list covers the whole contract; run executes a
    pipeline and writes parquet; unknown names exit 2."""
    import pyarrow.parquet as pq

    import __ray_entry__ as entry
    from casie_ray.cli import main

    assert main(["list"]) == 0
    listed = set(capsys.readouterr().out.split())
    assert listed == set(entry.queries())

    out = str(tmp_path / "r.parquet")
    assert main(["run", "doc_corpus_stats", "--sf-dir", SF_DIR,
                 "--out", out]) == 0
    assert pq.read_table(out).num_rows == 1
    assert main(["run", "nope"]) == 2


def test_write_partitioned_unsafe_values_never_collide(ray_session,
                                                       tmp_path):
    """Partition values that sanitize to the same fragment ('a/b' vs
    'a_b') must land in distinct directories with distinct manifests."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from casie_ray.ops.sink import write_partitioned

    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "grp": pa.array(["a/b", "a_b", "a/b", "a b"], pa.string()),
    }), src)
    out = str(tmp_path / "exp")
    s = write_partitioned(ray.data.read_parquet(src), out, "grp") \
        .to_pandas()
    assert sorted(s["partition"]) == ["a b", "a/b", "a_b"]
    import glob
    dirs = glob.glob(f"{out}/grp=*")
    assert len(dirs) == 3
    total = sum(pq.read_table(f"{d}/part.parquet").num_rows for d in dirs)
    assert total == 4


def test_write_partitioned_null_values_land_in_default_partition(
        ray_session, tmp_path):
    """Rows with a NULL partition value must land in the Hive default
    partition, not vanish: the summary counts them and the bytes are
    readable (the r3 advisor's silent-data-loss repro)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from casie_ray.ops.sink import NULL_PARTITION, write_partitioned

    src = str(tmp_path / "src.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "grp": pa.array(["en", None, "de", None, "None"], pa.string()),
    }), src)
    out = str(tmp_path / "exp")
    s = write_partitioned(ray.data.read_parquet(src), out, "grp") \
        .to_pandas().set_index("partition")
    # null rows form their own partition, distinct from the literal
    # string "None"
    assert s.loc[NULL_PARTITION, "n_rows"] == 2
    assert s.loc["None", "n_rows"] == 1
    assert s["n_rows"].sum() == 5
    t = pq.read_table(f"{out}/grp={NULL_PARTITION}/part.parquet")
    assert t.num_rows == 2
    assert sorted(t.column("doc_id").to_pylist()) == [2, 4]
    # resume skips the null partition like any other
    s2 = write_partitioned(ray.data.read_parquet(src), out, "grp") \
        .to_pandas()
    assert s2["skipped"].all()


def test_events_pivot_unmatched_type_users_get_zero_rows(
        ray_session, tmp_path):
    """A user whose events are all of types outside PIVOT_TYPES still
    gets an (all-zero) row, matching the SQL twin's GROUP BY user_id
    (the r3 advisor's planted-'otherkind' repro)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.relational import events_pivot, pivot_sql

    rows = [
        {"user_id": 1, "event_type": "click"},
        {"user_id": 1, "event_type": "otherkind"},
        {"user_id": 2, "event_type": "otherkind"},   # only unmatched
        {"user_id": 3, "event_type": "purchase"},
        {"user_id": 3, "event_type": "purchase"},
    ]
    d = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(rows), f"{d}/events.parquet")
    got = _normalize(events_pivot(d).to_pandas())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{d}/events.parquet')")
    want = _normalize(con.execute(pivot_sql()).fetchdf())
    assert len(got) == 3                     # user 2 present, all zeros
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    u2 = got[got["user_id"] == 2].drop(columns=["user_id"])
    assert (u2.to_numpy() == 0).all()


def test_bm25_zero_micro_score_docs_still_rank(ray_session, tmp_path):
    """Eligibility is "any matched term" (the SQL tf table), not
    score > 0: with fewer than k positive-scoring docs, zero-micro-unit
    matched docs must still surface exactly like the oracle (the r3
    advisor's tiny-corpus repro)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.retrieval import bm25_sql, bm25_topk

    # "common" appears in every doc -> idf = ln(1 + 0.5/(n+0.5)) ~ 0,
    # contributions round to 0 micro-units, yet every doc has a tf row
    docs = [{"doc_id": i, "text": "common " + ("filler " * 30).strip()}
            for i in range(6)]
    docs.append({"doc_id": 99, "text": "no query words here"})
    d = str(tmp_path)
    pq.write_table(pa.Table.from_pylist(docs), f"{d}/documents.parquet")
    terms = ("common",)
    got = bm25_topk(d, terms=terms, k=10).to_pandas() \
        .sort_values("rank").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    want = con.execute(bm25_sql(terms=terms, k=10)).df() \
        .sort_values("rank").reset_index(drop=True)
    assert len(got) == 6                     # doc 99 absent, zeros kept
    pd.testing.assert_frame_equal(
        got, want.astype({c: got[c].dtype for c in got.columns}),
        check_exact=True)


def test_semantic_dedup_fat_cluster_salted_and_bounded(ray_session,
                                                       tmp_path):
    """SemDeDup cluster-mass bound: a planted fat cluster (> cluster_cap
    rows) is salted into ceil(n/cap) vec_id-hash sub-groups, so no pair
    group ever exceeds cluster_cap rows; the emitted pairs are exactly
    the within-(cluster, salt) pairs — verified against a local
    recomputation of the same salt plan — and a strict subset of the
    uncapped result (the documented cross-salt recall loss)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.ann import (SEM_THRESHOLD, semantic_dedup_pairs,
                                   train_centroids)
    from casie_ray.ops.bucketing import mix64

    rng = np.random.default_rng(17)
    fat_dir = rng.standard_normal(16).astype(np.float32)
    others = rng.standard_normal((3, 16)).astype(np.float32)
    vecs, ids = [], []
    for j in range(60):                       # the fat cluster
        vecs.append(fat_dir + 0.01 * rng.standard_normal(16)
                    .astype(np.float32))
        ids.append(j)
    for i in range(3):                        # small scattered clusters
        for j in range(4):
            vecs.append(others[i] + 0.01 * rng.standard_normal(16)
                        .astype(np.float32))
            ids.append(100 + i * 10 + j)
    mat = np.stack(vecs)
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in mat],
                              pa.list_(pa.float32()))}),
        str(tmp_path / "embeddings.parquet"))

    cap = 16
    got = semantic_dedup_pairs(str(tmp_path), n_cells=4,
                               cluster_cap=cap).to_pandas()
    got_pairs = set(zip(got["vec_id_a"], got["vec_id_b"]))

    # local recomputation of the identical plan
    nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    cents = train_centroids(str(tmp_path), n_cells=4)
    a = np.argmax(nm @ cents.T, axis=1).astype(np.int64)
    sizes = {int(c): int(n) for c, n in
             zip(*np.unique(a, return_counts=True))}
    ids_arr = np.asarray(ids, np.int64)
    h = mix64([ids_arr])
    group = a.copy()
    next_id = 4
    for c in sorted(k for k, v in sizes.items() if v > cap):
        n_salts = -(-sizes[c] // cap)
        assert n_salts >= 2                  # the fat cluster IS salted
        sel = a == c
        group[sel] = next_id + (h[sel] % np.uint64(n_salts)) \
            .astype(np.int64)
        next_id += n_salts
    # every sub-group is bounded by ~cap (hash split is not perfectly
    # even; allow the binomial tail)
    _, gsizes = np.unique(group, return_counts=True)
    assert gsizes.max() <= 2 * cap
    sims = nm @ nm.T
    want = {(int(min(ids_arr[i], ids_arr[j])),
             int(max(ids_arr[i], ids_arr[j])))
            for i in range(len(ids)) for j in range(i + 1, len(ids))
            if group[i] == group[j] and sims[i, j] > SEM_THRESHOLD}
    assert got_pairs == want
    # and strictly fewer than the uncapped run (cross-salt pairs lost)
    uncapped = semantic_dedup_pairs(str(tmp_path), n_cells=4,
                                    cluster_cap=10_000).to_pandas()
    un_pairs = set(zip(uncapped["vec_id_a"], uncapped["vec_id_b"]))
    assert got_pairs < un_pairs


def test_ivf_quantizer_unbiased_under_sorted_layout(ray_session,
                                                    tmp_path):
    """Quantizer sampling is layout-independent: with the file SORTED
    by cluster (row-group 0 = one cluster only — the adversarial case
    for a head sample), the trained centroids still cover every base
    direction and IVF recall does not collapse."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.ann import ann_topk, ann_topk_ivf, train_centroids

    rng = np.random.default_rng(41)
    base = rng.standard_normal((4, 16)).astype(np.float32)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    vecs, ids = [], []
    vid = 0
    for i in range(4):                        # sorted: cluster-major
        for j in range(500):
            vecs.append(base[i] + 0.05 * rng.standard_normal(16)
                        .astype(np.float32))
            ids.append(vid)
            vid += 1
    mat = np.stack(vecs)
    pq.write_table(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array([v.tolist() for v in mat],
                              pa.list_(pa.float32()))}),
        str(tmp_path / "embeddings.parquet"),
        row_group_size=500)                   # row group 0 = cluster 0

    cents = train_centroids(str(tmp_path), n_cells=4, sample_rows=256)
    # every base direction claims its own centroid
    owners = np.argmax(base @ cents.T, axis=1)
    assert len(set(owners.tolist())) == 4
    exact = ann_topk(str(tmp_path)).to_pandas()
    ivf = ann_topk_ivf(str(tmp_path)).to_pandas()
    got = {(r.query_id, r.neighbor_id) for r in ivf.itertuples()}
    want = {(r.query_id, r.neighbor_id) for r in exact.itertuples()}
    assert len(got & want) / len(want) >= 0.8


def test_doc_top_terms_tie_pruning_planted(ray_session, tmp_path):
    """Adversarial fixture for the doc-local candidate prune: tf ties
    straddling the k boundary must be resolved by df (corpus-rare
    first) then word — which requires every tf-threshold tie to
    survive the prune and meet its df. Includes docs with fewer than
    k distinct words and an empty doc."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.text import doc_top_terms, doc_top_terms_sql

    # 'rare' occurs in 1 doc, 'common' in all -> at equal tf, 'rare'
    # outranks 'common'; doc 0 has six words tied at tf=2 so the k=5
    # cut lands inside the tie group
    docs = [
        "rare common aa bb cc dd rare common aa bb cc dd",
        "common common zz",
        "",
        "solo",
    ]
    d = tmp_path / "toptermsfx"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs, pa.string())}),
        str(d / "documents.parquet"))
    got = doc_top_terms(str(d)).to_pandas()
    got = got[sorted(got.columns)].sort_values(
        list(sorted(got.columns))).reset_index(drop=True)
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    want = con.execute(doc_top_terms_sql()).fetchdf()
    want = want[sorted(want.columns)].sort_values(
        list(sorted(want.columns))).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    # the rare-vs-common df tie-break actually fired in doc 0's top-5
    top0 = got[got.doc_id == 0]
    assert "rare" in set(top0.word) and len(top0) == 5


def test_inverted_index_signature_merge_order_free():
    """The postings signature must be identical however the rows are
    partitioned and ordered (the mergeable-partial property the
    distributed fold relies on)."""
    import numpy as np
    import pyarrow as pa

    from casie_ray.ops.bucketing import mix64
    from casie_ray.ops.retrieval import _fold_postings

    rng = np.random.RandomState(7)
    words = np.array(["w%d" % (i % 5) for i in range(40)])
    doc_ids = rng.randint(0, 1 << 62, size=40).astype(np.uint64)
    rows = pa.table({
        "word": pa.array(words, pa.string()),
        "df": pa.array(np.ones(40, np.int64)),
        "tf_total": pa.array(rng.randint(1, 9, 40).astype(np.int64)),
        "postings_sig": pa.array(mix64([doc_ids]), pa.uint64()),
    })
    full = _fold_postings(rows, wrap_final=True).to_pandas() \
        .sort_values("word").reset_index(drop=True)
    # fold in two scrambled halves, then fold the partials
    perm = rng.permutation(40)
    half1 = _fold_postings(rows.take(pa.array(perm[:13])),
                           wrap_final=False)
    half2 = _fold_postings(rows.take(pa.array(perm[13:])),
                           wrap_final=False)
    merged = _fold_postings(pa.concat_tables([half2, half1]),
                            wrap_final=True).to_pandas() \
        .sort_values("word").reset_index(drop=True)
    pd.testing.assert_frame_equal(full, merged)


def test_doc_length_rank_clamped_ranges(ray_session, tmp_path):
    """Ranks are an exact permutation even when many docs clamp into
    the last value range (n_chars beyond the histogram width) and tie
    on n_chars."""
    import duckdb
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.text import doc_length_rank, DOC_LENGTH_RANK_SQL

    rng = np.random.RandomState(3)
    n = 300
    n_chars = np.concatenate([
        rng.randint(0, 200, 150),          # normal ranges, with ties
        rng.randint(70000, 70005, 150),    # all clamp into range 4095
    ]).astype(np.int64)
    d = tmp_path / "rankfx"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n), pa.int64()),
        "text": pa.array([""] * n, pa.string()),
        "n_chars": pa.array(n_chars, pa.int64()),
    }), str(d / "documents.parquet"))
    got = doc_length_rank(str(d)).to_pandas()
    assert sorted(got["rank"]) == list(range(1, n + 1))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    want = con.execute(DOC_LENGTH_RANK_SQL).fetchdf()
    got = got.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "n_chars", "rank"]]
    want = want.sort_values("doc_id").reset_index(drop=True)[
        ["doc_id", "n_chars", "rank"]]
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)


def test_kmv_estimate_accuracy(ray_session, ddb):
    """The KMV values are the exactly-checked contract (SQL_CHECKED);
    the derived estimate must land within the ~1/sqrt(K-2) band of the
    true distinct count."""
    import pyarrow as pa

    from casie_ray.ops.sketch import kmv_estimate, kmv_user_values

    vals = pa.concat_tables(kmv_user_values(SF_DIR)
                            .iter_batches(batch_format="pyarrow"))
    est = kmv_estimate(vals)
    exact = ddb.execute(
        "SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert abs(est - exact) / exact < 0.3


def test_props_extract_edge_payloads(ray_session, tmp_path):
    """Engine regex fast path and the json_extract oracle agree on the
    documented contract edges: float values excluded (not rounded
    differently), whitespace before the colon accepted, nested
    objects out of scope on both sides."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.relational import (PROPS_EXTRACT_SQL,
                                          events_props_extract)

    t = pa.table({
        "event_id": pa.array(range(6), pa.int64()),
        "event_type": pa.array(["a"] * 6, pa.string()),
        "props": pa.array(['{"k": 69}', '{"k": 3.5}', '{"k" : 7}',
                           '{"a": {"k": 5}}', '{}', '{"k": -2}'],
                          pa.string()),
    })
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/events.parquet")
    got = _normalize(events_props_extract(sf).to_pandas())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = _normalize(con.execute(PROPS_EXTRACT_SQL).fetchdf())
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert got.iloc[0]["n_with_k"] == 3  # 69, 7, -2
    assert got.iloc[0]["sum_k"] == 74


def test_cube_retention_edge_timestamps(ray_session, tmp_path):
    """Planted pre-epoch / null-ts / all-null-value events: the cube
    and retention engines must match their SQL twins exactly (numpy
    floor-div vs DuckDB trunc-div, NULL sum vs 0, null-ts drop)."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.relational import (CUBE_SQL, RETENTION_SQL,
                                          events_cube, events_retention)

    t = pa.table({
        "event_id": pa.array(range(4), pa.int64()),
        "user_id": pa.array([1, 1, 2, 2], pa.int64()),
        "event_type": pa.array(["a", "a", "b", "b"], pa.string()),
        "ts": pa.array([-1, 86_400_000_001, None, 100],
                       pa.timestamp("us")),
        "value": pa.array([None, None, None, None], pa.float64()),
        "props": pa.array(["{}"] * 4, pa.string()),
    })
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/events.parquet")
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    for fn, sql in ((events_cube, CUBE_SQL),
                    (events_retention, RETENTION_SQL)):
        got = _normalize(fn(sf).to_pandas())
        want = _normalize(con.execute(sql).fetchdf())
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=True)


def test_mixture_thresholds_temperature_property():
    """alpha=0.5 temperature: a rare source's keep-rate must exceed the
    flat rate (T/total) and a dominant source's must fall below it;
    expected kept mass stays within integer-rounding of the target."""
    from casie_ray.ops.curation import MIX_PPM, mixture_thresholds

    counts = {"big": 90_000, "small": 900, "tiny": 9}
    thr = mixture_thresholds(counts, target_divisor=3)
    total = sum(counts.values())
    flat_ppm = (total // 3) * MIX_PPM // total
    assert thr["big"] < flat_ppm < thr["tiny"]
    assert thr["small"] > flat_ppm
    assert thr["tiny"] <= MIX_PPM
    # the ppm cap (can't keep >100% of a tiny source) only ever LOSES
    # mass vs the ideal allocation, and not much of it
    expected_kept = sum(thr[s] * n for s, n in counts.items()) / MIX_PPM
    assert expected_kept <= total // 3
    assert expected_kept > 0.9 * (total // 3)


def test_doc_ngrams_never_span_documents(ray_session, tmp_path):
    """Planted corpus: the trigram assembled across a doc boundary must
    NOT appear; counts match a brute-force python counter."""
    import collections

    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.text import doc_ngrams

    docs = ["a b c d", "c d a b", "a b"]
    t = pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs, pa.string()),
        "lang": pa.array(["en"] * len(docs), pa.string()),
        "source": pa.array(["s"] * len(docs), pa.string()),
        "n_chars": pa.array([len(d) for d in docs], pa.int64()),
    })
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/documents.parquet")
    got = {r["ngram"]: r["n"] for r in doc_ngrams(sf).take_all()}
    brute = collections.Counter()
    for d in docs:
        ws = d.split(" ")
        for i in range(len(ws) - 2):
            brute[" ".join(ws[i:i + 3])] += 1
    assert got == dict(brute)
    assert "c d c" not in got and "d a b" in got


def test_connected_components_adversarial_shapes(ray_session):
    """Worst cases for distributed label propagation: a long CHAIN
    (maximal diameter — pointer jumping must converge in O(log n)
    rounds, not O(n)) and a giant STAR (hot-key skew: one hub's whole
    edge list lands in a single hash bucket, which must stay a
    vectorized reduce, never a per-row loop). Exactness vs the
    sequential union-find on the combined multi-component graph."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.graph import components_local, connected_components

    chain = [(f"c{i:05d}", f"c{i + 1:05d}") for i in range(2000)]
    star = [("hub", f"s{i:05d}") for i in range(5000)]
    island = [("z1", "z2"), ("z2", "z3")]
    edges = chain + star + island

    want = components_local(edges)
    tbl = pa.table({"src": [a for a, _ in edges],
                    "dst": [b for _, b in edges]})
    # max_rounds=32 must be plenty: pointer jumping needs ~log2(2000)
    got_ds = connected_components(ray.data.from_arrow(tbl))
    got = {r["node"]: r["label"] for r in got_ds.take_all()}
    assert got == want
    # three distinct components, chain+star+island disjoint
    assert len(set(got.values())) == 3


def test_mixture_sample_null_sources_parity(ray_session, tmp_path):
    """Planted NULL sources: both sides must exclude them from the
    weight totals AND from the output (regression: a NULL group in the
    SQL tot CTE shifted every threshold); all-NULL input returns empty
    instead of crashing the filter."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.curation import mixture_sample, mixture_sample_sql

    n = 3000
    src = ["a"] * 2000 + ["b"] * 900 + [None] * 100
    t = pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(["x"] * n, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "source": pa.array(src, pa.string()),
        "n_chars": pa.array([1] * n, pa.int64()),
    })
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/documents.parquet")
    got = _normalize(mixture_sample(sf).to_pandas())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = _normalize(con.execute(mixture_sample_sql()).fetchdf())
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    assert len(got) > 0 and got["source"].notna().all()

    # all-NULL sources: empty result, no crash
    t2 = t.set_column(t.schema.get_field_index("source"), "source",
                      pa.array([None] * n, pa.string()))
    sf2 = str(tmp_path / "allnull")
    import os
    os.makedirs(sf2, exist_ok=True)
    pq.write_table(t2, f"{sf2}/documents.parquet")
    assert mixture_sample(sf2).count() == 0


def test_hourly_anomaly_flags_planted_spike(ray_session, tmp_path):
    """Planted spike: one hour carries 60 events while 23 quiet hours
    carry 2 each — only the spike hour may be flagged, and the flag
    must agree with the SQL twin on the same table (incl. a NULL
    event_type group, which the window-function twin keeps)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.relational import (HOURLY_ANOMALY_SQL,
                                          events_hourly_anomaly)

    rows_ts, rows_ty = [], []
    hour_us = 3_600_000_000
    for h in range(24):
        n = 60 if h == 7 else 2
        for i in range(n):
            rows_ts.append(h * hour_us + i)
            rows_ty.append("click")
    rows_ts += [0, hour_us]
    rows_ty += [None, None]
    n_rows = len(rows_ts)
    t = pa.table({
        "event_id": pa.array(range(n_rows), pa.int64()),
        "ts": pa.array(rows_ts, pa.timestamp("us")),
        "user_id": pa.array([1] * n_rows, pa.int64()),
        "event_type": pa.array(rows_ty, pa.string()),
        "value": pa.array([0.0] * n_rows, pa.float64()),
        "props": pa.array(["{}"] * n_rows, pa.string()),
    })
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/events.parquet")

    got = _normalize(events_hourly_anomaly(sf).to_pandas())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = _normalize(con.execute(HOURLY_ANOMALY_SQL).fetchdf())
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    clicks = got[got["event_type"] == "click"]
    flagged = clicks[clicks["is_anomaly"] == 1]
    assert len(flagged) == 1 and flagged["n_events"].iloc[0] == 60


def test_hourly_anomaly_dense_range_catches_sparse_burst(ray_session,
                                                         tmp_path):
    """A type active in only 2 of 101 hours (50 events each, 99 silent
    hours between) IS anomalous against its dense active range — the
    observed-hours-only baseline would see two identical hours and
    flag nothing. Engine and SQL twin must agree on the dense nh."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.relational import (HOURLY_ANOMALY_SQL,
                                          events_hourly_anomaly)

    hour_us = 3_600_000_000
    rows_ts = [0 * hour_us + i for i in range(50)] + \
              [100 * hour_us + i for i in range(50)]
    n_rows = len(rows_ts)
    t = pa.table({
        "event_id": pa.array(range(n_rows), pa.int64()),
        "ts": pa.array(rows_ts, pa.timestamp("us")),
        "user_id": pa.array([1] * n_rows, pa.int64()),
        "event_type": pa.array(["burst"] * n_rows, pa.string()),
        "value": pa.array([0.0] * n_rows, pa.float64()),
        "props": pa.array(["{}"] * n_rows, pa.string()),
    })
    sf = str(tmp_path)
    pq.write_table(t, f"{sf}/events.parquet")

    got = _normalize(events_hourly_anomaly(sf).to_pandas())
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = _normalize(con.execute(HOURLY_ANOMALY_SQL).fetchdf())
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    # both observed hours are bursts vs the 101-hour dense baseline
    assert got["is_anomaly"].tolist() == [1, 1]


def test_similar_docs_planted(ray_session, tmp_path):
    """Trigram-TF-IDF pairs: a near-copied doc pair scores highest; a
    doc sharing no eligible trigram never pairs; raising df past
    df_cap removes a boilerplate-only pair in both engine and
    arithmetic (hand-checked weight/score values)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.retrieval import similar_docs

    shared = "alpha beta gamma delta epsilon zeta"   # 4 trigrams, df=2
    rows = [(1, f"{shared} one two"),
            (2, f"{shared} three four"),
            (3, "totally different words with no common shingles here")]
    # a trigram shared by 6 docs: eligible at df_cap=64, dropped at 4
    boiler = "omega psi chi"
    rows += [(10 + i, f"filler{i} pad{i} {boiler}") for i in range(6)]
    pq.write_table(pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "text": pa.array([r[1] for r in rows])}),
        str(tmp_path / "documents.parquet"))

    got = similar_docs(str(tmp_path), min_score=1).to_pandas()
    assert not ((got.doc_a == 3) | (got.doc_b == 3)).any()
    top = got.sort_values("score_micro", ascending=False).iloc[0]
    assert (top.doc_a, top.doc_b) == (1, 2)
    # 4 shared trigrams, each tf=1, df=2 -> weight 500000 each
    assert top.score_micro == 4 * 500_000

    capped = similar_docs(str(tmp_path), df_cap=4,
                          min_score=1).to_pandas()
    # the boiler trigram (df=6) is now ineligible: filler docs unpair
    assert set(zip(capped.doc_a, capped.doc_b)) == {(1, 2)}


def test_neighbor_jaccard_planted(ray_session):
    """Hand-built graph: star a-{b,c,d} plus edge b-c. Through centers:
    b,c share neighbor a (and each other as neighbors of a). Hub cap
    below a's degree removes a-centered wedges in both dataflows."""
    import pyarrow as pa
    import ray.data
    from casie_ray.ops.graphx import neighbor_jaccard

    edges = pa.table({
        "subj": pa.array(["a", "a", "a", "b"]),
        "obj": pa.array(["b", "c", "d", "c"]),
    })
    ds = ray.data.from_arrow(edges)
    got = neighbor_jaccard(ds, min_common=1).to_pandas()
    got = got.set_index(["node_a", "node_b"])
    # deg: a=3, b=2, c=2, d=1. N(b)={a,c}, N(c)={a,b}: common {a}? b in
    # N(c) and c in N(b) are pair ENDPOINTS, not shared neighbors ->
    # common(b,c)=1 (a), union=|{a,c}|+|{a,b}|-1=3
    assert got.loc[("b", "c")].n_common == 1
    assert got.loc[("b", "c")].jaccard_ppm == 1_000_000 // 3
    # common(b,d)={a}, union = 2+1-1 = 2 -> 1/2
    assert got.loc[("b", "d")].jaccard_ppm == 500_000
    # common(c,d)={a} likewise
    assert got.loc[("c", "d")].jaccard_ppm == 500_000

    capped = neighbor_jaccard(ds, hub_cap=2, min_common=1).to_pandas()
    # a (deg 3) no longer generates wedges; only centers b,c (deg 2)
    # remain, each linking their two neighbors
    pairs = set(zip(capped.node_a, capped.node_b))
    assert ("b", "d") not in pairs and ("c", "d") not in pairs
    assert ("a", "c") in pairs and ("a", "b") in pairs


def test_pred_bigrams_planted(ray_session):
    """Hand-built path graph: s1 -p-> m -q-> o (one pq path), plus
    m -q-> o2 (second pq path through the same middle), plus a
    self-composable r: x -r-> y -r-> z. Duplicate edge rows collapse
    before counting."""
    import pyarrow as pa
    import ray.data
    from casie_ray.ops.graphx import pred_bigrams

    edges = pa.table({
        "subj": pa.array(["s1", "m", "m", "x", "y", "s1"]),
        "pred": pa.array(["p", "q", "q", "r", "r", "p"]),
        "obj": pa.array(["m", "o", "o2", "y", "z", "m"]),  # last = dup
    })
    got = pred_bigrams(ray.data.from_arrow(edges)).to_pandas()
    got = got.set_index(["p1", "p2"])["n_paths"]
    assert got.loc[("p", "q")] == 2       # s1->m->{o,o2}, dup ignored
    assert got.loc[("r", "r")] == 1       # x->y->z
    assert ("q", "p") not in got.index    # direction matters


def test_conv_profiles_null_faithful(ray_session, tmp_path, ddb):
    """NULL role and NULL conv_id behave exactly like the DuckDB twin:
    count(DISTINCT role) ignores the NULL role; the NULL conv_id group
    survives (no crash in the hash path)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.relational import conv_profiles, conv_profiles_sql

    ts = pa.array([1_000_000, 2_000_000, 3_000_000, 4_000_000],
                  pa.timestamp("us"))
    pq.write_table(pa.table({
        "conv_id": pa.array(["c1", "c1", "c1", None]),
        "turn_idx": pa.array([0, 1, 2, 0], pa.int32()),
        "role": pa.array(["user", None, "assistant", "user"]),
        "text": pa.array(["hello there", None, "hi", "solo"]),
        "tool": pa.array([None, "grep", None, None]),
        "ts": ts,
    }), str(tmp_path / "part.parquet"))

    got = _normalize(conv_profiles(str(tmp_path)).to_pandas())
    want = _normalize(ddb.execute(
        conv_profiles_sql(f"{tmp_path}/*.parquet")).df())
    pd.testing.assert_frame_equal(
        got.astype({c: want[c].dtype for c in want.columns
                    if c != "conv_id"} | {"conv_id": object}),
        want, check_dtype=False)
    row = got[got.conv_id == "c1"].iloc[0]
    assert row.n_roles == 2        # NULL role not counted
    assert row.n_turns == 3


def test_similar_docs_random_parity(ray_session, tmp_path, ddb):
    """Seeded random corpus with adversarial shapes — empty texts,
    NULL text, single-word docs, exact duplicates, high-df boilerplate
    — engine == DuckDB twin bit-for-bit."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from casie_ray.ops.retrieval import similar_docs, similar_docs_sql

    rng = np.random.default_rng(7)
    vocab = [f"t{i}" for i in range(12)]   # tiny vocab -> heavy overlap
    texts = []
    for i in range(120):
        k = int(rng.integers(0, 9))
        texts.append(" ".join(rng.choice(vocab, k)) if k else "")
    texts[3] = None
    texts[10] = texts[11] = "t0 t1 t2 t3 t4"        # exact dup pair
    d = tmp_path / "rand"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(120, dtype=np.int64)),
        "text": pa.array(texts, pa.string())}),
        str(d / "documents.parquet"))

    got = _normalize(similar_docs(str(d), min_score=1).to_pandas())
    con = ddb.cursor()
    con.execute(f"CREATE OR REPLACE VIEW rand_docs AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    sql = similar_docs_sql(min_score=1).replace("FROM documents",
                                                "FROM rand_docs")
    want = _normalize(con.execute(sql).df())
    assert len(got) == len(want) and len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_kcore_planted(ray_session):
    """k-core peeling: a 5-clique with a pendant chain — the 3-core is
    exactly the clique (each at degree 4); a chain fully peels at k=2
    (the adversarial-depth case); distributed == sequential twin on a
    random graph."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.graphx import kcore, kcore_local

    def run(pairs, k):
        ds = ray.data.from_arrow(pa.table(
            {"subj": [a for a, _ in pairs],
             "obj": [b for _, b in pairs]}))
        return sorted((r["node"], r["deg"])
                      for r in kcore(ds, k=k).take_all())

    clique = [(f"n{i}", f"n{j}")
              for i in range(5) for j in range(i + 1, 5)]
    tail = [("n0", "t1"), ("t1", "t2"), ("t2", "t3")]
    got = run(clique + tail, 3)
    assert got == [(f"n{i}", 4) for i in range(5)]
    assert got == kcore_local(clique + tail, 3)
    # chain at k=2 peels COMPLETELY, one endpoint pair per round
    chain = [(f"c{i}", f"c{i+1}") for i in range(20)]
    assert run(chain, 2) == [] == kcore_local(chain, 2)
    # random graph: unique fixpoint == sequential peel
    rng = random.Random(11)
    pairs = [(f"v{rng.randrange(150)}", f"v{rng.randrange(150)}")
             for _ in range(450)]
    assert run(pairs, 3) == kcore_local(pairs, 3)


def test_countmin_merge_and_estimate(ray_session):
    """CMS partials are order-free mergeable integer registers, the
    point estimate is >= the true count (one-sided error), and exact
    for keys with no colliding cell."""
    import numpy as np
    import pyarrow as pa

    from casie_ray.ops.sketch import (CMS_D, countmin_estimate,
                                      countmin_partial)

    rng = np.random.default_rng(3)
    ids = rng.integers(0, 50, 3000).astype(np.int64)

    def merge(tables):
        t = pa.concat_tables(tables)
        g = t.group_by(["row", "col"]).aggregate([("n", "sum")])
        return g.rename_columns(["row", "col", "n"]) \
            .sort_by([("row", "ascending"), ("col", "ascending")])

    whole = countmin_partial(ids).sort_by(
        [("row", "ascending"), ("col", "ascending")])
    split = merge([countmin_partial(ids[:1000]),
                   countmin_partial(ids[1000:2500]),
                   countmin_partial(ids[2500:])])
    assert whole.equals(split)                      # mergeable
    assert sum(whole.column("n").to_pylist()) == CMS_D * len(ids)
    for key in range(50):
        true = int(np.sum(ids == key))
        assert countmin_estimate(whole, key) >= true   # one-sided
    # a key absent from the stream can only over-estimate via collision
    assert countmin_estimate(whole, 999_999) >= 0


def test_pq_codes_layout_independent(ray_session):
    """PQ assignment is exact-integer: codes are identical whether the
    table arrives in one batch or shuffled tiny batches, quantization
    reconstruction beats a mismatched codebook, and every (vec, sub)
    gets exactly one code."""
    import numpy as np

    from casie_ray.ops.ann import (PQ_M, _normalize_rows,
                                   _pq_assign_sub, train_pq_codebooks)

    sf = "/root/testdata/sf0.01"
    books = train_pq_codebooks(sf)
    assert books.shape[0] == PQ_M
    import pyarrow.parquet as pq_

    t = pq_.read_table(f"{sf}/embeddings.parquet",
                       columns=["vec_id", "embedding"])
    m = _normalize_rows(np.asarray(t.column("embedding").to_pylist(),
                                   np.float32))
    sd = m.shape[1] // PQ_M
    whole = _pq_assign_sub(m[:, :sd], books[0])
    rng = np.random.default_rng(5)
    perm = rng.permutation(len(m))
    shuffled = _pq_assign_sub(m[perm][:, :sd], books[0])
    assert (shuffled == whole[perm]).all()          # layout-free
    # reconstruction with the trained book beats a rolled (wrong) book
    err_good = np.linalg.norm(m[:, :sd] - books[0][whole], axis=1).mean()
    err_bad = np.linalg.norm(
        m[:, :sd] - np.roll(books[0], 1, axis=0)[whole], axis=1).mean()
    assert err_good < err_bad


def test_events_window_dedup_planted(ray_session, tmp_path):
    """Debounce semantics: LAG gaps (not kept-anchor) — a burst of
    events spaced just under the window keeps EVERY OTHER one only if
    the gap to the previous event (kept or not) exceeds the window;
    distinct (user, type) streams never interact."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from casie_ray.ops import relational as rel

    base = 1_700_000_000_000_000
    w = rel.WINDOW_DEDUP_US
    rows = []
    # user 1 / click: burst at w/2 spacing -> only the first survives
    for i in range(4):
        rows.append((100 + i, 1, "click", base + i * (w // 2)))
    # user 1 / view: same timestamps, separate stream -> same pattern
    for i in range(2):
        rows.append((200 + i, 1, "view", base + i * (w + 1)))
    # user 2 / click: gaps just OVER the window -> all survive
    for i in range(3):
        rows.append((300 + i, 2, "click", base + i * (w + 1)))
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([r[3] for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[2] for r in rows], pa.string()),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    })
    d = tmp_path / "sf"
    d.mkdir()
    pq_.write_table(t, str(d / "events.parquet"))
    got = sorted(r["event_id"]
                 for r in rel.events_window_dedup(str(d)).take_all())
    assert got == [100, 200, 201, 300, 301, 302]


def test_hits_planted(ray_session):
    """HITS on a planted star: the hub pointing at all authorities gets
    hub = HITS_SCALE, pure authorities get auth = HITS_SCALE x their
    in-share and hub 0; a disconnected sink node scores (0, 0)-free
    rows consistent with the integer renorm."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.graphx import HITS_SCALE, hits

    edges = pa.table({
        "subj": ["hub", "hub", "hub", "x"],
        "obj": ["a1", "a2", "a3", "a1"],
    })
    got = {r["node"]: (r["hub"], r["auth"])
           for r in hits(ray.data.from_arrow(edges)).take_all()}
    assert set(got) == {"hub", "x", "a1", "a2", "a3"}
    # "hub" dominates the hub vector exactly
    assert got["hub"] == (HITS_SCALE, 0)
    # a1 has in-edges from both hubs -> the max authority
    assert got["a1"][1] == HITS_SCALE
    assert got["a2"] == got["a3"]           # symmetric authorities
    assert got["a2"][0] == 0                # pure authorities
    assert 0 < got["a2"][1] < HITS_SCALE
    assert 0 < got["x"][0] < HITS_SCALE     # weaker hub


def test_sssp_planted(ray_session):
    """Bounded-hop weighted shortest paths: a line graph with known
    predicate weights gives exact prefix sums up to the hop bound and
    EXCLUDES nodes past it; a shortcut edge with a heavier weight wins
    only when its total is smaller; random graph == sequential
    Bellman-Ford twin."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.graphx import sssp, sssp_local

    def run(triples, **kw):
        ds = ray.data.from_arrow(pa.table(
            {"subj": [a for a, _, _ in triples],
             "pred": [p for _, p, _ in triples],
             "obj": [b for _, _, b in triples]}))
        return {r["node"]: r["dist"] for r in sssp(ds, **kw).take_all()}

    # len("p")=1 -> wt 2; len("pppp")=4 -> wt 1 (4 % 4 == 0)
    line = [(f"a{i}", "p", f"a{i+1}") for i in range(6)]
    got = run(line)
    # seed a0; hops capped at 4 -> a5, a6 unreachable
    assert got == {f"a{i}": 2 * i for i in range(5)}
    assert got == sssp_local(line)
    # shortcut a0 -> a3 with wt 1 beats the 3x2 path
    short = line + [("a0", "pppp", "a3")]
    got2 = run(short)
    assert got2["a3"] == 1 and got2["a4"] == 3
    assert got2 == sssp_local(short)
    # random graph: engine == sequential DP at the same hop bound
    rng = random.Random(23)
    preds = ["t", "us", "fix", "disc"]
    tri = [(f"v{rng.randrange(80)}", rng.choice(preds),
            f"v{rng.randrange(80)}") for _ in range(260)]
    assert run(tri) == sssp_local(tri)


def test_lp_communities_planted(ray_session):
    """Synchronous label propagation: two planted cliques joined by a
    single bridge edge each converge to their own min label; the
    deterministic (count desc, label asc) tie-break matches the
    sequential twin on a random graph."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.graphx import lp_communities, lp_communities_local

    def run(pairs):
        ds = ray.data.from_arrow(pa.table(
            {"subj": [a for a, _ in pairs],
             "pred": ["k"] * len(pairs),
             "obj": [b for _, b in pairs]}))
        return {r["node"]: r["label"]
                for r in lp_communities(ds).take_all()}

    cl1 = [(f"a{i}", f"a{j}") for i in range(5) for j in range(i + 1, 5)]
    cl2 = [(f"b{i}", f"b{j}") for i in range(5) for j in range(i + 1, 5)]
    bridge = [("a0", "b0")]
    got = run(cl1 + cl2 + bridge)
    assert {got[f"a{i}"] for i in range(5)} == {"a0"}
    assert {got[f"b{i}"] for i in range(1, 5)} == {"b0"}
    assert got == lp_communities_local(cl1 + cl2 + bridge)
    rng = random.Random(31)
    pairs = [(f"v{rng.randrange(120)}", f"v{rng.randrange(120)}")
             for _ in range(380)]
    pairs = [(a, b) for a, b in pairs if a != b]
    assert run(pairs) == lp_communities_local(pairs)


def test_event_transitions_planted(ray_session):
    """Markov transition counts: a planted conversation with a known
    event order yields exactly its consecutive pairs; conversations
    never leak into each other; within-turn order follows event_id
    string order (the SQL twin's LAG ordering)."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.graphx import event_transitions

    t = pa.table({
        "conv_id": ["c1"] * 4 + ["c2"] * 2,
        "turn_idx": [1, 3, 3, 9, 2, 5],
        # turn 3 holds two events; "c1:3:11" < "c1:3:9" as strings
        "event_id": ["c1:1:0", "c1:3:9", "c1:3:11", "c1:9:0",
                     "c2:2:0", "c2:5:0"],
        "etype": ["Phishing", "Databreach", "Ransom", "Ransom",
                  "Databreach", "Phishing"],
    })
    got = sorted((r["etype_from"], r["etype_to"], r["n"])
                 for r in event_transitions(
                     ray.data.from_arrow(t)).take_all())
    # c1 order: Phishing -> Ransom (id "11" sorts first) ->
    # Databreach -> Ransom; c2: Databreach -> Phishing
    assert got == [
        ("Databreach", "Phishing", 1),
        ("Databreach", "Ransom", 1),
        ("Phishing", "Ransom", 1),
        ("Ransom", "Databreach", 1),
    ]


def test_assortativity_registers_planted(ray_session):
    """Integer assortativity registers: a star graph has known exact
    sums (hub deg k paired with leaf deg 1 on every half-edge);
    duplicate input triples don't change the simple-graph registers;
    random graph == sequential register oracle."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.graphx import (assortativity_local,
                                      assortativity_registers)

    def run(pairs):
        ds = ray.data.from_arrow(pa.table(
            {"subj": [a for a, _ in pairs],
             "pred": ["p"] * len(pairs),
             "obj": [b for _, b in pairs]}))
        return assortativity_registers(ds).take_all()[0]

    star = [("hub", f"l{i}") for i in range(5)]
    got = run(star)
    # 10 half-edges: 5 from hub (deg 5, partner deg 1), 5 from leaves
    assert got == {"n_halfedges": 10, "sum_deg": 5 * 5 + 5 * 1,
                   "sum_deg_sq": 5 * 25 + 5 * 1,
                   "sum_deg_prod": 10 * 5 * 1}
    assert got == assortativity_local(star)
    # duplicated triples collapse to the same simple graph
    assert run(star * 3) == got
    rng = random.Random(41)
    pairs = [(f"v{rng.randrange(90)}", f"v{rng.randrange(90)}")
             for _ in range(300)]
    pairs = [(a, b) for a, b in pairs if a != b]
    assert run(pairs) == assortativity_local(pairs)


def test_winnow_pairs_planted(ray_session, tmp_path):
    """Winnowing dedup: identical planted docs share EVERY selected
    fingerprint; a doc sharing a long run (>= window+k-1 words) shares
    at least one (the winnowing guarantee); unrelated docs share none;
    df_cap drops a fingerprint planted into many docs from candidate
    generation."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from casie_ray.ops.dedup import winnow_pairs, winnow_select_batch

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lam mu nu xi omicron pi rho sigma tau upsilon")
    run = "one two three four five six seven eight nine ten"
    texts = [
        base,                                   # 0
        base,                                   # 1: exact dup of 0
        "start words then " + run + " end bit",  # 2: shares run w/ 3
        run + " unrelated suffix tokens here",    # 3
        "totally disjoint vocabulary document body text words",  # 4
    ]
    t = pa.table({"doc_id": pa.array(range(5), pa.int64()),
                  "text": pa.array(texts, pa.string())})
    d = tmp_path / "sfw"
    d.mkdir()
    pq_.write_table(t, str(d / "documents.parquet"))
    got = {(r["doc_a"], r["doc_b"]): r["n_shared"]
           for r in winnow_pairs(str(d), min_shared=1).take_all()}
    _, fps0 = winnow_select_batch([base])
    assert got[(0, 1)] == len(set(fps0.tolist()))   # dup shares all
    assert (2, 3) in got                            # winnow guarantee
    assert not any(4 in p for p in got)             # disjoint doc
    # df_cap: a gram selected in MANY docs leaves candidate generation
    many = [f"pad{i} filler common shared quad gram words tail{i}"
            for i in range(8)]
    t2 = pa.table({"doc_id": pa.array(range(8), pa.int64()),
                   "text": pa.array(many, pa.string())})
    d2 = tmp_path / "sfw2"
    d2.mkdir()
    pq_.write_table(t2, str(d2 / "documents.parquet"))
    uncapped = winnow_pairs(str(d2), df_cap=1024, min_shared=1) \
        .take_all()
    capped = winnow_pairs(str(d2), df_cap=4, min_shared=1).take_all()
    assert len(uncapped) > 0 and len(capped) == 0


def test_doc_chunks_planted(ray_session, tmp_path):
    """Chunk geometry and signature invariants: a 100-word doc at
    (chunk=64, stride=48) yields windows of 64/52/4 words; identical
    word windows in DIFFERENT docs produce identical chunk_sig (the
    content-signature property RAG dedup relies on); empty and NULL
    docs emit nothing."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from casie_ray.ops.text import doc_chunks

    words = [f"w{i}" for i in range(100)]
    texts = [
        " ".join(words),                 # 0: 100 words -> 3 chunks
        " ".join(words[48:96]),          # 1: == doc 0's chunk 1 prefix?
        " ".join(words[:64]),            # 2: == doc 0's chunk 0
        "",                              # 3: empty -> nothing
        None,                            # 4: NULL -> nothing
        "solo",                          # 5: 1 word -> 1 chunk of 1
    ]
    d = tmp_path / "sfchunks"
    d.mkdir()
    pq_.write_table(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array(texts, pa.string())}),
        str(d / "documents.parquet"))
    rows = doc_chunks(str(d)).take_all()
    by_doc = {}
    for r in rows:
        by_doc.setdefault(r["doc_id"], {})[r["chunk_idx"]] = r
    assert set(by_doc) == {0, 1, 2, 5}
    assert [by_doc[0][i]["n_words"] for i in range(3)] == [64, 52, 4]
    # doc 2 is exactly doc 0's first window -> same signature
    assert by_doc[2][0]["chunk_sig"] == by_doc[0][0]["chunk_sig"]
    # doc 1 (48 words) != doc 0's chunk 1 (52 words): differing length
    # must change the fold
    assert by_doc[1][0]["chunk_sig"] != by_doc[0][1]["chunk_sig"]
    assert by_doc[5][0]["n_words"] == 1


def test_transcript_boilerplate_planted(ray_session, tmp_path, ddb):
    """Distinct-conv counting is exact and NULL-faithful: a text in 3
    convs (twice in one) reports n_turns=4 / n_convs=3; a 2-conv text
    is filtered; NULL text is ignored; a NULL conv_id occurrence
    raises n_turns but not n_convs — and the whole planted table
    matches the DuckDB twin bit-for-bit."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from casie_ray.ops.relational import (transcript_boilerplate,
                                          transcript_boilerplate_sql)

    conv = ["a", "a", "b", "c", "a", "b", "x", "y", "z", None, "a"]
    text = ["ok", "ok", "ok", "ok",      # 4 turns, 3 convs
            "hi", "hi",                  # 2 convs -> filtered
            "yes", "yes", "yes", "yes",  # 3 convs + NULL conv
            None]                        # NULL text -> ignored
    d = tmp_path / "sftb"
    d.mkdir()
    pq_.write_table(pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(range(len(conv)), pa.int32()),
        "text": pa.array(text, pa.string()),
    }), str(d / "part.parquet"))
    got = _normalize(
        transcript_boilerplate(str(d), min_convs=3).to_pandas())
    want = _normalize(ddb.execute(
        transcript_boilerplate_sql(f"{d}/*.parquet", min_convs=3)
    ).fetchdf())
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    by_text = {r.text: r for r in got.itertuples()}
    assert set(by_text) == {"ok", "yes"}
    assert (by_text["ok"].n_turns, by_text["ok"].n_convs) == (4, 3)
    # "yes": 4 turns, but the NULL-conv turn doesn't count as a conv
    assert (by_text["yes"].n_turns, by_text["yes"].n_convs) == (4, 3)


def test_chunk_dup_groups_planted(ray_session, tmp_path):
    """Passage-level dedup: an exact doc copy repeats every window
    signature (n_docs=2); a WITHIN-doc repeated window (the same 64
    words at two aligned offsets of one doc) raises n_chunks but is
    filtered by the distinct-doc floor; disjoint docs contribute
    nothing."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from casie_ray.ops.text import chunk_dup_groups

    words = [f"w{i}" for i in range(100)]
    ivocab = [f"y{i}" for i in range(64)]   # disjoint from docs 0-2
    internal = ivocab + [f"x{i}" for i in range(32)] + ivocab
    texts = [
        " ".join(words),                  # 0: 3 chunks
        " ".join(words),                  # 1: exact copy of 0
        " ".join(f"z{i}" for i in range(70)),   # 2: disjoint
        " ".join(internal),               # 3: chunk@0 == chunk@96
    ]
    d = tmp_path / "sfcd"
    d.mkdir()
    pq_.write_table(pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts, pa.string())}),
        str(d / "documents.parquet"))
    rows = chunk_dup_groups(str(d)).take_all()
    # exactly doc 0/1's three shared windows survive the n_docs floor
    assert len(rows) == 3
    assert all(r["n_docs"] == 2 and r["n_chunks"] == 2 for r in rows)


def test_transcript_windows_planted(ray_session, tmp_path, ddb):
    """Window geometry ([8, 6, 2] turns for a 10-turn conv at
    window=8/stride=4), cross-conversation signature equality for
    identical turn sequences, NULL-text fold-as-empty, and bit-exact
    parity with the DuckDB twin."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from casie_ray.ops.relational import (transcript_windows,
                                          transcript_windows_sql)

    conv, ti, text = [], [], []
    for i in range(10):                     # conv a: 10 turns
        conv.append("a"); ti.append(i); text.append(f"turn {i}")
    for i in range(8):                      # conv b: == a's first 8
        conv.append("b"); ti.append(i); text.append(f"turn {i}")
    conv.append("c"); ti.append(0); text.append(None)   # NULL text
    d = tmp_path / "sftw"
    d.mkdir()
    pq_.write_table(pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(ti, pa.int32()),
        "text": pa.array(text, pa.string()),
    }), str(d / "part.parquet"))
    got = _normalize(transcript_windows(str(d)).to_pandas())
    want = _normalize(ddb.execute(
        transcript_windows_sql(f"{d}/*.parquet")).fetchdf())
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    a = got[got.conv_id == "a"].sort_values("window_idx")
    assert list(a.n_turns) == [8, 6, 2]
    assert list(a.first_turn_idx) == [0, 4, 8]
    sig_a0 = a[a.window_idx == 0].window_sig.iloc[0]
    sig_b0 = got[(got.conv_id == "b")
                 & (got.window_idx == 0)].window_sig.iloc[0]
    assert sig_a0 == sig_b0                 # identical turn sequences
    assert len(got[got.conv_id == "c"]) == 1


def test_kb_typed_candidates_precedence(ray_session, tmp_path, ddb):
    """The reference's wd_search type precedence (wd_search.py:154-202):
    a blacklisted type ANYWHERE in the closure rejects outright, even
    with whitelisted ancestors present; whitelisting works through the
    subclass closure (Organization survives only via Agent); the
    required-types gate filters on closure intersection; alias
    collisions emit one candidate row per entity; canonical==alias
    dedups. Engine == DuckDB recursive-CTE twin bit-for-bit."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from casie_ray.ops.kb import (kb_typed_candidates,
                                  kb_typed_candidates_sql)

    ents = pa.table({
        "entity_id": pa.array(["E1", "E2", "E3", "E4", "E5"]),
        "canonical": pa.array(
            ["Acme Corp", "EvilBot", "SiteX", "Jane Doe", "Acme"]),
        "aliases": pa.array([["Acme"], ["evil bot"], ["sitex.io"],
                             ["jane"], ["acme corp", "Acme"]],
                            pa.list_(pa.string())),
        "type": pa.array(["Organization", "Malware", "Website",
                          "Person", "Software"]),
    })
    d = tmp_path / "kb"
    d.mkdir()
    pq_.write_table(ents, str(d / "entities.parquet"))

    got = _normalize(kb_typed_candidates(str(d)).to_pandas())
    want = _normalize(ddb.execute(
        kb_typed_candidates_sql(str(d))).fetchdf())
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    by_ent = got.groupby("entity_id")
    # blacklist overrides the whitelisted System ancestor
    assert "E3" not in got.entity_id.values
    # whitelisting THROUGH the closure: Organization kept via Agent
    assert set(by_ent.get_group("E1").kept_types) == {"Agent"}
    assert set(by_ent.get_group("E4").kept_types) == {"Agent,Person"}
    assert set(by_ent.get_group("E2").kept_types) == {"Malware,Software"}
    # alias collision: surface "acme" names two entities
    assert set(got[got.surface == "acme"].entity_id) == {"E1", "E5"}
    # canonical==alias dedup: E5 emits "acme" once and "acme corp" once
    assert len(by_ent.get_group("E5")) == 2
    # required-type gate: closure must intersect required
    req = _normalize(kb_typed_candidates(
        str(d), required_types=("Organization",)).to_pandas())
    assert set(req.entity_id) == {"E1"}
    assert set(req.kept_types) == {"Agent,Organization"}
    req_sql = _normalize(ddb.execute(kb_typed_candidates_sql(
        str(d), required_types=("Organization",))).fetchdf())
    pd.testing.assert_frame_equal(req, req_sql, check_dtype=False,
                                  check_exact=True)


def test_tool_transitions_planted(ray_session, tmp_path, ddb):
    """Conversation isolation (no pair across convs), non-tool-turn
    skipping (a transition spans intervening plain turns), NULL
    conv_id exclusion, and bit-exact twin parity."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from casie_ray.ops.relational import (tool_transitions,
                                          tool_transitions_sql)

    conv = ["a", "a", "a", "a", "b", "b", None, None]
    ti = [0, 1, 2, 3, 0, 1, 0, 1]
    tool = ["grep", None, "sed", "grep", "awk", "grep", "cat", "cat"]
    d = tmp_path / "sftool"
    d.mkdir()
    pq_.write_table(pa.table({
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(ti, pa.int32()),
        "tool": pa.array(tool, pa.string()),
    }), str(d / "part.parquet"))
    got = _normalize(tool_transitions(str(d)).to_pandas())
    want = _normalize(ddb.execute(
        tool_transitions_sql(f"{d}/*.parquet")).fetchdf())
    pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                  check_exact=True)
    trans = {(r.tool_from, r.tool_to): r.n for r in got.itertuples()}
    # conv a: grep -> sed (skipping the plain turn), sed -> grep
    # conv b: awk -> grep ; NULL conv's cat -> cat never appears
    assert trans == {("grep", "sed"): 1, ("sed", "grep"): 1,
                     ("awk", "grep"): 1}


def test_kg_negative_samples_invariants(ray_session):
    """Structural invariants beyond the hash contract: no emitted
    negative collides with a true positive, the corrupted object is
    always a graph node, exactly <= k rows per positive, and the op is
    deterministic across runs."""
    import __ray_entry__ as entrymod
    from casie_ray.ops.mlprep import NEG_K

    q = entrymod.queries()["kg_negative_samples"]
    neg = q(SF_DIR).to_pandas()
    edges = entrymod.queries()["kg_edges"](SF_DIR).to_pandas()
    pos = set(zip(edges["subj"], edges["pred"], edges["obj"]))
    nodes = set(edges["subj"]) | set(edges["obj"])
    assert not neg.empty
    trips = set(zip(neg["subj"], neg["pred"], neg["neg_obj"]))
    assert not (trips & pos), "a negative collides with a positive"
    assert set(neg["neg_obj"]).issubset(nodes)
    per_pos = neg.groupby(["subj", "pred", "sample_idx"]).size()
    assert (neg["sample_idx"] < NEG_K).all()
    assert per_pos.size > 0
    neg2 = q(SF_DIR).to_pandas()
    a = neg.sort_values(list(neg.columns)).reset_index(drop=True)
    b = neg2.sort_values(list(neg.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_sft_pairs_null_and_window_edges(ray_session, tmp_path):
    """NULL text/role fold as '' (coalesce semantics), assistant turns
    with no prior turn are dropped, and the context window clips at
    SFT_CONTEXT_TURNS in turn order."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.mlprep import SFT_CONTEXT_TURNS, sft_pairs

    d = tmp_path / "transcripts"
    os.makedirs(d)
    rows = {
        "conv_id": ["a"] * 7 + ["b"],
        "turn_idx": list(range(7)) + [0],
        "role": ["user", "assistant", None, "user", "tool", "user",
                 "assistant", "assistant"],
        "text": ["t0", "t1", "t2", None, "t4", "t5", "t6", "solo"],
    }
    pq.write_table(pa.table({
        "conv_id": pa.array(rows["conv_id"], pa.string()),
        "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
        "role": pa.array(rows["role"], pa.string()),
        "text": pa.array(rows["text"], pa.string()),
    }), str(d / "p.parquet"))
    got = sft_pairs(str(d)).to_pandas().set_index("turn_idx")
    # conv b's assistant turn 0 has no context -> dropped
    assert set(got.index) == {1, 6}
    assert got.loc[1, "prompt"] == "user: t0"
    assert got.loc[1, "n_context"] == 1
    # turn 6: exactly the 4 preceding turns, NULLs folded to ''
    assert got.loc[6, "n_context"] == SFT_CONTEXT_TURNS
    assert got.loc[6, "prompt"] == ": t2\nuser: \ntool: t4\nuser: t5"
    assert got.loc[6, "response"] == "t6"


def test_ppr_planted(ray_session):
    """Personalized PageRank: reset mass is confined to the seed set,
    so nodes unreachable from every seed score exactly 0 while
    pagerank would give them the uniform base; random graph ==
    sequential fixed-point twin."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.graphx import PR_SCALE, ppr, ppr_local

    def run(edges, **kw):
        ds = ray.data.from_arrow(pa.table(
            {"subj": [a for a, _ in edges],
             "obj": [b for _, b in edges]}))
        return {r["node"]: r["pr"] for r in ppr(ds, **kw).take_all()}

    # hub (top out-degree) is the single seed; "iso" is on a separate
    # component -> pr exactly 0 under seed-restart
    edges = [("hub", f"a{i}") for i in range(4)] + \
        [("a0", "a1"), ("iso", "iso2")]
    got = run(edges, n_seeds=1)
    assert got["iso"] == 0 and got["iso2"] == 0
    assert got["hub"] > 0 and got["a1"] > got["a2"]  # a1 has 2 in-paths
    assert got == ppr_local(edges, n_seeds=1)
    assert max(got.values()) <= 2 * PR_SCALE

    rng = random.Random(41)
    rnd = [(f"v{rng.randrange(70)}", f"v{rng.randrange(70)}")
           for _ in range(240)]
    rnd = [(a, b) for a, b in rnd if a != b]
    assert run(rnd) == ppr_local(rnd)


def test_ktruss_planted(ray_session):
    """Bounded-round k-truss peel: a planted clique survives with
    in-clique support, a pendant triangle chain peels away once its
    shared edges lose support, and a random graph matches the
    sequential peel twin exactly."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.graphx import ktruss, ktruss_local

    def run(edges, **kw):
        ds = ray.data.from_arrow(pa.table(
            {"subj": [a for a, _ in edges],
             "obj": [b for _, b in edges]}))
        return {(r["src"], r["dst"]): r["support"]
                for r in ktruss(ds, **kw).take_all()}

    clique = [f"c{i}" for i in range(5)]
    ce = [(clique[i], clique[j]) for i in range(5) for j in range(i + 1, 5)]
    # a lone triangle hanging off the clique: every edge has support 1
    # < k-2=2, so the whole triangle peels in round 1
    tri = [("c0", "t1"), ("t1", "t2"), ("t2", "c0")]
    got = run(ce + tri)
    assert set(got) == {tuple(sorted(e)) for e in ce}
    assert all(s == 3 for s in got.values())       # 5-clique: support 3
    assert got == ktruss_local(ce + tri)

    rng = random.Random(59)
    rnd = [(f"v{rng.randrange(40)}", f"v{rng.randrange(40)}")
           for _ in range(300)]
    rnd = [(a, b) for a, b in rnd if a != b]
    assert run(rnd) == ktruss_local(rnd)


def test_ktruss_rejects_out_of_domain_params(ray_session):
    """k <= 2 would keep zero-support edges the support table never
    holds, and rounds = 0 has no support to report: both fail loudly."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops.graphx import ktruss

    ds = ray.data.from_arrow(pa.table({"subj": ["a", "b", "c"],
                                       "obj": ["b", "c", "a"]}))
    for kw in ({"k": 2}, {"k": 0}, {"rounds": 0}, {"rounds": -1}):
        with pytest.raises(ValueError):
            ktruss(ds, **kw)


def test_ktruss_skips_rebuild_after_final_round(ray_session, monkeypatch):
    """The peeled edge set and its degree table feed only the next
    round, so ``rounds`` peels rebuild the degrees ``rounds - 1`` times
    (plus the initial build), and the output still matches the
    sequential peel."""
    import pyarrow as pa
    import ray.data

    from casie_ray.ops import graphx

    calls = []
    orig = graphx.bucket_groupby

    def counting(ds, fn, *a, **kw):
        calls.append(fn)
        return orig(ds, fn, *a, **kw)

    monkeypatch.setattr(graphx, "bucket_groupby", counting)
    clique = [f"c{i}" for i in range(5)]
    edges = [(clique[i], clique[j]) for i in range(5)
             for j in range(i + 1, 5)] + [("c0", "t1"), ("t1", "t2"),
                                          ("t2", "c0")]
    ds = ray.data.from_arrow(pa.table({"subj": [a for a, _ in edges],
                                       "obj": [b for _, b in edges]}))
    for rounds in (1, 3):
        calls.clear()
        got = {(r["src"], r["dst"]): r["support"]
               for r in graphx.ktruss(ds, rounds=rounds).take_all()}
        assert got == graphx.ktruss_local(edges, rounds=rounds)
        assert calls.count(graphx._tri_deg_bucket) == rounds


def test_kmv_type_overlap_drops_null_users(ray_session, tmp_path):
    """Null user ids are not users: the op drops them, giving the same
    registers as the table without them, and its DuckDB twin agrees."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    import __ray_entry__ as entrymod
    from casie_ray.ops.sketch import kmv_type_overlap

    types = ["A"] * 40 + ["B"] * 40
    users = list(range(40)) + list(range(20, 60))
    path = str(tmp_path / "events.parquet")

    def run(t, u):
        pq_.write_table(pa.table({"event_type": pa.array(t, pa.string()),
                                  "user_id": pa.array(u, pa.int64())}),
                        path)
        got = pd.DataFrame(kmv_type_overlap(str(tmp_path)).take_all())
        con = duckdb.connect()
        con.execute(f"CREATE VIEW events AS SELECT * FROM "
                    f"read_parquet('{path}')")
        want = con.execute(entrymod._kmv_overlap_sql()).fetchdf()
        pd.testing.assert_frame_equal(_normalize(got[list(want.columns)]),
                                      _normalize(want), check_dtype=False,
                                      check_exact=True)
        return got

    clean = run(types, users)
    dirty = run(types + ["A", "B", "B"], users + [None, None, None])
    pd.testing.assert_frame_equal(dirty, clean)
    assert clean["n_inter"].tolist() == [20]


def test_kmv_type_overlap_planted(ray_session, tmp_path):
    """KMV register set algebra: below k distinct users per type the
    registers are the full sets, so n_inter / jaccard_ppm are EXACT
    set statistics; above k the union register stays capped at k and
    every reported intersection member is a true one (one-sided by
    construction)."""
    import pyarrow as pa
    import pyarrow.parquet as pq_

    from casie_ray.ops.sketch import KMV_K, kmv_type_overlap

    # type A: users 0..39, type B: users 20..59 -> |inter|=20, |union|=60
    rows_t, rows_u = [], []
    for u in range(40):
        rows_t.append("A"); rows_u.append(u)
    for u in range(20, 60):
        rows_t.append("B"); rows_u.append(u)
    # duplicate occurrences must not change distinct-user registers
    rows_t += ["A"] * 10; rows_u += list(range(10))
    pq_.write_table(pa.table({
        "event_type": pa.array(rows_t, pa.string()),
        "user_id": pa.array(rows_u, pa.int64()),
    }), str(tmp_path / "events.parquet"))
    got = kmv_type_overlap(str(tmp_path)).take_all()
    assert len(got) == 1
    r = got[0]
    assert (r["type_a"], r["type_b"]) == ("A", "B")
    assert r["n_union_k"] == min(60, KMV_K)
    if KMV_K >= 60:                      # exact regime
        assert r["n_inter"] == 20
        assert r["jaccard_ppm"] == 1_000_000 * 20 // 60
    # capped regime sanity: over-k types still produce k-bounded unions
    rows_t2 = ["X"] * 500 + ["Y"] * 500
    rows_u2 = list(range(500)) + list(range(250, 750))
    pq_.write_table(pa.table({
        "event_type": pa.array(rows_t2, pa.string()),
        "user_id": pa.array(rows_u2, pa.int64()),
    }), str(tmp_path / "events.parquet"))
    r2 = kmv_type_overlap(str(tmp_path)).take_all()[0]
    assert r2["n_union_k"] == KMV_K
    assert 0 < r2["n_inter"] < KMV_K
    # the ppm estimator should land near the true Jaccard 250/750=0.333
    assert 150_000 < r2["jaccard_ppm"] < 550_000
