"""BM25 full-text retrieval over the documents table.

The missing piece between the vocab/quality ops (ops/text.py) and the
embedding ANN family (ops/ann.py): classic lexical top-k retrieval, the
workhorse for quality-by-retrieval curation passes (e.g. "find the
training docs closest to this reference set" before a decontamination
or upsampling step).

Shape — two streaming passes, no shuffle of document mass:

1. **Stats pass.** A per-block combiner emits per-term document
   frequencies plus (n_docs, total token length) as a handful of rows;
   a single ``repartition(1)`` merge task folds them (the
   ``hll_user_registers`` shape — the driver receives results, it never
   loops over partials). Output is O(#query-terms), independent of
   corpus size.
2. **Score pass.** The tiny stats table is broadcast via ``ray.put``;
   each block computes every document's BM25 score vectorized (flat
   token array -> ``pc.index_in`` against the term set -> one
   ``bincount``; no Python loop over rows or tokens) and keeps a
   block-local top-k under the SAME total order as the final merge
   (score desc, doc_id asc), so only k rows per block cross the wire.

Scores are integer **micro-units**: each (doc, term) contribution is
``floor(1e6 * bm25_term + 0.5)`` (round-half-up, positive domain) and
the document score is the integer SUM of contributions — integer
addition is associative, so distributed reduction order can never
change a score, and the whole computation has an exact DuckDB twin
(``bm25_sql``) for the driver's value-hash compare. Tokenization is the
engine's standard single-space split (ops/text.py vocab/corpus_stats),
dl = count(' ') + 1.

At 100 TB: pass 1 ships O(terms) rows per block; pass 2 ships k rows
per block; the final merge handles k x n_blocks rows. Query-term count
is user-bounded (a search query, not a vocabulary), so the broadcast
is always tiny.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BM25_K1 = 1.2
BM25_B = 0.75
SCORE_SCALE = 1_000_000
DEFAULT_TERMS = ("hash", "join", "stream", "dup")
DEFAULT_K = 20

_STATS_SCHEMA = pa.schema([
    ("term", pa.string()), ("df", pa.int64()),
    ("n_docs", pa.int64()), ("dl_sum", pa.int64()),
])

_TOPK_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("score_micro", pa.int64()),
])


def _doc_lengths(batch: pa.Table) -> np.ndarray:
    """dl = single-space token count, identical to the SQL twin's
    length(string_split(text, ' ')): count(' ') + 1, empty text -> 1."""
    return pc.add(
        pc.count_substring(pc.fill_null(batch.column("text"), ""), " "),
        1).cast(pa.int64()).to_numpy(zero_copy_only=False)


def _term_tf_matrix(batch: pa.Table, terms: tuple[str, ...]) -> np.ndarray:
    """(n_docs, n_terms) int64 term-frequency matrix, fully vectorized:
    flatten the split tokens once, map them to term slots with
    ``pc.index_in``, and fold with one bincount over doc*nt + slot."""
    n = batch.num_rows
    nt = len(terms)
    splits = pc.split_pattern(pc.fill_null(batch.column("text"), ""), " ")
    lens = pc.list_value_length(splits).cast(pa.int64()) \
        .to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(splits)
    slot = pc.fill_null(
        pc.index_in(flat, value_set=pa.array(list(terms), pa.string())),
        -1).to_numpy(zero_copy_only=False).astype(np.int64)
    row_of = np.repeat(np.arange(n, dtype=np.int64), lens)
    hit = slot >= 0
    tf = np.bincount(row_of[hit] * nt + slot[hit],
                     minlength=n * nt).reshape(n, nt)
    return tf.astype(np.int64)


def _stats_partial(terms: tuple[str, ...]):
    def fn(batch: pa.Table) -> pa.Table:
        dl = _doc_lengths(batch)
        tf = _term_tf_matrix(batch, terms)
        df = (tf > 0).sum(axis=0).astype(np.int64)
        return pa.table({
            "term": pa.array(list(terms) + [None], pa.string()),
            "df": pa.array(np.concatenate([df, [0]]), pa.int64()),
            "n_docs": pa.array([0] * len(terms) + [len(dl)], pa.int64()),
            "dl_sum": pa.array([0] * len(terms) + [int(dl.sum())],
                               pa.int64()),
        })
    return fn


def _stats_merge(batch: pa.Table) -> pa.Table:
    g = batch.group_by(["term"]).aggregate(
        [("df", "sum"), ("n_docs", "sum"), ("dl_sum", "sum")])
    return g.rename_columns(["term", "df", "n_docs", "dl_sum"])


def _bm25_contrib(tf: np.ndarray, dl: np.ndarray, df: np.ndarray,
                  n_docs: int, avgdl: float) -> np.ndarray:
    """Integer micro-unit BM25 contributions, (n_docs, n_terms).
    Expression order mirrors bm25_sql token-for-token so the float64
    intermediates are bit-identical before the half-up round."""
    tff = tf.astype(np.float64)
    dlf = dl.astype(np.float64)[:, None]
    idf = np.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))[None, :]
    denom = tff + BM25_K1 * ((1.0 - BM25_B) + BM25_B * dlf / avgdl)
    c = idf * (tff * (BM25_K1 + 1.0)) / denom
    out = np.floor(SCORE_SCALE * c + 0.5).astype(np.int64)
    out[tf == 0] = 0
    return out


def _score_partial(stats_ref, k: int):
    import ray

    def fn(batch: pa.Table) -> pa.Table:
        terms, df, n_docs, avgdl = ray.get(stats_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        dl = _doc_lengths(batch)
        tf = _term_tf_matrix(batch, terms)
        score = _bm25_contrib(tf, dl, df, n_docs, avgdl).sum(axis=1)
        # eligibility = at least one matched term (the SQL twin's tf
        # table), NOT score > 0: a long doc's contributions can round
        # to 0 micro-units yet the oracle still ranks it
        hit = tf.sum(axis=1) > 0
        ids, score = ids[hit], score[hit]
        if len(ids) > k:
            # block-local top-k under the final total order (score desc,
            # id asc); boundary ties enter the lexsort so a tied smaller
            # id is never dropped locally (ops/ann.py pattern)
            part = np.argpartition(-score, k - 1)[:k]
            vmin = score[part].min()
            pool = np.nonzero(score >= vmin)[0]
            idx = pool[np.lexsort((ids[pool], -score[pool]))[:k]]
            ids, score = ids[idx], score[idx]
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "score_micro": pa.array(score, pa.int64()),
        })
    return fn


def _final_topk(k: int):
    def fn(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        score = batch.column("score_micro").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -score))[:k]
        return pa.table({
            "doc_id": pa.array(ids[order], pa.int64()),
            "score_micro": pa.array(score[order], pa.int64()),
            "rank": pa.array(np.arange(1, len(order) + 1), pa.int64()),
        })
    return fn


def bm25_topk(sf_dir: str, terms: tuple[str, ...] = DEFAULT_TERMS,
              k: int = DEFAULT_K):
    """Top-k documents by BM25 score for a bag of query terms:
    (doc_id, score_micro, rank), rank 1 = best, ties broken by doc_id.
    Documents with no matched term never surface; a matched doc whose
    contributions round to 0 micro-units is still eligible (matches
    the SQL twin's tf-table semantics)."""
    import ray
    import ray.data

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    stats = docs.map_batches(_stats_partial(terms), batch_format="pyarrow",
                             batch_size=None) \
        .repartition(1) \
        .map_batches(_stats_merge, batch_format="pyarrow",
                     batch_size=None).take_all()
    by_term = {r["term"]: r["df"] for r in stats if r["term"] is not None}
    corpus = next(r for r in stats if r["term"] is None)
    n_docs = int(corpus["n_docs"])
    avgdl = float(corpus["dl_sum"]) / n_docs
    df = np.array([by_term.get(t, 0) for t in terms], dtype=np.int64)
    stats_ref = ray.put((tuple(terms), df, n_docs, avgdl))

    parts = docs.map_batches(_score_partial(stats_ref, k),
                             batch_format="pyarrow", batch_size=None)
    return parts.repartition(1).map_batches(
        _final_topk(k), batch_format="pyarrow", batch_size=None)


def bm25_sql(terms: tuple[str, ...] = DEFAULT_TERMS,
             k: int = DEFAULT_K) -> str:
    """DuckDB twin: identical tokenization (single-space split),
    identical float64 expression order, identical half-up micro-unit
    round, integer sum."""
    term_list = ", ".join(f"'{t}'" for t in terms)
    return f"""
        WITH tok AS (
          SELECT doc_id, unnest(string_split(coalesce(text, ''), ' ')) AS w
          FROM documents
        ), dl AS (
          SELECT doc_id, CAST(count(*) AS BIGINT) AS dl
          FROM tok GROUP BY doc_id
        ), st AS (
          SELECT CAST(count(*) AS BIGINT) AS n,
                 CAST(sum(dl) AS DOUBLE) / count(*) AS avgdl
          FROM dl
        ), tf AS (
          SELECT doc_id, w, CAST(count(*) AS BIGINT) AS tf
          FROM tok WHERE w IN ({term_list}) GROUP BY doc_id, w
        ), df AS (
          SELECT w, CAST(count(*) AS BIGINT) AS df FROM tf GROUP BY w
        ), c AS (
          SELECT tf.doc_id,
                 CAST(floor({SCORE_SCALE}
                   * (ln(1.0 + (st.n - df.df + 0.5) / (df.df + 0.5))
                      * (tf.tf * ({BM25_K1} + 1.0))
                      / (tf.tf + {BM25_K1}
                         * ((1.0 - {BM25_B})
                            + {BM25_B} * dl.dl / st.avgdl)))
                   + 0.5) AS BIGINT) AS contrib
          FROM tf JOIN df USING (w) JOIN dl USING (doc_id) CROSS JOIN st
        ), s AS (
          SELECT doc_id, CAST(sum(contrib) AS BIGINT) AS score_micro
          FROM c GROUP BY doc_id
        )
        SELECT CAST(doc_id AS BIGINT) AS doc_id, score_micro,
               CAST(row_number() OVER (ORDER BY score_micro DESC, doc_id)
                    AS BIGINT) AS rank
        FROM s ORDER BY rank LIMIT {k}"""


# ---------------------------------------------------------------------------
# Inverted-index build (word -> postings summary)
# ---------------------------------------------------------------------------
#
# The index-construction half of retrieval: one row per vocabulary
# word with its document frequency, total term frequency, and a
# POSTINGS SIGNATURE — the mod-2^63 wrapping sum of splitmix64(doc_id)
# over the word's distinct posting docs. The signature is commutative
# and associative, so per-block partials combine in any order (the
# mergeable-sketch property HLL uses) and the whole table has an exact
# DuckDB twin; it is exactly the integrity checksum a sharded index
# build wants per posting list. At 100 TB only one row per distinct
# (block, word) crosses the wire — token mass never does — and the
# word-bucketed exchange is the same one vocab_top_words rides.


def _fold_postings(t: "pa.Table", wrap_final: bool) -> "pa.Table":
    """Fold (word, df, tf_total, sig) rows by word: int64 sums for
    df/tf, wrapping uint64 sum for sig (order-free). Vectorized via
    one sort + reduceat; the only loop-free boundary scan is Arrow
    string inequality on adjacent rows."""
    t = t.sort_by([("word", "ascending")])
    n = t.num_rows
    if n == 0:
        return pa.table({"word": pa.array([], pa.string()),
                         "df": pa.array([], pa.int64()),
                         "tf_total": pa.array([], pa.int64()),
                         "postings_sig": pa.array([], pa.int64() if
                                                  wrap_final
                                                  else pa.uint64())})
    w = t.column("word").combine_chunks()
    if n > 1:
        change = np.concatenate(
            [[True], pc.not_equal(w.slice(1), w.slice(0, n - 1))
             .to_numpy(zero_copy_only=False)])
    else:
        change = np.array([True])
    starts = np.nonzero(change)[0]
    df = np.add.reduceat(
        t.column("df").to_numpy(zero_copy_only=False), starts)
    tf = np.add.reduceat(
        t.column("tf_total").to_numpy(zero_copy_only=False), starts)
    with np.errstate(over="ignore"):
        sig = np.add.reduceat(
            t.column("postings_sig").to_numpy(zero_copy_only=False)
            .astype(np.uint64), starts)
    if wrap_final:
        sig_col = pa.array((sig % np.uint64(1 << 63)).astype(np.int64),
                           pa.int64())
    else:
        sig_col = pa.array(sig, pa.uint64())
    return pa.table({
        "word": w.take(pa.array(starts, pa.int64())),
        "df": pa.array(df.astype(np.int64), pa.int64()),
        "tf_total": pa.array(tf.astype(np.int64), pa.int64()),
        "postings_sig": sig_col,
    })


def inverted_index(sf_dir: str):
    """(word, df, tf_total, postings_sig) for every vocabulary word;
    single-space tokenization shared with the vocab/BM25 family."""
    import ray.data

    from .bucketing import (bucket_groupby, fnv1a_hashes, hash_bucket,
                            mix64)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        splits = pc.split_pattern(
            pc.fill_null(batch.column("text"), ""), " ")
        lens = pc.list_value_length(splits).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        flat = pc.list_flatten(splits)
        row_of = np.repeat(np.arange(batch.num_rows, dtype=np.int64),
                           lens)
        tfd = pa.table({"row": pa.array(row_of), "word": flat}) \
            .group_by(["row", "word"]).aggregate([([], "count_all")]) \
            .rename_columns(["row", "word", "tf"])
        sig = mix64([ids[tfd.column("row").to_numpy()]])
        folded = _fold_postings(pa.table({
            "word": tfd.column("word"),
            "df": pa.array(np.ones(tfd.num_rows, np.int64)),
            "tf_total": tfd.column("tf").cast(pa.int64()),
            "postings_sig": pa.array(sig, pa.uint64()),
        }), wrap_final=False)
        h = fnv1a_hashes(folded.column("word"))
        return folded.append_column(
            "bucket", pa.array(hash_bucket([h]), pa.int32()))

    def final(group: pa.Table) -> pa.Table:
        return _fold_postings(group.drop_columns(["bucket"]),
                              wrap_final=True)

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    ds = docs.map_batches(partial, batch_format="pyarrow",
                          batch_size=None)
    return bucket_groupby(ds, final)


# splitmix64 SQL helpers: single source of truth in ops.bucketing
from .bucketing import SPLITMIX_C1 as _SPLIT1
from .bucketing import SPLITMIX_C2 as _SPLIT2
from .bucketing import SPLITMIX_PHI as _PHI
from .bucketing import SQL_M64 as _M64_SQL
from .bucketing import sql_mulmod64 as _mulmod64


def inverted_index_sql() -> str:
    """DuckDB twin: splitmix64 of doc_id reproduced stage-by-stage in
    CTEs (the hll_user_registers idiom), wrapping HUGEINT sum per word,
    final mod 2^63 to land in BIGINT."""
    return f"""
        WITH tok AS (
          SELECT doc_id,
                 unnest(string_split(coalesce(text, ''), ' ')) AS word
          FROM documents
        ), tfd AS (
          SELECT word, doc_id, CAST(count(*) AS BIGINT) AS tf
          FROM tok GROUP BY word, doc_id
        ), s1 AS (
          SELECT word, tf,
                 {_mulmod64('CAST(doc_id AS UBIGINT)', _PHI)} AS h0
          FROM tfd
        ), s1b AS (
          SELECT word, tf, CAST((CAST(h0 AS HUGEINT) + 1) % {_M64_SQL}
                                AS UBIGINT) AS h FROM s1
        ), s2 AS (
          SELECT word, tf, xor(h, h >> 30) AS h FROM s1b
        ), s3 AS (
          SELECT word, tf, {_mulmod64('h', _SPLIT1)} AS h FROM s2
        ), s4 AS (
          SELECT word, tf, xor(h, h >> 27) AS h FROM s3
        ), s5 AS (
          SELECT word, tf, {_mulmod64('h', _SPLIT2)} AS h FROM s4
        ), s6 AS (
          SELECT word, tf, xor(h, h >> 31) AS h FROM s5
        )
        SELECT word, CAST(count(*) AS BIGINT) AS df,
               CAST(sum(tf) AS BIGINT) AS tf_total,
               CAST(((sum(CAST(h AS HUGEINT)) % {_M64_SQL})
                     % CAST(9223372036854775808 AS HUGEINT)) AS BIGINT)
                   AS postings_sig
        FROM s6 GROUP BY word"""


# ---------------------------------------------------------------------
# All-pairs lexical similarity (TF-IDF over word shingles)
# ---------------------------------------------------------------------
# The exact counterpart of the MinHash/SimHash near-dup family: pairwise
# doc similarity scored on shared word TRIGRAMS weighted by inverse
# document frequency — the "find the lexically-close pairs and rank
# them" primitive (near-dup triage, paraphrase mining, template
# detection) where the hash families only answer yes/no.
#
# Exact-integer contract: weight(gram) = floor(1e6 / df) and
# score(a, b) = SUM over shared grams of tf_a * tf_b * weight — integer
# sums, so reduction order can never change a score and the DuckDB twin
# compares bit-for-bit.
#
# Scale shape (the inverted-index / co_mention discipline):
#   * token mass never crosses the wire — the per-block partial reduces
#     each document to its (gram, doc_id, tf) rows;
#   * ONE gram-keyed exchange co-locates each gram's posting list; df
#     IS the group size, so no separate df pass or broadcast exists;
#   * grams with df < df_min contribute nothing and grams with
#     df > df_cap (boilerplate shingles) are dropped IN BOTH the engine
#     and the SQL twin — per-gram pair mass is bounded by df_cap^2, so
#     candidate volume is O(eligible_vocab * df_cap^2), linear in
#     corpus size for a fixed cap (the df_cap/band_cap guard family);
#   * ONE pair-keyed exchange sums contributions and applies the score
#     threshold; only above-threshold pairs survive.

SIM_DF_MIN = 2
SIM_DF_CAP = 64
SIM_MIN_SCORE = 1_000_000
# per-doc-per-gram tf cap, applied identically in the engine partial
# and the SQL twin: bounds one contrib at TF_CAP^2 * SCORE_SCALE
# (2^20 * 2^20 / 2 ~ 2^40 here) so a pathological doc repeating one
# trigram millions of times cannot silently wrap the engine's int64
# while the oracle's HUGEINT sum diverges. Residual documented bound:
# a PAIR's score sums one capped contrib per shared DISTINCT gram, so
# int64 holds while shared-gram count x TF_CAP^2 x SCORE_SCALE/df
# < 2^63 — i.e. up to ~2^23 shared distinct grams at the worst-case
# weight, far beyond any real document's trigram vocabulary.
SIM_TF_CAP = 1024

_PAIR_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()),
    ("contrib", pa.int64()), ("bucket", pa.int32()),
])


def _doc_trigram_tf(batch: pa.Table) -> pa.Table:
    """(gram, doc_id, tf) for one batch of documents — the per-doc
    twin of text.trigram_counts_batch, sharing its assembly kernel."""
    from .text import trigram_rows_batch

    rows, tri = trigram_rows_batch(batch)
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    t = pa.table({"row": pa.array(rows), "gram": tri}) \
        .group_by(["row", "gram"]).aggregate([([], "count_all")]) \
        .rename_columns(["row", "gram", "tf"])
    return pa.table({
        "gram": t.column("gram"),
        "doc_id": pa.array(ids[t.column("row").to_numpy()], pa.int64()),
        "tf": t.column("tf").cast(pa.int64()),
    })


def similar_docs(sf_dir: str, df_min: int = SIM_DF_MIN,
                 df_cap: int = SIM_DF_CAP,
                 min_score: int = SIM_MIN_SCORE):
    """(doc_a, doc_b, score_micro) for every document pair whose
    trigram-TF-IDF similarity score reaches ``min_score``; doc_a <
    doc_b. See the module comment above for the exact-integer scoring
    contract and the df_cap scale guard."""
    import ray.data

    from .bucketing import (bucket_groupby, fnv1a_hashes, hash_bucket,
                            segment_pair_indices)

    def partial(batch: pa.Table) -> pa.Table:
        t = _doc_trigram_tf(batch)
        h = fnv1a_hashes(t.column("gram"))
        return t.append_column("bucket",
                               pa.array(hash_bucket([h]), pa.int32()))

    def gram_pairs(group: pa.Table) -> pa.Table:
        # every row of one gram is in this group (gram-keyed exchange),
        # so the segment size IS the gram's df
        g = group.sort_by([("gram", "ascending"),
                           ("doc_id", "ascending")])
        n = g.num_rows
        if n == 0:
            return _PAIR_SCHEMA.empty_table()
        w = g.column("gram").combine_chunks()
        if n > 1:
            change = np.concatenate(
                [[True], pc.not_equal(w.slice(1), w.slice(0, n - 1))
                 .to_numpy(zero_copy_only=False)])
        else:
            change = np.array([True])
        seg = np.cumsum(change).astype(np.int64)   # 1..n_grams per row
        starts = np.nonzero(change)[0]
        sizes = np.diff(np.append(starts, n))
        df_of_row = np.repeat(sizes, sizes)
        keep = (df_of_row >= df_min) & (df_of_row <= df_cap)
        if not keep.any():
            return _PAIR_SCHEMA.empty_table()
        seg = seg[keep]
        doc = g.column("doc_id").to_numpy(zero_copy_only=False)[keep]
        tf = g.column("tf").to_numpy(zero_copy_only=False)[keep]
        wt = SCORE_SCALE // df_of_row[keep]        # same within a seg
        ia, ib = segment_pair_indices([seg])
        if len(ia) == 0:
            return _PAIR_SCHEMA.empty_table()
        da, db = doc[ia], doc[ib]                  # sorted: da < db
        tf = np.minimum(tf, SIM_TF_CAP)            # overflow guard
        contrib = tf[ia] * tf[ib] * wt[ia]
        return pa.table({
            "doc_a": pa.array(da, pa.int64()),
            "doc_b": pa.array(db, pa.int64()),
            "contrib": pa.array(contrib, pa.int64()),
            "bucket": pa.array(hash_bucket([da, db]), pa.int32()),
        })

    def pair_sum(group: pa.Table) -> pa.Table:
        g = group.drop_columns(["bucket"]) \
            .group_by(["doc_a", "doc_b"]).aggregate([("contrib", "sum")]) \
            .rename_columns(["doc_a", "doc_b", "score_micro"])
        return g.filter(pc.greater_equal(
            g.column("score_micro"), pa.scalar(min_score, pa.int64())))

    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])
    ds = docs.map_batches(partial, batch_format="pyarrow",
                          batch_size=None)
    pairs = bucket_groupby(ds, gram_pairs, coarse_per_cpu=4)
    return bucket_groupby(pairs, pair_sum, pre_repartition=False,
                          coarse_per_cpu=4)


def similar_docs_sql(df_min: int = SIM_DF_MIN, df_cap: int = SIM_DF_CAP,
                     min_score: int = SIM_MIN_SCORE) -> str:
    """DuckDB twin: positional self-join trigrams (the doc_ngrams_sql
    idiom), identical integer weight/score arithmetic and caps."""
    return f"""
        WITH t AS (SELECT doc_id,
                          string_split(coalesce(text, ''), ' ') AS l
                   FROM documents),
        w AS (SELECT doc_id, unnest(l) AS w,
                     unnest(range(1, len(l) + 1)) AS pos FROM t),
        tri AS (SELECT a.doc_id,
                       a.w || ' ' || b.w || ' ' || c.w AS gram
                FROM w a
                JOIN w b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
                JOIN w c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2),
        tfd AS (SELECT gram, doc_id, CAST(count(*) AS BIGINT) AS tf
                FROM tri GROUP BY gram, doc_id),
        wt AS (SELECT gram,
                      CAST({SCORE_SCALE} // count(*) AS BIGINT) AS wt
               FROM tfd GROUP BY gram
               HAVING count(*) BETWEEN {df_min} AND {df_cap})
        SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
               CAST(sum(least(a.tf, {SIM_TF_CAP})
                        * least(b.tf, {SIM_TF_CAP}) * wt.wt)
                    AS BIGINT) AS score_micro
        FROM tfd a
        JOIN tfd b ON a.gram = b.gram AND a.doc_id < b.doc_id
        JOIN wt ON wt.gram = a.gram
        GROUP BY doc_a, doc_b
        HAVING sum(least(a.tf, {SIM_TF_CAP}) * least(b.tf, {SIM_TF_CAP})
                   * wt.wt) >= {min_score}"""
