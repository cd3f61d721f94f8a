"""Corpus-curation operators (round-3 widening of the training-data
surface): C4-style rule filtering, exact stratified sampling, and
count-based bigram LM scoring. All integer-exact with independent
DuckDB oracle twins; all the standard engine shapes (vectorized
``map_batches``, bucketed exchanges, the shared general hash join).

At 100 TB: the quality filter is a shuffle-free streaming pass; the
stratified sample moves only (group, key) metadata through one
group-keyed exchange; LM scoring is two bucketed exchanges (bigram
counts, then a large x large join on the bigram key) — no broadcast of
the bigram table, which at web scale is itself huge.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bucketing import (bucket_groupby, bucket_join, fnv1a_hashes,
                        hash_bucket, mix64)


def _read_documents(sf_dir: str, columns=("doc_id", "text")):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=list(columns))


# ---------------------------------------------------------------------------
# C4-style rule-based quality filter
# ---------------------------------------------------------------------------

MIN_WORDS = 5
MAX_WORDS = 100_000
MIN_SENTENCES = 1
MAX_WORD_CHARS = 1000

QUALITY_SQL = f"""
    WITH f AS (
      SELECT doc_id,
             len(string_split(text, ' ')) AS n_words,
             length(regexp_replace(text, '[^.!?]', '', 'g'))
                 AS n_terminals,
             list_max([length(w) FOR w IN string_split(text, ' ')])
                 AS max_word_chars,
             length(regexp_replace(text, '[^{{}}]', '', 'g'))
                 AS n_braces
      FROM documents
    )
    SELECT doc_id, CAST(n_words AS BIGINT) AS n_words,
           CAST(n_terminals AS BIGINT) AS n_terminals,
           CAST(max_word_chars AS BIGINT) AS max_word_chars,
           CAST(n_braces AS BIGINT) AS n_braces,
           CAST(n_words >= {MIN_WORDS} AND n_words <= {MAX_WORDS}
                AND n_terminals >= {MIN_SENTENCES}
                AND max_word_chars <= {MAX_WORD_CHARS}
                AND n_braces = 0 AS BIGINT) AS keep
    FROM f
"""


def quality_filter_batch(batch: pa.Table) -> pa.Table:
    """Per-doc C4-style rule signals + keep flag, fully vectorized
    (Arrow kernels only): word count bounds, terminal-punctuation
    count (sentence proxy), longest-word cap (lorem/code junk), curly
    braces (code leakage). Integer columns so the SQL twin compares
    exactly; `keep` stays a column (not a filter) so downstream
    pipelines can audit rejection reasons."""
    text = pc.fill_null(batch.column("text"), "")
    splits = pc.split_pattern(text, " ")
    n_words = pc.list_value_length(splits).cast(pa.int64())
    terminals = pc.add(
        pc.add(pc.count_substring(text, "."),
               pc.count_substring(text, "!")),
        pc.count_substring(text, "?")).cast(pa.int64())
    flat_len = pc.utf8_length(pc.list_flatten(splits)) \
        .to_numpy(zero_copy_only=False)
    lens = n_words.to_numpy(zero_copy_only=False)
    offs = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    nz = lens > 0
    maxw = np.zeros(len(lens), np.int64)
    if nz.any() and len(flat_len):
        maxw[nz] = np.maximum.reduceat(flat_len, offs[:-1][nz])
    braces = pc.add(pc.count_substring(text, "{"),
                    pc.count_substring(text, "}")).cast(pa.int64())
    nw = n_words.to_numpy(zero_copy_only=False)
    keep = ((nw >= MIN_WORDS) & (nw <= MAX_WORDS)
            & (terminals.to_numpy(zero_copy_only=False)
               >= MIN_SENTENCES)
            & (maxw <= MAX_WORD_CHARS)
            & (braces.to_numpy(zero_copy_only=False) == 0))
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_words": n_words,
        "n_terminals": terminals,
        "max_word_chars": pa.array(maxw, pa.int64()),
        "n_braces": braces,
        "keep": pa.array(keep.astype(np.int64), pa.int64()),
    })


def quality_filter(sf_dir: str):
    return _read_documents(sf_dir).map_batches(
        quality_filter_batch, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# Exact stratified sampling: k docs per group in deterministic
# pseudo-random order
# ---------------------------------------------------------------------------

STRATA_K = 10


def stratified_sample(sf_dir: str, k: int = STRATA_K,
                      group_col: str = "lang"):
    """Exactly the first ``k`` docs per group under splitmix64(doc_id)
    order (doc_id tie-break) — the reproducible per-domain/per-language
    curation sample. Per-batch partial top-k per group (only k rows per
    (batch, group) survive the combiner) -> ONE exchange keyed by the
    group hash -> vectorized per-group final top-k. Only (group, key,
    doc_id) triples ever move."""

    def partial(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        key = mix64([ids])
        gl = t.column(group_col)
        gh = fnv1a_hashes(pc.fill_null(gl, ""))
        order = np.lexsort((ids, key, gh))
        gh_s = gh[order]
        seg = np.ones(len(order), bool)
        if len(order) > 1:
            seg[1:] = gh_s[1:] != gh_s[:-1]
        pos = np.arange(len(order)) - \
            np.maximum.accumulate(np.where(seg, np.arange(len(order)), 0))
        kept = order[pos < k]
        return pa.table({
            group_col: pc.take(gl, pa.array(kept, pa.int64())),
            "doc_id": pa.array(ids[kept], pa.int64()),
            "skey": pa.array(key[kept], pa.uint64()),
            "bucket": pa.array(hash_bucket([gh[kept]]), pa.int32()),
        })

    def final(group: pa.Table) -> pa.Table:
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        key = group.column("skey").to_numpy(zero_copy_only=False)
        gl = group.column(group_col)
        gh = fnv1a_hashes(pc.fill_null(gl, ""))
        order = np.lexsort((ids, key, gh))
        gh_s = gh[order]
        seg = np.ones(len(order), bool)
        if len(order) > 1:
            seg[1:] = gh_s[1:] != gh_s[:-1]
        pos = np.arange(len(order)) - \
            np.maximum.accumulate(np.where(seg, np.arange(len(order)), 0))
        kept = order[pos < k]
        kept_pos = pos[pos < k]
        return pa.table({
            group_col: pc.take(gl, pa.array(kept, pa.int64())),
            "doc_id": pa.array(ids[kept], pa.int64()),
            "sample_rank": pa.array(kept_pos + 1, pa.int64()),
        })

    ds = _read_documents(sf_dir, ("doc_id", group_col)) \
        .map_batches(partial, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(ds, final)


def stratified_sample_sql(k: int = STRATA_K,
                          group_col: str = "lang") -> str:
    """DuckDB twin: row_number() over splitmix64(doc_id) per group.
    Reuses the engine's mix64 semantics via HUGEINT mod-2^64 SQL."""
    phi = 0x9E3779B97F4A7C15
    s1c = 0xBF58476D1CE4E5B9
    s2c = 0x94D049BB133111EB
    m64 = "CAST(18446744073709551616 AS HUGEINT)"

    def mulmod(h, const):
        hi, lo = const >> 32, const & 0xFFFFFFFF
        return (f"CAST((((CAST({h} AS HUGEINT) * {hi}) % 4294967296) "
                f"* 4294967296 + CAST({h} AS HUGEINT) * {lo}) % {m64} "
                "AS UBIGINT)")

    return f"""
        WITH m0 AS (SELECT doc_id, {group_col},
                           CAST(doc_id AS UBIGINT) AS a FROM documents),
        m1 AS (SELECT doc_id, {group_col},
                      {mulmod('a', phi)} AS h0 FROM m0),
        m2 AS (SELECT doc_id, {group_col},
                      CAST((CAST(h0 AS HUGEINT) + 1) % {m64}
                           AS UBIGINT) AS h FROM m1),
        m3 AS (SELECT doc_id, {group_col}, xor(h, h >> 30) AS h FROM m2),
        m4 AS (SELECT doc_id, {group_col},
                      {mulmod('h', s1c)} AS h FROM m3),
        m5 AS (SELECT doc_id, {group_col}, xor(h, h >> 27) AS h FROM m4),
        m6 AS (SELECT doc_id, {group_col},
                      {mulmod('h', s2c)} AS h FROM m5),
        m7 AS (SELECT doc_id, {group_col}, xor(h, h >> 31) AS h FROM m6)
        SELECT {group_col}, doc_id,
               CAST(row_number() OVER (PARTITION BY {group_col}
                    ORDER BY h, doc_id) AS BIGINT) AS sample_rank
        FROM m7 QUALIFY sample_rank <= {k}"""


# ---------------------------------------------------------------------------
# Count-based bigram LM scoring (KenLM-style quality signal, integer
# arithmetic so the oracle compares exactly)
# ---------------------------------------------------------------------------

LM_SQL = """
    WITH tok AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS w,
             generate_subscripts(string_split(text, ' '), 1) AS i
      FROM documents
    ), bg AS (
      SELECT a.doc_id, a.w || ' ' || b.w AS bigram
      FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
    ), counts AS (
      SELECT bigram, count(*) AS c FROM bg GROUP BY bigram
    )
    SELECT bg.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
           CAST(sum(counts.c) AS BIGINT) AS sum_counts
    FROM bg JOIN counts USING (bigram)
    GROUP BY bg.doc_id
"""


def _doc_bigram_rows(batch: pa.Table) -> pa.Table:
    """doc -> one row per bigram OCCURRENCE (with multiplicity),
    vectorized: flat word array + same-row shift mask."""
    text = pc.fill_null(batch.column("text"), "")
    splits = pc.split_pattern(text, " ")
    lens = pc.list_value_length(splits).to_numpy(zero_copy_only=False)
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(splits)
    n = batch.num_rows
    row_of = np.repeat(np.arange(n), lens)
    if len(flat) < 2:
        return pa.table({"bigram": pa.array([], pa.string()),
                         "doc_id": pa.array([], pa.int64())})
    valid = row_of[:-1] == row_of[1:]
    a = flat.slice(0, len(flat) - 1)
    b = flat.slice(1)
    bigram = pc.binary_join_element_wise(a, b, " ") \
        .filter(pa.array(valid))
    docs = ids[row_of[:-1][valid]]
    return pa.table({"bigram": bigram,
                     "doc_id": pa.array(docs, pa.int64())})


def lm_score(sf_dir: str):
    """(doc_id, n_bigrams, sum_counts): each document's bigram
    occurrences scored against the CORPUS bigram frequency table — the
    count-based analogue of an n-gram LM likelihood (higher mean count
    = more typical text; integer sums so the oracle is exact).

    Plan: one pass emits bigram-occurrence rows; the count side is the
    same stream pre-aggregated per batch; both sides meet in the
    general bucketed hash join keyed on the bigram (LARGE x LARGE — at
    web scale the bigram vocabulary does not broadcast), with the
    per-doc aggregate fused into the join's bucket kernel, then one
    tiny doc-keyed reduce."""
    occ = _read_documents(sf_dir).map_batches(
        _doc_bigram_rows, batch_format="pyarrow", batch_size=None)

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.select(["bigram"]).group_by(["bigram"]) \
            .aggregate([([], "count_all")]).rename_columns(["bg", "c"])
        return g

    counts = occ.map_batches(count_partial, batch_format="pyarrow",
                             batch_size=None)

    def final_doc(group: pa.Table) -> pa.Table:
        g = group.group_by(["doc_id"]).aggregate(
            [("n_bigrams", "sum"), ("sum_counts", "sum")])
        return g.rename_columns(["doc_id", "n_bigrams", "sum_counts"])

    # the count side carries PARTIAL per-batch counts; equal bigrams
    # co-locate in one join bucket, so summing inside the bucket kernel
    # yields exact totals before the per-doc aggregate
    def bucket_kernel(occ_rows: pa.Table, cnt: pa.Table) -> pa.Table:
        cnt = cnt.group_by(["bg"]).aggregate([("c", "sum")]) \
            .rename_columns(["bg", "c"])
        j = occ_rows.join(cnt, keys="bigram", right_keys="bg",
                          join_type="inner")
        g = j.group_by(["doc_id"]).aggregate([([], "count_all"),
                                              ("c", "sum")])
        return g.rename_columns(["doc_id", "n_bigrams", "sum_counts"])

    joined = bucket_join(
        occ, counts, bucket_kernel, on="bigram", right_on="bg",
        left_schema=pa.schema([("bigram", pa.string()),
                               ("doc_id", pa.int64())]),
        right_schema=pa.schema([("bg", pa.string()), ("c", pa.int64())]))

    # a doc's bigrams span many buckets: one tiny doc-keyed reduce
    def tag_doc(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.append_column(
            "bucket", pa.array(hash_bucket([ids]), pa.int32()))

    return bucket_groupby(
        joined.map_batches(tag_doc, batch_format="pyarrow",
                           batch_size=None),
        final_doc)


# ---------------------------------------------------------------------------
# DSIR-style importance weights (target-vs-background n-gram likelihood)
# ---------------------------------------------------------------------------
#
# Data Selection via Importance Resampling (Xie et al. 2023, public):
# weight each document by how much more likely its n-grams are under a
# TARGET distribution than under the BACKGROUND corpus distribution,
# then resample high-weight docs for training. Here both "models" are
# the same count-based bigram tables lm_score uses (integer counts, so
# the oracle compares exactly): target counts come from the documents
# matching the target selector (default lang == 'en'), background from
# the whole corpus. The emitted per-doc sums are the exact integer
# numerator/denominator mass of the importance ratio — the downstream
# resampler (token_budget_sample / stratified_sample) ranks on them
# without this op ever touching floats.
#
# Shape: ONE streaming pass emits, per block, the occurrence rows plus
# BOTH partial count tables (no second scan of the corpus, unlike the
# two-stream lm_score shape); equal bigrams co-locate through one
# bigram-keyed exchange whose kernel fuses count-finalize + join +
# per-doc partial aggregate; a doc-keyed reduce finishes. At 100 TB:
# two exchanges, no broadcast of either count table.

DSIR_TARGET_LANG = "en"


def _dsir_partial(target_lang: str):
    def fn(batch: pa.Table) -> pa.Table:
        occ = _doc_bigram_rows(batch)
        is_tgt = pc.equal(pc.fill_null(batch.column("lang"), ""),
                          target_lang)
        tgt_ids = batch.filter(is_tgt).column("doc_id") \
            .to_numpy(zero_copy_only=False)
        occ_ids = occ.column("doc_id").to_numpy(zero_copy_only=False)
        cb = occ.select(["bigram"]).group_by(["bigram"]) \
            .aggregate([([], "count_all")]).rename_columns(["__k", "n"])
        occ_t = occ.filter(pa.array(np.isin(occ_ids, tgt_ids)))
        ct = occ_t.select(["bigram"]).group_by(["bigram"]) \
            .aggregate([([], "count_all")]).rename_columns(["__k", "n"])
        no, nb, nt = occ.num_rows, cb.num_rows, ct.num_rows
        k = pa.concat_arrays([occ.column("bigram").combine_chunks(),
                              cb.column("__k").combine_chunks(),
                              ct.column("__k").combine_chunks()])
        t = pa.table({
            "__k": k,
            "doc_id": pa.concat_arrays([
                occ.column("doc_id").combine_chunks(),
                pa.nulls(nb + nt, pa.int64())]),
            "cb": pa.concat_arrays([
                pa.nulls(no, pa.int64()),
                cb.column("n").cast(pa.int64()).combine_chunks(),
                pa.nulls(nt, pa.int64())]),
            "ct": pa.concat_arrays([
                pa.nulls(no + nb, pa.int64()),
                ct.column("n").cast(pa.int64()).combine_chunks()]),
        })
        h = fnv1a_hashes(t.column("__k"))
        return t.append_column("bucket",
                               pa.array(hash_bucket([h]), pa.int32()))
    return fn


def _dsir_bucket_kernel(group: pa.Table) -> pa.Table:
    """One bigram bucket: finalize both count tables, join them onto
    the occurrence rows (target side left-outer, absent -> 0), partial
    per-doc aggregate."""
    bgc = group.filter(pc.is_valid(group.column("cb"))) \
        .select(["__k", "cb"]).group_by(["__k"]) \
        .aggregate([("cb", "sum")]).rename_columns(["__k", "cb"])
    tgc = group.filter(pc.is_valid(group.column("ct"))) \
        .select(["__k", "ct"]).group_by(["__k"]) \
        .aggregate([("ct", "sum")]).rename_columns(["__k", "ct"])
    occ = group.filter(pc.is_valid(group.column("doc_id"))) \
        .select(["__k", "doc_id"])
    j = occ.join(bgc, keys="__k", join_type="inner") \
        .join(tgc, keys="__k", join_type="left outer")
    j = j.set_column(j.schema.get_field_index("ct"), "ct",
                     pc.fill_null(j.column("ct"), 0))
    g = j.group_by(["doc_id"]).aggregate(
        [([], "count_all"), ("cb", "sum"), ("ct", "sum")])
    g = g.rename_columns(["doc_id", "n_bigrams", "background_sum",
                          "target_sum"])
    ids = g.column("doc_id").to_numpy(zero_copy_only=False)
    return g.append_column("bucket",
                           pa.array(hash_bucket([ids]), pa.int32()))


def _dsir_final(group: pa.Table) -> pa.Table:
    g = group.group_by(["doc_id"]).aggregate(
        [("n_bigrams", "sum"), ("background_sum", "sum"),
         ("target_sum", "sum")])
    return g.rename_columns(["doc_id", "n_bigrams", "background_sum",
                             "target_sum"])


def dsir_weights(sf_dir: str, target_lang: str = DSIR_TARGET_LANG):
    """(doc_id, n_bigrams, background_sum, target_sum): exact integer
    bigram-count mass of each document under the whole-corpus
    (background) and target-language count models — the DSIR importance
    signal, numerator and denominator kept integer-exact."""
    ds = _read_documents(sf_dir, ("doc_id", "text", "lang")) \
        .map_batches(_dsir_partial(target_lang), batch_format="pyarrow",
                     batch_size=None)
    parts = bucket_groupby(ds, _dsir_bucket_kernel)
    return bucket_groupby(parts, _dsir_final)


DSIR_SQL = f"""
    WITH tok AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS w,
             generate_subscripts(string_split(text, ' '), 1) AS i
      FROM documents
    ), bg AS (
      SELECT a.doc_id, a.w || ' ' || b.w AS bigram
      FROM tok a JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
    ), cb AS (
      SELECT bigram, count(*) AS c FROM bg GROUP BY bigram
    ), ct AS (
      SELECT bigram, count(*) AS c
      FROM bg JOIN documents d ON bg.doc_id = d.doc_id
      WHERE d.lang = '{DSIR_TARGET_LANG}' GROUP BY bigram
    )
    SELECT bg.doc_id, CAST(count(*) AS BIGINT) AS n_bigrams,
           CAST(sum(cb.c) AS BIGINT) AS background_sum,
           CAST(sum(coalesce(ct.c, 0)) AS BIGINT) AS target_sum
    FROM bg JOIN cb USING (bigram) LEFT JOIN ct USING (bigram)
    GROUP BY bg.doc_id
"""


# ---------------------------------------------------------------------------
# End-to-end curation: quality filter -> exact dedup -> benchmark
# decontamination -> sequence packing, composed as ONE lazy Ray Data
# pipeline (the full "raw crawl to training shards" flow every
# pretraining job runs; reference parity: the same compose-the-ops
# shape as CASIE's pipeline.py chain, re-expressed as dataflow).
#
# Scale shape (100 TB): stage 1 is a shuffle-free streaming map
# (quality rules + eval-holdout filter); stage 2 is one keyed exchange
# on the text-hash bucket whose per-bucket winner pick is vectorized
# (the text payload must cross an exchange for packing anyway, so
# carrying it here adds no extra data movement); stage 3 reuses
# decontaminate_substring()'s two keyed exchanges (the eval side rides the
# dataflow, nothing broadcast); stage 4 is one doc-id-keyed
# ``bucket_join`` anti-join (contaminated ids are a tiny fraction, so
# the exchange mass is the surviving text); stage 5 is
# pack_sequences' single pack-bucket exchange. No stage materializes
# the corpus on the driver.
# ---------------------------------------------------------------------------


CPACK_MIN_WORDS = 30


def curation_pack(sf_dir: str, seq_len: int | None = None):
    """The composed curation pipeline: quality filter (word-count
    floor CPACK_MIN_WORDS, longest-word cap, brace ban — the active
    rule config; the C4 sentence rule is excluded because the corpus
    carries no terminal punctuation, and the standalone
    doc_quality_filter op still reports the full signal set), drop
    eval-holdout docs (doc_id % BENCH_MOD == 0), exact-dedup to the
    min doc_id per distinct text, drop docs sharing any exact 50-char
    substring window with the holdout (decontaminate_substring; the
    word-3-gram form saturates on this corpus' small vocabulary), then
    pack the survivors into
    seq_len-token windows. Output = pack_sequences rows over the
    curated doc set; value-exact vs the composed DuckDB twin
    (_curation_pack_sql), which checks the whole chain end to end —
    filter decisions, dedup winners, contamination set, and the
    packing layout checksum."""
    from .dedup import BENCH_MOD, decontaminate_substring
    from .mlprep import SEQ_LEN, pack_sequences
    if seq_len is None:
        seq_len = SEQ_LEN

    def qfilter(batch: pa.Table) -> pa.Table:
        sig = quality_filter_batch(batch)
        nw = sig.column("n_words").to_numpy(zero_copy_only=False)
        mw = sig.column("max_word_chars") \
            .to_numpy(zero_copy_only=False)
        nb = sig.column("n_braces").to_numpy(zero_copy_only=False)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(
            (nw >= CPACK_MIN_WORDS) & (nw <= MAX_WORDS)
            & (mw <= MAX_WORD_CHARS) & (nb == 0)
            & (ids % BENCH_MOD != 0)))

    def hash_tag(batch: pa.Table) -> pa.Table:
        th = fnv1a_hashes(pc.fill_null(batch.column("text"), ""))
        return pa.table({
            "bucket": pa.array(hash_bucket([th]), pa.int32()),
            "text_hash": pa.array(th, pa.uint64()),
            "doc_id": batch.column("doc_id"),
            "text": batch.column("text"),
        })

    def winners(group: pa.Table) -> pa.Table:
        """Min doc_id per text_hash, text carried."""
        th = group.column("text_hash").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, th))
        first = np.ones(len(order), bool)
        first[1:] = th[order[1:]] != th[order[:-1]]
        return group.take(pa.array(np.sort(order[first]))) \
            .select(["doc_id", "text"])

    def anti(docs: pa.Table, contam: pa.Table) -> pa.Table:
        return docs.filter(pc.invert(pc.is_in(
            docs.column("doc_id"), value_set=contam.column("doc_id"))))

    q = _read_documents(sf_dir).map_batches(
        qfilter, batch_format="pyarrow", batch_size=None)
    # materialized: two lazy exchange-fed inputs in one union stall the
    # executor at one CPU
    w = bucket_groupby(
        q.map_batches(hash_tag, batch_format="pyarrow",
                      batch_size=None), winners).materialize()
    kept = bucket_join(
        w, decontaminate_substring(sf_dir), anti, on="doc_id",
        left_schema=pa.schema([("doc_id", pa.int64()),
                               ("text", pa.string())]),
        right_schema=pa.schema([("doc_id", pa.int64())]))
    return pack_sequences(sf_dir, seq_len=seq_len, docs=kept)


# ---------------------------------------------------------------------------
# Temperature-resampled source mixture (the multilingual/domain
# alpha-sampling idiom: upweight rare sources, downweight dominant
# ones, alpha = 0.5 via integer sqrt so the whole computation is
# integer-exact and SQL-checkable)
# ---------------------------------------------------------------------------

MIX_TARGET_DIVISOR = 3      # target corpus size = total_docs // 3
MIX_PPM = 1_000_000


def mixture_thresholds(counts: dict[str, int],
                       target_divisor: int = MIX_TARGET_DIVISOR
                       ) -> dict[str, int]:
    """Per-source keep-probability in ppm: weight w_s = floor(sqrt(n_s))
    (alpha=0.5 temperature), target T = total // target_divisor,
    ppm_s = min(1e6, T * w_s * 1e6 // (sum(w) * n_s)). Pure integers —
    float sqrt is correctly rounded for n < 2^52, so floor(sqrt(n))
    matches DuckDB's bit-for-bit; everything after is int division."""
    import math
    sw = sum(int(math.floor(math.sqrt(float(n)))) for n in counts.values())
    total = sum(counts.values())
    target = total // target_divisor
    out = {}
    for s, n in counts.items():
        w = int(math.floor(math.sqrt(float(n))))
        out[s] = min(MIX_PPM, target * w * MIX_PPM // (sw * n)) \
            if sw and n else 0
    return out


def mixture_sample(sf_dir: str,
                   target_divisor: int = MIX_TARGET_DIVISOR):
    """Deterministic temperature-resampled mixture over `source`:
    keep doc iff splitmix64(doc_id) % 1e6 < ppm(source). Two passes:

    1. per-batch Arrow group_by partial counts -> driver fold (bounded:
       n_sources x n_blocks tiny rows — the per-shard-stats partial
       pattern) -> ppm thresholds, closed over by the filter;
    2. shuffle-free vectorized filter pass (mix64 + per-source
       threshold take).

    Docs with a NULL source are dropped on both sides and excluded
    from the weight/total computation (the SQL twin filters them out
    before its GROUP BY for the same reason).

    At 100 TB the source-count pass is one streaming aggregate over a
    2-column pruned read and the thresholds are a handful of ints
    shipped in the task closure — no exchange moves document mass."""
    ds = _read_documents(sf_dir, ("doc_id", "source"))

    parts = ds.map_batches(
        lambda t: t.group_by(["source"]).aggregate([([], "count_all")])
        .rename_columns(["source", "n"]),
        batch_format="pyarrow", batch_size=None).take_all()
    counts: dict[str, int] = {}
    for row in parts:
        if row["source"] is not None:
            counts[row["source"]] = counts.get(row["source"], 0) \
                + int(row["n"])
    thr = mixture_thresholds(counts, target_divisor)
    srcs = sorted(thr)
    tvec = np.array([thr[s] for s in srcs], np.uint64)
    src_set = pa.array(srcs, pa.string())

    def keep(batch: pa.Table) -> pa.Table:
        if len(tvec) == 0:  # every source NULL -> nothing survives
            return batch.slice(0, 0).select(["doc_id", "source"])
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        h = mix64([ids]) % np.uint64(MIX_PPM)
        sl = pc.fill_null(pc.index_in(
            batch.column("source").cast(pa.string()),
            value_set=src_set), -1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        mask = (sl >= 0) & (h < tvec[np.maximum(sl, 0)])
        return batch.filter(pa.array(mask)).select(["doc_id", "source"])

    return ds.map_batches(keep, batch_format="pyarrow")


def mixture_sample_sql(target_divisor: int = MIX_TARGET_DIVISOR) -> str:
    """DuckDB twin: identical integer thresholds + the shared
    splitmix64 chain on doc_id. NULL sources are excluded from the
    totals BEFORE grouping, mirroring the engine's count fold (a NULL
    group in `tot` would shift every threshold)."""
    from .bucketing import SPLITMIX_C1, SPLITMIX_C2, SPLITMIX_PHI, \
        SQL_M64, sql_mulmod64
    return f"""
        WITH c AS (SELECT source, count(*) AS n FROM documents
                   WHERE source IS NOT NULL GROUP BY source),
        wt AS (SELECT source, n,
                      CAST(floor(sqrt(CAST(n AS DOUBLE))) AS HUGEINT)
                          AS w FROM c),
        tot AS (SELECT sum(w) AS sw, sum(n) AS sn FROM wt),
        thr AS (SELECT source, LEAST({MIX_PPM},
                       (((SELECT sn FROM tot) // {target_divisor})
                        * w * {MIX_PPM})
                       // ((SELECT sw FROM tot) * n)) AS ppm FROM wt),
        m0 AS (SELECT doc_id, source, CAST(doc_id AS UBIGINT) AS a
               FROM documents),
        m1 AS (SELECT doc_id, source,
                      {sql_mulmod64('a', SPLITMIX_PHI)} AS h0 FROM m0),
        m2 AS (SELECT doc_id, source,
                      CAST((CAST(h0 AS HUGEINT) + 1) % {SQL_M64}
                           AS UBIGINT) AS h FROM m1),
        m3 AS (SELECT doc_id, source, xor(h, h >> 30) AS h FROM m2),
        m4 AS (SELECT doc_id, source,
                      {sql_mulmod64('h', SPLITMIX_C1)} AS h FROM m3),
        m5 AS (SELECT doc_id, source, xor(h, h >> 27) AS h FROM m4),
        m6 AS (SELECT doc_id, source,
                      {sql_mulmod64('h', SPLITMIX_C2)} AS h FROM m5),
        m7 AS (SELECT doc_id, source, xor(h, h >> 31) AS h FROM m6)
        SELECT m7.doc_id, m7.source
        FROM m7 JOIN thr USING (source)
        WHERE CAST(h % {MIX_PPM} AS HUGEINT) < thr.ppm"""
