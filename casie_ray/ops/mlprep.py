"""Training-preparation operators.

- A1 class-frequency weights (ref role_phrase.py:270-281): label counts
  over the extracted event stream -> inverse-frequency class weights,
  with the reference's 0.001 floor for labels absent from the corpus.
- O5 deterministic train/test split (ref nug_arg_detection.py:230-278):
  the reference splits by externally-provided file lists; the engine's
  re-expression is a content-derived hash split on the grouping key
  (conv_id), which gives the same property the file lists provide —
  every turn of a conversation lands on one side, reproducibly —
  without shipping a list. FNV-1a mod 100 so the DuckDB oracle can
  reproduce the assignment bit-for-bit.

Both are single-pass streaming aggregates: per-batch combiners, one
tiny exchange (label cardinality / conv cardinality), no driver loops.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bucketing import bucket_groupby, fnv1a_hashes, hash_bucket, mix64

TEST_PCT = 20


def class_weights(events_ds, label_vocab: tuple[str, ...]):
    """(label, n, weight) for every label in ``label_vocab``: weight =
    1/n, or the reference's 0.001 floor when the label never occurs.
    ``events_ds`` must have an ``etype`` column."""

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select(["etype"]).group_by(["etype"]) \
            .aggregate([([], "count_all")])
        return g.rename_columns(["label", "n"])

    counts = events_ds.map_batches(partial, batch_format="pyarrow")

    def final(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["label"]).aggregate([("n", "sum")])
        have = dict(zip(g.column("label").to_pylist(),
                        g.column("n_sum").to_pylist()))
        labels = sorted(label_vocab)
        ns = [int(have.get(lb, 0)) for lb in labels]
        return pa.table({
            "label": pa.array(labels, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "weight": pa.array(
                [1.0 / n if n else 0.001 for n in ns], pa.float64()),
        })

    # label cardinality is tiny (the event-type vocabulary): one block
    return counts.repartition(1).map_batches(final, batch_format="pyarrow",
                                             batch_size=None)


def split_assignment(transcripts_ds, test_pct: int = TEST_PCT):
    """(conv_id, split) — one row per conversation, split='test' iff
    FNV-1a(conv_id) % 100 < test_pct. Per-batch distinct + bucketed
    global distinct, then a vectorized hash; deterministic and
    re-derivable anywhere (including SQL)."""

    def partial(batch: pa.Table) -> pa.Table:
        u = pc.unique(batch.column("conv_id").combine_chunks())
        h = fnv1a_hashes(u)
        return pa.table({
            "conv_id": u,
            "bucket": pa.array(hash_bucket([h]), pa.int32()),
        })

    def bucket_distinct(group: pa.Table) -> pa.Table:
        g = group.select(["conv_id"]).group_by(["conv_id"]).aggregate([])
        convs = g.column("conv_id").to_pylist()
        h = fnv1a_hashes(convs) % np.uint64(100)
        split = np.where(h < test_pct, "test", "train")
        return pa.table({
            "conv_id": pa.array(convs, pa.string()),
            "split": pa.array(split.tolist(), pa.string()),
        })

    ds = transcripts_ds.map_batches(partial, batch_format="pyarrow")
    return bucket_groupby(ds, bucket_distinct)


# ---------------------------------------------------------------------------
# Sequence packing for LLM pretraining: documents -> fixed-length token
# windows. The classic pretraining data layout (concatenate documents,
# slice into seq_len context windows) re-expressed for a cluster:
#
#     hash(doc_id) -> pack bucket        (one exchange; docs never split
#       -> per bucket: deterministic      across buckets, window ids are
#          doc_id order, vectorized       content-derived and stable
#          tokenize + one reduceat        under re-runs / resume)
#
# Windows never span buckets — the standard shard-local packing used by
# real pretraining pipelines (each reader shard packs independently);
# the per-bucket tail window is emitted short rather than dropped so
# token counts are exactly auditable. Token ids are FNV-1a word hashes
# (a stand-in vocabulary: the real BPE seat would swap into the same
# kernel). Size N_PACK_BUCKETS to the cluster's task slots at
# deployment; per-bucket memory is the bucket's text mass.
# ---------------------------------------------------------------------------

SEQ_LEN = 512
N_PACK_BUCKETS = 64


def pack_sequences(sf_dir: str, seq_len: int = SEQ_LEN,
                   emit_tokens: bool = False, docs=None):
    """Pack ``documents.text`` into ``seq_len``-token windows.

    Returns one row per (bucket, window_idx) with ``n_tokens`` and an
    order-sensitive ``checksum`` = sum of token_hash * (pos_in_window+1)
    mod 2^64 — integer-exact and reproduced token-for-token by a DuckDB
    window-function oracle (PACK_SEQUENCES_SQL), so the packing layout
    itself (doc order, window boundaries, token positions) is
    hash-checkable, not just row counts. ``emit_tokens=True`` adds the
    actual ``tokens`` list column (the training payload; excluded from
    the driver contract to keep the compared table scalar)."""
    import ray.data

    def tag(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({
            "bucket": pa.array(
                hash_bucket([ids], n_buckets=N_PACK_BUCKETS), pa.int32()),
            "doc_id": b.column("doc_id"),
            "text": b.column("text"),
        })

    def pack(group: pa.Table) -> pa.Table:
        g = group.sort_by("doc_id")
        words: list[str] = []
        for t in g.column("text").to_pylist():
            words.extend((t or "").split(" "))
        h = fnv1a_hashes(words)
        total = len(h)
        gpos = np.arange(total, dtype=np.uint64)
        wpos = gpos % np.uint64(seq_len)
        with np.errstate(over="ignore"):
            weighted = h * (wpos + np.uint64(1))
        starts = np.arange(0, total, seq_len)
        checksum = np.add.reduceat(weighted, starts) if total else \
            np.zeros(0, np.uint64)
        n_win = len(starts)
        counts = np.full(n_win, seq_len, np.int64)
        if n_win:
            counts[-1] = total - starts[-1]
        b = group.column("bucket")[0].as_py() if group.num_rows else 0
        out = {
            "bucket": pa.array(np.full(n_win, b, np.int32)),
            "window_idx": pa.array(np.arange(n_win, dtype=np.int64)),
            "n_tokens": pa.array(counts, pa.int64()),
            "checksum": pa.array(checksum, pa.uint64()),
        }
        if emit_tokens:
            out["tokens"] = pa.ListArray.from_arrays(
                pa.array(np.concatenate([starts, [total]]), pa.int32()),
                pa.array(h, pa.uint64()))
        return pa.table(out)

    if docs is None:
        docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                     columns=["doc_id", "text"])
    ds = docs.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(ds, pack)


# ---------------------------------------------------------------------------
# Deterministic distributed global shuffle of the packed windows — the
# reproducible equivalent of ds.random_shuffle() for training-data
# export. Every window gets an exact global permutation position
# without an all-to-all sort of the payload:
#
#   pass 1 (tiny): histogram the shuffle key's top-12-bit RANGE over
#     the windows table (4096 exact counts -> prefix-sum offsets,
#     ~32 KB on the driver; the windows table is 1 row per seq_len
#     tokens, ~1/512 of the corpus row count)
#   pass 2: one bucketed exchange on the range id; each range assigns
#     offset[range] + local-sorted-position, fully vectorized.
#
# Global rank is exact because the ranges partition the key space in
# sorted order. The key is splitmix64(bucket<<32 | window_idx) — pure
# content, so the permutation is stable under re-runs / resume and
# reproducible in SQL (row_number() over the same hash). At deployment
# scale, persist the windows table to parquet between the two passes
# instead of materialize().
# ---------------------------------------------------------------------------

N_SHUFFLE_RANGES = 4096
_RANGE_SHIFT = np.uint64(64 - 12)


def _shuffle_keys(t: pa.Table) -> np.ndarray:
    b = t.column("bucket").to_numpy(zero_copy_only=False).astype(np.uint64)
    w = t.column("window_idx").to_numpy(zero_copy_only=False) \
        .astype(np.uint64)
    with np.errstate(over="ignore"):
        return mix64([(b << np.uint64(32)) + w])


def shuffled_windows(sf_dir: str, seq_len: int = SEQ_LEN):
    """(bucket, window_idx, shuffle_pos): an exact, content-derived
    global shuffle order over the pack_sequences windows. shuffle_pos
    is the rank of splitmix64(bucket<<32 | window_idx) with
    (bucket, window_idx) tie-break — a permutation of 0..n_windows-1,
    value-checked against a DuckDB row_number() oracle."""
    wins = pack_sequences(sf_dir, seq_len).materialize()

    def hist(t: pa.Table) -> pa.Table:
        rng = (_shuffle_keys(t) >> _RANGE_SHIFT).astype(np.int64)
        cnt = np.bincount(rng, minlength=N_SHUFFLE_RANGES)
        nz = np.nonzero(cnt)[0]
        return pa.table({"rng": pa.array(nz, pa.int64()),
                         "n": pa.array(cnt[nz], pa.int64())})

    def merge_hist(t: pa.Table) -> pa.Table:
        g = t.group_by(["rng"]).aggregate([("n", "sum")])
        return g.rename_columns(["rng", "n"])

    # per-block partials merged in ONE tiny task (hll_user_registers
    # shape): the driver receives the merged 4096-row histogram as a
    # result, it never folds partials in a loop
    hist_tbl = pa.concat_tables(
        wins.map_batches(hist, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(merge_hist, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow"))
    counts = np.zeros(N_SHUFFLE_RANGES, np.int64)
    counts[hist_tbl.column("rng").to_numpy()] = \
        hist_tbl.column("n").to_numpy()
    offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]) \
        .astype(np.int64)

    def tag(t: pa.Table) -> pa.Table:
        key = _shuffle_keys(t)
        return pa.table({
            "bucket": pa.array((key >> _RANGE_SHIFT).astype(np.int32)),
            "pbucket": t.column("bucket"),
            "window_idx": t.column("window_idx"),
            "key": pa.array(key, pa.uint64()),
        })

    def rank(group: pa.Table) -> pa.Table:
        key = group.column("key").to_numpy(zero_copy_only=False)
        pb = group.column("pbucket").to_numpy(zero_copy_only=False)
        wi = group.column("window_idx").to_numpy(zero_copy_only=False)
        order = np.lexsort((wi, pb, key))
        k_s = key[order]
        rng = (k_s >> _RANGE_SHIFT).astype(np.int64)
        n = len(rng)
        # position within each contiguous range run (ranges are key
        # prefixes, so they are contiguous after the key sort)
        bump = np.zeros(n, np.int64)
        change = np.nonzero(rng[1:] != rng[:-1])[0] + 1
        bump[change] = 1
        run_id = np.cumsum(bump)
        starts = np.concatenate([[0], change])
        pos = np.arange(n) - starts[run_id]
        return pa.table({
            "bucket": pa.array(pb[order]),
            "window_idx": pa.array(wi[order]),
            "shuffle_pos": pa.array(offsets[rng] + pos, pa.int64()),
        })

    ds = wins.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(ds, rank, coarse_per_cpu=4)


# ---------------------------------------------------------------------------
# Token-budget selection per group — the data-mixing primitive: "take
# documents from each language (domain, source, ...) in a deterministic
# pseudo-random order until that group's token budget is spent". Greedy
# prefix under a running token sum, which is a sequential cumsum — made
# distributed with the same two-pass range-offset shape as
# shuffled_windows:
#
#   pass 1 (tiny): per (group, key-range) token SUMS over the projected
#     metadata (doc_id, group, n_tokens — never the text) -> exact
#     per-range base offsets on the driver (n_groups x 1024 numbers)
#   pass 2: one bucketed exchange on (group, range); each range
#     cumsums its docs in key order on top of its base, keeps rows
#     while base + cumsum <= budget. Vectorized; a range whose base
#     already exceeds the budget contributes nothing.
#
# Exact: equals the sequential greedy prefix, value-checked against a
# DuckDB running-sum window oracle. At deployment scale persist the
# projected metadata between passes instead of materialize().
# ---------------------------------------------------------------------------

TOKEN_BUDGET = 2000
_BUDGET_SHIFT = np.uint64(64 - 10)  # 1024 ranges per group


def token_budget_sample(sf_dir: str, budget: int = TOKEN_BUDGET,
                        group_col: str = "lang"):
    """(lang, doc_id, n_tokens, cum_tokens) for the greedy per-group
    prefix: docs ordered by splitmix64(doc_id) (doc_id tie-break),
    kept while the group's running token total stays <= budget."""
    import ray.data

    def project(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        key = mix64([ids])
        ntok = pc.add(pc.count_substring(t.column("text"), " "), 1)
        return pa.table({
            group_col: t.column(group_col),
            "doc_id": t.column("doc_id"),
            "n_tokens": ntok.cast(pa.int64()),
            "key": pa.array(key, pa.uint64()),
            "rng": pa.array((key >> _BUDGET_SHIFT).astype(np.int64)),
        })

    meta = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", group_col, "text"]) \
        .map_batches(project, batch_format="pyarrow",
                     batch_size=None).materialize()

    def partial_sums(t: pa.Table) -> pa.Table:
        return t.select([group_col, "rng", "n_tokens"]) \
            .group_by([group_col, "rng"]) \
            .aggregate([("n_tokens", "sum")]) \
            .rename_columns([group_col, "rng", "tok"])

    def merge_bases(t: pa.Table) -> pa.Table:
        """ONE merge task: combine the per-block (group, range) token
        sums and turn them into exact per-range base offsets (exclusive
        per-group cumsum in (group, rng) order) — vectorized."""
        g = t.group_by([group_col, "rng"]).aggregate([("tok", "sum")]) \
            .rename_columns([group_col, "rng", "tok"]) \
            .sort_by([(group_col, "ascending"), ("rng", "ascending")])
        tok = g.column("tok").to_numpy()
        gl = np.asarray(g.column(group_col).to_pylist())
        csum_excl = np.cumsum(tok) - tok
        if len(gl):
            new_grp = np.ones(len(gl), bool)
            new_grp[1:] = gl[1:] != gl[:-1]
            seg_id = np.cumsum(new_grp) - 1
            seg_base = csum_excl[new_grp]
            bases = csum_excl - seg_base[seg_id]
        else:
            bases = csum_excl
        return pa.table({group_col: g.column(group_col),
                         "rng": g.column("rng"),
                         "base": pa.array(bases, pa.int64())})

    # driver holds the merged (n_groups x <=1024)-row base table as a
    # RESULT of one merge task — no partial-fold loop
    base_tbl = pa.concat_tables(
        meta.map_batches(partial_sums, batch_format="pyarrow",
                         batch_size=None)
        .repartition(1)
        .map_batches(merge_bases, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow"))
    base = {(g, r): b for g, r, b in zip(
        base_tbl.column(group_col).to_pylist(),
        base_tbl.column("rng").to_pylist(),
        base_tbl.column("base").to_pylist())}

    def tag(t: pa.Table) -> pa.Table:
        gh = fnv1a_hashes(t.column(group_col))
        rng = t.column("rng").to_numpy(zero_copy_only=False)
        return t.append_column("ghash", pa.array(gh, pa.uint64())) \
            .append_column("bucket", pa.array(
                hash_bucket([gh, rng], n_buckets=1024), pa.int32()))

    def select(group: pa.Table) -> pa.Table:
        gh = group.column("ghash").to_numpy(zero_copy_only=False)
        key = group.column("key").to_numpy(zero_copy_only=False)
        ids = group.column("doc_id").to_numpy(zero_copy_only=False)
        ntok = group.column("n_tokens").to_numpy(zero_copy_only=False)
        langs = group.column(group_col).to_pylist()
        order = np.lexsort((ids, key, gh))
        gh_s, key_s, ntok_s = gh[order], key[order], ntok[order]
        rng_s = (key_s >> _BUDGET_SHIFT).astype(np.int64)
        n = len(order)
        change = np.nonzero((gh_s[1:] != gh_s[:-1])
                            | (rng_s[1:] != rng_s[:-1]))[0] + 1
        starts = np.concatenate([[0], change]).astype(np.int64)
        bump = np.zeros(n, np.int64)
        bump[change] = 1
        run_id = np.cumsum(bump)
        csum = np.cumsum(ntok_s)
        seg_prior = np.concatenate([[0], csum[change - 1]]) \
            if n else np.zeros(0, np.int64)
        bases = np.array(
            [base[(langs[order[s]], int(rng_s[s]))] for s in starts],
            np.int64)
        cum = bases[run_id] + (csum - seg_prior[run_id])
        keep = cum <= budget
        idx = order[keep]
        return pa.table({
            group_col: pa.array([langs[i] for i in idx]),
            "doc_id": pa.array(ids[idx]),
            "n_tokens": pa.array(ntok[idx], pa.int64()),
            "cum_tokens": pa.array(cum[keep], pa.int64()),
        })

    ds = meta.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(ds, select, coarse_per_cpu=4)


# ---------------------------------------------------------------------------
# KG-embedding negative sampling (deterministic, positive-filtered)
# ---------------------------------------------------------------------------

NEG_K = 2
_NEG_SEP = "\x1f"
_NEG_CAND_SCHEMA = pa.schema([
    ("c_key", pa.string()), ("subj", pa.string()), ("pred", pa.string()),
    ("neg_obj", pa.string()), ("sample_idx", pa.int64()),
])


def kg_negative_samples(edges_ds, k: int = NEG_K):
    """Deterministic corrupted-object negatives for KG-embedding
    training (the TransE-style sampling step a training pipeline runs
    over the materialized graph): for every DISTINCT positive triple
    (subj, pred, obj), emit ``k`` candidates with the object replaced
    by a pseudo-random vocabulary node — ``node_sorted[splitmix64(
    fnv1a(subj␟pred␟obj␟i)) mod n_nodes]`` — then drop candidates
    that collide with a TRUE positive via a distributed anti-join
    (left-outer ``hash_join`` on the corrupted key, keep unmatched).

    Scale shape: one bucketed exchange for the positive distinct, a
    driver-side sorted node vocabulary (bounded-broadcast class — the
    entity vocabulary is catalog-sized, the same assumption the
    canonicalizer's fuzzy index already rests on), one shuffle-free
    candidate map, and one bucketed anti-join exchange. No stage sees
    more than k x |distinct positives| rows.
    """
    import ray

    from .join import hash_join

    def spo_key(subj, pred, obj) -> pa.ChunkedArray:
        return pc.binary_join_element_wise(subj, pred, obj, _NEG_SEP)

    def spo(batch: pa.Table) -> pa.Table:
        t = batch.select(["subj", "pred", "obj"])
        g = t.group_by(["subj", "pred", "obj"]).aggregate([])
        h = fnv1a_hashes(spo_key(*g.columns))
        return g.append_column("bucket", pa.array(
            (h % np.uint64(256)).astype(np.int32)))

    def spo_distinct(group: pa.Table) -> pa.Table:
        return group.drop_columns(["bucket"]) \
            .group_by(["subj", "pred", "obj"]).aggregate([])

    # materialized: both join sides read it, and two lazy consumers of
    # one exchange stall the executor at one CPU
    positives = bucket_groupby(
        edges_ds.map_batches(spo, batch_format="pyarrow"),
        spo_distinct).materialize()

    # node vocabulary: distinct endpoint ids, sorted — vocabulary-sized
    # (bounded broadcast, BPE-vocab / entity-catalog class)
    def ends(batch: pa.Table) -> pa.Table:
        u = pa.concat_arrays([
            batch.column("subj").combine_chunks().cast(pa.string()),
            batch.column("obj").combine_chunks().cast(pa.string())])
        return pa.table({"node": pa.array(
            np.unique(np.asarray(u, dtype=object)), pa.string())})

    node_parts = edges_ds.map_batches(
        ends, batch_format="pyarrow").take_all()
    vocab = np.unique(np.asarray([r["node"] for r in node_parts],
                                 dtype=object))
    vocab_ref = ray.put(vocab)

    def candidates(batch: pa.Table) -> pa.Table:
        nodes = ray.get(vocab_ref)
        n_nodes = np.uint64(len(nodes))
        subj, pred = batch.column("subj"), batch.column("pred")
        key = spo_key(subj, pred, batch.column("obj"))
        parts = []
        for i in range(k):
            h = mix64([fnv1a_hashes(
                pc.binary_join_element_wise(key, str(i), _NEG_SEP))])
            neg = pa.array(nodes[(h % n_nodes).astype(np.int64)],
                           pa.string())
            parts.append(pa.table({
                "c_key": spo_key(subj, pred, neg),
                "subj": subj, "pred": pred, "neg_obj": neg,
                "sample_idx": pa.array(np.full(batch.num_rows, i,
                                               np.int64)),
            }))
        return pa.concat_tables(parts)

    cands = positives.map_batches(candidates, batch_format="pyarrow")

    def pos_keys(batch: pa.Table) -> pa.Table:
        return pa.table({
            "c_key": spo_key(batch.column("subj"), batch.column("pred"),
                             batch.column("obj")),
            "hit": pa.array(np.ones(batch.num_rows, np.int8)),
        })

    marks = positives.map_batches(pos_keys, batch_format="pyarrow")

    def keep_unmatched(j: pa.Table) -> pa.Table:
        return j.filter(pc.is_null(j.column("hit"))).select(
            ["subj", "pred", "neg_obj", "sample_idx"])

    return hash_join(cands, marks, on="c_key", how="left outer",
                     left_schema=_NEG_CAND_SCHEMA,
                     right_schema=pa.schema([("c_key", pa.string()),
                                             ("hit", pa.int8())]),
                     bucket_fn=keep_unmatched)


# ---------------------------------------------------------------------------
# SFT pair export: transcripts -> (prompt, response) training rows
# ---------------------------------------------------------------------------

SFT_CONTEXT_TURNS = 4


def sft_pairs(transcripts_dir: str, context: int = SFT_CONTEXT_TURNS):
    """Instruction-tuning pair export over the transcripts table: one
    row per assistant turn with at least one preceding turn — prompt =
    the up-to-``context`` preceding turns rendered ``role: text`` and
    newline-joined in turn order, response = the assistant turn's
    text. The conversation-to-training-pair step every SFT data
    pipeline runs over chat transcripts.

    One conv-keyed bucketed exchange (a conversation is never split —
    the engine's standard partitioning unit), then a per-bucket
    vectorized sort + windowed gather; output mass is assistant-turn
    rows, and at 100 TB the exchange carries only (conv_id, turn_idx,
    role, text) — no wide intermediate."""
    import ray.data

    from .bucketing import bucket_groupby, fnv1a_hashes, hash_bucket

    def partial(batch: pa.Table) -> pa.Table:
        h = fnv1a_hashes(
            pc.fill_null(batch.column("conv_id"), "").to_pylist())
        return pa.table({
            "conv_id": pc.fill_null(batch.column("conv_id"), ""),
            "turn_idx": batch.column("turn_idx").cast(pa.int64()),
            "role": pc.fill_null(batch.column("role"), ""),
            "text": pc.fill_null(batch.column("text"), ""),
            "bucket": pa.array(hash_bucket([h]), pa.int32()),
        })

    def pairs(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[
            ("conv_id", "ascending"), ("turn_idx", "ascending")])
        g = group.take(order)
        conv = np.asarray(g.column("conv_id").to_pylist(), dtype=object)
        turn = g.column("turn_idx").to_numpy(zero_copy_only=False)
        role = g.column("role").to_pylist()
        text = g.column("text").to_pylist()
        n = len(conv)
        new_conv = np.ones(n, dtype=bool)
        if n > 1:
            new_conv[1:] = conv[1:] != conv[:-1]
        run_start = np.maximum.accumulate(
            np.where(new_conv, np.arange(n), 0))
        is_asst = np.array([r == "assistant" for r in role], dtype=bool)
        cand = np.nonzero(is_asst & (np.arange(n) > run_start))[0]
        out_conv, out_turn, out_prompt, out_resp, out_nctx = \
            [], [], [], [], []
        lines = [f"{r}: {t}" for r, t in zip(role, text)]
        for j in cand.tolist():
            lo = max(int(run_start[j]), j - context)
            # mirror the twin's turn-window semantics exactly
            ctx = [i for i in range(lo, j)
                   if turn[i] >= turn[j] - context]
            if not ctx:
                continue
            out_conv.append(conv[j])
            out_turn.append(int(turn[j]))
            out_prompt.append("\n".join(lines[i] for i in ctx))
            out_resp.append(text[j])
            out_nctx.append(len(ctx))
        return pa.table({
            "conv_id": pa.array(out_conv, pa.string()),
            "turn_idx": pa.array(out_turn, pa.int64()),
            "prompt": pa.array(out_prompt, pa.string()),
            "response": pa.array(out_resp, pa.string()),
            "n_context": pa.array(out_nctx, pa.int64()),
        })

    ds = ray.data.read_parquet(
        transcripts_dir, columns=["conv_id", "turn_idx", "role", "text"]) \
        .map_batches(partial, batch_format="pyarrow")
    return bucket_groupby(ds, pairs)


def sft_pairs_sql(corpus: str, context: int = SFT_CONTEXT_TURNS) -> str:
    """DuckDB twin of sft_pairs (same role render, same turn window,
    same newline join in turn order)."""
    return f"""
        WITH t AS (
          SELECT coalesce(conv_id, '') AS conv_id,
                 CAST(turn_idx AS BIGINT) AS turn_idx,
                 coalesce(role, '') AS role,
                 coalesce(text, '') AS text
          FROM read_parquet('{corpus}/transcripts/*.parquet')
        ), a AS (
          SELECT * FROM t WHERE role = 'assistant'
        )
        SELECT a.conv_id, a.turn_idx,
               string_agg(c.role || ': ' || c.text, chr(10)
                          ORDER BY c.turn_idx) AS prompt,
               a.text AS response,
               count(*) AS n_context
        FROM a JOIN t c ON c.conv_id = a.conv_id
             AND c.turn_idx >= a.turn_idx - {context}
             AND c.turn_idx < a.turn_idx
        GROUP BY a.conv_id, a.turn_idx, a.text
    """
