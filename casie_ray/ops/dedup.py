"""Deduplication operators for large-scale training-data pipelines.

Five strategies over the ``documents`` table, each expressed
Ray-Data-first (streaming ``map_batches`` + keyed shuffles — never a
driver-side loop over rows):

- exact: per-batch combiner, hash-BUCKETED exchange, one vectorized
  Arrow ``group_by`` per bucket (min doc_id + copy count).
- n-gram Jaccard: inverted index on word-3-gram shingles, shuffle by
  shingle BUCKET, vectorized within-segment pair emission, pair-bucket
  reduce — exact Jaccard, no broadcast anywhere. An optional
  document-frequency cap drops boilerplate shingles from candidate
  generation (pair recall becomes approximate, reported (inter, uni)
  stay exact via the shared verification join).
- MinHash + LSH: 64-perm signatures, 16 bands x 4 rows, banded bucketed
  groupby for candidates, then DISTRIBUTED exact-Jaccard verification —
  candidates are hash-joined to shingle sets by doc_id (two bucketed
  exchanges), never collected to the driver.
- SimHash: 64-bit signatures (fully vectorized: one numpy pass per bit,
  not per word), 4x16-bit band blocking (pigeonhole-exact for
  hamming <= 3), vectorized popcount verification.
- embedding cosine: exact all-pairs with the corpus CHUNKED into
  bounded object-store pieces — each streaming batch matmuls one chunk
  at a time, so no worker ever holds the whole matrix.

Integer outputs (ids / counts) so the DuckDB oracles compare exactly.

Every exchange here groups by a bounded-cardinality hash BUCKET column
(ops.bucketing) and processes whole buckets with vectorized kernels —
per-tiny-key ``map_groups`` (per text-hash / per shingle / per pair)
was the round-1 scale killer and is gone.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bucketing import (
    FNV_BASE, bucket_groupby, bucket_join, fnv1a_hashes, hash_bucket,
    mix64, segment_pair_indices,
)

SHINGLE_W = 3           # words per shingle
N_PERM = 64             # minhash permutations
# 16 bands x 4 rows: candidate recall 1-(1-J^4)^16 ~ 0.9998 at J=0.8
# (8x8 gave only ~0.77 at the threshold — qualifying pairs near J=0.8
# could miss every band; verification is exact, so the wider banding
# only costs extra candidates, never extra false pairs)
N_BANDS, BAND_R = 16, 4
SIM_BITS, SIM_BANDS = 64, 4
MINHASH_SEED = 1234


def _read_documents(sf_dir: str):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text"])


def _hash64(s: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(s.encode(), digest_size=8).digest(), "big",
        signed=False)


def shingle_hash_batch(texts: list[str], w: int = SHINGLE_W) \
        -> tuple[np.ndarray, np.ndarray]:
    """Distinct word-w-gram shingle hashes for a WHOLE batch of texts,
    fully vectorized: word-level FNV hashes (one numpy pass per byte
    position), per-window splitmix combination (no shingle strings are
    ever built), then a global lexsort dedupe — no per-shingle or
    per-doc Python. Tokenization = split on single spaces, matching the
    SQL oracle's string_split.

    Returns (row_idx, hashes): parallel arrays of the distinct shingle
    hashes per input row, sorted by (row_idx, hash). Shingle identity is
    the 64-bit combined hash (collision odds ~ n^2/2^64, the same
    exactness contract as any content-hash dedup)."""
    n = len(texts)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    all_words: list[str] = []
    counts = np.empty(n, np.int64)
    for i, t in enumerate(texts):
        ws = (t or "").split(" ")
        all_words.extend(ws)
        counts[i] = len(ws)
    h = fnv1a_hashes(all_words)
    row_of = np.repeat(np.arange(n), counts)
    rows_list, hash_list = [], []
    # full windows: positions where all w words fall in the same row
    if len(h) >= w:
        valid = row_of[: len(h) - w + 1] == row_of[w - 1:]
        cols = [h[k: len(h) - w + 1 + k][valid] for k in range(w)]
        if len(cols[0]):
            rows_list.append(row_of[: len(h) - w + 1][valid])
            hash_list.append(mix64(cols))
    # short docs (fewer than w words): one shingle folding all words
    for short_n in range(1, w):
        sel = counts == short_n
        if not sel.any():
            continue
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])[sel]
        cols = [h[starts + k] for k in range(short_n)]
        rows_list.append(np.arange(n)[sel])
        hash_list.append(mix64(cols))
    if not rows_list:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    rows = np.concatenate(rows_list)
    hashes = np.concatenate(hash_list)
    order = np.lexsort((hashes, rows))
    rows, hashes = rows[order], hashes[order]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (hashes[1:] != hashes[:-1])
    return rows[keep], hashes[keep]


def shingle_hashes(text: str, w: int = SHINGLE_W) -> np.ndarray:
    """Distinct shingle hashes of one text (scalar convenience wrapper
    over :func:`shingle_hash_batch`)."""
    return shingle_hash_batch([text], w)[1]


# ---------------------------------------------------------------------------
# Exact dedup
# ---------------------------------------------------------------------------

_EXACT_PART_SCHEMA = pa.schema([
    ("text_hash", pa.uint64()), ("doc_id", pa.int64()),
    ("n_copies", pa.int64()), ("bucket", pa.int32()),
])


def _text_hash_batch(batch: pa.Table) -> pa.Table:
    """Hash + per-batch combiner (pre-shuffle): one row per distinct
    text hash in the batch, carrying min doc_id and copy count."""
    hashes = np.fromiter(
        (_hash64(t or "") for t in batch.column("text").to_pylist()),
        dtype=np.uint64, count=batch.num_rows)
    t = pa.table({
        "text_hash": pa.array(hashes, pa.uint64()),
        "doc_id": batch.column("doc_id"),
        "n_copies": pa.array(np.ones(batch.num_rows, np.int64)),
    })
    g = t.group_by(["text_hash"]).aggregate(
        [("doc_id", "min"), ("n_copies", "sum")])
    g = g.rename_columns(["text_hash", "doc_id", "n_copies"])
    bucket = hash_bucket([g.column("text_hash")])
    return g.append_column("bucket", pa.array(bucket, pa.int32())) \
        .cast(_EXACT_PART_SCHEMA)


def _exact_bucket(group: pa.Table) -> pa.Table:
    """One hash bucket: vectorized Arrow group_by over ALL its distinct
    text hashes at once (never per-key Python)."""
    g = group.group_by(["text_hash"]).aggregate(
        [("doc_id", "min"), ("n_copies", "sum")])
    g = g.rename_columns(["text_hash", "doc_id", "n_copies"])
    return g.select(["doc_id", "n_copies"])


def exact_dedup(sf_dir: str):
    """One row per distinct text: (representative min doc_id, copy
    count). Per-batch combine -> bucketed exchange -> vectorized
    per-bucket reduce (SURVEY A7 pattern on documents)."""
    ds = _read_documents(sf_dir).map_batches(_text_hash_batch,
                                             batch_format="pyarrow")
    return bucket_groupby(ds, _exact_bucket)


# ---------------------------------------------------------------------------
# Exact n-gram Jaccard pairs (inverted-index bucketed shuffle join)
# ---------------------------------------------------------------------------

_SHINGLE_ROW_SCHEMA = pa.schema([
    ("shingle", pa.uint64()), ("doc_id", pa.int64()), ("doc_n", pa.int64()),
    ("bucket", pa.int32()),
])
_PAIR_PART_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()),
    ("n_a", pa.int64()), ("n_b", pa.int64()), ("inter", pa.int64()),
    ("bucket", pa.int32()),
])
PAIR_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()),
    ("inter", pa.int64()), ("uni", pa.int64()),
])


def _shingle_rows_batch(batch: pa.Table) -> pa.Table:
    """flat_map: doc -> one row per distinct shingle, carrying the doc's
    shingle count so the pair reduce needs no size join/broadcast."""
    doc_ids = batch.column("doc_id").to_numpy()
    rows, shingle = shingle_hash_batch(batch.column("text").to_pylist())
    per_doc = np.bincount(rows, minlength=batch.num_rows)
    return pa.table({
        "shingle": pa.array(shingle, pa.uint64()),
        "doc_id": pa.array(doc_ids[rows], pa.int64()),
        "doc_n": pa.array(per_doc[rows], pa.int64()),
        "bucket": pa.array(hash_bucket([shingle]), pa.int32()),
    })


def _pair_partial_table(doc_a, doc_b, n_a, n_b, inter) -> pa.Table:
    """Combine raw pair contributions within one task: Arrow group_by on
    (doc_a, doc_b), then attach the pair-hash bucket for the exchange."""
    t = pa.table({
        "doc_a": pa.array(doc_a, pa.int64()),
        "doc_b": pa.array(doc_b, pa.int64()),
        "n_a": pa.array(n_a, pa.int64()),
        "n_b": pa.array(n_b, pa.int64()),
        "inter": pa.array(inter, pa.int64()),
    })
    g = t.group_by(["doc_a", "doc_b"]).aggregate(
        [("inter", "sum"), ("n_a", "min"), ("n_b", "min")])
    g = g.rename_columns(["doc_a", "doc_b", "inter", "n_a", "n_b"])
    bucket = hash_bucket([g.column("doc_a"), g.column("doc_b")])
    return g.append_column("bucket", pa.array(bucket, pa.int32())) \
        .select(_PAIR_PART_SCHEMA.names).cast(_PAIR_PART_SCHEMA)


def _pairs_from_shingle_bucket(group: pa.Table) -> pa.Table:
    """One shingle-hash bucket: sort by (shingle, doc_id), emit every
    within-shingle doc pair via the vectorized segment-pair kernel, and
    pre-combine per pair before the pair exchange. Groups are tiny for
    natural text; boilerplate shingles are bounded by the optional
    df_cap pre-pass in :func:`jaccard_pairs`."""
    if group.num_rows < 2:
        return _PAIR_PART_SCHEMA.empty_table()
    sh = group.column("shingle").to_numpy()
    did = group.column("doc_id").to_numpy()
    dn = group.column("doc_n").to_numpy()
    order = np.lexsort((did, sh))
    sh, did, dn = sh[order], did[order], dn[order]
    ia, ib = segment_pair_indices([sh])
    if len(ia) == 0:
        return _PAIR_PART_SCHEMA.empty_table()
    return _pair_partial_table(did[ia], did[ib], dn[ia], dn[ib],
                               np.ones(len(ia), np.int64))


def _finalize_pairs_bucket(threshold_pct: int):
    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["doc_a", "doc_b"]).aggregate(
            [("inter", "sum"), ("n_a", "min"), ("n_b", "min")])
        g = g.rename_columns(["doc_a", "doc_b", "inter", "n_a", "n_b"])
        inter = g.column("inter")
        uni = pc.subtract(pc.add(g.column("n_a"), g.column("n_b")), inter)
        keep = pc.greater_equal(
            pc.multiply(inter, pa.scalar(100, pa.int64())),
            pc.multiply(uni, pa.scalar(threshold_pct, pa.int64())))
        g = g.append_column("uni", uni).filter(keep)
        return g.select(PAIR_SCHEMA.names).cast(PAIR_SCHEMA)
    return final


# Explosion-guard defaults (ON in the contract queries, r2 verdict
# task 3). A shingle shared by D docs contributes D^2/2 candidate
# pairs; the cap bounds that at DF_CAP^2/2 per hot shingle while
# verification keeps reported values exact. Sized far above any
# natural near-dup cluster in the synthetic corpora (so the driver
# queries stay hash-identical to the exact oracle) but low enough
# that real web boilerplate ("all rights reserved ...") is dropped
# from candidate generation instead of exploding the exchange.
DF_CAP_DEFAULT = 1024
BAND_CAP_DEFAULT = 1024


def _hot_shingles(sh_rows, df_cap: int) -> np.ndarray:
    """Sorted array of shingles whose document frequency exceeds df_cap
    (boilerplate). The hot set is tiny by construction (only keys ABOVE
    the cap), so collecting + broadcasting it is the small-side pattern,
    not a corpus materialization."""
    def df_bucket(group: pa.Table) -> pa.Table:
        g = group.group_by(["shingle"]).aggregate([("doc_id", "count")])
        g = g.rename_columns(["shingle", "df"])
        return g.filter(pc.greater(g.column("df"), df_cap)) \
            .select(["shingle"])

    hot_ds = bucket_groupby(sh_rows, df_bucket)
    hot = np.sort(np.array(
        [r["shingle"] for r in hot_ds.take_all()], dtype=np.uint64))
    return hot


def jaccard_pairs(sf_dir: str, threshold_pct: int = 80,
                  df_cap: int | None = DF_CAP_DEFAULT):
    """Near-duplicate pairs: word-3-gram Jaccard >= threshold.

    df_cap=N (default DF_CAP_DEFAULT): shingles appearing in more than
    N documents are dropped from CANDIDATE generation (the boilerplate
    pair-explosion guard for corpus scale); surviving candidates are
    re-verified against full shingle sets, so reported (inter, uni)
    values stay exact — only recall of pairs whose EVERY shared shingle
    is hot becomes approximate. df_cap=None: exact with no guard —
    every qualifying pair is found through the inverted index."""
    import ray

    ds = _read_documents(sf_dir)
    sh_rows = ds.map_batches(_shingle_rows_batch, batch_format="pyarrow")
    if df_cap is not None:
        hot_ref = ray.put(_hot_shingles(sh_rows, df_cap))

        def drop_hot(batch: pa.Table) -> pa.Table:
            hot = ray.get(hot_ref)
            if len(hot) == 0:
                return batch
            sh = batch.column("shingle").to_numpy()
            return batch.filter(pa.array(~np.isin(sh, hot)))

        sh_rows = sh_rows.map_batches(drop_hot, batch_format="pyarrow")
    pairs = bucket_groupby(sh_rows, _pairs_from_shingle_bucket)
    if df_cap is not None:
        # attach dedupes the probe rows, so the partial pair rows can go
        # straight to verification — no pair-distinct exchange needed
        return verify_pairs_exact(pairs, sf_dir, threshold_pct)
    return bucket_groupby(pairs, _finalize_pairs_bucket(threshold_pct))


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_rng = np.random.default_rng(MINHASH_SEED)
_MH_A = (_rng.integers(1, 2**63, N_PERM, dtype=np.uint64) << np.uint64(1)) \
    | np.uint64(1)  # odd multipliers (multiply-shift hashing)
_MH_B = _rng.integers(0, 2**63, N_PERM, dtype=np.uint64)


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """(N_PERM,) uint64 signature; empty docs get all-max sentinel."""
    if len(shingles) == 0:
        return np.full(N_PERM, np.iinfo(np.uint64).max, dtype=np.uint64)
    with np.errstate(over="ignore"):
        m = _MH_A[:, None] * shingles[None, :] + _MH_B[:, None]
    return m.min(axis=1)


def minhash_signatures_flat(rows: np.ndarray, hashes: np.ndarray,
                            n: int) -> np.ndarray:
    """(n, N_PERM) signatures for a whole batch from the flat
    (row_idx, shingle_hash) representation of :func:`shingle_hash_batch`
    — one broadcast multiply + one ``minimum.reduceat`` per batch, no
    per-doc Python. Docs with no shingles get the all-max sentinel."""
    out = np.full((n, N_PERM), np.iinfo(np.uint64).max, dtype=np.uint64)
    if len(hashes) == 0 or n == 0:
        return out
    counts = np.bincount(rows, minlength=n)
    starts = np.concatenate([[0], np.cumsum(counts)])
    # chunk along DOC boundaries so the (shingles x N_PERM) working
    # matrix stays ~100 MB regardless of block size
    max_shingles = 200_000
    lo = 0
    while lo < n:
        hi = lo + 1
        while hi < n and starts[hi + 1] - starts[lo] <= max_shingles:
            hi += 1
        seg = slice(starts[lo], starts[hi])
        sub_counts = counts[lo:hi]
        nonempty = sub_counts > 0
        if nonempty.any():
            with np.errstate(over="ignore"):
                m = _MH_A[None, :] * hashes[seg, None] + _MH_B[None, :]
            sub_starts = starts[lo:hi] - starts[lo]
            red = np.minimum.reduceat(m, sub_starts[nonempty], axis=0)
            out[lo:hi][nonempty] = red
        lo = hi
    return out


_BAND_ROW_SCHEMA = pa.schema([
    ("band", pa.int32()), ("band_hash", pa.uint64()),
    ("doc_id", pa.int64()), ("bucket", pa.int32()),
])


def _band_rows_batch(batch: pa.Table) -> pa.Table:
    """doc -> N_BANDS rows (band, band_hash, doc_id, bucket). Band
    hashes are a vectorized splitmix fold of each band's signature
    rows (no per-band Python hashing)."""
    doc_ids = batch.column("doc_id").to_numpy()
    texts = batch.column("text").to_pylist()
    n = len(texts)
    if n == 0:
        return _BAND_ROW_SCHEMA.empty_table()
    sigs = minhash_signatures_flat(*shingle_hash_batch(texts), n)
    bands_sig = sigs.reshape(n, N_BANDS, BAND_R)
    bhash = mix64([bands_sig[:, :, r].ravel() for r in range(BAND_R)])
    band = np.tile(np.arange(N_BANDS, dtype=np.int32), n)
    dids = np.repeat(doc_ids, N_BANDS)
    bucket = hash_bucket([band.astype(np.uint64), bhash])
    return pa.table({
        "band": pa.array(band, pa.int32()),
        "band_hash": pa.array(bhash, pa.uint64()),
        "doc_id": pa.array(dids, pa.int64()),
        "bucket": pa.array(bucket, pa.int32()),
    })


_CAND_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()), ("bucket", pa.int32()),
])


def _candidates_from_band_bucket(band_cap: int | None = BAND_CAP_DEFAULT):
    """Kernel factory for one (band, band_hash)-bucket: vectorized
    within-segment pair emission + in-bucket distinct, rebucketed by
    pair hash. ``band_cap`` is the mirror of jaccard's df_cap: a band
    segment holding more than band_cap docs (boilerplate whose minhash
    band collides corpus-wide, s^2/2 pairs) is dropped from candidate
    generation — pairs it would have found still surface through any
    of their other 15 bands, and verification stays exact either way."""
    def kernel(group: pa.Table) -> pa.Table:
        if group.num_rows < 2:
            return _CAND_SCHEMA.empty_table()
        band = group.column("band").to_numpy()
        bh = group.column("band_hash").to_numpy()
        did = group.column("doc_id").to_numpy()
        order = np.lexsort((did, bh, band))
        band, bh, did = band[order], bh[order], did[order]
        if band_cap is not None:
            change = np.ones(len(band), bool)
            change[1:] = (band[1:] != band[:-1]) | (bh[1:] != bh[:-1])
            seg_id = np.cumsum(change) - 1
            sizes = np.bincount(seg_id)
            keep = sizes[seg_id] <= band_cap
            band, bh, did = band[keep], bh[keep], did[keep]
            if len(band) < 2:
                return _CAND_SCHEMA.empty_table()
        ia, ib = segment_pair_indices([band, bh])
        if len(ia) == 0:
            return _CAND_SCHEMA.empty_table()
        t = pa.table({"doc_a": pa.array(did[ia], pa.int64()),
                      "doc_b": pa.array(did[ib], pa.int64())})
        t = t.group_by(["doc_a", "doc_b"]).aggregate([])
        t = t.filter(pc.not_equal(t.column("doc_a"), t.column("doc_b")))
        bucket = hash_bucket([t.column("doc_a"), t.column("doc_b")])
        return t.append_column("bucket", pa.array(bucket, pa.int32())) \
            .cast(_CAND_SCHEMA)
    return kernel


def minhash_lsh_pairs(sf_dir: str, threshold_pct: int = 80,
                      band_cap: int | None = BAND_CAP_DEFAULT):
    """MinHash+LSH candidate generation, exact-Jaccard verification.

    Candidates stay a Dataset end to end: banded bucketed groupby ->
    global pair-distinct (bucketed) -> distributed verification join
    against per-doc shingle sets (verify_pairs_exact). Nothing is
    collected to the driver. Output schema matches
    :func:`jaccard_pairs` (same oracle). ``band_cap`` guards against
    corpus-wide band collisions (see _candidates_from_band_bucket)."""
    ds = _read_documents(sf_dir)
    cands = bucket_groupby(
        ds.map_batches(_band_rows_batch, batch_format="pyarrow",
                       batch_size=None),
        _candidates_from_band_bucket(band_cap))
    return verify_pairs_exact(cands, sf_dir, threshold_pct)


# ---------------------------------------------------------------------------
# Distributed exact-Jaccard verification of candidate pairs
# ---------------------------------------------------------------------------

_DOC_SHINGLE_SCHEMA = pa.schema([
    ("dkey", pa.int64()), ("shingles", pa.list_(pa.uint64()))])
_PROBE_SCHEMA = pa.schema([
    ("dkey", pa.int64()), ("doc_a", pa.int64()), ("doc_b", pa.int64())])
_SIDE_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()),
    ("shingles", pa.list_(pa.uint64())), ("bucket", pa.int32()),
])


def _doc_shingle_rows(batch: pa.Table) -> pa.Table:
    n = batch.num_rows
    rows, hashes = shingle_hash_batch(batch.column("text").to_pylist())
    counts = np.bincount(rows, minlength=n)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    shingles = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), pa.array(hashes, pa.uint64()))
    return pa.table({"dkey": batch.column("doc_id"), "shingles": shingles})


def _cand_side_rows(batch: pa.Table) -> pa.Table:
    """Each candidate pair -> two probe rows, keyed by either doc."""
    a = batch.column("doc_a").to_numpy()
    b = batch.column("doc_b").to_numpy()
    return pa.table({"dkey": np.concatenate([a, b]),
                     "doc_a": np.concatenate([a, a]),
                     "doc_b": np.concatenate([b, b])})


def _attach_shingles_bucket(docs: pa.Table, sides: pa.Table) -> pa.Table:
    """One doc-hash bucket of doc rows and probe rows: vectorized
    searchsorted join attaching each probe row's shingle set. Probe rows
    are DEDUPED first (a candidate pair reaching this bucket once per
    matching band must ship its shingle set exactly once), which is what
    lets the callers skip a separate global pair-distinct exchange."""
    docs = docs.sort_by("dkey")
    sides = sides.group_by(["dkey", "doc_a", "doc_b"]).aggregate([]) \
        .rename_columns(["dkey", "doc_a", "doc_b"])
    if docs.num_rows == 0 or sides.num_rows == 0:
        return _SIDE_SCHEMA.empty_table()
    dkeys = docs.column("dkey").to_numpy()
    skeys = sides.column("dkey").to_numpy()
    idx = np.searchsorted(dkeys, skeys)
    idx_c = np.clip(idx, 0, len(dkeys) - 1)
    hit = dkeys[idx_c] == skeys
    sides = sides.filter(pa.array(hit))
    if sides.num_rows == 0:
        return _SIDE_SCHEMA.empty_table()
    sh = docs.column("shingles").combine_chunks().take(
        pa.array(idx_c[hit], pa.int64()))
    doc_a = sides.column("doc_a")
    doc_b = sides.column("doc_b")
    bucket = hash_bucket([doc_a, doc_b])
    return pa.table({
        "doc_a": doc_a, "doc_b": doc_b, "shingles": sh,
        "bucket": pa.array(bucket, pa.int32()),
    }).cast(_SIDE_SCHEMA)


def _verify_bucket(threshold_pct: int):
    def fn(group: pa.Table) -> pa.Table:
        """One pair-hash bucket: per-pair exact intersection of the two
        shingle sets. The loop is over candidate PAIRS (near-dup mass,
        not corpus mass) — inherent to verification."""
        a = group.column("doc_a").to_numpy()
        b = group.column("doc_b").to_numpy()
        order = np.lexsort((b, a))
        sh = group.column("shingles").combine_chunks().take(
            pa.array(order, pa.int64()))
        a, b = a[order], b[order]
        offs = sh.offsets.to_numpy()
        vals = sh.values.to_numpy()
        out_a, out_b, out_i, out_u = [], [], [], []
        i = 0
        n = len(a)
        while i + 1 < n:
            if a[i] == a[i + 1] and b[i] == b[i + 1]:
                sa = vals[offs[i]:offs[i + 1]]
                sb = vals[offs[i + 1]:offs[i + 2]]
                inter = np.intersect1d(sa, sb, assume_unique=True).size
                uni = len(sa) + len(sb) - inter
                if uni and inter * 100 >= threshold_pct * uni:
                    out_a.append(int(a[i]))
                    out_b.append(int(b[i]))
                    out_i.append(int(inter))
                    out_u.append(int(uni))
                i += 2
            else:       # unmatched side (doc missing): drop
                i += 1
        return pa.table({
            "doc_a": pa.array(out_a, pa.int64()),
            "doc_b": pa.array(out_b, pa.int64()),
            "inter": pa.array(out_i, pa.int64()),
            "uni": pa.array(out_u, pa.int64()),
        }).cast(PAIR_SCHEMA)
    return fn


def verify_pairs_exact(cand_ds, sf_dir: str, threshold_pct: int):
    """Exact-Jaccard verification of a candidate-pair Dataset via two
    bucketed exchanges (the scale-safe replacement for the round-1
    driver-collect + dict broadcast):

      1. candidates explode to per-doc probe rows, which meet the
         per-doc shingle-set rows in one ``bucket_join`` on the doc key;
         each bucket attaches each probe's shingle set with a
         vectorized searchsorted join.
      2. groupby(pair bucket) intersects the two sides per pair and
         applies the threshold.

    The doc-side exchange ships each document's shingle set once (same
    magnitude as the inverted-index pass); the pair-side exchange is
    candidate-mass-sized."""
    docs = _read_documents(sf_dir).map_batches(_doc_shingle_rows,
                                               batch_format="pyarrow",
                                               batch_size=None)
    sides = cand_ds.map_batches(_cand_side_rows, batch_format="pyarrow",
                                batch_size=None)
    joined = bucket_join(docs, sides, _attach_shingles_bucket, on="dkey",
                         left_schema=_DOC_SHINGLE_SCHEMA,
                         right_schema=_PROBE_SCHEMA)
    return bucket_groupby(joined, _verify_bucket(threshold_pct))


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash64_batch(texts: list[str]) -> np.ndarray:
    """Vectorized 64-bit SimHash over distinct word hashes (weight 1):
    FNV word hashes -> per-word bit matrix -> per-doc segment sums via
    reduceat -> sign bits. One numpy pass per bit position, never a
    Python loop over words or bits."""
    n = len(texts)
    out = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return out
    words: list[str] = []
    offsets = np.zeros(n + 1, dtype=np.int64)
    for i, t in enumerate(texts):
        ws = sorted(set((t or "").split(" ")))
        words.extend(ws)
        offsets[i + 1] = len(words)
    if not words:
        return out
    h = fnv1a_hashes(words)
    shifts = np.arange(SIM_BITS, dtype=np.uint64)[None, :]
    contrib = (((h[:, None] >> shifts) & np.uint64(1)).astype(np.int32)
               * 2 - 1)                              # (n_words, 64) of ±1
    nonempty = offsets[1:] > offsets[:-1]
    sums = np.zeros((n, SIM_BITS), dtype=np.int64)
    if nonempty.any():
        red = np.add.reduceat(contrib, offsets[:-1][nonempty], axis=0)
        sums[nonempty] = red
    powers = (np.uint64(1) << np.arange(SIM_BITS, dtype=np.uint64))
    out = ((sums > 0).astype(np.uint64) * powers[None, :]).sum(axis=1)
    out[~nonempty] = 0
    return out.astype(np.uint64)


_SIM_ROW_SCHEMA = pa.schema([
    ("band", pa.int32()), ("key", pa.uint64()), ("doc_id", pa.int64()),
    ("sig", pa.uint64()), ("bucket", pa.int32()),
])


def _simhash_band_rows(batch: pa.Table) -> pa.Table:
    doc_ids = batch.column("doc_id").to_numpy()
    texts = batch.column("text").to_pylist()
    n = len(texts)
    if n == 0:
        return _SIM_ROW_SCHEMA.empty_table()
    sig = simhash64_batch(texts)
    width = SIM_BITS // SIM_BANDS
    mask = np.uint64((1 << width) - 1)
    band = np.tile(np.arange(SIM_BANDS, dtype=np.int32), n)
    sigs = np.repeat(sig, SIM_BANDS)
    shifts = (band.astype(np.uint64) * np.uint64(width))
    keys = (sigs >> shifts) & mask
    dids = np.repeat(doc_ids, SIM_BANDS)
    bucket = hash_bucket([band.astype(np.uint64), keys])
    return pa.table({
        "band": pa.array(band, pa.int32()),
        "key": pa.array(keys, pa.uint64()),
        "doc_id": pa.array(dids, pa.int64()),
        "sig": pa.array(sigs, pa.uint64()),
        "bucket": pa.array(bucket, pa.int32()),
    })


_SIM_PAIR_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()), ("hamming", pa.int64()),
    ("bucket", pa.int32()),
])


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR)."""
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h01 = np.uint64(0x0101010101010101)
    with np.errstate(over="ignore"):
        x = x - ((x >> np.uint64(1)) & m1)
        x = (x & m2) + ((x >> np.uint64(2)) & m2)
        x = (x + (x >> np.uint64(4))) & m4
        x = (x * h01) >> np.uint64(56)
    return x.astype(np.int64)


def _simhash_pairs_bucket(max_hamming: int):
    def fn(group: pa.Table) -> pa.Table:
        """One (band, key)-hash bucket: vectorized segment pairs +
        SWAR popcount hamming filter, rebucketed by pair hash."""
        if group.num_rows < 2:
            return _SIM_PAIR_SCHEMA.empty_table()
        band = group.column("band").to_numpy()
        key = group.column("key").to_numpy()
        did = group.column("doc_id").to_numpy()
        sig = group.column("sig").to_numpy()
        order = np.lexsort((did, key, band))
        band, key, did, sig = band[order], key[order], did[order], sig[order]
        ia, ib = segment_pair_indices([band, key])
        if len(ia) == 0:
            return _SIM_PAIR_SCHEMA.empty_table()
        ham = _popcount64(sig[ia] ^ sig[ib])
        keep = (ham <= max_hamming) & (did[ia] != did[ib])
        t = pa.table({
            "doc_a": pa.array(did[ia][keep], pa.int64()),
            "doc_b": pa.array(did[ib][keep], pa.int64()),
            "hamming": pa.array(ham[keep], pa.int64()),
        })
        g = t.group_by(["doc_a", "doc_b"]).aggregate([("hamming", "min")])
        g = g.rename_columns(["doc_a", "doc_b", "hamming"])
        bucket = hash_bucket([g.column("doc_a"), g.column("doc_b")])
        return g.append_column("bucket", pa.array(bucket, pa.int32())) \
            .cast(_SIM_PAIR_SCHEMA)
    return fn


def _sim_distinct_bucket(group: pa.Table) -> pa.Table:
    """Global pair-distinct (a pair can match in several bands)."""
    g = group.group_by(["doc_a", "doc_b"]).aggregate([("hamming", "min")])
    return g.rename_columns(["doc_a", "doc_b", "hamming"])


def simhash_pairs(sf_dir: str, max_hamming: int = 3):
    """Exact hamming<=3 SimHash pairs: 4x16-bit band blocking guarantees
    (pigeonhole) every qualifying pair shares at least one band."""
    ds = _read_documents(sf_dir)
    ds = ds.map_batches(_simhash_band_rows, batch_format="pyarrow")
    ds = bucket_groupby(ds, _simhash_pairs_bucket(max_hamming))
    return bucket_groupby(ds, _sim_distinct_bucket)


# ---------------------------------------------------------------------------
# Embedding-cosine near-dup
# ---------------------------------------------------------------------------

EMB_CHUNK_ROWS = 20_000


def _put_embedding_chunks(sf_dir: str):
    """Normalize the embedding matrix into bounded object-store chunks
    via remote tasks (one per parquet row-group slice) — the driver
    never materializes the matrix and no worker ever holds more than
    one chunk alongside its streaming batch."""
    import ray
    import pyarrow.parquet as pq

    path = f"{sf_dir}/embeddings.parquet"

    @ray.remote(num_cpus=1)
    def load_chunk(rg: int, lo: int, hi: int):
        tbl = pq.ParquetFile(path).read_row_group(
            rg, columns=["vec_id", "embedding"]).slice(lo, hi - lo)
        from .ann import emb_matrix
        ids = tbl.column("vec_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        mat = emb_matrix(tbl)
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return ids, mat / norms

    pf = pq.ParquetFile(path)
    refs = []
    for rg in range(pf.metadata.num_row_groups):
        nrows = pf.metadata.row_group(rg).num_rows
        for lo in range(0, nrows, EMB_CHUNK_ROWS):
            refs.append(load_chunk.remote(rg, lo,
                                          min(lo + EMB_CHUNK_ROWS, nrows)))
    return refs


def embedding_dup_pairs(sf_dir: str, threshold: float = 0.5):
    """All pairs with cosine(embedding) > threshold — EXACT, with the
    corpus chunked: each streaming batch matmuls against one broadcast
    chunk at a time (worker heap = batch x chunk, never the matrix).
    Exact all-pairs is inherently O(n^2) similarity evaluations; the
    sublinear trade-off lives in :func:`embedding_dup_pairs_lsh`."""
    import ray
    import ray.data

    refs = _put_embedding_chunks(sf_dir)

    def pairs(batch: pa.Table) -> pa.Table:
        from .ann import emb_matrix
        bid = batch.column("vec_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        bm = emb_matrix(batch)
        bn = np.linalg.norm(bm, axis=1, keepdims=True)
        bn[bn == 0] = 1.0
        bm = bm / bn
        out_a, out_b = [], []
        for ref in refs:
            ids, mat = ray.get(ref)
            sims = bm @ mat.T
            ri, ci = np.nonzero((sims > threshold)
                                & (bid[:, None] < ids[None, :]))
            out_a.append(bid[ri])
            out_b.append(ids[ci])
        return pa.table({
            "vec_id_a": pa.array(np.concatenate(out_a) if out_a
                                 else np.empty(0, np.int64), pa.int64()),
            "vec_id_b": pa.array(np.concatenate(out_b) if out_b
                                 else np.empty(0, np.int64), pa.int64()),
        })

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    return ds.map_batches(pairs, batch_format="pyarrow")


def embedding_dup_pairs_lsh(sf_dir: str, threshold: float = 0.5,
                            n_bands: int = 16, band_planes: int = 2):
    """Approximate near-dup pairs: random-hyperplane LSH with an
    OR-construction (n_bands bands of band_planes planes) generates
    candidates, exact cosine verifies them. Recall at cos=t is
    1-(1-p^band_planes)^n_bands with p = 1 - arccos(t)/pi; defaults give
    ~1-6e-7 at t=0.5, rising toward 1 for nearer duplicates — the
    sublinear 100 TB path (bucketed exchanges, no full-matrix sweep)."""
    import ray
    import ray.data

    def band_rows(batch: pa.Table) -> pa.Table:
        from .ann import emb_matrix
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        m = emb_matrix(batch)
        if len(ids) == 0:
            return pa.table({"band": pa.array([], pa.int32()),
                             "key": pa.array([], pa.uint64()),
                             "vec_id": pa.array([], pa.int64()),
                             "emb": pa.array([], pa.list_(pa.float32())),
                             "bucket": pa.array([], pa.int32())})
        norms = np.linalg.norm(m, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        m = m / norms
        # fresh fixed-seed generator per call: every batch in every task
        # sees the identical plane matrix
        planes = np.random.default_rng(7).standard_normal(
            (n_bands * band_planes, m.shape[1])).astype(np.float32)
        # exact quantized projections (ops.ann Q grids): sign decisions
        # are layout-independent and sequential-twin-checkable
        from .ann import Q_CENT, quantize_rows
        signs = (quantize_rows(m) @ quantize_rows(planes, Q_CENT).T) > 0
        keys = np.zeros((len(ids), n_bands), dtype=np.uint64)
        for b in range(n_bands):
            sl = signs[:, b * band_planes:(b + 1) * band_planes]
            keys[:, b] = (sl * (1 << np.arange(band_planes))).sum(axis=1)
        band = np.tile(np.arange(n_bands, dtype=np.int32), len(ids))
        key = keys.ravel()
        vid = np.repeat(ids, n_bands)
        emb = np.repeat(np.arange(len(ids)), n_bands)
        bucket = hash_bucket([band.astype(np.uint64), key])
        return pa.table({
            "band": pa.array(band, pa.int32()),
            "key": pa.array(key, pa.uint64()),
            "vec_id": pa.array(vid, pa.int64()),
            "emb": pa.array([m[i].tolist() for i in emb],
                            pa.list_(pa.float32())),
            "bucket": pa.array(bucket, pa.int32()),
        })

    def bucket_pairs(group: pa.Table) -> pa.Table:
        band = group.column("band").to_numpy()
        key = group.column("key").to_numpy()
        vid = group.column("vec_id").to_numpy()
        order = np.lexsort((vid, key, band))
        emb = group.column("emb").combine_chunks().take(
            pa.array(order, pa.int64()))
        band, key, vid = band[order], key[order], vid[order]
        ia, ib = segment_pair_indices([band, key])
        if len(ia) == 0:
            return pa.table({"vec_id_a": pa.array([], pa.int64()),
                             "vec_id_b": pa.array([], pa.int64()),
                             "bucket": pa.array([], pa.int32())})
        from .ann import Q_EMB, quantize_rows
        vals = quantize_rows(
            emb.values.to_numpy().reshape(len(vid), -1)
            .astype(np.float32, copy=False))
        sims = (vals[ia] * vals[ib]).sum(axis=1)
        keep = (sims > threshold * Q_EMB * Q_EMB) & (vid[ia] != vid[ib])
        a = np.minimum(vid[ia][keep], vid[ib][keep])
        b = np.maximum(vid[ia][keep], vid[ib][keep])
        t = pa.table({"vec_id_a": pa.array(a, pa.int64()),
                      "vec_id_b": pa.array(b, pa.int64())})
        t = t.group_by(["vec_id_a", "vec_id_b"]).aggregate([])
        bucket = hash_bucket([t.column("vec_id_a"), t.column("vec_id_b")])
        return t.append_column("bucket", pa.array(bucket, pa.int32()))

    def distinct(group: pa.Table) -> pa.Table:
        g = group.select(["vec_id_a", "vec_id_b"]) \
            .group_by(["vec_id_a", "vec_id_b"]).aggregate([])
        return g.rename_columns(["vec_id_a", "vec_id_b"])

    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    ds = ds.map_batches(band_rows, batch_format="pyarrow")
    ds = bucket_groupby(ds, bucket_pairs)
    return bucket_groupby(ds, distinct)


# ---------------------------------------------------------------------------
# Benchmark decontamination: flag training documents that share any
# word-shingle with a held-out evaluation set — the standard "did the
# eval set leak into the training corpus" check run before every
# pretraining job. Shape: one shingle pass (the same vectorized kernel
# as Jaccard dedup) emitting (shingle_hash, doc_id, is_bench) rows,
# one exchange on the SHINGLE bucket where each bucket intersects its
# train shingles against its bench-shingle set (pure numpy set ops —
# the bench set is materialized per bucket, never globally), then one
# small exchange on the doc id summing per-bucket hit counts. The eval
# side rides the same dataflow as the train side, so a bench set of
# any size works — nothing is broadcast or collected to the driver.
# ---------------------------------------------------------------------------

BENCH_MOD = 20  # doc_id % 20 == 0 -> held-out benchmark member


def _contam_bucket_hits(group: pa.Table) -> pa.Table:
    """One shingle bucket: count each train doc's windows present in
    the bucket's benchmark-window set (numpy set ops, never global)."""
    sh = group.column("shingle").to_numpy(zero_copy_only=False)
    doc = group.column("doc_id").to_numpy(zero_copy_only=False)
    bench = group.column("is_bench").to_numpy(zero_copy_only=False)
    bset = np.unique(sh[bench])
    mask = ~bench
    mask[mask] = np.isin(sh[mask], bset, assume_unique=False)
    hits = pa.table({"doc_id": pa.array(doc[mask], pa.int64())}) \
        .group_by("doc_id").aggregate([([], "count_all")]) \
        .rename_columns(["doc_id", "n"])
    return hits.append_column("bucket", pa.array(
        hash_bucket([hits.column("doc_id")]), pa.int32()))


def _contam_total(group: pa.Table) -> pa.Table:
    out = group.select(["doc_id", "n"]).group_by("doc_id") \
        .aggregate([("n", "sum")])
    return pa.table({
        "doc_id": out.column("doc_id"),
        "n_hits": out.column("n_sum").cast(pa.int64()),
    })


def decontaminate(sf_dir: str, bench_mod: int = BENCH_MOD):
    """(doc_id, n_hits) for every NON-benchmark document sharing at
    least one distinct word-3-gram shingle with any benchmark document
    (membership: doc_id % bench_mod == 0); n_hits = how many of the
    doc's distinct shingles are contaminated. Value-exact vs a DuckDB
    string-shingle semi-join oracle (hashes are collision-free at
    corpus scale, as in the Jaccard/MinHash oracles)."""
    ds = _read_documents(sf_dir)

    def rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        ridx, sh = shingle_hash_batch(batch.column("text").to_pylist())
        doc = ids[ridx]
        return pa.table({
            "shingle": pa.array(sh, pa.uint64()),
            "doc_id": pa.array(doc, pa.int64()),
            "is_bench": pa.array(doc % bench_mod == 0),
            "bucket": pa.array(hash_bucket([sh]), pa.int32()),
        })

    ds = ds.map_batches(rows, batch_format="pyarrow", batch_size=None)
    ds = bucket_groupby(ds, _contam_bucket_hits)
    return bucket_groupby(ds, _contam_total, coarse_per_cpu=4)


# ---------------------------------------------------------------------------
# Exact substring overlap (char-level): pairs of documents sharing at
# least one W-character substring — the doc-pair-granular form of the
# Lee et al. 2022 "exact substring" dedup signal, which catches copied
# passages that word-level Jaccard dilutes away in long documents.
# Shape: vectorized rolling polynomial hash over one flat byte buffer
# per batch (W shifted-slice passes, windows crossing doc boundaries
# masked), distinct per doc, then the same shingle-bucket -> segment
# pairs -> pair-bucket machinery as the Jaccard family, including the
# df_cap boilerplate guard. Byte windows equal character windows for
# ASCII input (the same oracle caveat as the FNV SQL twins).
# ---------------------------------------------------------------------------

SUBSTR_W = 50

_SUB_ROW_SCHEMA = pa.schema([
    ("shingle", pa.uint64()), ("doc_id", pa.int64()),
    ("bucket", pa.int32()),
])
_SUB_PAIR_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()),
    ("n_shared", pa.int64()), ("bucket", pa.int32()),
])
SUB_OUT_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()),
    ("n_shared", pa.int64()),
])


def char_window_rows_batch(batch: pa.Table,
                           w: int = SUBSTR_W) -> pa.Table:
    """doc -> one row per DISTINCT w-char rolling window hash."""
    doc_ids = batch.column("doc_id").to_numpy()
    enc = [(t or "").encode() for t in batch.column("text").to_pylist()]
    n = len(enc)
    lens = np.fromiter((len(b) for b in enc), np.int64, n) if n else \
        np.zeros(0, np.int64)
    flat = np.frombuffer(b"".join(enc) or b"", np.uint8) \
        .astype(np.uint64)
    row_of = np.repeat(np.arange(n), lens)
    m = len(flat) - w + 1
    if m <= 0:
        return _SUB_ROW_SCHEMA.empty_table()
    valid = row_of[:m] == row_of[w - 1:]
    roll = np.zeros(m, np.uint64)
    with np.errstate(over="ignore"):
        for k in range(w):
            roll = roll * FNV_BASE + flat[k:m + k]
    rows = row_of[:m][valid]
    hs = roll[valid]
    order = np.lexsort((hs, rows))
    rows, hs = rows[order], hs[order]
    keep = np.ones(len(rows), bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (hs[1:] != hs[:-1])
    rows, hs = rows[keep], hs[keep]
    return pa.table({
        "shingle": pa.array(hs, pa.uint64()),
        "doc_id": pa.array(doc_ids[rows], pa.int64()),
        "bucket": pa.array(hash_bucket([hs]), pa.int32()),
    }).cast(_SUB_ROW_SCHEMA)


def _sub_pairs_bucket(group: pa.Table) -> pa.Table:
    if group.num_rows < 2:
        return _SUB_PAIR_SCHEMA.empty_table()
    sh = group.column("shingle").to_numpy()
    did = group.column("doc_id").to_numpy()
    order = np.lexsort((did, sh))
    sh, did = sh[order], did[order]
    ia, ib = segment_pair_indices([sh])
    if len(ia) == 0:
        return _SUB_PAIR_SCHEMA.empty_table()
    t = pa.table({
        "doc_a": pa.array(did[ia], pa.int64()),
        "doc_b": pa.array(did[ib], pa.int64()),
        "n_shared": pa.array(np.ones(len(ia), np.int64)),
    })
    g = t.group_by(["doc_a", "doc_b"]).aggregate([("n_shared", "sum")])
    g = g.rename_columns(["doc_a", "doc_b", "n_shared"])
    bucket = hash_bucket([g.column("doc_a"), g.column("doc_b")])
    return g.append_column("bucket", pa.array(bucket, pa.int32())) \
        .cast(_SUB_PAIR_SCHEMA)


def _sub_final_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["doc_a", "doc_b"]).aggregate([("n_shared",
                                                       "sum")])
    g = g.rename_columns(["doc_a", "doc_b", "n_shared"])
    return g.select(SUB_OUT_SCHEMA.names).cast(SUB_OUT_SCHEMA)


def substring_pairs(sf_dir: str, w: int = SUBSTR_W,
                    df_cap: int | None = DF_CAP_DEFAULT):
    """(doc_a, doc_b, n_shared): document pairs sharing >= 1 distinct
    w-char substring, with the count of shared windows. ``df_cap``
    drops windows present in more than df_cap docs (site boilerplate)
    from pair generation — the same guard-and-caveat as
    :func:`jaccard_pairs`; n_shared for surviving pairs then counts
    non-hot shared windows only (documented approximation at the cap,
    exact below it)."""
    import ray

    ds = _read_documents(sf_dir)
    rows = ds.map_batches(
        lambda b: char_window_rows_batch(b, w),
        batch_format="pyarrow", batch_size=None)
    if df_cap is not None:
        hot_ref = ray.put(_hot_shingles(rows, df_cap))

        def drop_hot(batch: pa.Table) -> pa.Table:
            hot = ray.get(hot_ref)
            if len(hot) == 0:
                return batch
            shv = batch.column("shingle").to_numpy()
            return batch.filter(pa.array(~np.isin(shv, hot)))

        rows = rows.map_batches(drop_hot, batch_format="pyarrow")
    pairs = bucket_groupby(rows, _sub_pairs_bucket)
    return bucket_groupby(pairs, _sub_final_bucket)


SUBSTRING_SQL = f"""
    WITH w AS (
      SELECT DISTINCT doc_id,
             unnest([substring(text, i, {SUBSTR_W})
                     FOR i IN generate_series(
                         1, length(text) - {SUBSTR_W} + 1)]) AS win
      FROM documents
      WHERE length(text) >= {SUBSTR_W}
    )
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(count(*) AS BIGINT) AS n_shared
    FROM w a JOIN w b ON a.win = b.win AND a.doc_id < b.doc_id
    GROUP BY 1, 2
"""


def decontaminate_substring(sf_dir: str, w: int = SUBSTR_W,
                            bench_mod: int = BENCH_MOD):
    """Exact-substring decontamination (the Lee et al. 2022 signal at
    the train/eval boundary): (doc_id, n_hits) for every NON-benchmark
    document sharing at least one exact ``w``-char substring window
    with any benchmark document; n_hits = how many of the doc's
    DISTINCT windows are contaminated. Word-shingle decontaminate()
    saturates on short-vocabulary corpora (nearly every doc shares
    some 3-gram); the char-window form only fires on genuinely copied
    passages, which is why the composed curation pipeline uses it.
    Same machinery: the shared rolling-hash window kernel, a
    window-keyed exchange with per-bucket set intersection, a
    doc-keyed exchange for totals."""
    ds = _read_documents(sf_dir)

    def rows(batch: pa.Table) -> pa.Table:
        t = char_window_rows_batch(batch, w)
        doc = t.column("doc_id").to_numpy(zero_copy_only=False)
        return t.append_column(
            "is_bench", pa.array(doc % bench_mod == 0))

    ds = ds.map_batches(rows, batch_format="pyarrow", batch_size=None)
    ds = bucket_groupby(ds, _contam_bucket_hits)
    return bucket_groupby(ds, _contam_total, coarse_per_cpu=4)


DECONTAM_SUBSTR_SQL = f"""
    WITH w AS (
      SELECT DISTINCT doc_id,
             unnest([substring(text, i, {SUBSTR_W})
                     FOR i IN generate_series(
                         1, length(text) - {SUBSTR_W} + 1)]) AS win
      FROM documents
      WHERE length(text) >= {SUBSTR_W}
    ), bench AS (
      SELECT DISTINCT win FROM w WHERE doc_id % 20 = 0
    )
    SELECT s.doc_id, CAST(count(*) AS BIGINT) AS n_hits
    FROM w s JOIN bench b ON s.win = b.win
    WHERE s.doc_id % 20 <> 0
    GROUP BY s.doc_id
"""


def _cross_pairs_from_shingle_bucket(bench_mod: int):
    """One shingle bucket, cross-side only: emit (train, bench) pairs
    for every shingle shared across the split — the segment-pair kernel
    filtered to pairs with exactly one benchmark member, train side
    always doc_a."""
    def kernel(group: pa.Table) -> pa.Table:
        if group.num_rows < 2:
            return _PAIR_PART_SCHEMA.empty_table()
        sh = group.column("shingle").to_numpy()
        did = group.column("doc_id").to_numpy()
        dn = group.column("doc_n").to_numpy()
        order = np.lexsort((did, sh))
        sh, did, dn = sh[order], did[order], dn[order]
        ia, ib = segment_pair_indices([sh])
        if len(ia) == 0:
            return _PAIR_PART_SCHEMA.empty_table()
        ba = did[ia] % bench_mod == 0
        bb = did[ib] % bench_mod == 0
        cross = ba != bb
        ia, ib, ba = ia[cross], ib[cross], ba[cross]
        if len(ia) == 0:
            return _PAIR_PART_SCHEMA.empty_table()
        tr = np.where(ba, did[ib], did[ia])
        be = np.where(ba, did[ia], did[ib])
        tn = np.where(ba, dn[ib], dn[ia])
        bn = np.where(ba, dn[ia], dn[ib])
        return _pair_partial_table(tr, be, tn, bn,
                                   np.ones(len(tr), np.int64))
    return kernel


def decontaminate_fuzzy(sf_dir: str, threshold_pct: int = 50,
                        bench_mod: int = BENCH_MOD):
    """Near-duplicate decontamination: (doc_id, n_bench_matches) for
    every NON-benchmark document whose word-3-gram Jaccard similarity
    to some benchmark document reaches ``threshold_pct`` — the fuzzy
    complement of :func:`decontaminate` (which flags any single shared
    shingle): catches paraphrased/partial benchmark leakage that exact
    matching misses while ignoring incidental one-shingle overlap.

    Same inverted-index shape as :func:`jaccard_pairs` but candidate
    generation is restricted to CROSS-SIDE pairs inside the shingle
    bucket (train posting list x bench posting list — never
    train x train, the overwhelming pair mass at corpus scale), then
    the exact threshold filter and a per-train-doc reduce. Integer
    (inter, uni) arithmetic throughout; value-exact vs the SQL twin."""
    ds = _read_documents(sf_dir)
    sh_rows = ds.map_batches(_shingle_rows_batch, batch_format="pyarrow")
    pairs = bucket_groupby(sh_rows,
                           _cross_pairs_from_shingle_bucket(bench_mod))
    kept = bucket_groupby(pairs, _finalize_pairs_bucket(threshold_pct))

    def doc_rows(batch: pa.Table) -> pa.Table:
        t = pa.table({"doc_id": batch.column("doc_a"),
                      "n": pa.array(np.ones(batch.num_rows, np.int64))})
        return t.append_column("bucket", pa.array(
            hash_bucket([t.column("doc_id")]), pa.int32()))

    def per_doc(group: pa.Table) -> pa.Table:
        g = group.group_by(["doc_id"]).aggregate([("n", "sum")])
        return g.rename_columns(["doc_id", "n_bench_matches"])

    return bucket_groupby(
        kept.map_batches(doc_rows, batch_format="pyarrow",
                         batch_size=None), per_doc)


DECONTAM_FUZZY_SQL = f"""
WITH tok AS (
  SELECT doc_id, unnest(string_split(text, ' ')) AS w,
         generate_subscripts(string_split(text, ' '), 1) AS i
  FROM documents
), sh AS (
  SELECT DISTINCT a.doc_id, a.w || ' ' || b.w || ' ' || c.w AS shingle
  FROM tok a
  JOIN tok b ON a.doc_id = b.doc_id AND b.i = a.i + 1
  JOIN tok c ON a.doc_id = c.doc_id AND c.i = a.i + 2
), sizes AS (
  SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id
), pair AS (
  SELECT x.doc_id AS tr, y.doc_id AS be, count(*) AS inter
  FROM sh x JOIN sh y ON x.shingle = y.shingle
  WHERE x.doc_id % {BENCH_MOD} <> 0 AND y.doc_id % {BENCH_MOD} = 0
  GROUP BY 1, 2
)
SELECT tr AS doc_id, CAST(count(*) AS BIGINT) AS n_bench_matches
FROM pair
JOIN sizes sa ON sa.doc_id = tr
JOIN sizes sb ON sb.doc_id = be
WHERE inter * 100 >= 50 * (sa.n + sb.n - inter)
GROUP BY tr
"""


# ---------------------------------------------------------------------------
# Winnowing fingerprint near-dup pairs (MOSS-style local minima)
# ---------------------------------------------------------------------------
# The jaccard/minhash family samples or enumerates ALL shingles;
# winnowing (Schleimer/Wilkerson/Aiken, SIGMOD'03 — the MOSS
# algorithm) instead selects the MINIMUM gram hash of every sliding
# window, guaranteeing any match of length >= window+k-1 words shares
# at least one selected fingerprint while storing only ~2/(window+1)
# of the grams. Deterministic (leftmost-argmin tie-break), so the
# whole op has an exact DuckDB twin built from the same FNV word
# hashes and rolling polynomial the doc_fingerprint contract already
# pins.
#
# Shape: one vectorized selection pass over documents (no exchange),
# one fingerprint-keyed exchange whose in-bucket kernel computes the
# GLOBAL df per fingerprint (bucketing by fingerprint co-locates all
# copies) and drops boilerplate above df_cap before the bounded
# segment-pair kernel, then one pair-keyed reduce. At 100 TB the
# fingerprint exchange carries ~2/(w+1) of gram mass and df_cap bounds
# the pair explosion exactly like the jaccard guard.

WINNOW_K = 4            # words per gram (matches doc_fingerprint)
WINNOW_W = 5            # winnow window (gram positions per window)
WINNOW_MIN_SHARED = 2   # pairs must share this many fingerprints


def winnow_select_batch(texts: list[str], k: int = WINNOW_K,
                        w: int = WINNOW_W) \
        -> tuple[np.ndarray, np.ndarray]:
    """(row_idx, fingerprints): the distinct winnow-selected k-gram
    rolling hashes per input row. Grams = FNV word hashes combined by
    the FNV_BASE polynomial (doc_fingerprint's chain); selection = per
    sliding window of ``w`` gram positions, the leftmost minimum; docs
    with 1..w-1 grams select their single leftmost-minimum gram; docs
    under k words select nothing."""
    n = len(texts)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    all_words: list[str] = []
    counts = np.empty(n, np.int64)
    for i, t in enumerate(texts):
        ws = (t or "").split(" ")
        all_words.extend(ws)
        counts[i] = len(ws)
    h = fnv1a_hashes(all_words)
    row_of = np.repeat(np.arange(n), counts)
    m = len(h) - k + 1
    if m <= 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    with np.errstate(over="ignore"):
        roll = h[:m].copy()
        for j in range(1, k):
            roll = roll * FNV_BASE + h[j:m + j]
    gvalid = row_of[:m] == row_of[k - 1:]
    groll = roll[gvalid]
    grows = row_of[:m][gvalid]
    sel_parts = []
    nw = len(groll) - w + 1
    if nw > 0:
        sw = np.lib.stride_tricks.sliding_window_view(groll, w)
        arg = sw.argmin(axis=1)         # leftmost min per window
        tvalid = grows[:nw] == grows[w - 1:]
        sel_parts.append((np.arange(nw) + arg)[tvalid])
    cnts = np.bincount(grows, minlength=n)
    short = (cnts >= 1) & (cnts < w)
    if short.any():
        starts = np.concatenate([[0], np.cumsum(cnts)[:-1]])
        docmin = np.zeros(n, np.uint64)
        ne = cnts > 0
        docmin[ne] = np.minimum.reduceat(groll, starts[ne])
        mask = short[grows] & (groll == docmin[grows])
        idx = np.flatnonzero(mask)
        _, firsts = np.unique(grows[idx], return_index=True)
        sel_parts.append(idx[firsts])
    if not sel_parts:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    sel = np.unique(np.concatenate(sel_parts))
    # distinct (row, fingerprint) — same VALUE may be selected at
    # several positions
    key = np.stack([grows[sel].astype(np.uint64), groll[sel]], axis=1)
    uniq = np.unique(key, axis=0)
    return uniq[:, 0].astype(np.int64), uniq[:, 1]


def _winnow_rows_batch(batch: pa.Table) -> pa.Table:
    doc_ids = batch.column("doc_id").to_numpy()
    rows, fps = winnow_select_batch(batch.column("text").to_pylist())
    return pa.table({
        "fp": pa.array(fps, pa.uint64()),
        "doc_id": pa.array(doc_ids[rows], pa.int64()),
        "bucket": pa.array(hash_bucket([fps]), pa.int32()),
    })


_WINNOW_PART_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()), ("n", pa.int64()),
    ("bucket", pa.int32()),
])


def _winnow_pairs_bucket(df_cap: int):
    def pairs(group: pa.Table) -> pa.Table:
        """One fingerprint-hash bucket: global df per fingerprint is
        in-bucket knowledge; drop fingerprints above df_cap, emit
        within-fingerprint doc pairs, pre-combined per pair."""
        if group.num_rows < 2:
            return _WINNOW_PART_SCHEMA.empty_table()
        fp = group.column("fp").to_numpy()
        did = group.column("doc_id").to_numpy()
        order = np.lexsort((did, fp))
        fp, did = fp[order], did[order]
        if df_cap is not None:
            seg = np.ones(len(fp), bool)
            seg[1:] = fp[1:] != fp[:-1]
            sid = np.cumsum(seg) - 1
            sizes = np.bincount(sid)
            keep = sizes[sid] <= df_cap
            fp, did = fp[keep], did[keep]
        ia, ib = segment_pair_indices([fp])
        if len(ia) == 0:
            return _WINNOW_PART_SCHEMA.empty_table()
        t = pa.table({
            "doc_a": pa.array(did[ia], pa.int64()),
            "doc_b": pa.array(did[ib], pa.int64()),
            "n": pa.array(np.ones(len(ia), np.int64)),
        })
        g = t.group_by(["doc_a", "doc_b"]).aggregate([("n", "sum")])
        g = g.rename_columns(["doc_a", "doc_b", "n"])
        return g.append_column("bucket", pa.array(hash_bucket(
            [g.column("doc_a").to_numpy().astype(np.uint64),
             g.column("doc_b").to_numpy().astype(np.uint64)]),
            pa.int32()))
    return pairs


def _winnow_final_bucket(min_shared: int):
    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["doc_a", "doc_b"]).aggregate([("n", "sum")])
        g = g.rename_columns(["doc_a", "doc_b", "n_shared"])
        return g.filter(pc.greater_equal(
            g.column("n_shared"), pa.scalar(min_shared, pa.int64())))
    return final


def winnow_pairs(sf_dir: str, df_cap: int = DF_CAP_DEFAULT,
                 min_shared: int = WINNOW_MIN_SHARED):
    """(doc_a, doc_b, n_shared): document pairs sharing >=
    ``min_shared`` winnow-selected fingerprints. Exact under df_cap
    (fingerprints in more than df_cap docs leave candidate generation
    — and leave it identically in the SQL twin)."""
    ds = _read_documents(sf_dir)
    rows = ds.map_batches(_winnow_rows_batch, batch_format="pyarrow")
    pairs = bucket_groupby(rows, _winnow_pairs_bucket(df_cap))
    return bucket_groupby(pairs, _winnow_final_bucket(min_shared))
