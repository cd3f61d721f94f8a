"""Sketch-accelerated EXACT heavy hitters — no shuffle at all.

``vocab_top_words`` (ops/text.py) is the one-scan + one-exchange shape:
word partials cross the wire. At 100 TB with a heavy-tailed vocabulary
the winning shape is usually TWO shuffle-free scans instead:

1. **Candidate pass** — every block computes its exact word counts
   (one vectorized Arrow ``group_by``) and keeps only its local top
   ``cand_k`` rows plus the block's kept-minimum count. A word absent
   from a block's kept set has count <= that block's kept-min there
   (Misra-Gries/SpaceSaving-style mergeable bound), so any word absent
   from EVERY kept set has global count <= T = sum of kept-mins. The
   driver state is #blocks x cand_k partial rows (tree-merge them for
   very large clusters), never the vocabulary.
2. **Verify pass** — exact counts for the candidate set only (a
   vectorized ``is_in`` filter + ``group_by`` per block; candidate
   partials to the driver). If the exact k-th count is > T the top-k
   is PROVEN exact (no unseen word can reach it, and ties are decided
   on exact counts); otherwise fall back to the exchange-based
   ``vocab_top_words`` — the operator is exact in every case, the
   sketch only changes the plan.

SQL-checked against the same DuckDB oracle as ``vocab_top_words``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

CAND_K = 512


def _read_documents(sf_dir: str):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["text"])


def _block_counts(batch: pa.Table) -> pa.Table:
    import pyarrow.compute as pc
    flat = pc.list_flatten(pc.split_pattern(
        pc.fill_null(batch.column("text"), ""), " "))
    t = pa.table({"word": flat,
                  "n": pa.array(np.ones(len(flat), np.int64))})
    g = t.group_by(["word"]).aggregate([("n", "sum")])
    return g.rename_columns(["word", "n"])


def top_words_sketch(sf_dir: str, k: int = 50, cand_k: int = CAND_K):
    """Exact top-``k`` words by corpus frequency (ties by word
    ascending), computed with zero exchanges via the two-pass
    candidate/verify plan above. Returns a pyarrow Table
    (word, n) — identical values to ``vocab_top_words``."""
    def candidates(batch: pa.Table) -> pa.Table:
        g = _block_counts(batch)
        n = g.column("n").to_numpy()
        w = g.column("word").to_pylist()
        order = sorted(range(len(w)), key=lambda i: (-n[i], w[i]))
        kept = order[:cand_k]
        # kept-min bound: 0 when the whole block vocabulary was kept;
        # carried on the block's FIRST row only (the driver needs just
        # the sum over blocks)
        bound = int(n[kept[-1]]) if len(order) > cand_k else 0
        out = g.take(pa.array(kept, pa.int64()))
        bcol = np.zeros(out.num_rows, np.int64)
        if out.num_rows:
            bcol[0] = bound
        return out.append_column("bound", pa.array(bcol))

    def merge_candidates(batch: pa.Table) -> pa.Table:
        """ONE merge task: distinct candidate words + the bound total
        T (carried on every row) — the driver receives a result, it
        never folds block partials in a loop."""
        import pyarrow.compute as pc
        T = int(batch.column("bound").to_numpy().sum())
        w = pc.unique(batch.column("word").combine_chunks()).sort()
        return pa.table({
            "word": w,
            "T": pa.array(np.full(len(w), T, np.int64))})

    cand_tbl = pa.concat_tables(
        _read_documents(sf_dir)
        .map_batches(candidates, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(merge_candidates, batch_format="pyarrow",
                     batch_size=None)
        .iter_batches(batch_format="pyarrow"))
    if cand_tbl.num_rows == 0:
        return pa.table({"word": pa.array([], pa.string()),
                         "n": pa.array([], pa.int64())})
    T = int(cand_tbl.column("T")[0].as_py())
    cand_set = cand_tbl.column("word").combine_chunks()

    def verify(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        g = _block_counts(batch)
        return g.filter(pc.is_in(g.column("word"), value_set=cand_set))

    def merge_exact(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["word"]).aggregate([("n", "sum")])
        return g.rename_columns(["word", "n"])

    exact_tbl = pa.concat_tables(
        _read_documents(sf_dir)
        .map_batches(verify, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(merge_exact, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow"))
    ns = exact_tbl.column("n").to_numpy()
    ws = exact_tbl.column("word").to_pylist()
    order = sorted(range(len(ws)), key=lambda i: (-ns[i], ws[i]))[:k]
    top = [(ws[i], int(ns[i])) for i in order]
    if len(top) < k or (top and top[-1][1] <= T):
        # the proof failed (flat distribution or candidate budget too
        # small): fall back to the exchange-based exact plan
        from .text import vocab_top_words
        ds = vocab_top_words(sf_dir, k)
        tbl = pa.concat_tables(
            [b for b in ds.iter_batches(batch_format="pyarrow")])
        return tbl
    return pa.table({
        "word": pa.array([w for w, _ in top], pa.string()),
        "n": pa.array([c for _, c in top], pa.int64()),
    })


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch (mergeable; registers are the
# contract, so the result is exactly checkable despite being a sketch)
# ---------------------------------------------------------------------------

HLL_P = 12                      # 2^12 = 4096 registers
_W_BITS = 64 - HLL_P            # rank window width


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized integer bit_length for uint64 (0 -> 0): six binary-
    search shift passes, no floats (log2 would misround near powers of
    two for 52-bit values)."""
    x = x.copy()
    r = np.zeros(len(x), np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = x >= (np.uint64(1) << np.uint64(s))
        r[m] += s
        x[m] >>= np.uint64(s)
    return r + (x == 1)


def hll_partial(ids: np.ndarray) -> pa.Table:
    """One block's HLL register partial over int64 ids: splitmix64 hash
    -> top HLL_P bits pick the register, the rank is the leading-zero
    count (+1) of the remaining window. Output <= 4096 (register,
    max_rank) rows regardless of block size — the mergeable property
    that makes distinct-count a shuffle-free one-scan at any scale."""
    from .bucketing import mix64
    h = mix64([ids.astype(np.int64)])
    reg = (h >> np.uint64(_W_BITS)).astype(np.int64)
    w = h & np.uint64((1 << _W_BITS) - 1)
    rank = _W_BITS + 1 - _bit_length_u64(w)
    t = pa.table({"register": pa.array(reg, pa.int64()),
                  "max_rank": pa.array(rank, pa.int64())})
    g = t.group_by(["register"]).aggregate([("max_rank", "max")])
    return g.rename_columns(["register", "max_rank"])


def hll_user_registers(sf_dir: str):
    """HLL registers for distinct ``events.user_id``: per-block partials
    (bounded 4096 rows each) merged through the
    register_reduce tree (cluster-width intermediate level, then one
    tiny final task) — no exchange of row data at all; only register
    partials move, and the final task sees ~#CPUs blocks regardless of
    scan width.
    The register table (not the float estimate) is the query contract:
    it is deterministic integer data, hash-checkable against a DuckDB
    oracle reproducing splitmix64 + bit_length in SQL."""
    import ray.data

    def partial(batch: pa.Table) -> pa.Table:
        return hll_partial(
            batch.column("user_id").to_numpy(zero_copy_only=False))

    def merge(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["register"]).aggregate([("max_rank", "max")])
        g = g.rename_columns(["register", "max_rank"])
        return g.sort_by("register")

    from .bucketing import register_reduce
    return register_reduce(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["user_id"])
        .map_batches(partial, batch_format="pyarrow",
                     batch_size=None), merge)


def hll_estimate(registers: pa.Table, p: int = HLL_P) -> float:
    """Standard HLL estimate (with the small-range linear-counting
    correction) from a register table as returned by
    ``hll_user_registers``. Kept separate from the query contract so
    the checkable artifact stays integer-exact."""
    m = 1 << p
    ranks = np.zeros(m, np.int64)
    idx = registers.column("register").to_numpy()
    ranks[idx] = registers.column("max_rank").to_numpy()
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -ranks.astype(np.float64)))
    zeros = int(np.sum(ranks == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


# ---------------------------------------------------------------------------
# KMV (k-minimum-values) distinct sketch
# ---------------------------------------------------------------------------
#
# The order-statistics sibling of HLL (Bar-Yossef et al. 2002): keep
# the K smallest splitmix64 hash values over distinct user_ids; the
# K-th smallest estimates the distinct count as (K-1)/kth_normalized.
# Like the HLL registers, the SKETCH STATE is the query contract — a
# deterministic integer table with an exact DuckDB twin — while the
# float estimate stays a separate helper. Partials are mergeable
# (concat -> dedup -> K smallest), so per-block prunes to K rows and
# only K x #blocks rows ever reach the single merge task.

KMV_K = 64


def kmv_user_values(sf_dir: str, k: int = KMV_K):
    """The K smallest splitmix64(user_id) values over distinct
    ``events.user_id``, reported as h >> 1 (BIGINT-safe; selection
    uses the full 64-bit value on both sides). One column ``h``."""
    import ray.data

    from .bucketing import mix64

    def partial(batch: pa.Table) -> pa.Table:
        ids = np.unique(batch.column("user_id")
                        .to_numpy(zero_copy_only=False))
        h = mix64([ids.astype(np.uint64)])
        if len(h) > k:
            keep = np.argpartition(h, k - 1)[:k]
            ids, h = ids[keep], h[keep]
        return pa.table({"user_id": pa.array(ids.astype(np.int64)),
                         "h": pa.array(h, pa.uint64())})

    def merge(batch: pa.Table) -> pa.Table:
        ids = batch.column("user_id").to_numpy(zero_copy_only=False)
        h = batch.column("h").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        # dedup by user (cross-block repeats carry identical h); a
        # genuine h collision between two users keeps both rows,
        # matching the SQL twin's DISTINCT user_id semantics
        _, first = np.unique(ids, return_index=True)
        h = h[first]
        h = np.sort(h)[:k]
        return pa.table({"h": pa.array((h >> np.uint64(1))
                                       .astype(np.int64), pa.int64())})

    # single-level merge on purpose: the final task's input is already
    # bounded at k rows PER BLOCK, and the merge fn is not closed over
    # its own output (it drops user_id), so register_reduce's tree
    # does not apply
    return ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                 columns=["user_id"]) \
        .map_batches(partial, batch_format="pyarrow", batch_size=None) \
        .repartition(1) \
        .map_batches(merge, batch_format="pyarrow", batch_size=None)


def kmv_estimate(values: pa.Table, k: int = KMV_K) -> float:
    """Distinct-count estimate from the KMV state: if fewer than k
    values exist the count is exact (= #values); else (k-1) scaled by
    the k-th smallest normalized hash."""
    h = np.sort(values.column("h").to_numpy(zero_copy_only=False)
                .astype(np.uint64))
    if len(h) < k:
        return float(len(h))
    kth = float(h[k - 1] << np.uint64(1)) / float(1 << 64)
    return (k - 1) / kth


def kmv_type_overlap(sf_dir: str, k: int = KMV_K):
    """Pairwise distinct-user overlap between event types, computed
    entirely from mergeable KMV registers — the sketch SET ALGEBRA a
    100 TB pipeline uses to estimate audience overlap without ever
    shuffling user sets.

    Per type, the register is the k smallest splitmix64(user_id)
    values over distinct users. The bottom-k of a UNION is derivable
    from the two registers alone (bottomk(A ∪ B) =
    bottomk(bottomk(A) ∪ bottomk(B))), and any union-bottom-k member
    that belongs to A necessarily sits in bottomk(A) (it is ≤ the
    union's k-th smallest ≤ A's k-th smallest) — so the intersection
    indicator inside the union register is exact too. Output per type
    pair (type_a < type_b): ``n_union_k`` (union register size, ≤ k),
    ``n_inter`` (register members present in BOTH types), and the
    integer estimator ``jaccard_ppm = 1e6 * n_inter // n_union_k``.

    Dataflow: one streaming pass emits per-(block, type) bottom-k
    partials (≤ k·|types| rows per block — register-sized, never user
    rows), one single-block merge rebuilds the per-type registers and
    evaluates all pairs. The per-type loops run over the type
    VOCABULARY, not rows. Deterministic and integer-exact vs the
    DuckDB twin, which recomputes the same registers from the raw
    table."""
    import ray.data

    from .bucketing import mix64

    def partial(batch: pa.Table) -> pa.Table:
        # drop null users: to_numpy would turn them into NaN, which
        # hashes to an arbitrary register value (the twin drops them too)
        g = batch.select(["event_type", "user_id"]) \
            .filter(pc.is_valid(batch.column("user_id"))) \
            .group_by(["event_type", "user_id"]).aggregate([])
        types = g.column("event_type").to_numpy(zero_copy_only=False)
        ids = g.column("user_id").to_numpy(zero_copy_only=False)
        h = mix64([ids.astype(np.uint64)])
        out_t: list[np.ndarray] = []
        out_h: list[np.ndarray] = []
        for ty in np.unique(types):
            hh = np.unique(h[types == ty])[:k]   # unique() sorts
            out_t.append(np.full(len(hh), ty, dtype=object))
            out_h.append(hh)
        if not out_t:
            return pa.table({"t": pa.array([], pa.string()),
                             "h": pa.array([], pa.uint64())})
        return pa.table({
            "t": pa.array(np.concatenate(out_t), pa.string()),
            "h": pa.array(np.concatenate(out_h), pa.uint64()),
        })

    def merge(batch: pa.Table) -> pa.Table:
        types = batch.column("t").to_numpy(zero_copy_only=False)
        h = batch.column("h").to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        regs = {ty: np.unique(h[types == ty])[:k]
                for ty in np.unique(types)}
        tys = sorted(regs)
        rows: dict[str, list] = {"type_a": [], "type_b": [],
                                 "n_union_k": [], "n_inter": [],
                                 "jaccard_ppm": []}
        for i in range(len(tys)):
            for j in range(i + 1, len(tys)):
                a, b = regs[tys[i]], regs[tys[j]]
                uni = np.unique(np.concatenate([a, b]))[:k]
                ni = int((np.isin(uni, a) & np.isin(uni, b)).sum())
                nu = len(uni)
                rows["type_a"].append(tys[i])
                rows["type_b"].append(tys[j])
                rows["n_union_k"].append(nu)
                rows["n_inter"].append(ni)
                rows["jaccard_ppm"].append(1_000_000 * ni // nu)
        return pa.table({
            "type_a": pa.array(rows["type_a"], pa.string()),
            "type_b": pa.array(rows["type_b"], pa.string()),
            "n_union_k": pa.array(rows["n_union_k"], pa.int64()),
            "n_inter": pa.array(rows["n_inter"], pa.int64()),
            "jaccard_ppm": pa.array(rows["jaccard_ppm"], pa.int64()),
        })

    return ray.data.read_parquet(f"{sf_dir}/events.parquet",
                                 columns=["event_type", "user_id"]) \
        .map_batches(partial, batch_format="pyarrow", batch_size=None) \
        .repartition(1) \
        .map_batches(merge, batch_format="pyarrow", batch_size=None)


# ---------------------------------------------------------------------------
# Grouped HLL: one register table PER KEY (distinct users per
# event_type) — the sketch-per-group shape every audience/reach
# dashboard needs at scale. Per-block partials stay bounded at
# n_groups x 4096 rows; merging is the same max-reduce, keyed by
# (event_type, register). One tiny exchange of register partials
# only — the event rows themselves never shuffle.
# ---------------------------------------------------------------------------


def hll_users_by_type(sf_dir: str):
    """(event_type, register, max_rank) HLL state for distinct
    ``user_id`` per ``event_type``. Integer-exact register contract
    (same DuckDB splitmix64 twin as hll_distinct_users, grouped);
    estimates derive per group via ``hll_estimate``."""
    import ray.data

    def partial(batch: pa.Table) -> pa.Table:
        from .bucketing import mix64
        ids = batch.column("user_id").to_numpy(zero_copy_only=False)
        h = mix64([ids.astype(np.int64)])
        reg = (h >> np.uint64(_W_BITS)).astype(np.int64)
        w = h & np.uint64((1 << _W_BITS) - 1)
        rank = _W_BITS + 1 - _bit_length_u64(w)
        t = pa.table({"event_type": batch.column("event_type"),
                      "register": pa.array(reg, pa.int64()),
                      "max_rank": pa.array(rank, pa.int64())})
        g = t.group_by(["event_type", "register"]).aggregate(
            [("max_rank", "max")])
        return g.rename_columns(["event_type", "register", "max_rank"])

    def merge(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type", "register"]).aggregate(
            [("max_rank", "max")])
        g = g.rename_columns(["event_type", "register", "max_rank"])
        return g.sort_by([("event_type", "ascending"),
                          ("register", "ascending")])

    from .bucketing import register_reduce
    return register_reduce(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["event_type", "user_id"])
        .map_batches(partial, batch_format="pyarrow",
                     batch_size=None), merge)


# ---------------------------------------------------------------------------
# Count-Min sketch registers (frequency estimation)
# ---------------------------------------------------------------------------
#
# The mergeable frequency sibling of the HLL/KMV distinct sketches
# (Cormode & Muthukrishnan 2005): d hash rows x w counters; the
# estimate for a key is min over rows of its cell. As with HLL, the
# REGISTER TABLE is the query contract — deterministic integer cells,
# exact under any reduction order (integer sums), with a DuckDB twin
# recomputing every cell. Row hashes use Kirsch-Mitzenmacher double
# hashing (col_r = (h1 + r*h2) mod 2^64 mod w with h1 = mix64(key),
# h2 = mix64(h1) | 1) — the same chain the bloom-register twin
# already reproduces in SQL. Per-block partials are bounded at d x w
# cells regardless of block size; only register mass moves.

CMS_D = 4
CMS_W = 1024


def countmin_partial(ids: np.ndarray, d: int = CMS_D,
                     w: int = CMS_W) -> pa.Table:
    """One block's CMS cell counts over int64 keys (one increment per
    OCCURRENCE, not per distinct key): vectorized double-hash column
    placement + one bincount over the flattened d x w grid."""
    from .bucketing import mix64
    h1 = mix64([ids.astype(np.int64)])
    h2 = mix64([h1]) | np.uint64(1)
    flat = np.zeros(0, dtype=np.int64)
    parts = []
    with np.errstate(over="ignore"):
        for r in range(d):
            col = ((h1 + np.uint64(r) * h2) % np.uint64(w)).astype(
                np.int64)
            parts.append(r * w + col)
    flat = np.concatenate(parts) if parts else flat
    counts = np.bincount(flat, minlength=d * w)
    nz = np.nonzero(counts)[0]
    return pa.table({
        "row": pa.array(nz // w, pa.int64()),
        "col": pa.array(nz % w, pa.int64()),
        "n": pa.array(counts[nz], pa.int64()),
    })


def countmin_user_registers(sf_dir: str, d: int = CMS_D,
                            w: int = CMS_W):
    """CMS registers over ``events.user_id`` occurrences: bounded
    per-block partials through the register_reduce tree — no exchange
    of row data, ever."""
    import ray.data

    def partial(batch: pa.Table) -> pa.Table:
        return countmin_partial(
            batch.column("user_id").to_numpy(zero_copy_only=False),
            d, w)

    def merge(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["row", "col"]).aggregate([("n", "sum")])
        g = g.rename_columns(["row", "col", "n"])
        return g.sort_by([("row", "ascending"), ("col", "ascending")])

    from .bucketing import register_reduce
    return register_reduce(
        ray.data.read_parquet(f"{sf_dir}/events.parquet",
                              columns=["user_id"])
        .map_batches(partial, batch_format="pyarrow",
                     batch_size=None), merge)


def countmin_estimate(registers: pa.Table, key: int, d: int = CMS_D,
                      w: int = CMS_W) -> int:
    """Point frequency estimate (min over rows) from a register table —
    the float-free helper kept separate from the integer contract."""
    from .bucketing import mix64
    h1 = mix64([np.array([key], np.int64)])
    h2 = mix64([h1]) | np.uint64(1)
    grid = np.zeros((d, w), np.int64)
    grid[registers.column("row").to_numpy(),
         registers.column("col").to_numpy()] = \
        registers.column("n").to_numpy()
    with np.errstate(over="ignore"):
        cols = [int((h1[0] + np.uint64(r) * h2[0]) % np.uint64(w))
                for r in range(d)]
    return int(min(grid[r, c] for r, c in zip(range(d), cols)))
