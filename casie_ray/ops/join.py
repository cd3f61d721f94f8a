"""General distributed equi-join: large x large, no broadcast side.

Ray Data has no native join operator; the engine's other joins either
broadcast a small dimension (``relational.segment_revenue``) or are
specialized interval probes (as-of / range join). This module is the
general case — both sides arbitrarily large — on the engine's one
two-sided exchange, ``bucketing.bucket_join`` (SURVEY §2 "custom
operators"; the reference's cursor-style joins are `code/link_coref.py`
file-at-a-time loops, re-architected here for a cluster):

    declare each side's columns
      -> bucket both sides by the key's hash, side tagged explicitly
      -> ONE bucketed sort exchange
      -> per bucket group: vectorized ``pa.Table.join`` (+ ``bucket_fn``)

Equal keys land in the same bucket group, so each per-bucket hash join
is exact; each row crosses the wire exactly once (the minimum any
repartition join moves), and no driver-side build or whole-side
broadcast ever happens. A key-grouped aggregate fused into the bucket
kernel (``bucket_fn``) is final, since the group holds every row of
its keys.

Skew: a hot join key enlarges one bucket's vectorized Arrow join, never
a Python loop; if one bucket group outgrows a task heap the fix is the
same salting escape hatch the as-of join documents (split the PROBE
side by a salt column, replicate only the matching build rows).

Within-group output order follows Arrow's hash join and is not
globally deterministic; callers needing a total order sort the (much
smaller) result, as ``order_lineitem_totals`` does per bucket group.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bucketing import bucket_join, fnv1a_hashes, mix64

# ---------------------------------------------------------------------------
# Bloom-filter join pruning (the classic "bloom join"): one scan over
# the build side's KEYS produces a fixed-size bit array (default 2^22
# bits = 512 KB regardless of input size — per-block partials are the
# same fixed size and OR together, so only O(m_bits) bytes ever move),
# broadcast via ray.put, and the probe side drops non-member rows
# BEFORE the join's exchange. For a selective join this cuts the
# all-to-all volume by the non-match fraction at the cost of one extra
# build-side scan; false positives only pass extra rows through to the
# exact per-bucket join, so results are identical with or without it.
# ---------------------------------------------------------------------------

BLOOM_BITS = 1 << 22
BLOOM_K = 4


def _bloom_positions(keys: pa.ChunkedArray, m_bits: int, k: int):
    """Double-hashed bit positions for each key: pos_i = h1 + i*h2
    (mod m). Yields k arrays of uint64 positions, fully vectorized."""
    h1 = mix64([_key_hashes(keys)])
    h2 = mix64([h1]) | np.uint64(1)
    with np.errstate(over="ignore"):
        for i in range(k):
            yield (h1 + np.uint64(i) * h2) % np.uint64(m_bits)


def build_bloom(ds, key: str, *, m_bits: int = BLOOM_BITS,
                k: int = BLOOM_K,
                key_type: pa.DataType | None = None) -> np.ndarray:
    """Bloom filter over ``ds[key]`` as a packed uint64 word array.

    Per-block partials are fixed-size (``m_bits/64`` words) tables that
    OR together in one tiny merge task — the same mergeable-sketch
    shape as ``ops.sketch.hll_user_registers``; at 100 TB the merge
    input is #blocks x 512 KB of partials, never row data. FPR at k=4
    is ~(1-e^(-4n/m))^4 — under 1e-3 up to ~n = m/8 keys; size m_bits
    up when the build side's key count approaches that.

    ``key_type``: when build and probe key columns differ in (castable)
    type, BOTH sides must hash the same harmonized type or the filter
    silently drops matches — ``hash_join`` passes its join key type
    here and casts the probe column before ``bloom_may_contain``."""
    import ray.data

    n_words = m_bits >> 6

    def partial(batch: pa.Table) -> pa.Table:
        col = batch.column(key)
        if key_type is not None:
            col = col.cast(key_type)
        words = np.zeros(n_words, np.uint64)
        for pos in _bloom_positions(col, m_bits, k):
            np.bitwise_or.at(words, (pos >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (pos & np.uint64(63)))
        # sparse partial: only nonzero words leave the task, so a
        # small block ships O(k x rows) words, never the full array
        nz = np.flatnonzero(words)
        return pa.table({"i": pa.array(nz, pa.int64()),
                         "w": pa.array(words[nz], pa.uint64())})

    def merge(b: pa.Table) -> pa.Table:
        words = np.zeros(n_words, np.uint64)
        np.bitwise_or.at(words, b.column("i").to_numpy(),
                         b.column("w").to_numpy())
        nz = np.flatnonzero(words)
        return pa.table({"i": pa.array(nz, pa.int64()),
                         "w": pa.array(words[nz], pa.uint64())})

    # partials OR together in ONE merge task (hll_user_registers
    # shape); the driver scatters the merged sparse words once
    merged_tbl = pa.concat_tables(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .repartition(1)
        .map_batches(merge, batch_format="pyarrow", batch_size=None)
        .iter_batches(batch_format="pyarrow"))
    merged = np.zeros(n_words, np.uint64)
    merged[merged_tbl.column("i").to_numpy()] = \
        merged_tbl.column("w").to_numpy()
    return merged


def bloom_may_contain(words: np.ndarray, keys: pa.ChunkedArray,
                      *, k: int = BLOOM_K) -> np.ndarray:
    """Vectorized membership mask (true = possibly present; never a
    false negative) against a ``build_bloom`` word array."""
    m_bits = len(words) << 6
    mask = np.ones(len(keys), bool)
    for pos in _bloom_positions(keys, m_bits, k):
        bit = (words[(pos >> np.uint64(6)).astype(np.int64)]
               >> (pos & np.uint64(63))) & np.uint64(1)
        mask &= bit.astype(bool)
    return mask


def _key_hashes(col: pa.ChunkedArray) -> np.ndarray:
    # Null keys hash as ''/0, so a null probe key only costs one bloom
    # lookup; the exact join never matches it.
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return fnv1a_hashes(pc.fill_null(col, ""))
    return pc.fill_null(col.cast(pa.int64()), 0) \
        .to_numpy(zero_copy_only=False).astype(np.int64)


def _retyped(schema: pa.Schema, name: str, typ: pa.DataType) -> pa.Schema:
    return schema.set(schema.get_field_index(name), pa.field(name, typ))


def hash_join(left_ds, right_ds, on: str, right_on: str | None = None,
              *, left_schema: pa.Schema, right_schema: pa.Schema,
              how: str = "inner", bucket_fn=None,
              bloom_prune: str | None = None):
    """Distributed equi-join of two Datasets on one key column: one
    :func:`~casie_ray.ops.bucketing.bucket_join` exchange, then a
    vectorized ``pa.Table.join`` per bucket group.

    ``on`` names the left key; ``right_on`` the right key (defaults to
    ``on``). ``left_schema`` / ``right_schema`` declare each side's
    columns (other input columns are dropped); payload column names must
    be disjoint across sides (rename upstream — cheap inside the same
    ``map_batches`` that prunes columns). Both keys are cast to the
    left key's type, an integer key to int64. ``how``: any
    ``pa.Table.join`` type, usually "inner" or "left outer". Returns the
    left columns, then the right payload columns.

    ``bucket_fn``: optional vectorized Arrow kernel fused into the
    per-bucket join task (joined group table -> table). Because a
    bucket group holds EVERY row of its keys, a key-grouped aggregate
    here is already final — fusing it avoids materializing wide join
    output into the object store and needs no second exchange.

    ``bloom_prune="right"`` builds a bloom filter over the LEFT keys
    (one extra left scan; O(512 KB) moved) and drops right rows whose
    key cannot match before the exchange — use when the join is
    selective and the right side is the big one. Results are exactly
    identical either way: bloom false positives just ride through to
    the exact per-bucket join. When one side is small enough to
    broadcast outright, a broadcast join (``relational.segment_revenue``
    pattern) beats bloom + exchange; this path is for selective
    LARGE x LARGE."""
    import ray

    right_on = right_on or on
    if bloom_prune not in (None, "right"):
        raise ValueError("bloom_prune must be None or 'right'")
    dup = (set(left_schema.names) - {on}) \
        & (set(right_schema.names) - {right_on})
    if dup:
        raise ValueError(f"colliding payload columns: {sorted(dup)}")
    key_type = left_schema.field(on).type
    if pa.types.is_integer(key_type):
        key_type = pa.int64()

    if bloom_prune == "right":
        bloom_ref = ray.put(build_bloom(left_ds, on, key_type=key_type))

        def pruned(b: pa.Table) -> pa.Table:
            # the probe hashes the SAME type the bloom was built with:
            # string-vs-int key pairs would otherwise take different
            # hash paths and the filter would drop every match
            col = b.column(right_on).cast(key_type)
            return b.filter(pa.array(
                bloom_may_contain(ray.get(bloom_ref), col)))

        right_ds = right_ds.map_batches(pruned, batch_format="pyarrow",
                                        batch_size=None)

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        j = lt.join(rt, keys=on, right_keys=right_on, join_type=how)
        return j if bucket_fn is None else bucket_fn(j)

    return bucket_join(left_ds, right_ds, kernel, on=on, right_on=right_on,
                       left_schema=_retyped(left_schema, on, key_type),
                       right_schema=_retyped(right_schema, right_on,
                                             key_type))


# ---------------------------------------------------------------------------
# Showcase query: per-order item totals = orders |><| lineitem, both
# sides large (no broadcast), then a grouped aggregate that REUSES the
# join's bucket partitioning (zero extra exchanges after the join's one).
# ---------------------------------------------------------------------------


def _order_totals_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["o_orderkey", "o_orderpriority"]).aggregate(
        [("l_quantity", "sum"), ("cents", "sum"), ("o_orderkey", "count")])
    g = g.rename_columns(["o_orderkey", "o_orderpriority",
                          "sum_qty", "revenue_cents", "n_items"])
    return g.sort_by("o_orderkey").select(
        ["o_orderkey", "o_orderpriority", "n_items", "sum_qty",
         "revenue_cents"])


def order_lineitem_totals(sf_dir: str):
    """Per-order line totals via the general hash join: orders (15k x
    sf rows) inner-join lineitem (60k x sf rows) on orderkey — neither
    side broadcast — then count/sum per order. The aggregate runs as a
    whole-block Arrow ``group_by`` per joined bucket group: the join
    output is already exactly co-partitioned on the key, so every
    order's rows sit in one group and the aggregate is final with NO
    additional exchange."""
    from .relational import _cents, _read

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def li_prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "l_quantity": b.column("l_quantity").cast(pa.int64()),
            "cents": _cents(b.column("l_extendedprice")),
        })

    lineitem = _read(sf_dir, "lineitem",
                     ["l_orderkey", "l_quantity", "l_extendedprice"]) \
        .map_batches(li_prep, batch_format="pyarrow", batch_size=None)
    return hash_join(
        orders, lineitem, on="o_orderkey", right_on="l_orderkey",
        left_schema=pa.schema([("o_orderkey", pa.int64()),
                               ("o_orderpriority", pa.string())]),
        right_schema=pa.schema([("l_orderkey", pa.int64()),
                                ("l_quantity", pa.int64()),
                                ("cents", pa.int64())]),
        bucket_fn=_order_totals_bucket)


# ---------------------------------------------------------------------------
# Showcase query: bloom-pruned selective join — BUILDING-segment
# customers (one of five segments) x the events stream. The bloom
# filter over the filtered customers' keys drops ~4/5 of the events
# BEFORE the exchange; the fused per-bucket aggregate means the wide
# join output never hits the object store either.
# ---------------------------------------------------------------------------


def _cust_event_bucket(group: pa.Table) -> pa.Table:
    g = group.group_by(["c_custkey", "c_name"]).aggregate(
        [("value_cents", "sum"), ("c_custkey", "count")])
    g = g.rename_columns(["c_custkey", "c_name", "value_cents",
                          "n_events"])
    return g.sort_by("c_custkey").select(
        ["c_custkey", "c_name", "n_events", "value_cents"])


def customer_event_values(sf_dir: str, segment: str = "BUILDING"):
    """Per-customer event totals for one market segment via the
    bloom-pruned general join (events side never broadcast, non-member
    events dropped pre-exchange)."""
    from .relational import _cents, _read

    def cust_prep(b: pa.Table) -> pa.Table:
        keep = pc.equal(b.column("c_mktsegment"), segment)
        return b.filter(keep).select(["c_custkey", "c_name"])

    customers = _read(sf_dir, "customer",
                      ["c_custkey", "c_name", "c_mktsegment"]) \
        .map_batches(cust_prep, batch_format="pyarrow", batch_size=None)

    def ev_prep(b: pa.Table) -> pa.Table:
        return pa.table({"user_id": b.column("user_id"),
                         "value_cents": _cents(b.column("value"))})

    events = _read(sf_dir, "events", ["user_id", "value"]) \
        .map_batches(ev_prep, batch_format="pyarrow", batch_size=None)
    return hash_join(
        customers, events, on="c_custkey", right_on="user_id",
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("c_name", pa.string())]),
        right_schema=pa.schema([("user_id", pa.int64()),
                                ("value_cents", pa.int64())]),
        bloom_prune="right", bucket_fn=_cust_event_bucket)


CUSTOMER_EVENT_SQL = """
    SELECT c.c_custkey, c.c_name,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(sum(CAST(round(e.value * 100) AS BIGINT)) AS BIGINT)
               AS value_cents
    FROM customer c JOIN events e ON e.user_id = c.c_custkey
    WHERE c.c_mktsegment = 'BUILDING'
    GROUP BY c.c_custkey, c.c_name
"""


ORDER_LINEITEM_SQL = """
    SELECT o.o_orderkey, o.o_orderpriority,
           CAST(count(*) AS BIGINT) AS n_items,
           CAST(sum(CAST(l.l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(sum(CAST(round(l.l_extendedprice * 100) AS BIGINT))
                AS BIGINT) AS revenue_cents
    FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey
    GROUP BY o.o_orderkey, o.o_orderpriority
"""


def bloom_segment_registers(sf_dir: str, segment: str = "BUILDING",
                            m_bits: int = 1 << 16,
                            k: int = BLOOM_K) -> pa.Table:
    """The bloom join's FILTER STATE as a driver-checkable contract:
    sparse nonzero (word_idx, word) rows of the bloom built over the
    distinct customer keys of one market segment. Exactly the array
    ``hash_join(bloom_prune=...)`` broadcasts — deterministic integer
    data, reproduced bit-for-bit by a DuckDB splitmix64 twin, so the
    pruning structure itself is value-checked, not just the join
    results it accelerates. Small m_bits keeps the oracle cheap; the
    production default stays BLOOM_BITS."""
    import ray.data

    def seg_only(b: pa.Table) -> pa.Table:
        keep = pc.equal(b.column("c_mktsegment"), segment)
        return b.filter(keep).select(["c_custkey"])

    ds = ray.data.read_parquet(f"{sf_dir}/customer.parquet",
                               columns=["c_custkey", "c_mktsegment"]) \
        .map_batches(seg_only, batch_format="pyarrow", batch_size=None)
    words = build_bloom(ds, "c_custkey", m_bits=m_bits, k=k)
    nz = np.flatnonzero(words)
    return pa.table({
        "i": pa.array(nz.astype(np.int64), pa.int64()),
        "w": pa.array(words[nz], pa.uint64()),
    })
