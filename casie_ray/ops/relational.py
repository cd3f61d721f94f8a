"""Relational operators expressed Ray-Data-first over the testdata star
schema — the engine's general aggregation / join / window / top-k
surface (SURVEY A1-A7, J5 broadcast join, O1-O4 ordering/top-k).

Patterns demonstrated (each the scale-correct shape):

- partial aggregation inside ``map_batches`` (Arrow ``group_by``
  combiner) before the keyed shuffle — the pre-aggregate pattern;
- broadcast hash join (``ray.put`` the small dimension once, probe
  inside ``map_batches``) instead of an all-to-all shuffle join;
- tumbling-window aggregate = key derivation (truncate) + groupby;
- top-k = per-batch partial top-k, single tiny final reduce.

Money sums are computed in integer cents so distributed float addition
order can never change the answer vs the DuckDB oracle.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _read(sf_dir: str, table: str, columns=None):
    import ray.data
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                 columns=columns)


# ---------------------------------------------------------------------------
# Q1-style aggregate: lineitem by (returnflag, linestatus)
# ---------------------------------------------------------------------------

_AGG_PART_SCHEMA = pa.schema([
    ("l_returnflag", pa.string()), ("l_linestatus", pa.string()),
    ("sum_qty", pa.int64()), ("sum_price_cents", pa.int64()),
    ("n_rows", pa.int64()),
])


def _cents(col: pa.ChunkedArray) -> pa.ChunkedArray:
    """double money -> exact integer cents, rounding half-away-from-zero
    to match the SQL oracle's round()."""
    return pc.round(pc.multiply(col, pa.scalar(100.0)),
                    round_mode="half_towards_infinity").cast(pa.int64())


def _lineitem_partial(batch: pa.Table) -> pa.Table:
    cents = _cents(batch.column("l_extendedprice"))
    qty = pc.round(batch.column("l_quantity"),
                   round_mode="half_towards_infinity").cast(pa.int64())
    t = pa.table({
        "l_returnflag": batch.column("l_returnflag"),
        "l_linestatus": batch.column("l_linestatus"),
        "sum_qty": qty, "sum_price_cents": cents,
        "n_rows": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
    })
    g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
        [("sum_qty", "sum"), ("sum_price_cents", "sum"), ("n_rows", "sum")])
    return g.rename_columns(_AGG_PART_SCHEMA.names).cast(_AGG_PART_SCHEMA)


def _lineitem_final(group: pa.Table) -> pa.Table:
    g = group.group_by(["l_returnflag", "l_linestatus"]).aggregate(
        [("sum_qty", "sum"), ("sum_price_cents", "sum"), ("n_rows", "sum")])
    return g.rename_columns(_AGG_PART_SCHEMA.names).cast(_AGG_PART_SCHEMA)


def lineitem_agg(sf_dir: str):
    """sum_qty / sum_price_cents / n_rows by (returnflag, linestatus);
    combiner inside map_batches, then a tiny keyed shuffle."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice"])
    ds = ds.map_batches(_lineitem_partial, batch_format="pyarrow",
                        batch_size=None)
    return ds.groupby(["l_returnflag", "l_linestatus"]).map_groups(
        _lineitem_final, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# One-pass feature-correlation registers (training-data profiling).
# The standard mergeable second-moment register set (n, Σx, Σy, Σx²,
# Σy², Σxy) per group, kept integer-exact in micro-units with
# wrap-mod-2^64 arithmetic: mod 2^64 is a ring homomorphism, so
# continuously-wrapping per-batch partials merge to exactly the true
# sum mod 2^64 regardless of block order — a hash-stable contract at
# any scale, reproduced by a DuckDB HUGEINT twin. Shuffle shape:
# per-batch combiner collapses each block to ≤ n_groups rows, then one
# tiny keyed exchange. Pearson r / least-squares slope derive from the
# registers driver-side (corr_from_registers), pinned vs duckdb
# corr() in tests.
# ---------------------------------------------------------------------------

_CORR_SCHEMA = pa.schema([
    ("l_returnflag", pa.string()), ("n_rows", pa.int64()),
    ("sum_x", pa.uint64()), ("sum_y", pa.uint64()),
    ("sum_xx", pa.uint64()), ("sum_yy", pa.uint64()),
    ("sum_xy", pa.uint64()),
])


def _corr_partial(batch: pa.Table) -> pa.Table:
    """Per-batch register combiner: dictionary-encode the group key,
    one np.add.at pass per register (uint64 wraps are the contract)."""
    enc = pc.dictionary_encode(
        batch.column("l_returnflag").combine_chunks())
    idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    keys = enc.dictionary.to_pylist()
    x = _cents(batch.column("l_quantity")).to_numpy(
        zero_copy_only=False).astype(np.uint64)
    y = _cents(batch.column("l_extendedprice")).to_numpy(
        zero_copy_only=False).astype(np.uint64)
    g = len(keys)
    regs = np.zeros((5, g), np.uint64)
    for r, v in enumerate((x, y, x * x, y * y, x * y)):
        np.add.at(regs[r], idx, v)
    return pa.table({
        "l_returnflag": pa.array(keys, pa.string()),
        "n_rows": pa.array(np.bincount(idx, minlength=g)
                           .astype(np.int64)),
        "sum_x": pa.array(regs[0], pa.uint64()),
        "sum_y": pa.array(regs[1], pa.uint64()),
        "sum_xx": pa.array(regs[2], pa.uint64()),
        "sum_yy": pa.array(regs[3], pa.uint64()),
        "sum_xy": pa.array(regs[4], pa.uint64()),
    }).cast(_CORR_SCHEMA)


def _corr_final(group: pa.Table) -> pa.Table:
    out = {"l_returnflag": [group.column("l_returnflag")[0]]}
    out["n_rows"] = pa.array([int(np.sum(
        group.column("n_rows").to_numpy(zero_copy_only=False)))],
        pa.int64())
    for c in ("sum_x", "sum_y", "sum_xx", "sum_yy", "sum_xy"):
        v = group.column(c).to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        out[c] = pa.array([np.sum(v, dtype=np.uint64)], pa.uint64())
    return pa.table(out).cast(_CORR_SCHEMA)


def lineitem_corr(sf_dir: str):
    """Mergeable (n, Σx, Σy, Σx², Σy², Σxy) registers per returnflag
    over (l_quantity, l_extendedprice) in micro-units mod 2^64."""
    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_quantity", "l_extendedprice"])
    ds = ds.map_batches(_corr_partial, batch_format="pyarrow",
                        batch_size=None)
    return ds.groupby("l_returnflag").map_groups(
        _corr_final, batch_format="pyarrow")


def corr_from_registers(regs: pa.Table):
    """Pearson r and least-squares slope (y on x) per group from
    un-wrapped registers (exact below 2^64 register mass; at wrap
    scale the registers remain the hash contract and the estimate
    seat would widen to 128-bit partials)."""
    import pandas as pd
    df = regs.to_pandas()
    n = df["n_rows"].astype(float)
    sx, sy = df["sum_x"].astype(float), df["sum_y"].astype(float)
    sxx, syy = df["sum_xx"].astype(float), df["sum_yy"].astype(float)
    sxy = df["sum_xy"].astype(float)
    cov = sxy - sx * sy / n
    vx, vy = sxx - sx * sx / n, syy - sy * sy / n
    return pd.DataFrame({
        "l_returnflag": df["l_returnflag"],
        "corr": cov / np.sqrt(vx * vy),
        "slope": cov / vx,
    })


# ---------------------------------------------------------------------------
# Broadcast join + top-k: revenue per customer market segment
# ---------------------------------------------------------------------------


def segment_revenue(sf_dir: str):
    """orders x customer broadcast hash join -> revenue cents per
    c_mktsegment. The customer dimension is ray.put once; orders stream."""
    import ray
    import pyarrow.parquet as pq

    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"]) \
        .combine_chunks()
    cust_ref = ray.put(cust)  # dimension broadcast as Arrow arrays

    def join_partial(batch: pa.Table) -> pa.Table:
        # vectorized broadcast-join probe: index_in + take against the
        # shared dimension arrays (same pattern as triples.rewrite_
        # triples) — no per-row dict lookups (r2 verdict "wrong" #1)
        dim = ray.get(cust_ref)
        idx = pc.index_in(batch.column("o_custkey"),
                          value_set=dim.column("c_custkey").chunk(0))
        segs = pc.take(dim.column("c_mktsegment").chunk(0), idx)
        cents = _cents(batch.column("o_totalprice"))
        t = pa.table({
            "c_mktsegment": segs,
            "revenue_cents": cents,
            "n_orders": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        }).filter(pc.is_valid(segs))
        g = t.group_by(["c_mktsegment"]).aggregate(
            [("revenue_cents", "sum"), ("n_orders", "sum")])
        return g.rename_columns(["c_mktsegment", "revenue_cents",
                                 "n_orders"])

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["c_mktsegment"]).aggregate(
            [("revenue_cents", "sum"), ("n_orders", "sum")])
        return g.rename_columns(["c_mktsegment", "revenue_cents",
                                 "n_orders"])

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    ds = ds.map_batches(join_partial, batch_format="pyarrow",
                             batch_size=None)
    return ds.groupby("c_mktsegment").map_groups(final,
                                                 batch_format="pyarrow")


def top_customers(sf_dir: str, k: int = 10):
    """Top-k customers by total order value (cents): per-batch partial
    aggregate, BUCKETED keyed shuffle (one vectorized Arrow group_by per
    bucket, never per-customer Python), then sort+limit over the
    customer-cardinality aggregate."""
    from .bucketing import bucket_groupby, hash_bucket

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"o_custkey": batch.column("o_custkey"),
                      "revenue_cents": _cents(batch.column("o_totalprice"))})
        g = t.group_by(["o_custkey"]).aggregate([("revenue_cents", "sum")])
        g = g.rename_columns(["o_custkey", "revenue_cents"])
        bucket = hash_bucket([g.column("o_custkey")])
        return g.append_column("bucket", pa.array(bucket, pa.int32()))

    def final_bucket(group: pa.Table) -> pa.Table:
        g = group.group_by(["o_custkey"]).aggregate(
            [("revenue_cents", "sum")])
        return g.rename_columns(["o_custkey", "revenue_cents"])

    ds = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    ds = ds.map_batches(partial, batch_format="pyarrow",
                        batch_size=None)
    ds = bucket_groupby(ds, final_bucket)
    ds = ds.sort(["revenue_cents", "o_custkey"],
                 descending=[True, False]).limit(k)

    def rank(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "rank", pa.array(np.arange(1, batch.num_rows + 1), pa.int64()))

    return ds.repartition(1).map_batches(rank, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Tumbling-window aggregate over the events stream table
# ---------------------------------------------------------------------------


def events_hourly(sf_dir: str):
    """Events per (event_type, hour window): window key derived in the
    map stage (floor to hour), then partial+final count — the streaming
    windowed-aggregate shape without any sort."""
    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        t = pa.table({
            "event_type": batch.column("event_type"),
            "window_start": hour,
            "n_events": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })
        g = t.group_by(["event_type", "window_start"]).aggregate(
            [("n_events", "sum")])
        return g.rename_columns(["event_type", "window_start", "n_events"])

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["event_type", "window_start"]).aggregate(
            [("n_events", "sum")])
        return g.rename_columns(["event_type", "window_start", "n_events"])

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    ds = ds.map_batches(partial, batch_format="pyarrow",
                        batch_size=None)
    return ds.groupby(["event_type", "window_start"]).map_groups(
        final, batch_format="pyarrow")


def distinct_users(sf_dir: str):
    """count(distinct user_id) per event_type — two-phase distinct:
    per-batch dedup of (type, user), keyed shuffle, exact distinct count
    per group (no global set on any single node)."""
    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"event_type": batch.column("event_type"),
                      "user_id": batch.column("user_id")})
        return t.group_by(["event_type", "user_id"]).aggregate([])

    def final(group: pa.Table) -> pa.Table:
        et = group.column("event_type")[0].as_py()
        n = len(pc.unique(group.column("user_id")))
        return pa.table({"event_type": pa.array([et], pa.string()),
                         "n_users": pa.array([n], pa.int64())})

    ds = _read(sf_dir, "events", ["event_type", "user_id"])
    ds = ds.map_batches(partial, batch_format="pyarrow",
                        batch_size=None)
    return ds.groupby("event_type").map_groups(final,
                                               batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Range join: each event -> aggregate of the same user's orders inside
# a trailing time window (a custom operator Ray Data lacks; SURVEY §2
# "custom operators"). Same bucketed shape as the as-of join below, but
# the probe answers an interval with TWO searchsorteds + prefix sums.
# ---------------------------------------------------------------------------

RANGE_JOIN_WINDOW_SECS = 30 * 86400


_RANGE_ORDER_SCHEMA = pa.schema([
    ("ckey", pa.int64()), ("t", pa.int64()), ("cents", pa.int64())])
_RANGE_EVENT_SCHEMA = pa.schema([
    ("ckey", pa.int64()), ("t", pa.int64()), ("event_id", pa.int64())])


def _range_order_rows(batch: pa.Table) -> pa.Table:
    return pa.table({
        "ckey": batch.column("o_custkey"),
        "t": _epoch_secs(batch.column("o_orderdate")),
        "cents": _cents(batch.column("o_totalprice")),
    })


def _range_event_rows(batch: pa.Table) -> pa.Table:
    return pa.table({
        "ckey": batch.column("user_id"),
        "t": _epoch_secs(batch.column("ts")),
        "event_id": batch.column("event_id"),
    })


def _range_probe_bucket(window_secs: int):
    def probe(orders: pa.Table, events: pa.Table) -> pa.Table:
        eid = events.column("event_id").to_numpy()
        if events.num_rows == 0:
            return pa.table({"event_id": pa.array([], pa.int64()),
                             "n_orders": pa.array([], pa.int64()),
                             "revenue_cents": pa.array([], pa.int64())})
        n_ev = events.num_rows
        if orders.num_rows == 0:
            z = np.zeros(n_ev, np.int64)
            return pa.table({"event_id": pa.array(eid, pa.int64()),
                             "n_orders": pa.array(z),
                             "revenue_cents": pa.array(z)})
        ock = orders.column("ckey").to_numpy()
        ot = orders.column("t").to_numpy()
        oc = orders.column("cents").to_numpy(zero_copy_only=False)
        order = np.lexsort((ot, ock))
        ock, ot, oc = ock[order], ot[order], oc[order]
        uniq = np.unique(ock)
        orank = np.searchsorted(uniq, ock).astype(np.uint64)
        comp_o = (orank << np.uint64(34)) | ot.astype(np.uint64)
        prefix = np.concatenate([[0], np.cumsum(oc)])

        eck = events.column("ckey").to_numpy()
        et = events.column("t").to_numpy()
        erank = np.searchsorted(uniq, np.clip(eck, uniq[0], uniq[-1]))
        known = uniq[erank] == eck
        base = erank.astype(np.uint64) << np.uint64(34)
        hi = np.searchsorted(comp_o, base | et.astype(np.uint64),
                             side="right")
        lo = np.searchsorted(
            comp_o, base | (et - window_secs).astype(np.uint64),
            side="left")
        n = np.where(known, hi - lo, 0).astype(np.int64)
        rev = np.where(known, prefix[hi] - prefix[lo], 0).astype(np.int64)
        return pa.table({"event_id": pa.array(eid, pa.int64()),
                         "n_orders": pa.array(n),
                         "revenue_cents": pa.array(rev)})
    return probe


def events_orders_range_join(sf_dir: str,
                             window_secs: int = RANGE_JOIN_WINDOW_SECS):
    """Distributed range join: per event, count + revenue of the SAME
    user's orders with order time in ``[event_ts - window, event_ts]``
    (left semantics — every event gets a row). Both sides meet in one
    ``bucket_join`` exchange keyed by user: no driver build, no
    broadcast; each bucket answers every probe with two vectorized
    searchsorteds over composite (user-rank << 34 | epoch-secs) keys
    plus a revenue prefix sum. Partitioning assumption: one user's
    orders fit a bucket group (same contract + salting escape hatch as
    the as-of join)."""
    from .bucketing import bucket_join

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_totalprice", "o_orderdate"]) \
        .map_batches(_range_order_rows, batch_format="pyarrow",
                     batch_size=None)
    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"]) \
        .map_batches(_range_event_rows, batch_format="pyarrow",
                     batch_size=None)
    return bucket_join(orders, events, _range_probe_bucket(window_secs),
                       on="ckey", left_schema=_RANGE_ORDER_SCHEMA,
                       right_schema=_RANGE_EVENT_SCHEMA)


# ---------------------------------------------------------------------------
# As-of join: each event -> the latest order of the same user at event
# time (a custom operator Ray Data lacks; SURVEY §2 "custom operators")
# ---------------------------------------------------------------------------


_ASOF_ORDER_SCHEMA = pa.schema([
    ("ckey", pa.int64()), ("salt", pa.int64()), ("t", pa.int64()),
    ("okey", pa.int64())])
_ASOF_EVENT_SCHEMA = pa.schema([
    ("ckey", pa.int64()), ("salt", pa.int64()), ("t", pa.int64()),
    ("event_id", pa.int64())])

# Hot-key skew escape hatch (r2 verdict task 7): a probe-side key
# holding more than HOT_KEY_CAP rows would concentrate in one bucket
# group; above the cap its PROBE rows are salted across N_SALTS
# sub-buckets and its (per-key bounded) BUILD rows replicated to each —
# results are exactly identical, only the partitioning changes. The
# default cap models "one key's probe rows no longer fit a task heap";
# the synthetic corpora never reach it, so contract results are
# bit-identical with the guard armed.
HOT_KEY_CAP = 1_000_000
N_SALTS = 16


def hot_keys(ds, col: str, cap: int) -> np.ndarray:
    """Sorted int64 array of keys with more than ``cap`` rows in ``ds``.
    Per-batch combiner -> bucketed exchange -> filter above the cap; the
    result is tiny by construction (only keys ABOVE the cap), the
    small-side-broadcast pattern, not a materialization."""
    from .bucketing import bucket_groupby, hash_bucket

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select([col]).group_by([col]) \
            .aggregate([([], "count_all")]).rename_columns([col, "n"])
        k = g.column(col).cast(pa.int64())
        return pa.table({
            "key": k, "n": g.column("n"),
            "bucket": pa.array(hash_bucket([k.to_numpy()]), pa.int32()),
        })

    def over_cap(group: pa.Table) -> pa.Table:
        g = group.group_by(["key"]).aggregate([("n", "sum")]) \
            .rename_columns(["key", "n"])
        return g.filter(pc.greater(g.column("n"), cap)).select(["key"])

    rows = bucket_groupby(ds.map_batches(partial, batch_format="pyarrow",
                                         batch_size=None), over_cap) \
        .take_all()
    return np.sort(np.array([r["key"] for r in rows], dtype=np.int64))


def _salted_rows(ck: np.ndarray, hot: np.ndarray, salt_of: np.ndarray,
                 replicate: bool) -> tuple[np.ndarray, np.ndarray]:
    """(row_take_indices, salts) implementing the escape hatch: non-hot
    rows keep salt 0; hot PROBE rows take their precomputed salt; hot
    BUILD rows are replicated across all N_SALTS."""
    n = len(ck)
    is_hot = np.isin(ck, hot) if len(hot) else np.zeros(n, bool)
    if not is_hot.any():
        return np.arange(n, dtype=np.int64), np.zeros(n, np.int64)
    if not replicate:
        return np.arange(n, dtype=np.int64), \
            np.where(is_hot, salt_of, 0).astype(np.int64)
    hot_idx = np.nonzero(is_hot)[0]
    cold_idx = np.nonzero(~is_hot)[0]
    take = np.concatenate([cold_idx, np.repeat(hot_idx, N_SALTS)])
    salts = np.concatenate([
        np.zeros(len(cold_idx), np.int64),
        np.tile(np.arange(N_SALTS, dtype=np.int64), len(hot_idx))])
    return take, salts


def _epoch_secs(col: pa.ChunkedArray) -> np.ndarray:
    """date/timestamp column -> int64 epoch seconds (flooring sub-second
    event timestamps; order dates are midnight-aligned so the floor
    preserves `o_orderdate <= ts` exactly). Assumes post-1970 times."""
    return col.cast(pa.timestamp("s"), safe=False).cast(pa.int64()) \
        .to_numpy()


def _get_hot(hot_ref) -> np.ndarray:
    if hot_ref is None:
        return np.empty(0, np.int64)
    if isinstance(hot_ref, np.ndarray):
        return hot_ref
    import ray
    return ray.get(hot_ref)


def _asof_order_rows(hot_ref=None):
    """Build-side row factory: hot customers' orders are replicated
    to every salt sub-bucket (per-customer order mass is bounded; the
    replication factor is the fixed N_SALTS)."""
    def fn(batch: pa.Table) -> pa.Table:
        ck = batch.column("o_custkey").cast(pa.int64()).to_numpy()
        t = _epoch_secs(batch.column("o_orderdate"))
        ok = batch.column("o_orderkey").cast(pa.int64()).to_numpy()
        take, salts = _salted_rows(ck, _get_hot(hot_ref),
                                   np.empty(0, np.int64), replicate=True)
        return pa.table({"ckey": ck[take], "salt": salts, "t": t[take],
                         "okey": ok[take]}, schema=_ASOF_ORDER_SCHEMA)
    return fn


def _asof_event_rows(hot_ref=None):
    """Probe-side row factory: hot customers' events spread across
    N_SALTS sub-buckets by event-id hash; each sub-bucket still holds
    the full order history (replicated), so every probe is exact."""
    def fn(batch: pa.Table) -> pa.Table:
        from .bucketing import mix64
        ck = batch.column("user_id").cast(pa.int64()).to_numpy()
        eid = batch.column("event_id").cast(pa.int64()).to_numpy()
        salt_of = (mix64([eid]) % np.uint64(N_SALTS)).astype(np.int64)
        _, salts = _salted_rows(ck, _get_hot(hot_ref), salt_of,
                                replicate=False)
        return pa.table({"ckey": ck, "salt": salts,
                         "t": _epoch_secs(batch.column("ts")),
                         "event_id": eid}, schema=_ASOF_EVENT_SCHEMA)
    return fn


def _asof_probe_bucket(orders: pa.Table, events: pa.Table) -> pa.Table:
    """One (customer, salt)-hash bucket of order rows and event rows:
    sort the orders by (cust-rank, time, orderkey), then ONE vectorized
    searchsorted over composite uint64 keys answers every event probe —
    the predecessor position is simultaneously the latest qualifying
    date AND the max orderkey within that date."""
    if orders.num_rows == 0 or events.num_rows == 0:
        return pa.table({"event_id": pa.array([], pa.int64()),
                         "last_orderkey": pa.array([], pa.int64())})
    ock = orders.column("ckey").to_numpy()
    ot = orders.column("t").to_numpy()
    ok = orders.column("okey").to_numpy()
    order = np.lexsort((ok, ot, ock))
    ock, ot, ok = ock[order], ot[order], ok[order]
    # dense-rank customers within the bucket so (rank << 34 | secs)
    # fits uint64 regardless of raw key magnitude
    uniq = np.unique(ock)
    orank = np.searchsorted(uniq, ock).astype(np.uint64)
    comp_o = (orank << np.uint64(34)) | ot.astype(np.uint64)

    eck = events.column("ckey").to_numpy()
    et = events.column("t").to_numpy()
    eid = events.column("event_id").to_numpy()
    erank = np.searchsorted(uniq, np.clip(eck, uniq[0], uniq[-1]))
    known = uniq[erank] == eck
    comp_e = (erank.astype(np.uint64) << np.uint64(34)) \
        | et.astype(np.uint64)
    p = np.searchsorted(comp_o, comp_e, side="right")
    hit = known & (p > 0)
    pm = np.maximum(p - 1, 0)
    hit &= orank[pm] == erank.astype(np.uint64)
    return pa.table({
        "event_id": pa.array(eid[hit], pa.int64()),
        "last_orderkey": pa.array(ok[pm[hit]], pa.int64()),
    })


def events_asof_orders(sf_dir: str, hot_cap: int | None = HOT_KEY_CAP):
    """Distributed as-of join (a custom operator Ray Data lacks): both
    sides meet in ONE ``bucket_join`` exchange keyed by (customer key,
    salt) — no driver-side build, no broadcast — and each bucket
    resolves every probe with a single vectorized searchsorted. Ties on
    equal orderdate resolve to the max orderkey (the SQL oracle's ORDER
    BY o_orderdate DESC, o_orderkey DESC).

    Skew: a customer with more than ``hot_cap`` events triggers the
    salting escape hatch (armed by default) — that customer's events
    spread over N_SALTS sub-buckets and their orders replicate to each,
    so no single task ever holds the whole hot key while results stay
    exactly identical. The hot-key pre-pass is one projected count
    scan; its output is only the keys ABOVE the cap (tiny). At
    deployment scale the pre-pass can run over a row sample instead:
    salting is correctness-neutral (any key set may be salted), so a
    probabilistic detector never risks wrong results, only a missed
    rebalance."""
    import ray

    from .bucketing import bucket_join

    hot_ref = None
    if hot_cap is not None:
        hot = hot_keys(_read(sf_dir, "events", ["user_id"]),
                       "user_id", hot_cap)
        if len(hot):
            hot_ref = ray.put(hot)
    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate"]) \
        .map_batches(_asof_order_rows(hot_ref), batch_format="pyarrow")
    events = _read(sf_dir, "events", ["event_id", "user_id", "ts"]) \
        .map_batches(_asof_event_rows(hot_ref), batch_format="pyarrow")
    return bucket_join(orders, events, _asof_probe_bucket,
                       on=["ckey", "salt"], left_schema=_ASOF_ORDER_SCHEMA,
                       right_schema=_ASOF_EVENT_SCHEMA)


# ---------------------------------------------------------------------------
# Session windows: gap-based sessionization per user (a streaming window
# primitive Ray Data lacks; SURVEY §2 "custom operators")
# ---------------------------------------------------------------------------

SESSION_GAP_US = 30 * 60 * 1_000_000   # 30 minutes, in timestamp[us] units


def events_sessions(sf_dir: str, gap_us: int = SESSION_GAP_US):
    """Gap-based session windows over the events stream: per user,
    consecutive events closer than ``gap_us`` share a session. Output:
    (user_id, session_start, session_end, n_events).

    Shape: ONE exchange keyed by hash(user_id) bucket, then a fully
    vectorized per-bucket sessionization (lexsort by (user, ts), gap
    flags, cumulative session ids, reduceat bounds). Partitioning
    assumption: one user's events fit a bucket group — the same
    per-key-locality contract as the as-of join, with the same salting
    escape hatch for a pathological user."""
    from .bucketing import bucket_groupby, hash_bucket

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        return pa.table({
            "user_id": pa.array(uid, pa.int64()),
            "ts": batch.column("ts"),
            "bucket": pa.array(hash_bucket([uid]), pa.int32()),
        })

    def sessionize(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy()
        ts = group.column("ts").cast(pa.int64()).to_numpy()
        order = np.lexsort((ts, uid))
        uid, ts = uid[order], ts[order]
        n = len(uid)
        new_sess = np.ones(n, dtype=bool)
        if n > 1:
            new_sess[1:] = (uid[1:] != uid[:-1]) | \
                (ts[1:] - ts[:-1] > gap_us)
        starts = np.nonzero(new_sess)[0]
        ends = np.concatenate([starts[1:], [n]])
        return pa.table({
            "user_id": pa.array(uid[starts], pa.int64()),
            "session_start": pa.array(ts[starts], pa.int64()).cast(
                pa.timestamp("us")),
            "session_end": pa.array(ts[ends - 1], pa.int64()).cast(
                pa.timestamp("us")),
            "n_events": pa.array(ends - starts, pa.int64()),
        })

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    ds = ds.map_batches(tag, batch_format="pyarrow")
    return bucket_groupby(ds, sessionize)


# ---------------------------------------------------------------------------
# Windowed lag: per-row delta vs the previous row of the same key (the
# LAG() OVER (PARTITION BY ... ORDER BY ...) window primitive)
# ---------------------------------------------------------------------------


def events_prev_gap(sf_dir: str):
    """Per event: microseconds since the SAME user's previous event
    (-1 for a user's first event) — the general partitioned window-lag
    operator, same one-exchange bucketed shape as ``events_sessions``:
    hash(user) bucket exchange, then a fully vectorized per-bucket
    lexsort + diff (order (user, ts, event_id) so duplicate timestamps
    resolve identically to the SQL oracle's ORDER BY tie-break)."""
    from .bucketing import bucket_groupby, hash_bucket

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        return pa.table({
            "event_id": batch.column("event_id").cast(pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "t": batch.column("ts").cast(pa.int64()),
            "bucket": pa.array(hash_bucket([uid]), pa.int32()),
        })

    def lag_gap(group: pa.Table) -> pa.Table:
        eid = group.column("event_id").to_numpy()
        uid = group.column("user_id").to_numpy()
        t = group.column("t").to_numpy()
        order = np.lexsort((eid, t, uid))
        eid, uid, t = eid[order], uid[order], t[order]
        gap = np.full(len(t), -1, np.int64)
        if len(t) > 1:
            same = uid[1:] == uid[:-1]
            gap[1:][same] = (t[1:] - t[:-1])[same]
        return pa.table({"event_id": pa.array(eid, pa.int64()),
                         "prev_gap_us": pa.array(gap, pa.int64())})

    ds = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    ds = ds.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(ds, lag_gap)


WINDOW_DEDUP_US = 21_600_000_000    # 6 h debounce window


def events_window_dedup(sf_dir: str, window_us: int = WINDOW_DEDUP_US):
    """Streaming debounce: keep an event iff it is the first
    (user, type) occurrence or arrived more than ``window_us`` after
    that user+type's PREVIOUS event — the retransmission/duplicate
    filter every event-ingest pipeline runs before aggregation.
    LAG semantics (gap measured to the previous event, kept or not),
    so the operator is one (user, type)-keyed exchange + a vectorized
    lexsort/diff per bucket — the ``events_prev_gap`` shape with a
    filter, and exactly DuckDB's ``lag() OVER (PARTITION BY ...)``."""
    from .bucketing import bucket_groupby, hash_bucket

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        et = batch.column("event_type").cast(pa.string())
        from .bucketing import fnv1a_hashes
        return pa.table({
            "event_id": batch.column("event_id").cast(pa.int64()),
            "user_id": pa.array(uid, pa.int64()),
            "event_type": et,
            "t": batch.column("ts").cast(pa.int64()),
            "bucket": pa.array(hash_bucket(
                [uid, fnv1a_hashes(et)]), pa.int32()),
        })

    def debounce(group: pa.Table) -> pa.Table:
        eid = group.column("event_id").to_numpy()
        uid = group.column("user_id").to_numpy()
        et = np.asarray(group.column("event_type").to_pylist(),
                        dtype=object)
        t = group.column("t").to_numpy()
        order = np.lexsort((eid, t, et, uid))
        eid, uid, et, t = eid[order], uid[order], et[order], t[order]
        keep = np.ones(len(t), bool)
        if len(t) > 1:
            same = (uid[1:] == uid[:-1]) & (et[1:] == et[:-1])
            keep[1:] = ~same | ((t[1:] - t[:-1]) > window_us)
        k = pa.array(keep)
        return pa.table({
            "event_id": pa.array(eid, pa.int64()).filter(k),
            "user_id": pa.array(uid, pa.int64()).filter(k),
            "event_type": pa.array(et.astype(str), pa.string())
                .filter(k),
            "ts_us": pa.array(t, pa.int64()).filter(k),
        })

    ds = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "ts"])
    ds = ds.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(ds, debounce)


def events_window_dedup_sql(window_us: int = WINDOW_DEDUP_US) -> str:
    """DuckDB twin: lag() per (user, type), identical tie-break."""
    return f"""
        WITH g AS (
          SELECT event_id, user_id, event_type,
                 epoch_us(ts) AS ts_us,
                 epoch_us(ts) - lag(epoch_us(ts)) OVER (
                   PARTITION BY user_id, event_type
                   ORDER BY ts, event_id) AS gap
          FROM events)
        SELECT event_id, user_id, event_type, ts_us
        FROM g WHERE gap IS NULL OR gap > {window_us}"""


# ---------------------------------------------------------------------------
# Bucketed anti-join (keys on one side absent from the other)
# ---------------------------------------------------------------------------


def customers_without_events(sf_dir: str):
    """Customers who never produced an event — the distributed ANTI-JOIN
    shape: the events side is combined per block to distinct keys, both
    sides meet in one ``bucket_join`` on the customer key, and each
    bucket group resolves the difference with one vectorized
    ``pc.is_in`` — no broadcast of either side, no per-key Python. At
    100 TB this is one exchange of the customer rows plus the
    distinct-key mass of the events."""
    from .bucketing import bucket_join

    def event_keys(batch: pa.Table) -> pa.Table:
        return pa.table({"user_id": pc.unique(
            batch.column("user_id").combine_chunks())})

    def anti(cust: pa.Table, seen: pa.Table) -> pa.Table:
        # a null custkey never equals a user_id, so it is kept
        return cust.filter(pc.invert(pc.is_in(
            cust.column("c_custkey"), value_set=seen.column("user_id"),
            skip_nulls=True)))

    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    events = _read(sf_dir, "events", ["user_id"]) \
        .map_batches(event_keys, batch_format="pyarrow", batch_size=None)
    return bucket_join(
        cust, events, anti, on="c_custkey", right_on="user_id",
        left_schema=pa.schema([("c_custkey", pa.int64()),
                               ("c_mktsegment", pa.string())]),
        right_schema=pa.schema([("user_id", pa.int64())]))


# ---------------------------------------------------------------------------
# Grouped top-k (top documents per language)
# ---------------------------------------------------------------------------


def _grouped_topk_kernel(t: pa.Table, k: int) -> pa.Table:
    """Top-k rows per lang by (n_chars desc, doc_id asc), vectorized:
    sort once, then rank-within-run via arange minus run starts."""
    t = t.sort_by([("lang", "ascending"), ("n_chars", "descending"),
                   ("doc_id", "ascending")])
    lang = np.asarray(t.column("lang").to_pylist(), dtype=object)
    n = len(lang)
    if n == 0:
        return pa.table({"lang": pa.array([], pa.string()),
                         "doc_id": pa.array([], pa.int64()),
                         "n_chars": pa.array([], pa.int64()),
                         "rk": pa.array([], pa.int64())})
    change = np.concatenate([[True], lang[1:] != lang[:-1]])
    run_start = np.maximum.accumulate(np.where(change, np.arange(n), 0))
    rk = np.arange(n) - run_start + 1
    t = t.append_column("rk", pa.array(rk, pa.int64()))
    return t.filter(pa.array(rk <= k))


def top_docs_per_lang(sf_dir: str, k: int = 3):
    """Per-group top-k: the k longest documents of each language with
    their in-group rank — per-block partial top-k (only k rows per
    group survive a block), one bucketed exchange keyed on lang, same
    vectorized kernel as the final. Deterministic tie-break by doc_id
    matches the SQL row_number ordering."""
    from .bucketing import bucket_groupby, fnv1a_hashes

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({"lang": batch.column("lang"),
                      "doc_id": batch.column("doc_id"),
                      "n_chars": batch.column("n_chars")})
        t = _grouped_topk_kernel(t, k).drop_columns(["rk"])
        h = fnv1a_hashes(t.column("lang"))
        return t.append_column("bucket", pa.array(
            (h % np.uint64(64)).astype(np.int32)))

    def final(group: pa.Table) -> pa.Table:
        return _grouped_topk_kernel(
            group.drop_columns(["bucket"]), k)

    import ray.data
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                               columns=["doc_id", "lang", "n_chars"])
    ds = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(ds, final)


def lineitem_agg_rollup(sf_dir: str):
    """ROLLUP(l_returnflag, l_linestatus): the base aggregate plus
    per-returnflag subtotals and the grand total, NULL-marked like SQL.
    The scale-correct plan derives the super-aggregates FROM the base
    aggregate (group-cardinality rows), never re-scanning raw data:
    one distributed aggregate, then a single tiny block computes the
    two coarser levels vectorized."""

    def roll(t: pa.Table) -> pa.Table:
        base = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("sum_qty", "sum"), ("sum_price_cents", "sum"),
             ("n_rows", "sum")])
        base = base.rename_columns(
            ["l_returnflag", "l_linestatus", "sum_qty",
             "sum_price_cents", "n_rows"])
        sub = base.group_by(["l_returnflag"]).aggregate(
            [("sum_qty", "sum"), ("sum_price_cents", "sum"),
             ("n_rows", "sum")])
        sub = sub.rename_columns(
            ["l_returnflag", "sum_qty", "sum_price_cents", "n_rows"])
        sub = sub.add_column(1, "l_linestatus",
                             pa.nulls(sub.num_rows, pa.string()))
        tot = pa.table({
            "l_returnflag": pa.nulls(1, pa.string()),
            "l_linestatus": pa.nulls(1, pa.string()),
            "sum_qty": pa.array(
                [pc.sum(base.column("sum_qty")).as_py() or 0],
                pa.int64()),
            "sum_price_cents": pa.array(
                [pc.sum(base.column("sum_price_cents")).as_py() or 0],
                pa.int64()),
            "n_rows": pa.array(
                [pc.sum(base.column("n_rows")).as_py() or 0],
                pa.int64()),
        })
        cols = ["l_returnflag", "l_linestatus", "sum_qty",
                "sum_price_cents", "n_rows"]
        return pa.concat_tables([base.select(cols), sub.select(cols),
                                 tot.select(cols)])

    ds = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice"])
    ds = ds.map_batches(_lineitem_partial, batch_format="pyarrow",
                        batch_size=None)
    return ds.repartition(1).map_batches(roll, batch_format="pyarrow",
                                         batch_size=None)


ROLLUP_SQL = """
    SELECT l_returnflag, l_linestatus,
           CAST(sum(CAST(round(l_quantity) AS BIGINT)) AS BIGINT)
               AS sum_qty,
           CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                AS BIGINT) AS sum_price_cents,
           count(*) AS n_rows
    FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


# ---------------------------------------------------------------------------
# Conversion funnel (ordered multi-step pattern over the event stream)
# ---------------------------------------------------------------------------

FUNNEL_STEPS = ("view", "click", "purchase")
FUNNEL_WINDOW_US = 72 * 3600 * 1_000_000   # 72 h per step


def events_funnel(sf_dir: str, steps: tuple[str, ...] = FUNNEL_STEPS,
                  window_us: int = FUNNEL_WINDOW_US):
    """Per-user conversion funnel over the events stream:
    (user_id, stage) where stage = how many of ``steps`` the user
    completed IN ORDER, each step strictly after the previous one and
    within ``window_us`` of it (first step-1 event, then the first
    step-2 event in the window after it, ...). Every user appearing in
    events gets a row; stage 0 = never did step 1.

    Shape: the sessions/lag shape — one hash(user) bucket exchange,
    then a fully vectorized per-bucket pass: one ``minimum.at``
    per funnel step (steps are user-bounded, typically 3-5), never a
    per-user or per-event Python loop. Timestamp comparison is strict
    (``>``), matching the SQL oracle's join condition, so equal-ts
    step events never chain."""
    from .bucketing import bucket_groupby, hash_bucket

    def tag(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        return pa.table({
            "user_id": pa.array(uid, pa.int64()),
            "t": batch.column("ts").cast(pa.int64()),
            "event_type": batch.column("event_type").cast(pa.string()),
            "bucket": pa.array(hash_bucket([uid]), pa.int32()),
        })

    def funnel(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy()
        t = group.column("t").to_numpy()
        et = np.asarray(group.column("event_type").to_pylist(),
                        dtype=object)
        users, uf = np.unique(uid, return_inverse=True)
        n = len(users)
        prev = np.full(n, np.iinfo(np.int64).min, np.int64)
        stage = np.zeros(n, np.int64)
        sentinel = np.iinfo(np.int64).max
        for k, step in enumerate(steps):
            cur = np.full(n, sentinel, np.int64)
            m = (et == step) & (t > prev[uf])
            if k > 0:
                # bounded window after the previous step; step 1 has
                # no predecessor (prev is the -inf seed there)
                m &= t - prev[uf] <= window_us
            np.minimum.at(cur, uf[m], t[m])
            done = cur < sentinel
            stage[done] = k + 1
            prev = cur
        return pa.table({"user_id": pa.array(users, pa.int64()),
                         "stage": pa.array(stage, pa.int64())})

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"])
    ds = ds.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(ds, funnel)


def funnel_sql(steps: tuple[str, ...] = FUNNEL_STEPS,
               window_us: int = FUNNEL_WINDOW_US) -> str:
    """DuckDB twin of :func:`events_funnel`: chained min-after joins,
    strict timestamp ordering, bounded per-step window."""
    ctes = ["u AS (SELECT DISTINCT user_id FROM events)",
            f"""s1 AS (SELECT user_id, min(ts) AS t FROM events
                 WHERE event_type = '{steps[0]}' GROUP BY user_id)"""]
    for k in range(2, len(steps) + 1):
        ctes.append(f"""s{k} AS (
            SELECT e.user_id, min(e.ts) AS t
            FROM events e JOIN s{k - 1} p ON e.user_id = p.user_id
            WHERE e.event_type = '{steps[k - 1]}' AND e.ts > p.t
              AND epoch_us(e.ts) - epoch_us(p.t) <= {window_us}
            GROUP BY e.user_id)""")
    case = "CASE " + " ".join(
        f"WHEN s{k}.t IS NOT NULL THEN {k}"
        for k in range(len(steps), 0, -1)) + " ELSE 0 END"
    joins = " ".join(f"LEFT JOIN s{k} USING (user_id)"
                     for k in range(1, len(steps) + 1))
    return (f"WITH {', '.join(ctes)} "
            f"SELECT u.user_id, CAST({case} AS BIGINT) AS stage "
            f"FROM u {joins}")


# ---------------------------------------------------------------------------
# Pivot / crosstab (long -> wide conditional aggregation)
# ---------------------------------------------------------------------------

PIVOT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_pivot(sf_dir: str, types: tuple[str, ...] = PIVOT_TYPES):
    """Crosstab of the events stream: one row per user, one int64
    column per event type with that user's event count (the long->wide
    PIVOT). Column set is fixed up front (``types``) — the distributed
    pivot contract: discovering columns from data would make the
    output schema a global dependency. Every user in the stream gets a
    row: events whose type is outside ``types`` count toward no column,
    but still register the user (all-zero row), matching the SQL
    ``GROUP BY user_id`` semantics.

    Shape: a per-block combiner reduces each block to its local
    (user x type) count matrix (long form), then ONE user-keyed
    exchange sums and widens per bucket — `np.add.at` on a dense
    (users x types) matrix, no per-row or per-user Python."""
    from .bucketing import bucket_groupby, hash_bucket

    idx = {t: i for i, t in enumerate(types)}

    def combine(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64, copy=False)
        et = batch.column("event_type").cast(pa.string())
        slot = pc.fill_null(pc.index_in(
            et, value_set=pa.array(list(types), pa.string())), -1) \
            .to_numpy(zero_copy_only=False).astype(np.int64)
        # slot -1 (type outside the pivot set) is kept: it contributes
        # no count but registers the user for its all-zero row
        t = pa.table({
            "user_id": pa.array(uid, pa.int64()),
            "slot": pa.array(slot, pa.int64()),
            "n": pa.array(np.ones(len(uid), np.int64)),
        })
        g = t.group_by(["user_id", "slot"]).aggregate([("n", "sum")])
        g = g.rename_columns(["user_id", "slot", "n"])
        return g.append_column("bucket", pa.array(
            hash_bucket([g.column("user_id")]), pa.int32()))

    def widen(group: pa.Table) -> pa.Table:
        uid = group.column("user_id").to_numpy()
        slot = group.column("slot").to_numpy()
        n = group.column("n").to_numpy()
        users, uf = np.unique(uid, return_inverse=True)
        mat = np.zeros((len(users), len(types)), np.int64)
        valid = slot >= 0
        np.add.at(mat, (uf[valid], slot[valid]), n[valid])
        cols = {"user_id": pa.array(users, pa.int64())}
        for t, i in idx.items():
            cols[f"n_{t}"] = pa.array(mat[:, i], pa.int64())
        return pa.table(cols)

    ds = _read(sf_dir, "events", ["user_id", "event_type"])
    ds = ds.map_batches(combine, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(ds, widen)


def pivot_sql(types: tuple[str, ...] = PIVOT_TYPES) -> str:
    """DuckDB twin: conditional aggregation with the same fixed column
    set and names."""
    cols = ", ".join(
        f"CAST(count(*) FILTER (WHERE event_type = '{t}') AS BIGINT) "
        f"AS n_{t}" for t in types)
    return f"SELECT user_id, {cols} FROM events GROUP BY user_id"


# ---------------------------------------------------------------------------
# Cohort retention (the classic product-analytics matrix over events)
# ---------------------------------------------------------------------------

WEEK_US = 7 * 86400 * 1_000_000


def events_retention(sf_dir: str):
    """(cohort_week, week_offset, n_users): users bucketed by the epoch
    week of their FIRST event; for every later week in which a cohort
    member was active, the count of such members. Week = floor of epoch
    microseconds / one week (no calendar/timezone semantics, so both
    sides compute the identical integer).

    Scale shape: a per-batch combiner first dedupes (user, week) pairs
    — the only mass that ever crosses the wire is one row per active
    user-week, not one per event. One bucketed exchange on hash(user)
    makes each user's weeks complete in one task, where cohort = the
    run minimum; per-bucket (cohort, offset) count partials are
    O(weeks^2) tiny and fold in a single final block."""
    from .bucketing import bucket_groupby, hash_bucket

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column("ts")))
        week = pc.divide(batch.column("ts").cast(pa.int64()),
                         pa.scalar(WEEK_US, pa.int64()))
        t = pa.table({"user_id": batch.column("user_id"), "week": week})
        g = t.group_by(["user_id", "week"]).aggregate([])
        return g.append_column("bucket", pa.array(
            hash_bucket([g.column("user_id")]), pa.int32()))

    def per_user(group: pa.Table) -> pa.Table:
        # user-complete bucket: dedupe across blocks, then run-min
        g = group.select(["user_id", "week"]) \
            .group_by(["user_id", "week"]).aggregate([])
        uid = g.column("user_id").to_numpy()
        week = g.column("week").to_numpy()
        order = np.lexsort((week, uid))
        uid, week = uid[order], week[order]
        n = len(uid)
        if n == 0:
            return pa.table({"cohort_week": pa.array([], pa.int64()),
                             "week_offset": pa.array([], pa.int64()),
                             "n_users": pa.array([], pa.int64())})
        change = np.concatenate([[True], uid[1:] != uid[:-1]])
        run_start = np.maximum.accumulate(
            np.where(change, np.arange(n), 0))
        cohort = week[run_start]
        t = pa.table({
            "cohort_week": pa.array(cohort, pa.int64()),
            "week_offset": pa.array(week - cohort, pa.int64()),
            "n_users": pa.array(np.ones(n, np.int64)),
        })
        g2 = t.group_by(["cohort_week", "week_offset"]).aggregate(
            [("n_users", "sum")])
        return g2.rename_columns(["cohort_week", "week_offset", "n_users"])

    def final(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["cohort_week", "week_offset"]).aggregate(
            [("n_users", "sum")])
        return g.rename_columns(["cohort_week", "week_offset", "n_users"])

    ds = _read(sf_dir, "events", ["user_id", "ts"])
    ds = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    ds = bucket_groupby(ds, per_user)
    return ds.repartition(1).map_batches(final, batch_format="pyarrow",
                                         batch_size=None)


RETENTION_SQL = f"""
    WITH uw AS (
      SELECT DISTINCT user_id,
             CAST(epoch_us(ts) // {WEEK_US} AS BIGINT) AS week
      FROM events WHERE ts IS NOT NULL
    ), c AS (
      SELECT user_id, min(week) AS cohort FROM uw GROUP BY user_id
    )
    SELECT c.cohort AS cohort_week,
           CAST(uw.week - c.cohort AS BIGINT) AS week_offset,
           CAST(count(*) AS BIGINT) AS n_users
    FROM uw JOIN c USING (user_id)
    GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# CUBE grouping sets (rollup's 2^d sibling) over the events stream
# ---------------------------------------------------------------------------

DAY_US = 86400 * 1_000_000


def events_cube(sf_dir: str):
    """GROUP BY CUBE(event_type, dow): all four grouping sets of
    (event_type, epoch-day-of-week), NULL-marked like SQL. dow is the
    epoch day modulo 7 (day 0 = 1970-01-01), a pure integer both sides
    derive identically. Like lineitem_agg_rollup, the three coarser
    sets are computed FROM the base aggregate in one tiny final block —
    one distributed combiner pass over raw events, never a rescan."""

    def partial(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch.column("ts")))
        ts = batch.column("ts").cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        # DuckDB // truncates toward zero and % keeps the dividend's
        # sign; numpy floors — convert so pre-epoch timestamps agree
        q = ts // DAY_US
        q = q + ((ts % DAY_US != 0) & (ts < 0))
        dow = pa.array(np.fmod(q, 7), pa.int64())
        cents = _cents(batch.column("value"))
        t = pa.table({
            "event_type": batch.column("event_type"),
            "dow": dow,
            "n_events": pa.array(np.ones(batch.num_rows, np.int64)),
            "value_cents": cents,
        })
        g = t.group_by(["event_type", "dow"]).aggregate(
            [("n_events", "sum"), ("value_cents", "sum")])
        return g.rename_columns(
            ["event_type", "dow", "n_events", "value_cents"])

    def cube(t: pa.Table) -> pa.Table:
        base = t.group_by(["event_type", "dow"]).aggregate(
            [("n_events", "sum"), ("value_cents", "sum")])
        base = base.rename_columns(
            ["event_type", "dow", "n_events", "value_cents"])
        by_type = base.group_by(["event_type"]).aggregate(
            [("n_events", "sum"), ("value_cents", "sum")])
        by_type = by_type.rename_columns(
            ["event_type", "n_events", "value_cents"])
        by_type = by_type.add_column(
            1, "dow", pa.nulls(by_type.num_rows, pa.int64()))
        by_dow = base.group_by(["dow"]).aggregate(
            [("n_events", "sum"), ("value_cents", "sum")])
        by_dow = by_dow.rename_columns(["dow", "n_events", "value_cents"])
        by_dow = by_dow.add_column(
            0, "event_type", pa.nulls(by_dow.num_rows, pa.string()))
        tot = pa.table({
            "event_type": pa.nulls(1, pa.string()),
            "dow": pa.nulls(1, pa.int64()),
            # count() over empty input is 0; sum() over all-null
            # input is NULL — match SQL exactly, no 'or 0' coercion
            "n_events": pa.array(
                [pc.sum(base.column("n_events")).as_py() or 0],
                pa.int64()),
            "value_cents": pa.array(
                [pc.sum(base.column("value_cents")).as_py()],
                pa.int64()),
        })
        cols = ["event_type", "dow", "n_events", "value_cents"]
        return pa.concat_tables(
            [base.select(cols), by_type.select(cols),
             by_dow.select(cols), tot.select(cols)])

    ds = _read(sf_dir, "events", ["event_type", "ts", "value"])
    ds = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return ds.repartition(1).map_batches(cube, batch_format="pyarrow",
                                         batch_size=None)


CUBE_SQL = f"""
    SELECT event_type,
           CAST((epoch_us(ts) // {DAY_US}) % 7 AS BIGINT) AS dow,
           CAST(count(*) AS BIGINT) AS n_events,
           CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT)
               AS value_cents
    FROM events WHERE ts IS NOT NULL
    GROUP BY CUBE(event_type, dow)
"""


# ---------------------------------------------------------------------------
# Typed field extraction from a JSON properties column — the standard
# "semi-structured sidecar" step every event pipeline runs. Engine
# path: ONE vectorized Arrow extract_regex pass (flat-object fast
# path; a full JSON parser seat would slot into the same kernel for
# nested payloads), then the usual per-batch combiner + tiny keyed
# exchange. The DuckDB twin parses with a REAL JSON extractor
# (json_extract), so the regex fast path is checked against an
# independent full parser, not against itself.
# ---------------------------------------------------------------------------

_PROPS_K_RE = r'"k"\s*:\s*(?P<v>-?\d+)(?P<frac>\.\d+)?'


def events_props_extract(sf_dir: str):
    """Per-event-type stats of the integer ``k`` field inside the JSON
    ``props`` column: (event_type, n_with_k, sum_k, min_k, max_k).

    Contract (mirrored exactly by the json_extract oracle): only FLAT
    objects are considered (exactly one '{' — a nested payload would
    let the regex match an inner key the oracle's top-level '$.k'
    does not see), and only integer-valued k counts (a float like 3.5
    is excluded on both sides rather than rounded differently by
    regex-truncate vs SQL-cast). Assumes well-formed JSON, as the
    column contract states."""
    ds = _read(sf_dir, "events", ["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        props = pc.fill_null(batch.column("props"), "")
        flat = pc.equal(pc.count_substring(props, "{"), 1)
        ext = pc.extract_regex(props, _PROPS_K_RE)
        k = pc.cast(pc.struct_field(ext, "v"), pa.int64())
        integral = pc.equal(
            pc.fill_null(pc.struct_field(ext, "frac"), ""), "")
        keep = pc.and_kleene(pc.and_kleene(pc.is_valid(k), flat),
                             integral)
        t = pa.table({
            "event_type": batch.column("event_type"),
            "k": k,
        }).filter(pc.fill_null(keep, False))
        g = t.group_by("event_type").aggregate(
            [("k", "count"), ("k", "sum"), ("k", "min"), ("k", "max")])
        return g.rename_columns(
            ["event_type", "n_with_k", "sum_k", "min_k", "max_k"])

    def final(group: pa.Table) -> pa.Table:
        return pa.table({
            "event_type": [group.column("event_type")[0]],
            "n_with_k": pa.array([int(np.sum(
                group.column("n_with_k").to_numpy(
                    zero_copy_only=False)))], pa.int64()),
            "sum_k": pa.array([int(np.sum(
                group.column("sum_k").to_numpy(
                    zero_copy_only=False)))], pa.int64()),
            "min_k": pa.array([int(np.min(
                group.column("min_k").to_numpy(
                    zero_copy_only=False)))], pa.int64()),
            "max_k": pa.array([int(np.max(
                group.column("max_k").to_numpy(
                    zero_copy_only=False)))], pa.int64()),
        })

    ds = ds.map_batches(partial, batch_format="pyarrow",
                        batch_size=None)
    return ds.groupby("event_type").map_groups(
        final, batch_format="pyarrow")


PROPS_EXTRACT_SQL = """
    SELECT event_type,
           CAST(count(k) AS BIGINT) AS n_with_k,
           CAST(sum(k) AS BIGINT) AS sum_k,
           CAST(min(k) AS BIGINT) AS min_k,
           CAST(max(k) AS BIGINT) AS max_k
    FROM (SELECT event_type,
                 CAST(json_extract(props, '$.k') AS BIGINT) AS k
          FROM events
          WHERE length(props) - length(replace(props, '{', '')) = 1
            AND json_type(props, '$.k') IN ('BIGINT', 'UBIGINT'))
    WHERE k IS NOT NULL
    GROUP BY event_type
"""


# ---------------------------------------------------------------------------
# Hourly anomaly flags (integer-exact z-score spike detection)
# ---------------------------------------------------------------------------


def events_hourly_anomaly(sf_dir: str):
    """Per (event_type, hour window) event count plus an is_anomaly
    flag: |z| > 2 against the type's own hourly distribution over its
    DENSE active range — every hour from the type's first to its last
    window counts toward the baseline, zero-event hours included (a
    type bursting against a mostly-silent span is flagged; with
    observed-hours-only stats it never would be). Output rows are the
    observed windows only. The test is evaluated WITHOUT floats —
    |n - mean| > 2*sigma is cross-multiplied to
    (n*nh - sn)^2 > 4*(sn2*nh - sn^2) over exact integer sums
    (sn = sum of counts, sn2 = sum of squares, nh = hours in the
    dense range; zero hours add nothing to sn/sn2), so the SQL twin
    matches bit-for-bit with HUGEINT.

    Shape: per-batch (type, window) count partials, then ONE exchange
    keyed by event_type — each group holds its type's complete
    (window -> count) table (bounded: windows per type, not events),
    where the stats fold and the flags are computed with Python ints
    (post-aggregate tiny data; unbounded-width integers make the
    squared test overflow-proof at any corpus size)."""
    from .bucketing import bucket_groupby, fnv1a_hashes, hash_bucket

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        t = pa.table({
            "event_type": batch.column("event_type"),
            "window_start": hour,
            "n_events": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
        })
        g = t.group_by(["event_type", "window_start"]).aggregate(
            [("n_events", "sum")])
        g = g.rename_columns(["event_type", "window_start", "n_events"])
        bucket = hash_bucket(
            [fnv1a_hashes(pc.fill_null(g.column("event_type"), "")
                          .to_pylist())])
        return g.append_column("bucket", pa.array(bucket, pa.int32()))

    def flags(group: pa.Table) -> pa.Table:
        g = group.group_by(["event_type", "window_start"]).aggregate(
            [("n_events", "sum")])
        g = g.rename_columns(["event_type", "window_start", "n_events"])
        et = g.column("event_type").to_pylist()
        counts = g.column("n_events").to_pylist()
        # hour index: window_start is floor_temporal'd, so epoch us is
        # an exact multiple of the hour — division is sign-safe
        hrs = (pc.cast(g.column("window_start"), pa.int64())
               .to_numpy(zero_copy_only=False) // 3_600_000_000)
        per_type: dict = {}
        for i, t in enumerate(et):
            per_type.setdefault(t, []).append(i)
        flag = [0] * len(et)
        for t, idxs in per_type.items():
            ns = [int(counts[i]) for i in idxs]
            hh = [int(hrs[i]) for i in idxs]
            nh = max(hh) - min(hh) + 1  # dense range incl. zero hours
            sn = sum(ns)
            sn2 = sum(n * n for n in ns)
            var_scaled = sn2 * nh - sn * sn       # nh^2 * variance
            for i, n in zip(idxs, ns):
                flag[i] = int((n * nh - sn) ** 2 > 4 * var_scaled)
        return g.append_column("is_anomaly", pa.array(flag, pa.int64()))

    ds = _read(sf_dir, "events", ["event_type", "ts"])
    ds = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(ds, flags)


HOURLY_ANOMALY_SQL = """
    WITH h AS (
      SELECT event_type, date_trunc('hour', ts) AS window_start,
             count(*) AS n_events
      FROM events GROUP BY event_type, date_trunc('hour', ts)
    ),
    s AS (
      -- window functions, not a JOIN USING: PARTITION BY groups NULL
      -- event_type rows together, matching Arrow group_by semantics
      SELECT event_type, window_start, n_events,
             sum(CAST(n_events AS HUGEINT))
                 OVER (PARTITION BY event_type) AS sn,
             sum(CAST(n_events AS HUGEINT) * n_events)
                 OVER (PARTITION BY event_type) AS sn2,
             -- DENSE hour range first..last (zero-event hours count
             -- toward the baseline; they add nothing to sn/sn2)
             CAST(date_diff('hour',
                            min(window_start)
                                OVER (PARTITION BY event_type),
                            max(window_start)
                                OVER (PARTITION BY event_type)) + 1
                  AS HUGEINT) AS nh
      FROM h
    )
    SELECT event_type, window_start,
           CAST(n_events AS BIGINT) AS n_events,
           CAST((CAST(n_events AS HUGEINT) * nh - sn)
                * (CAST(n_events AS HUGEINT) * nh - sn)
                > 4 * (sn2 * nh - sn * sn)
                AS BIGINT) AS is_anomaly
    FROM s
"""


# ---------------------------------------------------------------------
# Conversation profiles (per-conv stats over the transcripts table)
# ---------------------------------------------------------------------
# The first question anyone asks of a 10^12-turn transcript corpus:
# what do the conversations LOOK like — turn counts, role mix,
# tool-call rate, text mass, wall-clock span. One combiner pass + one
# conv-keyed exchange; the per-block partial reduces turn mass to
# (conv, role) rows, so only conv-cardinality data crosses the wire.
# All columns integer-exact (span in microseconds, Arrow timestamp[us]
# cast == DuckDB epoch_us), so the twin compares bit-for-bit.


def conv_profiles(transcripts_glob: str):
    """(conv_id, n_turns, n_roles, n_tool_turns, total_chars, span_us)
    per conversation."""
    import ray.data

    from .bucketing import bucket_groupby, fnv1a_hashes, hash_bucket

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64())
        chars = pc.utf8_length(
            pc.fill_null(batch.column("text"), "")).cast(pa.int64())
        t = pa.table({
            "conv_id": batch.column("conv_id"),
            "role": batch.column("role"),
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
            "n_tool": pc.is_valid(batch.column("tool")).cast(pa.int64()),
            "chars": chars,
            "min_us": us, "max_us": us,
        })
        g = t.group_by(["conv_id", "role"]).aggregate([
            ("n", "sum"), ("n_tool", "sum"), ("chars", "sum"),
            ("min_us", "min"), ("max_us", "max")])
        # NULL conv_id is a legal group (the twin's GROUP BY keeps it);
        # fill only for hashing, like events_hourly_anomaly
        h = fnv1a_hashes(
            pc.fill_null(g.column("conv_id"), "").to_pylist())
        return g.append_column(
            "bucket", pa.array(hash_bucket([h]), pa.int32()))

    def final(group: pa.Table) -> pa.Table:
        # same (conv, role) may arrive once per upstream block: fold to
        # one row per (conv, role), then per conv — non-null (conv,
        # role) rows per conv = the distinct-role count (NULL role is
        # excluded exactly like the twin's count(DISTINCT role))
        g1 = group.group_by(["conv_id", "role"]).aggregate([
            ("n_sum", "sum"), ("n_tool_sum", "sum"),
            ("chars_sum", "sum"),
            ("min_us_min", "min"), ("max_us_max", "max")])
        g1 = g1.append_column(
            "role_live", pc.is_valid(g1.column("role")).cast(pa.int64()))
        g2 = g1.group_by(["conv_id"]).aggregate([
            ("n_sum_sum", "sum"), ("n_tool_sum_sum", "sum"),
            ("chars_sum_sum", "sum"),
            ("min_us_min_min", "min"), ("max_us_max_max", "max"),
            ("role_live", "sum")])
        span = pc.subtract(
            g2.column("max_us_max_max_max"),
            g2.column("min_us_min_min_min")).cast(pa.int64())
        return pa.table({
            "conv_id": g2.column("conv_id"),
            "n_turns": g2.column("n_sum_sum_sum").cast(pa.int64()),
            "n_roles": g2.column("role_live_sum").cast(pa.int64()),
            "n_tool_turns":
                g2.column("n_tool_sum_sum_sum").cast(pa.int64()),
            "total_chars":
                g2.column("chars_sum_sum_sum").cast(pa.int64()),
            "span_us": span,
        })

    ds = ray.data.read_parquet(
        transcripts_glob,
        columns=["conv_id", "role", "text", "tool", "ts"])
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
    return bucket_groupby(parts, final, coarse_per_cpu=4)


def conv_profiles_sql(transcripts_glob: str) -> str:
    """DuckDB twin over the same transcript shards."""
    return f"""
        SELECT conv_id,
               CAST(count(*) AS BIGINT) AS n_turns,
               CAST(count(DISTINCT role) AS BIGINT) AS n_roles,
               CAST(count(*) FILTER (WHERE tool IS NOT NULL) AS BIGINT)
                   AS n_tool_turns,
               CAST(sum(length(coalesce(text, ''))) AS BIGINT)
                   AS total_chars,
               CAST(epoch_us(max(ts)) - epoch_us(min(ts)) AS BIGINT)
                   AS span_us
        FROM read_parquet('{transcripts_glob}')
        GROUP BY conv_id"""


# --- cross-conversation boilerplate turns (transcript curation) ---
#
# Exact turn texts that recur across many distinct conversations are
# boilerplate — canned system prompts, templated tool acks — that a
# transcript-curation pipeline strips or downweights before training
# (the transcript analogue of the documents table's df_cap'd
# boilerplate shingles). The synthetic corpus has real hot-text skew:
# at sf0.01 single texts appear in ~1,500 of 2,000 conversations.

BOILERPLATE_MIN_CONVS = 3


def transcript_boilerplate(transcripts_glob: str,
                           min_convs: int = BOILERPLATE_MIN_CONVS):
    """(text, n_turns, n_convs) for every exact turn text appearing in
    >= min_convs DISTINCT conversations. NULL text is excluded; NULL
    conv_id turns count toward n_turns but not n_convs (SQL
    count(DISTINCT conv_id) semantics).

    Shape: salted exact count-distinct in two bucketed exchanges.
    Exchange 1 is keyed by (text, conv_id), so each pair lands in
    exactly ONE bucket: the bucket finalizes pair multiplicity exactly
    and pre-reduces to per-bucket (text, n_turns, n_convs) partials,
    which are DISJOINT across buckets (a pair lives in one bucket).
    Exchange 2 sums at most N_OPS_BUCKETS partial rows per text and
    applies the HAVING filter. A boilerplate text present in 10^9
    conversations therefore crosses exchange 2 as a constant number of
    rows — hot-text skew never concentrates on one reducer."""
    import ray.data

    from .bucketing import bucket_groupby, fnv1a_hashes, hash_bucket

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "text": batch.column("text"),
            "conv_id": batch.column("conv_id"),
            "n": pa.array(np.ones(batch.num_rows, np.int64)),
        }).filter(pc.is_valid(batch.column("text")))
        g = t.group_by(["text", "conv_id"]).aggregate([("n", "sum")])
        ht = fnv1a_hashes(g.column("text"))
        # NULL conv_id folds as "" for bucketing only (the
        # conv_profiles idiom); the group key itself stays NULL
        hc = fnv1a_hashes(
            pc.fill_null(g.column("conv_id"), "").to_pylist())
        return g.append_column(
            "bucket", pa.array(hash_bucket([ht, hc]), pa.int32()))

    def pair_final(group: pa.Table) -> pa.Table:
        g1 = group.group_by(["text", "conv_id"]).aggregate([
            ("n_sum", "sum")])
        g1 = g1.append_column(
            "conv_live",
            pc.is_valid(g1.column("conv_id")).cast(pa.int64()))
        g2 = g1.group_by(["text"]).aggregate([
            ("n_sum_sum", "sum"), ("conv_live", "sum")])
        ht = fnv1a_hashes(g2.column("text"))
        return pa.table({
            "text": g2.column("text"),
            "n_turns_p": g2.column("n_sum_sum_sum").cast(pa.int64()),
            "n_convs_p": g2.column("conv_live_sum").cast(pa.int64()),
            "bucket": pa.array(hash_bucket([ht]), pa.int32()),
        })

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["text"]).aggregate([
            ("n_turns_p", "sum"), ("n_convs_p", "sum")])
        g = g.filter(pc.greater_equal(
            g.column("n_convs_p_sum"), pa.scalar(min_convs, pa.int64())))
        return pa.table({
            "text": g.column("text"),
            "n_turns": g.column("n_turns_p_sum").cast(pa.int64()),
            "n_convs": g.column("n_convs_p_sum").cast(pa.int64()),
        })

    ds = ray.data.read_parquet(transcripts_glob,
                               columns=["conv_id", "text"])
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
    pairs = bucket_groupby(parts, pair_final)
    return bucket_groupby(pairs, final, pre_repartition=False)


def transcript_boilerplate_sql(transcripts_glob: str,
                               min_convs: int = BOILERPLATE_MIN_CONVS
                               ) -> str:
    """DuckDB twin over the same transcript shards."""
    return f"""
        SELECT text, CAST(count(*) AS BIGINT) AS n_turns,
               CAST(count(DISTINCT conv_id) AS BIGINT) AS n_convs
        FROM read_parquet('{transcripts_glob}')
        WHERE text IS NOT NULL
        GROUP BY text
        HAVING count(DISTINCT conv_id) >= {min_convs}"""


# --- per-conversation context windows (training-example construction) ---
#
# The transcript analogue of ops.text.doc_chunks: slice each
# conversation's ORDERED turn sequence into overlapping windows of
# WINDOW_TURNS with stride WINDOW_STRIDE — the unit a
# transcript-training pipeline packs into context windows. Every
# window carries a stable (conv_id, window_idx) identity, the
# turn_idx where it starts, and an integer content signature (the
# seed-0 FNV rolling fold over per-turn text hashes, doc_fingerprint's
# chain) so downstream window-level dedup and the DuckDB twin compare
# exact integers without shipping window text. Assumes (conv_id,
# turn_idx) is unique — the corpus' lineage key — so the turn order
# (and therefore the fold) is total.

WINDOW_TURNS = 8
WINDOW_STRIDE = 4

from .bucketing import FNV_BASE as _WINDOW_BASE  # noqa: E402


def transcript_windows(transcripts_glob: str, window: int = WINDOW_TURNS,
                       stride: int = WINDOW_STRIDE):
    """(conv_id, window_idx, first_turn_idx, n_turns, window_sig) per
    overlapping turn window. One conv-keyed bucketed exchange (the
    engine's own partitioning unit — a conversation is never split);
    per bucket the kernel is fully vectorized: one lexsort, run-length
    segment geometry, then at most ``window`` masked fold passes.
    NULL text folds as "" (coalesce semantics); a NULL conv_id is a
    legal group (conv_profiles' idiom)."""
    import ray.data

    from .bucketing import bucket_groupby, fnv1a_hashes, hash_bucket

    def partial(batch: pa.Table) -> pa.Table:
        h = fnv1a_hashes(
            pc.fill_null(batch.column("conv_id"), "").to_pylist())
        return pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("turn_idx").cast(pa.int64()),
            "text": pc.fill_null(batch.column("text"), ""),
            "bucket": pa.array(hash_bucket([h]), pa.int32()),
        })

    def windows(group: pa.Table) -> pa.Table:
        order = pc.sort_indices(group, sort_keys=[
            ("conv_id", "ascending"), ("turn_idx", "ascending")])
        g = group.take(order)
        conv = g.column("conv_id")
        filled = pc.fill_null(conv, "")
        valid = pc.is_valid(conv).to_numpy(zero_copy_only=False)
        n = g.num_rows
        if n == 0:
            return pa.table({
                "conv_id": pa.array([], pa.string()),
                "window_idx": pa.array([], pa.int64()),
                "first_turn_idx": pa.array([], pa.int64()),
                "n_turns": pa.array([], pa.int64()),
                "window_sig": pa.array([], pa.int64()),
            })
        same = pc.equal(filled.slice(1), filled.slice(0, n - 1)) \
            .to_numpy(zero_copy_only=False) if n > 1 \
            else np.array([], bool)
        change = np.concatenate(
            [[True], ~(same & (valid[1:] == valid[:-1]))])
        starts = np.flatnonzero(change)
        lens = np.diff(np.append(starts, n)).astype(np.int64)
        h = fnv1a_hashes(g.column("text"))
        ti = g.column("turn_idx").to_numpy(zero_copy_only=False)
        k = (lens - 1) // stride + 1
        seg_rep = np.repeat(np.arange(len(starts), dtype=np.int64), k)
        total = int(k.sum())
        widx = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(k) - k, k)
        wstart = widx * stride
        nt = np.minimum(lens[seg_rep] - wstart, window)
        base = starts[seg_rep] + wstart
        sig = np.zeros(total, np.uint64)
        with np.errstate(over="ignore"):
            for j in range(window):
                live = nt > j
                if not live.any():
                    break
                sig[live] = sig[live] * _WINDOW_BASE + h[base[live] + j]
        return pa.table({
            "conv_id": conv.take(pa.array(starts[seg_rep])),
            "window_idx": pa.array(widx, pa.int64()),
            "first_turn_idx": pa.array(ti[base], pa.int64()),
            "n_turns": pa.array(nt, pa.int64()),
            "window_sig": pa.array(sig.astype(np.int64), pa.int64()),
        })

    ds = ray.data.read_parquet(transcripts_glob,
                               columns=["conv_id", "turn_idx", "text"])
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
    return bucket_groupby(parts, windows)


def tool_transitions(transcripts_glob: str):
    """(tool_from, tool_to, n): counts of consecutive tool-call pairs
    within each conversation under turn_idx order, non-tool turns
    skipped — agent tool-usage Markov mining (which tool follows
    which), the transcript analogue of kg_event_transitions. NULL
    conv_id turns are excluded in engine AND twin (a transition needs
    a conversation identity).

    Shape: the read prunes to tool turns only (usually a small
    fraction of turn mass), ONE conv-keyed bucketed exchange, fully
    vectorized pairing per bucket (sort + shift), then a tiny
    tool-keyed reduce over vocabulary-sized partials."""
    import ray.data

    from .bucketing import bucket_groupby, fnv1a_hashes, hash_bucket

    def partial(batch: pa.Table) -> pa.Table:
        keep = pc.and_(pc.is_valid(batch.column("tool")),
                       pc.is_valid(batch.column("conv_id")))
        t = pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("turn_idx").cast(pa.int64()),
            "tool": batch.column("tool"),
        }).filter(keep)
        h = fnv1a_hashes(t.column("conv_id"))
        return t.append_column(
            "bucket", pa.array(hash_bucket([h]), pa.int32()))

    def pairs(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(group, sort_keys=[
            ("conv_id", "ascending"), ("turn_idx", "ascending")])
        g = group.take(idx)
        conv = g.column("conv_id").combine_chunks() \
            .dictionary_encode().indices.to_numpy(zero_copy_only=False)
        tool = g.column("tool").combine_chunks()
        empty = pa.table({
            "tool_from": pa.array([], pa.string()),
            "tool_to": pa.array([], pa.string()),
            "n": pa.array([], pa.int64()),
            "bucket": pa.array([], pa.int32()),
        })
        if len(conv) < 2:
            return empty
        same = pa.array(conv[1:] == conv[:-1])
        p = pa.table({
            "tool_from": tool.slice(0, len(tool) - 1),
            "tool_to": tool.slice(1),
        }).filter(same)
        if p.num_rows == 0:
            return empty
        c = p.group_by(["tool_from", "tool_to"]) \
            .aggregate([([], "count_all")]) \
            .rename_columns(["tool_from", "tool_to", "n"])
        h = fnv1a_hashes(c.column("tool_from"))
        return pa.table({
            "tool_from": c.column("tool_from"),
            "tool_to": c.column("tool_to"),
            "n": c.column("n").cast(pa.int64()),
            "bucket": pa.array(hash_bucket([h]), pa.int32()),
        })

    def reduce(group: pa.Table) -> pa.Table:
        g = group.group_by(["tool_from", "tool_to"]) \
            .aggregate([("n", "sum")])
        return g.rename_columns(["tool_from", "tool_to", "n"])

    ds = ray.data.read_parquet(transcripts_glob,
                               columns=["conv_id", "turn_idx", "tool"])
    parts = ds.map_batches(partial, batch_format="pyarrow",
                           batch_size=None)
    return bucket_groupby(bucket_groupby(parts, pairs), reduce,
                          pre_repartition=False)


def tool_transitions_sql(transcripts_glob: str) -> str:
    """DuckDB twin: LAG over the tool turns per conversation."""
    return f"""
        WITH t AS (
          SELECT conv_id, tool,
                 lag(tool) OVER (PARTITION BY conv_id
                                 ORDER BY turn_idx) AS tool_from
          FROM read_parquet('{transcripts_glob}')
          WHERE tool IS NOT NULL AND conv_id IS NOT NULL
        )
        SELECT tool_from, tool AS tool_to,
               CAST(count(*) AS BIGINT) AS n
        FROM t WHERE tool_from IS NOT NULL
        GROUP BY tool_from, tool"""


def transcript_windows_sql(transcripts_glob: str,
                           window: int = WINDOW_TURNS,
                           stride: int = WINDOW_STRIDE) -> str:
    """DuckDB twin: same ordering, same per-turn FNV hashes, same
    seed-0 rolling fold per window (shared SQL kernels)."""
    from .bucketing import sql_fnv1a
    from . import bucketing as _b
    roll = (f"CAST((CAST(a AS HUGEINT) * {_b.FNV_BASE} + "
            f"CAST(b AS HUGEINT)) % {_b.SQL_M64} AS UBIGINT)")
    fold = ("list_reduce(list_prepend(CAST(0 AS UBIGINT), chs), "
            f"(a, b) -> {roll})")
    signed = ("CASE WHEN sig_u >= CAST(9223372036854775808 AS UBIGINT) "
              f"THEN CAST(CAST(sig_u AS HUGEINT) - {_b.SQL_M64} "
              "AS BIGINT) ELSE CAST(sig_u AS BIGINT) END")
    return f"""
        WITH ordered AS (
          SELECT conv_id,
                 array_agg(CAST(turn_idx AS BIGINT)
                           ORDER BY turn_idx) AS tis,
                 [{sql_fnv1a('t')} FOR t IN
                  array_agg(coalesce(text, '') ORDER BY turn_idx)] AS hs
          FROM read_parquet('{transcripts_glob}')
          GROUP BY conv_id
        ), idx AS (
          SELECT conv_id, tis, hs,
                 unnest(generate_series(0, (len(hs) - 1) // {stride}))
                     AS window_idx
          FROM ordered
        ), c AS (
          SELECT conv_id, window_idx,
                 tis[1 + window_idx * {stride}] AS first_turn_idx,
                 list_slice(hs, 1 + window_idx * {stride},
                            window_idx * {stride} + {window}) AS chs
          FROM idx
        ), s AS (
          SELECT conv_id, window_idx, first_turn_idx,
                 len(chs) AS nt, {fold} AS sig_u
          FROM c
        )
        SELECT conv_id, CAST(window_idx AS BIGINT) AS window_idx,
               CAST(first_turn_idx AS BIGINT) AS first_turn_idx,
               CAST(nt AS BIGINT) AS n_turns, {signed} AS window_sig
        FROM s"""


# --- conversation-level exact dedup by opening (transcript curation) ---
#
# Whole-conversation exact duplicates are rare at web scale, but
# conversations SHARING an opening (the first OPENING_TURNS turns'
# (role, text) sequence — canned system prompts, templated kickoffs)
# are the unit a transcript-dedup pass keys on before near-dup
# analysis (the reference dedups emitted triples the same
# group-on-content way, code/event_dedup.py semantics; here the
# content key is the conversation opening).

OPENING_TURNS = 3
OPENING_MIN_CONVS = 2

# field / record separators for the opening key — characters the
# synthetic corpus never emits in role/text, so the concatenation is
# injective over the fields it joins
_OPEN_FS = "\x1f"
_OPEN_RS = "\x1e"


def conv_opening_dup_groups(transcripts_glob: str,
                            k: int = OPENING_TURNS,
                            min_convs: int = OPENING_MIN_CONVS):
    """(keeper, n_convs) for every group of >= min_convs conversations
    whose first ``k`` turns have the identical (role, text) sequence;
    ``keeper`` is the lexicographically-least conv_id of the group
    (the one a dedup pass would keep). NULL conv_id turns are excluded
    (no conversation identity).

    Shape: the read keeps only turn_idx < k rows (constant rows per
    conversation cross the wire regardless of conversation length),
    exchange 1 co-locates each conversation's opening turns by conv_id
    and assembles the opening key VECTORIZED (sort + list-agg +
    binary_join — no per-row Python), exchange 2 groups by opening-key
    hash and reduces to (keeper, n_convs). A viral opening shared by
    10^8 conversations arrives at exchange 2 as one row per exchange-1
    bucket (per-bucket partial min/count), so hot openings never
    concentrate on one reducer."""
    import ray.data

    from .bucketing import bucket_groupby, fnv1a_hashes, hash_bucket

    def early(batch: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.less(batch.column("turn_idx").cast(pa.int64()),
                    pa.scalar(k, pa.int64())),
            pc.is_valid(batch.column("conv_id")))
        t = pa.table({
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("turn_idx").cast(pa.int64()),
            "piece": pc.binary_join_element_wise(
                pc.fill_null(batch.column("role"), ""),
                pc.fill_null(batch.column("text"), ""), _OPEN_FS),
        }).filter(keep)
        h = fnv1a_hashes(t.column("conv_id"))
        return t.append_column(
            "bucket", pa.array(hash_bucket([h]), pa.int32()))

    def openings(group: pa.Table) -> pa.Table:
        idx = pc.sort_indices(group, sort_keys=[
            ("conv_id", "ascending"), ("turn_idx", "ascending")])
        g = group.take(idx).group_by(
            ["conv_id"], use_threads=False).aggregate([("piece", "list")])
        okey = pc.binary_join(g.column("piece_list"), _OPEN_RS)
        # per-bucket partial: one row per (okey) with min conv_id +
        # count — conversations are whole within a bucket (keyed by
        # conv_id), so partials are disjoint and merge by min/sum
        t = pa.table({"okey": okey, "conv_id": g.column("conv_id")})
        p = t.group_by(["okey"]).aggregate([
            ("conv_id", "min"), ([], "count_all")])
        h = fnv1a_hashes(p.column("okey"))
        return pa.table({
            "okey": p.column("okey"),
            "keeper_p": p.column("conv_id_min"),
            "n_p": p.column("count_all").cast(pa.int64()),
            "bucket": pa.array(hash_bucket([h]), pa.int32()),
        })

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["okey"]).aggregate([
            ("keeper_p", "min"), ("n_p", "sum")])
        g = g.filter(pc.greater_equal(
            g.column("n_p_sum"), pa.scalar(min_convs, pa.int64())))
        return pa.table({
            "keeper": g.column("keeper_p_min"),
            "n_convs": g.column("n_p_sum").cast(pa.int64()),
        })

    ds = ray.data.read_parquet(
        transcripts_glob, columns=["conv_id", "turn_idx", "role", "text"])
    parts = ds.map_batches(early, batch_format="pyarrow",
                           batch_size=None)
    return bucket_groupby(bucket_groupby(parts, openings), final,
                          pre_repartition=False)


def conv_opening_dup_groups_sql(transcripts_glob: str,
                                k: int = OPENING_TURNS,
                                min_convs: int = OPENING_MIN_CONVS
                                ) -> str:
    """DuckDB twin: the identical opening key via ordered string_agg."""
    return f"""
        WITH o AS (
          SELECT conv_id,
                 string_agg(coalesce(role, '') || chr(31) ||
                            coalesce(text, ''), chr(30)
                            ORDER BY turn_idx) AS okey
          FROM read_parquet('{transcripts_glob}')
          WHERE turn_idx < {k} AND conv_id IS NOT NULL
          GROUP BY conv_id
        )
        SELECT min(conv_id) AS keeper,
               CAST(count(*) AS BIGINT) AS n_convs
        FROM o GROUP BY okey HAVING count(*) >= {min_convs}"""


# ---------------------------------------------------------------------------
# KG event timelines: coref-cluster activity windows (events x ts)
# ---------------------------------------------------------------------------

def kg_event_timeline(events_ds, transcripts_dir: str):
    """Per-coref-cluster activity window: join the materialized KG
    events to their turns' timestamps (the reference's realis/coref
    time features read the same doc dates, link_coref.py:364-410) and
    aggregate first/last mention time, mention count and distinct
    conversations per cluster.

    Shape: one ``hash_join`` exchange keyed on conv_id (a conversation
    is co-located whole, so the fused per-bucket kernel can match
    turn_idx and pre-aggregate to (cluster, conv) rows — output mass
    is cluster-conversation pairs, not event rows), then one small
    keyed exchange on cluster for the final merge. At 100 TB both
    exchanges carry aggregate-sized payloads only.
    """
    import ray.data

    from .bucketing import N_OPS_BUCKETS, bucket_groupby, fnv1a_hashes
    from .join import hash_join

    left = ray.data.read_parquet(
        transcripts_dir, columns=["conv_id", "turn_idx", "ts"]) \
        .rename_columns({"turn_idx": "t_turn"})
    right = events_ds.select_columns(["conv_id", "turn_idx", "cluster"]) \
        .rename_columns({"turn_idx": "e_turn"})

    def per_conv(j: pa.Table) -> pa.Table:
        m = pc.equal(j.column("t_turn"), j.column("e_turn"))
        g = j.filter(m).group_by(["cluster", "conv_id"]).aggregate(
            [("ts", "min"), ("ts", "max"), ("ts", "count")])
        return g

    pairs = hash_join(
        left, right, on="conv_id",
        left_schema=pa.schema([("conv_id", pa.string()),
                               ("t_turn", pa.int32()),
                               ("ts", pa.timestamp("us"))]),
        right_schema=pa.schema([("conv_id", pa.string()),
                                ("e_turn", pa.int32()),
                                ("cluster", pa.string())]),
        bucket_fn=per_conv)

    def rebucket(b: pa.Table) -> pa.Table:
        h = fnv1a_hashes(pc.fill_null(b.column("cluster"), "")) \
            % np.uint64(N_OPS_BUCKETS)
        return b.append_column("bucket", pa.array(h.astype(np.int32)))

    def final(group: pa.Table) -> pa.Table:
        g = group.group_by(["cluster"]).aggregate(
            [("ts_min", "min"), ("ts_max", "max"), ("ts_count", "sum"),
             ("conv_id", "count")])
        return pa.table({
            "cluster": g.column("cluster"),
            "first_ts": g.column("ts_min_min"),
            "last_ts": g.column("ts_max_max"),
            "n_mentions": g.column("ts_count_sum"),
            "n_convs": g.column("conv_id_count"),
        })

    return bucket_groupby(
        pairs.map_batches(rebucket, batch_format="pyarrow"), final,
        pre_repartition=False)


def kg_event_timeline_sql(events_parquet: str, corpus: str) -> str:
    return f"""
        SELECT e.cluster,
               min(t.ts) AS first_ts, max(t.ts) AS last_ts,
               count(*) AS n_mentions,
               count(DISTINCT e.conv_id) AS n_convs
        FROM read_parquet('{events_parquet}') e
        JOIN read_parquet('{corpus}/transcripts/*.parquet') t
          ON t.conv_id = e.conv_id AND t.turn_idx = e.turn_idx
        GROUP BY e.cluster
    """
