"""Bucketed-exchange helpers shared by the ops layer.

The recurring scale rule (and round-1 verdict item #1): never
``groupby()`` a high-cardinality key with a per-key Python
``map_groups`` — at corpus scale that is billions of tiny Python calls.
Instead derive a bounded-cardinality ``bucket`` column from the key
hash, ``groupby`` the BUCKET (one exchange, one Python call per
bucket), and process each bucket group with vectorized Arrow / numpy
kernels over all its keys at once. Hot keys only enlarge one bucket's
vectorized reduce, never a Python loop. This is the same pattern the KG
pipeline's stage B uses (pipelines/kg.py hash exchange + whole-block
Arrow ``group_by``), expressed with the sort-based groupby so lazy
Datasets returned to the driver need no session-global shuffle-strategy
override.

Bucket count trades exchange fan-out against per-bucket memory: a
bucket group must fit one task's heap AFTER the per-batch combiners
have reduced it, so size ``n_buckets`` proportional to cluster task
slots at deployment (the default suits the single-node test rig).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

N_OPS_BUCKETS = 256


def bucket_groupby(ds, fn, *, batch_format="pyarrow",
                   coarse_per_cpu: int | None = None,
                   pre_repartition: bool = True):
    """The standard bucketed exchange: coalesce to ~one block per
    cluster task slot, then sort-groupby on the ``bucket`` column with
    one vectorized ``fn`` call per bucket group.

    The coalesce matters: Ray's sort exchange costs ~P^2 in partition
    count (P boundary samples + P x P shuffle transfers), and P follows
    the INPUT block count — which tracks file-split heuristics, not
    data mass (a small file read still splits ~2 blocks per CPU). One
    linear repartition pass caps P at the cluster's task-slot count, so
    exchange overhead scales with cluster size instead of with however
    many shards the upstream happened to emit. On a big cluster the cap
    equals total CPUs, which is exactly the partition count you want
    for an all-to-all anyway.

    ``coarse_per_cpu``: opt-in for BUCKET-AGNOSTIC ``fn`` (one whose
    result does not depend on grouping granularity — e.g. an Arrow
    ``group_by`` on the real keys): group on ``bucket mod
    (coarse_per_cpu x cluster CPUs)`` instead of the raw bucket,
    cutting the per-group call count from N_BUCKETS to a few per task
    slot while equal keys still co-locate (equal bucket -> equal
    coarse group). Hot-KEY spreading is unaffected (a hot key is one
    key in one vectorized group either way); per-group memory grows by
    the coarsening factor, so only use it for reduce fns whose output
    is much smaller than their input or whose input already fits.

    ``pre_repartition=False``: callers whose input is ALREADY ~one
    block per task slot (e.g. the output of a previous exchange in the
    same chain) skip the coalesce — one fewer linear pass over the
    data; the sort exchange partitions on the existing block count."""
    import ray
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    if pre_repartition:
        ds = ds.repartition(ncpu)
    if not coarse_per_cpu:
        return ds.groupby("bucket").map_groups(
            fn, batch_format=batch_format)
    m = max(1, ncpu * coarse_per_cpu)

    def _tag(t):
        b = t.column("bucket").to_numpy(zero_copy_only=False)
        import pyarrow as pa
        return t.append_column(
            "cgroup", pa.array((b % m).astype(np.int32)))

    def _untag(g):
        return fn(g.drop_columns(["cgroup"]))

    return ds.map_batches(_tag, batch_format="pyarrow",
                          batch_size=None) \
        .groupby("cgroup").map_groups(_untag, batch_format=batch_format)

_SPLIT1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLIT2 = np.uint64(0x94D049BB133111EB)
_PHI = np.uint64(0x9E3779B97F4A7C15)

# FNV-1a constants (shared with ops.text fingerprinting)
FNV_BASE = np.uint64(1099511628211)
FNV_OFF = np.uint64(14695981039346656037)


def hash_bucket(cols, n_buckets: int = N_OPS_BUCKETS) -> np.ndarray:
    """Mix one or more integer key columns (numpy arrays / pyarrow
    chunked arrays) into an int32 bucket id via splitmix64 finalization.
    Vectorized; no Python per-row work."""
    arrs = [np.asarray(c if isinstance(c, np.ndarray) else c.to_numpy())
            .astype(np.uint64) for c in cols]
    n = len(arrs[0])
    h = np.zeros(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for a in arrs:
            h = (h ^ a) * _PHI + np.uint64(1)
        h ^= h >> np.uint64(30)
        h *= _SPLIT1
        h ^= h >> np.uint64(27)
        h *= _SPLIT2
        h ^= h >> np.uint64(31)
    return (h % np.uint64(n_buckets)).astype(np.int32)


def mix64(cols) -> np.ndarray:
    """Full-width splitmix64 combination of integer columns (uint64)."""
    arrs = [np.asarray(c).astype(np.uint64) for c in cols]
    h = np.zeros(len(arrs[0]), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for a in arrs:
            h = (h ^ a) * _PHI + np.uint64(1)
        h ^= h >> np.uint64(30)
        h *= _SPLIT1
        h ^= h >> np.uint64(27)
        h *= _SPLIT2
        h ^= h >> np.uint64(31)
    return h


def segment_pair_indices(keys: list[np.ndarray]):
    """All within-segment index pairs (ia, ib), ia < ib positionally,
    where a segment is a maximal run of equal key tuples. ``keys`` must
    already be sorted so runs are contiguous. The only Python loop is
    over DISTINCT segment sizes (broadcast ``triu_indices`` across all
    segments of one size) — never over segments or rows."""
    empty = np.empty(0, dtype=np.int64)
    n = len(keys[0])
    if n < 2:
        return empty, empty
    change = np.zeros(n - 1, dtype=bool)
    for k in keys:
        change |= k[1:] != k[:-1]
    starts = np.concatenate(
        [np.zeros(1, np.int64), np.nonzero(change)[0] + 1]).astype(np.int64)
    ends = np.concatenate([starts[1:], np.array([n], np.int64)])
    sizes = ends - starts
    out_a, out_b = [], []
    for sz in np.unique(sizes):
        if sz < 2:
            continue
        segs = starts[sizes == sz]
        ia, ib = np.triu_indices(int(sz), 1)
        out_a.append((segs[:, None] + ia[None, :]).ravel())
        out_b.append((segs[:, None] + ib[None, :]).ravel())
    if not out_a:
        return empty, empty
    return np.concatenate(out_a), np.concatenate(out_b)


def string_buffers(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """The buffers of a string or large_string ``pa.Array`` (sliced
    arrays included): its ``len(arr) + 1`` offsets as int64, and a
    zero-copy uint8 view of the data they index. Null slots are not
    checked."""
    if pa.types.is_string(arr.type):
        otype = np.int32
    elif pa.types.is_large_string(arr.type):
        otype = np.int64
    else:
        raise TypeError(f"expected strings, got {arr.type}")
    _, obuf, dbuf = arr.buffers()
    offs = np.frombuffer(obuf, otype, len(arr) + 1,
                         arr.offset * np.dtype(otype).itemsize) \
        .astype(np.int64)
    data = np.frombuffer(dbuf, np.uint8) if dbuf is not None \
        else np.zeros(0, np.uint8)
    return offs, data


def fnv1a_hashes(words) -> np.ndarray:
    """FNV-1a 64-bit hash of each string's UTF-8 bytes, byte-exact with
    the scalar reference loop. ``words`` is a string or large_string
    ``pa.Array`` (sliced arrays included), a ``pa.ChunkedArray`` or a
    ``list[str]`` (converted with ``pa.array(words, pa.string())``); a
    null entry raises ValueError. The kernel reads the Arrow offsets and
    data buffers directly and runs one numpy pass per byte POSITION over
    the strings still that long (rows ordered longest first, so each
    pass is a prefix slice): total work is the byte count, not
    rows x longest string."""
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    elif not isinstance(words, pa.Array):
        words = pa.array(words, pa.string())
    n = len(words)
    out = np.full(n, FNV_OFF, dtype=np.uint64)
    if n == 0:
        return out
    if words.null_count:
        raise ValueError(f"fnv1a_hashes: {words.null_count} null string(s)")
    offs, data = string_buffers(words)
    lens = np.diff(offs)
    maxlen = int(lens.max())
    if maxlen == 0:
        return out
    order = np.argsort(-lens, kind="stable")
    pos = offs[:-1][order]
    # live[j] = how many strings have a byte at position j
    live = np.searchsorted(-lens[order], -np.arange(maxlen), side="left")
    h = out[order]
    for j in range(maxlen):
        k = live[j]
        h[:k] ^= data.take(pos[:k])
        h[:k] *= FNV_BASE
        pos[:k] += 1
    out[order] = h
    return out


# ---- keyed joins over string keys (the graph ops' exchange seam) ----

N_GRAPH_BUCKETS = 64


def _str_hashes(col) -> np.ndarray:
    """FNV-1a of a string column's values, a null hashing as ''."""
    return fnv1a_hashes(pc.fill_null(col.cast(pa.string()), ""))


def _str_bucket(col, n_buckets: int = N_GRAPH_BUCKETS) -> pa.Array:
    """Vectorized FNV-1a hash bucket (int32) for a string column."""
    return pa.array((_str_hashes(col) % np.uint64(n_buckets))
                    .astype(np.int32))


def key_bucket(t: pa.Table, on) -> pa.Array:
    """Bucket of each row's key: the FNV-1a bucket of one column, or the
    splitmix mix of several columns' FNV-1a hashes, in ``on`` order.
    Every key column is hashed as a string, a null as ''."""
    on = [on] if isinstance(on, str) else list(on)
    if len(on) == 1:
        return _str_bucket(t.column(on[0]))
    return pa.array(hash_bucket([_str_hashes(t.column(c)) for c in on],
                                N_GRAPH_BUCKETS))


def with_bucket(t: pa.Table, on) -> pa.Table:
    """``t`` plus the ``bucket`` column of its ``on`` key."""
    return t.append_column("bucket", key_bucket(t, on))


def bucket_join(left, right, fn, *, on, left_schema, right_schema,
                right_on=None):
    """Co-locate two keyed Datasets in ONE :func:`bucket_groupby`
    exchange and call ``fn(left_rows, right_rows)`` once per bucket
    group. Each argument is a table of that side's declared columns
    (``left_schema`` / ``right_schema``; any other input column, such as
    a ``bucket``, is dropped before the exchange) holding the side's
    rows whose key fell in the group's bucket; either may have no rows.

    ``left`` is keyed by the column(s) ``on``, ``right`` by
    ``right_on`` (default ``on``): rows whose keys are equal once cast
    to their declared types always meet in one group. A null key
    hashes like '' and reaches ``fn``, so an Arrow join inside ``fn``
    never matches it. Both sides are padded
    here to one union schema (a shared column name must have one type)
    plus an int8 ``_side`` tag, so every exchanged block has the same
    schema and a null value never decides a row's side. The schemas are
    declared, not read from the inputs, because Ray keeps no schema for
    an exchange or a map over no rows: an empty side still reaches
    ``fn`` as an empty table of its declared schema."""
    right_on = on if right_on is None else right_on
    by_name = {f.name: f for f in left_schema}
    for f in right_schema:
        if by_name.setdefault(f.name, f).type != f.type:
            raise TypeError(f"bucket_join: column {f.name!r} is "
                            f"{by_name[f.name].type} on the left and "
                            f"{f.type} on the right")
    fields = list(by_name.values())
    schema = pa.schema(fields + [("_side", pa.int8()),
                                 ("bucket", pa.int32())])

    def pad(side: int, key):
        def padded(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = pa.Table.from_arrays(
                [t.column(f.name).cast(f.type) if f.name in t.column_names
                 else pa.nulls(n, f.type) for f in fields],
                schema=pa.schema(fields))
            return pa.Table.from_arrays(
                cols.columns + [pa.array(np.full(n, side, np.int8)),
                                key_bucket(cols, key)], schema=schema)
        return padded

    def kernel(group: pa.Table) -> pa.Table:
        is_r = pc.equal(group.column("_side"), pa.scalar(1, pa.int8()))
        return fn(group.filter(pc.invert(is_r)).select(left_schema.names),
                  group.filter(is_r).select(right_schema.names))

    lp, rp = (ds.map_batches(pad(side, key), batch_format="pyarrow")
              for side, ds, key in ((0, left, on), (1, right, right_on)))
    return bucket_groupby(lp.union(rp), kernel)


def superstep(state, edges, message, combine, *, state_schema,
              edge_schema, edge_on: str = "src"):
    """One round of a vertex program: :func:`bucket_join` the node
    ``state`` (keyed by its ``node`` column) with ``edges`` (keyed by
    ``edge_on``), where ``message(state_rows, edge_rows)`` emits
    messages addressed by their ``node`` column; then exchange the
    messages by ``node`` and reduce each bucket group with
    ``combine(messages)`` into the next state. Two exchanges; the new
    state is returned materialized."""
    def send(s: pa.Table, e: pa.Table) -> pa.Table:
        return with_bucket(message(s, e), "node")

    def reduce_(group: pa.Table) -> pa.Table:
        return combine(group.drop_columns(["bucket"]))

    msgs = bucket_join(state, edges, send, on="node", right_on=edge_on,
                       left_schema=state_schema, right_schema=edge_schema)
    return bucket_groupby(msgs, reduce_).materialize()


def register_reduce(ds, merge_fn, *, batch_format="pyarrow"):
    """Tree-merge for bounded REGISTER tables (HLL/PCA-style mergeable
    state whose merge fn is closed over its own output schema): one
    intermediate merge level at cluster width, then the single final
    task. The final task's input is ~#CPUs blocks of register-sized
    tables regardless of how many input blocks the scan produced — the
    missing piece that makes the "one tiny final merge" claim hold at
    100k-block corpora, at the cost of one extra linear pass over
    register-mass-only data."""
    import ray
    ncpu = int(ray.cluster_resources().get("CPU", 4))
    return ds.repartition(ncpu) \
        .map_batches(merge_fn, batch_format=batch_format,
                     batch_size=None) \
        .repartition(1) \
        .map_batches(merge_fn, batch_format=batch_format,
                     batch_size=None)


# ---- SQL-twin helpers for the splitmix64 idiom (single source of
# truth for every DuckDB oracle that reproduces mix64 bit-for-bit:
# the HLL/KMV/bloom twins in __ray_entry__ and the inverted-index
# twin in ops.retrieval) ----

SQL_M64 = "CAST(18446744073709551616 AS HUGEINT)"
SPLITMIX_PHI = 0x9E3779B97F4A7C15
SPLITMIX_C1 = 0xBF58476D1CE4E5B9
SPLITMIX_C2 = 0x94D049BB133111EB


def sql_mulmod64(h: str, const: int) -> str:
    """SQL for (h * const) mod 2^64 without HUGEINT overflow: split
    the ~2^63 constant into 32-bit halves so every intermediate stays
    under 2^97. Twin of the numpy uint64 wrap in :func:`mix64`."""
    hi, lo = const >> 32, const & 0xFFFFFFFF
    return (f"CAST((((CAST({h} AS HUGEINT) * {hi}) % 4294967296) "
            f"* 4294967296 + CAST({h} AS HUGEINT) * {lo}) % {SQL_M64} "
            "AS UBIGINT)")


def sql_fnv1a(col: str) -> str:
    """FNV-1a 64-bit of an ASCII string expression, in SQL — twin of
    :func:`fnv1a_hashes` (unicode() code points equal UTF-8 bytes for
    ASCII input). Single source of truth for every DuckDB oracle that
    hashes strings."""
    return (
        "list_reduce(list_prepend("
        f"CAST({FNV_OFF} AS UBIGINT), "
        f"[CAST(unicode(substring({col}, i, 1)) AS UBIGINT) "
        f"FOR i IN generate_series(1, length({col}))]), "
        f"(a, b) -> CAST((CAST(xor(a, b) AS HUGEINT) * {FNV_BASE}) "
        f"% {SQL_M64} AS UBIGINT))"
    )
