"""Resumable partitioned-parquet sink (the generic form of the KG
pipeline's per-group checkpointing, state/manifest.py).

``write_partitioned`` lands a Dataset as hive-style
``out_dir/<col>=<value>/part.parquet`` directories, one per distinct
partition value, each committed atomically (write to a temp dir ->
``os.replace`` into place -> manifest JSON). A re-run with ``resume=True``
skips every partition whose manifest matches the config hash WITHOUT
rewriting it, so a failed export restarts from where it died and an
append-only pipeline re-lands only new partitions — the "resumable
output" contract every 100 TB export needs (never one giant file, never
a partial directory visible to readers).

Shape: one bucketed exchange keyed by the partition value's hash; each
bucket task writes its partitions' files itself and emits a one-row
summary per partition (partition, n_rows, skipped), so the driver
receives O(#partitions) rows and never touches row data. Rows within a
partition are sorted by all columns before writing, making output bytes
deterministic for a given row set (tested: resume == from-scratch,
byte-identical).

Partition cardinality is assumed operator-bounded (a lang / shard /
date column — the hive-partitioning regime), like the per-group loop
this generalizes; a high-cardinality key belongs in the bucketed
exchanges, not in directory names.

Like the KG pipeline's fused finalize (pipelines/kg.py), the in-task
writes target whatever filesystem the worker sees: on a multi-node
cluster ``out_dir`` must be a shared filesystem (NFS/Lustre) or an
fsspec URI; plain local paths are only correct on the single-node rig.
"""

from __future__ import annotations

import hashlib
import json
import os
import re

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.fs as pafs
import pyarrow.parquet as pq

from .bucketing import bucket_groupby, fnv1a_hashes, hash_bucket


def _resolve(path: str) -> tuple[pafs.FileSystem, str]:
    """(filesystem, path inside it) for a local path or a URI."""
    return pafs.FileSystem.from_uri(
        path if "://" in path else os.path.abspath(path))


def read_parquet(path: str, columns: list[str] | None = None) -> pa.Table:
    """One parquet file (a local path or a URI such as ``file://`` or
    ``s3://``) as a table, read with ``pq.ParquetFile``: it skips
    ``pq.read_table``'s dataset set-up, most of a small file's read
    cost. The one reader of the stage-A shards and the stage-B side
    tables."""
    fs, p = _resolve(path)
    with fs.open_input_file(p) as f:
        return pq.ParquetFile(f).read(columns=columns)


def file_size(path: str) -> int:
    """Byte size of a local path or URI, statted through its filesystem."""
    fs, p = _resolve(path)
    return fs.get_file_info(p).size


_SUMMARY_SCHEMA = pa.schema([
    ("partition", pa.string()), ("n_rows", pa.int64()),
    ("skipped", pa.bool_()),
])

# Hive/Spark convention: rows whose partition value is NULL land in
# this directory instead of being silently dropped.
NULL_PARTITION = "__HIVE_DEFAULT_PARTITION__"


def _cfg_hash(config: str, partition_col: str, schema_names) -> str:
    payload = repr((config, partition_col, sorted(schema_names)))
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def _safe(value: str) -> str:
    """Filesystem-safe partition dir fragment. When sanitization
    changes the value, a short hash of the RAW value is appended so two
    distinct values (e.g. 'a/b' vs 'a_b') can never share a directory
    or manifest."""
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", value)
    if safe == value:
        return safe
    tag = hashlib.blake2b(value.encode(), digest_size=4).hexdigest()
    return f"{safe}-{tag}"


def _part_manifest(out_dir: str, value: str) -> str:
    return os.path.join(out_dir, "_manifests", f"part-{_safe(value)}.json")


def partition_complete(out_dir: str, value: str, cfg: str) -> bool:
    try:
        with open(_part_manifest(out_dir, value)) as f:
            m = json.load(f)
        return m.get("cfg") == cfg and os.path.isdir(
            os.path.join(out_dir, m["relpath"]))
    except (OSError, ValueError, KeyError):
        return False


def _commit_partition(out_dir: str, value: str, cfg: str, relpath: str,
                      n_rows: int) -> None:
    md = os.path.join(out_dir, "_manifests")
    os.makedirs(md, exist_ok=True)
    tmp = _part_manifest(out_dir, value) + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"cfg": cfg, "relpath": relpath, "n_rows": n_rows}, f)
    os.replace(tmp, _part_manifest(out_dir, value))


def _write_bucket(out_dir: str, partition_col: str, cfg: str,
                  resume: bool):
    def fn(group: pa.Table) -> pa.Table:
        g = group.drop_columns(["bucket"])
        col = g.column(partition_col).combine_chunks()
        vals = pc.unique(col)
        out_v, out_n, out_s = [], [], []
        for v in vals.to_pylist():          # bounded by partition count
            if v is None:
                sval = NULL_PARTITION
                part = g.filter(pc.is_null(col))
            else:
                sval = str(v)
                part = g.filter(pc.equal(
                    col.cast(pa.string()),
                    pa.scalar(sval, pa.string())))
            out_v.append(sval)
            out_n.append(part.num_rows)
            if resume and partition_complete(out_dir, sval, cfg):
                out_s.append(True)
                continue
            out_s.append(False)
            part = part.sort_by([(c, "ascending")
                                 for c in part.column_names])
            relpath = f"{partition_col}={_safe(sval)}"
            tmp_dir = os.path.join(out_dir, f"_tmp-{_safe(sval)}")
            os.makedirs(tmp_dir, exist_ok=True)
            pq.write_table(part, os.path.join(tmp_dir, "part.parquet"))
            final = os.path.join(out_dir, relpath)
            if os.path.isdir(final):
                import shutil
                shutil.rmtree(final)
            os.replace(tmp_dir, final)
            _commit_partition(out_dir, sval, cfg, relpath, part.num_rows)
        return pa.table({
            "partition": pa.array(out_v, pa.string()),
            "n_rows": pa.array(out_n, pa.int64()),
            "skipped": pa.array(out_s, pa.bool_()),
        })
    return fn


def write_partitioned(ds, out_dir: str, partition_col: str,
                      config: str = "", resume: bool = True):
    """Land ``ds`` as hive-partitioned parquet under ``out_dir``,
    resumably. Rows with a NULL partition value land under the
    Hive/Spark default partition (``NULL_PARTITION``) rather than
    being dropped. Returns the per-partition summary Dataset
    (partition, n_rows, skipped); consume it to drive the write."""
    schema_names = ds.schema().names
    cfg = _cfg_hash(config, partition_col, schema_names)
    os.makedirs(out_dir, exist_ok=True)

    def tag(batch: pa.Table) -> pa.Table:
        h = fnv1a_hashes([
            NULL_PARTITION if v is None else str(v)
            for v in batch.column(partition_col).to_pylist()])
        return batch.append_column(
            "bucket", pa.array(hash_bucket([h]), pa.int32()))

    tagged = ds.map_batches(tag, batch_format="pyarrow", batch_size=None)
    return bucket_groupby(
        tagged, _write_bucket(out_dir, partition_col, cfg, resume))
