"""Fault-tolerance contracts for the engine's Ray task and streaming
executor paths.

At 100 TB on a real cluster, worker processes die mid-run (preemption,
OOM kills, node loss). The engine relies on Ray retrying a task whose
worker died, and on fail-loud semantics for user errors. Stage A runs
as plain Ray tasks with the options Ray Data gives its map tasks; stage
B, the staging pre-pass and the graph ops rely on Ray Data's default
task/actor retry. These tests pin both behaviours so an upgrade or a
config change that silently weakens them is caught:

* the stage-A task retries a dead worker without limit and re-raises a
  user error on its first raise: a null key fails the build with a
  ``ValueError`` naming the shard, and the in-flight cap does not change
  what the tasks write;
* a worker process dying mid-stream inside an actor-pool stage is
  retried and the pipeline's output is byte-identical to a clean run
  (Ray restarts the actor and re-runs the lost task);
* a user exception inside a batch UDF fails the run loudly — Ray Data's
  default ``max_errored_blocks = 0`` means no block is ever silently
  dropped (a "skip bad blocks" mode would be silent data loss at scale).

The KG pipeline's own crash-safety (idempotent per-group writes,
manifest resume) is covered in test_engine.py; these tests pin the
layer underneath it.
"""

from __future__ import annotations

import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest


class _CrashOnce:
    """Actor-pool stage whose FIRST attempt anywhere in the pool kills
    its worker process the way the OOM killer would (``os._exit``, no
    Python-level exception). Coordination is an O_EXCL sentinel file,
    so exactly one attempt dies regardless of pool size."""

    def __init__(self, sentinel: str):
        self.sentinel = sentinel

    def __call__(self, batch: pa.Table) -> pa.Table:
        try:
            fd = os.open(self.sentinel,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(1)
        except FileExistsError:
            pass
        doubled = pc.multiply(batch.column("x"), pa.scalar(2, pa.int64()))
        return batch.append_column("y", doubled)


def _run(ray, sentinel: str | None) -> pa.Table:
    tbl = pa.table({"x": np.arange(1000, dtype=np.int64)})
    ds = ray.data.from_arrow(tbl).repartition(8)
    if sentinel is None:
        out = ds.map_batches(
            lambda b: b.append_column(
                "y", pc.multiply(b.column("x"), pa.scalar(2, pa.int64()))),
            batch_format="pyarrow")
    else:
        out = ds.map_batches(_CrashOnce, fn_constructor_args=(sentinel,),
                             batch_format="pyarrow", concurrency=2)
    return pa.concat_tables(
        ray.get(out.materialize().to_arrow_refs())).sort_by("x")


def test_worker_death_mid_stream_is_retried_exactly(ray_session, tmp_path):
    """One worker process dies hard mid-stream; the stage output must
    still be byte-identical to a clean run."""
    sentinel = str(tmp_path / "crash_once")
    clean = _run(ray_session, None)
    faulted = _run(ray_session, sentinel)
    assert os.path.exists(sentinel), "fault was never injected"
    assert faulted.num_rows == 1000
    assert faulted.equals(clean.select(faulted.column_names)) or \
        faulted.select(sorted(faulted.column_names)).equals(
            clean.select(sorted(clean.column_names)))


def test_user_exception_fails_loud_not_silent(ray_session):
    """A user error in a batch UDF must abort the run (default
    max_errored_blocks = 0), never drop the offending block."""
    def bad(batch: pa.Table) -> pa.Table:
        raise ValueError("planted user error")

    ds = ray_session.data.range(100).map_batches(bad,
                                                 batch_format="pyarrow")
    with pytest.raises(Exception) as ei:
        ds.materialize()
    assert "planted user error" in str(ei.value)


def _crash_once_sum_kernel(sentinel: str):
    """Per-bucket kernel whose FIRST attempt anywhere kills its worker
    process hard (the OOM-killer shape) — exercises retry on the
    bucketed sort-exchange path every ops.bucketing.bucket_groupby
    operator rides, which is a different recovery surface than the
    actor-pool stage above (task-pool task on an AllToAll output)."""
    def kern(group: pa.Table) -> pa.Table:
        try:
            fd = os.open(sentinel,
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            os.close(fd)
            os._exit(1)
        except FileExistsError:
            pass
        g = group.group_by(["k"]).aggregate([("v", "sum")])
        g = g.rename_columns(["k", "v"])
        return g.sort_by("k")
    return kern


def test_worker_death_in_shuffle_exchange_is_retried_exactly(
        ray_session, tmp_path):
    """One worker dies hard INSIDE the per-bucket kernel downstream of
    the sort exchange; Ray must replay the lost task (recovering its
    shuffle inputs as needed) and the keyed aggregate must stay
    byte-identical to a clean run."""
    from casie_ray.ops.bucketing import bucket_groupby, hash_bucket

    keys = np.arange(2000, dtype=np.int64) % 97
    vals = np.arange(2000, dtype=np.int64)
    tbl = pa.table({
        "k": keys, "v": vals,
        "bucket": pa.array(hash_bucket([keys.astype(np.uint64)]),
                           pa.int32()),
    })

    def run(sentinel):
        ds = ray_session.data.from_arrow(tbl).repartition(8)
        fn = _crash_once_sum_kernel(sentinel) if sentinel else \
            _crash_once_sum_kernel(os.devnull)   # devnull exists: no crash
        out = bucket_groupby(ds, fn)
        return pa.concat_tables(
            ray_session.get(out.materialize().to_arrow_refs())) \
            .sort_by([("k", "ascending")])

    clean = run(None)
    sentinel = str(tmp_path / "crash_once_shuffle")
    faulted = run(sentinel)
    assert os.path.exists(sentinel), "fault was never injected"
    assert faulted.num_rows == 97
    assert faulted.equals(clean)


# ---- the stage-A task ----

def test_stage_a_task_retries_dead_workers_not_user_errors(ray_session):
    """The stage-A task keeps Ray Data's map-task options: a dead worker
    is retried without limit (also when Ray reports it as a
    RaySystemError from task code), an exception the body raises is not
    retried, and the task takes one CPU outside any placement group."""
    from casie_ray.pipelines.kg import _extract_task

    opts = _extract_task()._default_options
    assert opts["max_retries"] == -1
    assert opts["retry_exceptions"] == [ray_session.exceptions.RaySystemError]
    assert opts["num_cpus"] == 1
    assert opts["scheduling_strategy"] == "DEFAULT"


def _corpus_copy(smoke_corpus, dest) -> list[str]:
    """The smoke corpus's entities and first three shards under
    ``dest``; returns the copied shard paths."""
    import shutil

    from casie_ray.pipelines.kg import list_transcript_files

    os.makedirs(os.path.join(dest, "transcripts"))
    shutil.copy(os.path.join(smoke_corpus, "entities.parquet"), dest)
    return [shutil.copy(f, os.path.join(dest, "transcripts"))
            for f in list_transcript_files(smoke_corpus)[:3]]


def test_stage_a_null_key_fails_the_build_naming_the_shard(
        ray_session, smoke_corpus, tmp_path):
    """A null conv_id in one shard fails the pipeline build (not only
    the in-process kernel) with a ValueError that names that shard."""
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import run_kg_pipeline

    shards = _corpus_copy(smoke_corpus, str(tmp_path / "corpus"))
    t = pq.read_table(shards[1])
    i = t.schema.get_field_index("conv_id")
    pq.write_table(t.set_column(i, "conv_id", pc.if_else(
        pa.array([k == 3 for k in range(t.num_rows)]),
        pa.nulls(t.num_rows, pa.string()), t.column(i))), shards[1])
    with pytest.raises(ValueError, match=re.escape(shards[1])
                       + r": 1 null conv_id"):
        run_kg_pipeline(str(tmp_path / "corpus"), str(tmp_path / "kg"),
                        resume=False)


def test_stage_a_concurrency_cap_writes_identical_files(
        ray_session, smoke_corpus, tmp_path, monkeypatch):
    """At most one or at most two stage-A tasks in flight: the driver
    waits for a task each time the window is full, and the raw, surf,
    events and convs files are byte-identical."""
    import glob
    import hashlib

    from casie_ray.pipelines.kg import STAGE_A_ROOTS, run_kg_pipeline

    corpus = str(tmp_path / "corpus")
    _corpus_copy(smoke_corpus, corpus)
    waits: list[int] = []
    real_wait = ray_session.wait

    def wait(refs, **kw):
        waits.append(len(refs))
        return real_wait(refs, **kw)

    monkeypatch.setattr(ray_session, "wait", wait)
    digests = []
    for cap in (1, 2):
        out = str(tmp_path / f"kg{cap}")
        waits.clear()
        run_kg_pipeline(corpus, out, resume=False, detect_concurrency=cap)
        assert waits == [cap] * (3 - cap)
        files = sorted(glob.glob(os.path.join(out, "*", "group-*",
                                              "*.parquet")))
        assert {os.path.relpath(f, out).split(os.sep)[0]
                for f in files} == set(STAGE_A_ROOTS)
        digests.append({os.path.relpath(f, out): hashlib.sha256(
            open(f, "rb").read()).hexdigest() for f in files})
    assert len(digests[0]) == 4 * 3
    assert digests[0] == digests[1]


def test_stage_a_concurrency_cap_below_one_raises(ray_session):
    """A cap of no task in flight would never submit one: ValueError."""
    from casie_ray.pipelines.kg import extract_shards

    for cap in (0, -1):
        with pytest.raises(ValueError, match="detect_concurrency"):
            extract_shards(["shard.parquet"], None, detect_concurrency=cap)
