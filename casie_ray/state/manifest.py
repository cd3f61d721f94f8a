"""Per-partition checkpoint manifests for resumable runs (SURVEY §4.2).

Each extraction *group* (a set of input transcript shards) writes its
raw-triples output and side tables to temp dirs, renames them into
place atomically, then commits a manifest recording lineage and
counters. Stage A reads each conversation whole from one shard: the
default layout takes the input shards as they are, and
``conv_partitioned=False`` first re-partitions a group's turns by
conv_id. The layout is checked, not assumed: every group also writes
its shards' distinct conv_ids (the ``convs/`` side tables), and stage B
raises if one conversation appears in two shards. On resume, groups
whose manifest exists and whose config hash matches are skipped by
filtering the *input file list* before any Dataset is built
(driver-side, no wasted read).

A config-hash change invalidates all previous manifests (stale partial
output is not reused across semantics changes).
"""

from __future__ import annotations

import hashlib
import json
import os
import time


def _embed_dim() -> int:
    from ..embed import DIM
    return DIM


# bump whenever the on-disk output layout changes (e.g. the raw-triple
# provenance columns, or the surf/ side tables) so resume never mixes
# formats across code versions
FORMAT_VERSION = 8  # v8: raw triples carry typed provenance columns


def semantic_payload() -> tuple:
    """The lexicon tables and stage parameters the extraction rules read:
    everything :func:`config_hash` covers except ``FORMAT_VERSION``, so
    state derived from the rules alone (the tagger-state cache) survives
    an output-layout bump."""
    from .. import lexicons as lx
    return (
        sorted(lx.TRIGGER_SURFACES.items()),
        sorted(lx.ARG_PHRASE_SURFACES.items()),
        sorted((k, sorted(v)) for k, v in lx.PAIR.items()),
        sorted((k, sorted(v.items())) for k, v in lx.ROLE_PAIR.items()),
        lx.COREF_WEIGHTS, lx.COREF_THRESHOLD,
        sorted(lx.MODAL_WORDS), sorted(lx.GENERIC_WORDS),
        sorted(lx.ORG_HINTS), lx.LINK_THRESHOLD, lx.CANON_THRESHOLD,
        lx.SIM_CUTOFF, sorted(lx.NUMWORDS.items()),
        lx.LINK_BLOCK_PREFIX, sorted(lx.SURFACE_NODE_TYPES), _embed_dim(),
        sorted(lx.KB_TYPE_WHITELIST), sorted(lx.KB_TYPE_BLACKLIST),
    )


def config_hash() -> str:
    """Hash of the semantic configuration: lexicon tables + stage params,
    and the output layout. Any change to the extraction rules changes
    this hash."""
    payload = repr((FORMAT_VERSION,) + semantic_payload())
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifests")


def manifest_path(out_dir: str, group_id: int) -> str:
    return os.path.join(manifest_dir(out_dir), f"group-{group_id:05d}.json")


def load(out_dir: str, group_id: int) -> dict | None:
    p = manifest_path(out_dir, group_id)
    if not os.path.exists(p):
        return None
    try:
        with open(p) as f:
            return json.load(f)
    except (json.JSONDecodeError, OSError):
        return None


def is_complete(out_dir: str, group_id: int, cfg: str,
                input_files: list[str]) -> bool:
    m = load(out_dir, group_id)
    return bool(m and m.get("config_hash") == cfg
                and m.get("input_files") == sorted(input_files)
                and m.get("status") == "complete")


def commit(out_dir: str, group_id: int, cfg: str, input_files: list[str],
           counters: dict) -> dict:
    """Atomic write (temp + rename) of a completed-group manifest."""
    os.makedirs(manifest_dir(out_dir), exist_ok=True)
    m = {
        "group_id": group_id,
        "status": "complete",
        "config_hash": cfg,
        "input_files": sorted(input_files),
        "counters": counters,
        "completed_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    p = manifest_path(out_dir, group_id)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump(m, f, indent=1, sort_keys=True)
    os.replace(tmp, p)
    return m


def atomic_dir_swap(tmp_dir: str, final_dir: str) -> None:
    """Publish a written output directory atomically."""
    if os.path.exists(final_dir):
        import shutil
        shutil.rmtree(final_dir)
    os.replace(tmp_dir, final_dir)


def summarize(out_dir: str) -> dict:
    """Resume-status view over a run directory's manifests: one row per
    committed group (gid, status, whether its config hash matches the
    CURRENT code's semantics, input shard count, counters, completed_at)
    plus totals — what an operator checks before re-submitting a 100 TB
    job ("how much is already done, and is it reusable under the current
    config?"). Driver-side metadata only; never touches row data."""
    import glob as _glob

    cur = config_hash()
    groups = []
    for p in sorted(_glob.glob(os.path.join(manifest_dir(out_dir),
                                            "group-*.json"))):
        try:
            with open(p) as f:
                m = json.load(f)
        except (json.JSONDecodeError, OSError):
            groups.append({"path": p, "status": "corrupt"})
            continue
        groups.append({
            "group_id": m.get("group_id"),
            "status": m.get("status"),
            "config_current": m.get("config_hash") == cur,
            "n_input_files": len(m.get("input_files", [])),
            "counters": m.get("counters", {}),
            "completed_at": m.get("completed_at"),
        })
    complete = [g for g in groups if g.get("status") == "complete"]
    reusable = [g for g in complete if g.get("config_current")]
    return {
        "out_dir": out_dir,
        "config_hash": cur,
        "groups_committed": len(complete),
        "groups_reusable_on_resume": len(reusable),
        "events_total": sum(g["counters"].get("events", 0)
                            for g in complete),
        "turns_total": sum(g["counters"].get("turns", 0)
                           for g in complete),
        # stage-A task seconds (shard read to last write, summed)
        "task_s_total": round(sum(g["counters"].get("task_s", 0.0)
                                  for g in complete), 3),
        "groups": groups,
    }


def total_counter(out_dir: str, key: str) -> int:
    """Sum one counter over every complete group manifest — driver-side
    metadata only (the CLI's turns_per_sec reads this, never row
    data)."""
    import glob as _glob

    total = 0
    for p in _glob.glob(os.path.join(manifest_dir(out_dir),
                                     "group-*.json")):
        try:
            with open(p) as f:
                m = json.load(f)
        except (json.JSONDecodeError, OSError):
            continue
        if m.get("status") == "complete":
            total += int(m.get("counters", {}).get(key, 0))
    return total
