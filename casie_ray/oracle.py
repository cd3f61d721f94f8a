"""Single-process reference extractor (the P/R ≥ 0.95 oracle).

Plays the role of the reference pipeline run end-to-end
(``code/link_coref.py:1954-2053``): sequential, one conversation at a
time, plain Python over row dicts — no Ray, no Arrow batches. The
distributed engine must reproduce this extractor's triples; the oracle
deliberately shares only the semantic kernels (``casie_ray.semantics``)
and lexicons with the engine, not its dataflow, so the P/R gate tests
grouping / linking / shuffle / dedup behaviour (SURVEY §7.0).
"""

from __future__ import annotations

import glob
import os
from collections import defaultdict

import pandas as pd
import pyarrow.parquet as pq

from .semantics import (
    build_catalog_matcher, build_fuzzy_index, canon_block_key,
    canon_merge_edges, emit_triples, extract_conversation,
    parse_surface_node,
)

TRIPLE_COLS = ["subj", "pred", "obj", "subj_type", "obj_type", "conv_id",
               "turn_idx", "ev_start", "ev_end", "weight"]


def _read_table(path: str):
    if os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.parquet")))
        import pyarrow as pa
        return pa.concat_tables([pq.read_table(f) for f in files])
    return pq.read_table(path)


def extract_events(corpus_dir: str):
    """Run the full extraction sequentially; yields per-conv event lists."""
    entities = _read_table(os.path.join(corpus_dir, "entities.parquet"))
    catalog = build_catalog_matcher(entities)
    fuzzy = build_fuzzy_index(entities)
    transcripts = _read_table(os.path.join(corpus_dir, "transcripts"))
    by_conv: dict[str, list[dict]] = defaultdict(list)
    for row in transcripts.select(["conv_id", "turn_idx", "text", "ts"]).to_pylist():
        by_conv[row["conv_id"]].append(row)
    for conv_id in sorted(by_conv):
        turns = sorted(by_conv[conv_id], key=lambda r: r["turn_idx"])
        yield conv_id, extract_conversation(conv_id, turns, catalog,
                                            fuzzy=fuzzy)


def canonical_mapping(node_ids) -> dict[str, str]:
    """Cross-conversation canonicalization, sequential reference: block
    surface nodes, emit cosine merge edges per block, union-find to the
    minimum member (the oracle twin of the engine's
    groupby(entity_block) + block-wise union-find stage)."""
    from .ops.graph import components_local

    blocks: dict[str, set] = defaultdict(set)
    for node in node_ids:
        p = parse_surface_node(node)
        if p:
            blocks[canon_block_key(*p)].add(node)
    edges: list[tuple[str, str]] = []
    for key in sorted(blocks):
        edges.extend(canon_merge_edges(sorted(blocks[key])))
    comp = components_local(edges)
    return {n: r for n, r in comp.items() if n != r}


EVENT_COLS = ["conv_id", "turn_idx", "event_id", "etype", "nugget_text",
              "realis", "cluster"]


def extract_triples(corpus_dir: str,
                    events_out: list[dict] | None = None) -> pd.DataFrame:
    """All triples, exactly deduplicated on (subj, pred, obj) keeping the
    first occurrence in (conv_id, turn_idx) order and counting
    occurrences — the oracle equivalent of the engine's salted two-phase
    groupby dedup (SURVEY A7). Pass ``events_out`` to also collect the
    per-event rows (EVENT_COLS) from the same single extraction pass."""
    raw: list[dict] = []
    for _conv, events in extract_events(corpus_dir):
        raw.extend(emit_triples(events))
        if events_out is not None:
            events_out.extend(
                {"conv_id": e.conv_id, "turn_idx": e.turn_idx,
                 "event_id": e.event_id, "etype": e.etype,
                 "nugget_text": e.nugget_text, "realis": e.realis,
                 "cluster": e.cluster} for e in events)
    mapping = canonical_mapping(
        {t["subj"] for t in raw} | {t["obj"] for t in raw})
    best: dict[tuple, dict] = {}
    counts: dict[tuple, int] = defaultdict(int)
    for t in raw:
        t["subj"] = mapping.get(t["subj"], t["subj"])
        t["obj"] = mapping.get(t["obj"], t["obj"])
        key = (t["subj"], t["pred"], t["obj"])
        counts[key] += 1
        cur = best.get(key)
        if cur is None or (t["conv_id"], t["turn_idx"], t["ev_start"]) < \
                (cur["conv_id"], cur["turn_idx"], cur["ev_start"]):
            best[key] = t
    rows = []
    for key in sorted(best):
        r = dict(best[key])
        r["count"] = counts[key]
        rows.append(r)
    return pd.DataFrame(rows, columns=TRIPLE_COLS + ["count"])


def main():
    import argparse
    ap = argparse.ArgumentParser()
    ap.add_argument("corpus_dir")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    df = extract_triples(args.corpus_dir)
    if args.out:
        df.to_parquet(args.out)
    print(f"{len(df)} unique triples")
    print(df.head(20).to_string())


if __name__ == "__main__":
    main()
