"""Doc-logic stage: doc logic (recheck → compatible → link; SURVEY M3
milestone, reference semantics link_coref.py:1027-1407) + role/realis
rules per conversation, and the event coreference batched over many
conversations. The fused stage-A kernel (``stages/detect.ShardExtractor``)
calls :func:`extract_conversation_events` per conversation and
:func:`coref_event_rows` once per shard; the general layout's
``groupby(conv_id).map_groups`` runs both over one conversation
(:func:`extract_events_group`).
"""

from __future__ import annotations

import pyarrow as pa

from ..schema import EVENT_SCHEMA, event_to_row, row_to_detection
from ..semantics import (
    assign_realis, assign_roles, coref_many, doc_logic, realis_window_flags,
)


def extract_conversation_events(conv_id: str, detections: dict) \
        -> tuple[list, list[tuple[bool, bool]]]:
    """Doc logic + roles + realis over one conversation's precomputed
    per-turn detections -> (Event objects, their (modal, generic)
    realis-window flags). Coref is left to :func:`coref_event_rows`,
    which batches it over every conversation of a shard."""
    events = doc_logic(conv_id, detections)
    flags = []
    for e in events:
        flags.append(realis_window_flags(detections[e.turn_idx],
                                         e.nugget_start))
        assign_roles(e)
        assign_realis(e, *flags[-1])
    return events, flags


def coref_event_rows(convs: list[tuple[list, list, dict]]) -> list[dict]:
    """One :func:`semantics.coref_many` pass over per-conversation
    ``(events, flags, ts_of)``, then their EVENT_SCHEMA row dicts in
    input order."""
    coref_many((evs, ts_of) for evs, _, ts_of in convs)
    return [event_to_row(e, ts_of[e.turn_idx], *f)
            for evs, flags, ts_of in convs for e, f in zip(evs, flags)]


def extract_events_group(group: pa.Table) -> pa.Table:
    """General-layout per-conversation stage, run as
    ``groupby(conv_id).map_groups`` over the detection columns: doc
    logic + role/realis rules + coref for the group's one conversation,
    the same kernels the fused stage-A task runs per shard."""
    rows = group.to_pylist()
    if not rows:
        return EVENT_SCHEMA.empty_table()
    conv_id = rows[0]["conv_id"]
    detections = {r["turn_idx"]: row_to_detection(r) for r in rows}
    ts_of = {r["turn_idx"]: r["ts"] for r in rows}
    evs, flags = extract_conversation_events(conv_id, detections)
    out = coref_event_rows([(evs, flags, ts_of)])
    return pa.Table.from_pylist(out, schema=EVENT_SCHEMA) if out \
        else EVENT_SCHEMA.empty_table()
