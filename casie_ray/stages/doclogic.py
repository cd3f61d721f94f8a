"""Doc-logic stage: doc logic (recheck → compatible → link; SURVEY M3
milestone, reference semantics link_coref.py:1027-1407) + role/realis
rules per conversation, and the event coreference batched over many
conversations. The fused stage-A kernel (``stages/detect.ShardExtractor``)
calls :func:`extract_conversation_events` per conversation and
:func:`coref_event_table` once per shard.
"""

from __future__ import annotations

import pyarrow as pa

from ..schema import event_to_row
from ..semantics import (
    assign_realis, assign_roles, coref_many, doc_logic, realis_window_flags,
)


def extract_conversation_events(conv_id: str, detections: dict) \
        -> tuple[list, list[tuple[bool, bool]]]:
    """Doc logic + roles + realis over one conversation's precomputed
    per-turn detections -> (Event objects, their (modal, generic)
    realis-window flags). Coref is left to :func:`coref_event_table`,
    which batches it over every conversation of a shard."""
    events = doc_logic(conv_id, detections)
    flags = []
    for e in events:
        flags.append(realis_window_flags(detections[e.turn_idx],
                                         e.nugget_start))
        assign_roles(e)
        assign_realis(e, *flags[-1])
    return events, flags


def coref_event_table(convs: list[tuple[list, list, dict]],
                      schema: pa.Schema) -> pa.Table:
    """One :func:`semantics.coref_many` pass over per-conversation
    ``(events, flags, ts_of)``, then their rows in input order as a
    ``schema`` table: EVENT_SCHEMA, or SINK_EVENT_SCHEMA, whose rows
    never build the ``args`` column."""
    coref_many((evs, ts_of) for evs, _, ts_of in convs)
    with_args = "args" in schema.names
    rows = [event_to_row(e, ts_of[e.turn_idx], *f, with_args=with_args)
            for evs, flags, ts_of in convs for e, f in zip(evs, flags)]
    return pa.Table.from_pylist(rows, schema=schema) if rows \
        else schema.empty_table()
