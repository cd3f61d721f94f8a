"""Doc-logic stage: doc logic (recheck → link; SURVEY M3 milestone,
reference semantics link_coref.py:1027-1407) per conversation, and
everything after it once per shard: realis windows, roles and realis,
event coreference and the event table. The fused stage-A kernel
(``stages/detect.ShardExtractor``) calls
:func:`extract_conversation_events` per conversation, through this
module's attribute, and :func:`shard_event_table` once per shard.
"""

from __future__ import annotations

from operator import attrgetter

import numpy as np
import pyarrow as pa

from ..schema import args_to_rows
from ..semantics import (
    TokenTable, assign_realis, assign_roles, coref_many, doc_logic,
)

# the event table's columns read straight off the Event objects
_EVENT_ATTRS = ("conv_id", "turn_idx", "event_id", "etype", "nugget_start",
                "nugget_end", "nugget_text", "realis", "cluster")


def extract_conversation_events(conv_id: str, detections: dict,
                                rows: dict) -> tuple[list, list[int]]:
    """Doc logic over one conversation's per-turn detections -> (Event
    objects, each event's row in the shard's token table). ``rows`` maps
    the conversation's turn_idx to its token-table row. Roles, realis
    and coref are left to :func:`shard_event_table`."""
    events = doc_logic(conv_id, detections)
    return events, [rows[e.turn_idx] for e in events]


class _TurnTs:
    """One conversation's ``turn_idx -> ts`` over the shard's ``ts``
    column: coref asks only for the turns of events with a Time
    argument, so only those become Python datetimes."""

    __slots__ = ("ts", "rows")

    def __init__(self, ts: pa.Array, rows: dict):
        self.ts, self.rows = ts, rows

    def get(self, ti: int):
        k = self.rows.get(ti)
        return None if k is None else self.ts[k].as_py()


def _event_ts(ts: pa.Array, ev_rows: np.ndarray) -> pa.Array:
    """The events' ``ts`` as ``timestamp("us")``: the value the event
    row's datetime would convert to. A plain column casts (truncating
    below a microsecond, as the conversion does); a zoned column goes
    through its datetimes, since the conversion keeps their local wall
    time."""
    out = ts.take(ev_rows)
    if pa.types.is_timestamp(ts.type) and ts.type.tz is None:
        return out.cast(pa.timestamp("us"), safe=False)
    return pa.array(out.to_pylist(), pa.timestamp("us"))


def shard_event_table(convs: list[tuple[list, dict]], ev_rows: list[int],
                      table: TokenTable, ts: pa.Array,
                      schema: pa.Schema) -> tuple[pa.Table, list]:
    """Everything after doc logic, once over a whole shard.
    ``convs`` holds each conversation's ``(events, rows)`` (``rows`` as
    :func:`extract_conversation_events` takes it), ``ev_rows`` every
    event's token-table row in the same order, and ``ts`` the token
    table's per-row timestamps. Realis windows come from
    :meth:`TokenTable.window_flags`, roles and realis from one loop,
    coref from one :func:`semantics.coref_many` pass. Returns the events
    as a ``schema`` table (EVENT_SCHEMA, or SINK_EVENT_SCHEMA, which has
    no ``args``), built column by column, and the Event objects."""
    events = [e for evs, _ in convs for e in evs]
    if not events:
        return schema.empty_table(), events
    k = np.array(ev_rows, np.int64)
    modal, generic = table.window_flags(
        k, np.fromiter(map(attrgetter("nugget_start"), events), np.int64,
                       len(events)))
    for e, m, g in zip(events, modal.tolist(), generic.tolist()):
        assign_roles(e)
        assign_realis(e, m, g)
    coref_many((evs, _TurnTs(ts, rows)) for evs, rows in convs)
    cols = {name: pa.array(list(map(attrgetter(name), events)),
                           schema.field(name).type)
            for name in _EVENT_ATTRS}
    cols["ts"] = _event_ts(ts, k)
    cols["modal"] = pa.array(modal)
    cols["generic"] = pa.array(generic)
    if "args" in schema.names:
        cols["args"] = pa.array(list(map(args_to_rows, events)),
                                schema.field("args").type)
    return pa.table([cols[name] for name in schema.names],
                    schema=schema), events
