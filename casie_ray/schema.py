"""Arrow schemas for the engine's logical tables (SURVEY §1.3) and
converters between Arrow rows and the plain-Python semantic structures.

CASIE's dynamic dict-of-optional-fields becomes fixed nullable Arrow
schemas; the '-' sentinel convention (prepare.py:224-239) becomes nulls.
"""

from __future__ import annotations

import pyarrow as pa

from .semantics import Event, Mention, TurnDetection

TRIGGER_T = pa.struct([
    ("tok_idx", pa.int32()), ("start", pa.int32()), ("end", pa.int32()),
    ("surface", pa.string()), ("etypes", pa.list_(pa.string())),
])
MENTION_T = pa.struct([
    ("start", pa.int32()), ("end", pa.int32()), ("text", pa.string()),
    ("argtype", pa.string()), ("entity_id", pa.string()),
    ("dataish", pa.bool_()),
])
ARG_T = pa.struct([
    ("start", pa.int32()), ("end", pa.int32()), ("text", pa.string()),
    ("argtype", pa.string()), ("entity_id", pa.string()),
    ("dataish", pa.bool_()), ("role", pa.string()),
])

CAND_T = pa.struct([
    ("tok_idx", pa.int32()), ("start", pa.int32()), ("end", pa.int32()),
    ("surface", pa.string()), ("cap", pa.bool_()),
])

# per-turn detection row: transcript key columns + sufficient statistics
DETECTION_FIELDS = [
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("text", pa.string()), ("ts", pa.timestamp("us")),
    ("token_starts", pa.list_(pa.int32())),
    ("token_flags", pa.list_(pa.uint8())),
    ("triggers", pa.list_(TRIGGER_T)),
    ("mentions", pa.list_(MENTION_T)),
    ("cand_tokens", pa.list_(CAND_T)),
]

EVENT_FIELDS = [
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("event_id", pa.string()), ("etype", pa.string()),
    ("nugget_start", pa.int32()), ("nugget_end", pa.int32()),
    ("nugget_text", pa.string()), ("realis", pa.string()),
    ("cluster", pa.string()), ("ts", pa.timestamp("us")),
    ("modal", pa.bool_()), ("generic", pa.bool_()),
    ("args", pa.list_(ARG_T)),
]
EVENT_SCHEMA = pa.schema(EVENT_FIELDS)
# the events files stage A's sink writes: no ``args`` (the argument
# spans reach the graph through the raw triples)
SINK_EVENT_SCHEMA = pa.schema(EVENT_FIELDS[:-1])

TRIPLE_SCHEMA = pa.schema([
    ("subj", pa.string()), ("pred", pa.string()), ("obj", pa.string()),
    ("subj_type", pa.string()), ("obj_type", pa.string()),
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("ev_start", pa.int32()), ("ev_end", pa.int32()),
    ("weight", pa.float32()), ("count", pa.int64()),
])


def detection_to_row(det: TurnDetection) -> dict:
    return {
        "token_starts": det.token_starts,
        "token_flags": det.token_flags,
        "triggers": [{"tok_idx": t.tok_idx, "start": t.start, "end": t.end,
                      "surface": t.surface, "etypes": list(t.etypes)}
                     for t in det.triggers],
        "mentions": [{"start": m.start, "end": m.end, "text": m.text,
                      "argtype": m.argtype, "entity_id": m.entity_id,
                      "dataish": m.next_noun_dataish}
                     for m in det.mentions],
        "cand_tokens": [{"tok_idx": c[0], "start": c[1], "end": c[2],
                         "surface": c[3], "cap": c[4]}
                        for c in det.cand_tokens],
    }


def event_to_row(e: Event, ts, modal: bool, generic: bool) -> dict:
    return {
        "conv_id": e.conv_id, "turn_idx": e.turn_idx,
        "event_id": e.event_id, "etype": e.etype,
        "nugget_start": e.nugget_start, "nugget_end": e.nugget_end,
        "nugget_text": e.nugget_text, "realis": e.realis,
        "cluster": e.cluster, "ts": ts, "modal": modal, "generic": generic,
        "args": args_to_rows(e),
    }


def args_to_rows(e: Event) -> list[dict]:
    """An event's ``args`` value (a list of ARG_T dicts)."""
    return [{"start": m.start, "end": m.end, "text": m.text,
             "argtype": m.argtype, "entity_id": m.entity_id,
             "dataish": m.next_noun_dataish, "role": m.role}
            for m in e.args]


def row_to_event(row: dict) -> Event:
    e = Event(
        event_id=row["event_id"], conv_id=row["conv_id"],
        turn_idx=row["turn_idx"], etype=row["etype"],
        nugget_start=row["nugget_start"], nugget_end=row["nugget_end"],
        nugget_text=row["nugget_text"], realis=row["realis"],
    )
    e.cluster = row.get("cluster")
    e.args = [Mention(a["start"], a["end"], a["text"], a["argtype"],
                      a["entity_id"], role=a.get("role"),
                      next_noun_dataish=a["dataish"])
              for a in row["args"]]
    return e
