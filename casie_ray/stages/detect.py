"""Detection stage: the engine seat of CASIE's nugget/argument taggers
(T1/T2, nug_arg_detection.py:111-208). The catalog (broadcast via
``ray.put``, the small side of the linker J5/T7) and the compiled lexicon
tables are built ONCE per worker process, as the per-process cached
extractor of the fused stage-A task body :func:`extract_shard_files`.
:meth:`DetectTagger.tag_batch` processes one Arrow batch of transcript
turns and appends the detection columns (schema.DETECTION_*).
"""

from __future__ import annotations

import functools
import gc
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import lexicons as lx
from ..schema import (
    CAND_T, DETECTION_FIELDS, EVENT_SCHEMA, MENTION_T, SINK_EVENT_SCHEMA,
    TRIGGER_T, detection_to_row,
)
from ..semantics import (
    TokenTable, TurnDetection, build_catalog_matcher, build_fuzzy_index,
    detect_turn,
)
from . import doclogic

# a turn whose text is entirely lowercase prose (no digits, uppercase,
# '$', or other special characters) can only produce detections through
# vocabulary words — everything else (CVE/Version/Money regexes,
# capitalized runs, month+digit dates, digit counts) needs a character
# this class excludes
_PLAIN_RE = r"^[a-z ,.;:!?'\"()\-]*$"

_SUBWORD_RE = re.compile(r"[a-z0-9]+")


def _subwords(w: str) -> list[str]:
    return _SUBWORD_RE.findall(w.lower())


def build_hot_vocab(catalog: dict) -> frozenset[str]:
    """Every lowercase word piece that can START a trigger or mention in
    :func:`detect_turn` (trigger surfaces, argument-phrase first tokens,
    catalog first tokens, months, numeral words). A text none of whose
    pieces appear here — and which is plain lowercase prose — provably
    yields an empty detection, so the per-token Python pass can be
    skipped (the vectorized pre-pass; VERDICT r1 item 7)."""
    vocab: set[str] = set()
    for w in lx.TRIGGER_SURFACES:
        vocab.update(_subwords(w))
    for p in lx.ARG_PHRASE_SURFACES:
        vocab.update(_subwords(p.split(" ", 1)[0]))
    vocab.update(lx.MONTHS)
    vocab.update(lx.NUMERAL_WORDS)
    for first_tok in catalog:
        vocab.update(_subwords(first_tok))
    return frozenset(vocab)


def build_tagger_state(entities, kb_whitelist=None,
                       kb_blacklist=None) -> dict:
    """Build the tagger's broadcast state ONCE (driver side): catalog
    matcher, blocked fuzzy-link index (J5), hot-vocab pre-pass set.
    ``ray.put`` the result and pass the ref to the taggers — each worker
    process then fetches it once and reuses it for later tasks (about
    0.30 s for the first fetch and extractor set-up in a fresh worker,
    about 7 ms after that at sf0.01) instead of re-deriving the
    embedding index (~1.3 s at sf1.0), which is pure serial cost on the
    extraction critical path.
    ``kb_whitelist``/``kb_blacklist`` override the KB candidate typing
    filters (PipelineConfig surface; None -> lexicon defaults)."""
    catalog = build_catalog_matcher(entities)
    return {
        "catalog": catalog,
        "fuzzy": build_fuzzy_index(entities, whitelist=kb_whitelist,
                                   blacklist=kb_blacklist),
        "hot_vocab": sorted(build_hot_vocab(catalog)),
    }


def tagger_state_cache_path(entities: bytes, kb_whitelist=None,
                            kb_blacklist=None) -> str:
    """Disk-cache file of the tagger state for these entities-table bytes
    and KB filters. The key covers the extraction rules
    (``manifest.semantic_payload``) but not ``FORMAT_VERSION``: the state
    does not depend on the output layout."""
    import hashlib
    import os
    import tempfile

    from ..state.manifest import semantic_payload

    kb_key = repr((sorted(kb_whitelist) if kb_whitelist else None,
                   sorted(kb_blacklist) if kb_blacklist else None))
    key = hashlib.blake2b(entities + repr(semantic_payload()).encode()
                          + kb_key.encode(),
                          digest_size=16).hexdigest()
    return os.path.join(tempfile.gettempdir(), "casie_state_cache",
                        f"{key}.pkl")


def load_tagger_state(entities_path: str, kb_whitelist=None,
                      kb_blacklist=None) -> dict:
    """Disk-cached :func:`build_tagger_state`, keyed as
    :func:`tagger_state_cache_path` says. The build is ~1.3 s of
    driver-serial embedding-index work per run — a fixed cost that does
    not shrink with cluster size, so a warm cache directly improves
    scaling efficiency. Cache writes are atomic (tmp + rename)."""
    import os
    import pickle

    with open(entities_path, "rb") as f:
        raw = f.read()
    cpath = tagger_state_cache_path(raw, kb_whitelist, kb_blacklist)
    if os.path.exists(cpath):
        try:
            with open(cpath, "rb") as f:
                return pickle.load(f)
        except (pickle.UnpicklingError, EOFError, OSError):
            pass  # corrupt/partial cache: rebuild below
    import pyarrow.parquet as pq
    state = build_tagger_state(pq.read_table(entities_path).to_pylist(),
                               kb_whitelist=kb_whitelist,
                               kb_blacklist=kb_blacklist)
    os.makedirs(os.path.dirname(cpath), exist_ok=True)
    tmp = cpath + f".{os.getpid()}.tmp"
    with open(tmp, "wb") as f:
        pickle.dump(state, f)
    os.replace(tmp, cpath)
    return state


def _gc_paused(fn):
    """Run ``fn`` with Python's cyclic GC paused, then restore the
    caller's GC state. The stage-A kernel makes many small acyclic
    objects, so the collections they would trigger free nothing and only
    rescan the long-lived tagger state (tens of thousands of tracked
    objects)."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


class DetectTagger:
    """map_batches(DetectTagger, fn_constructor_args=([state_ref],),
    fn_constructor_kwargs={"entities_path": ..}, batch_format="pyarrow",
    concurrency=..). ``state`` is a prebuilt :func:`build_tagger_state`
    dict or a raw entities list (tests), or a ``ray.put`` ref to either —
    bare or boxed in a one-element list so Ray hands it over unresolved.
    A ref whose object is lost or freed is rebuilt from
    ``entities_path`` with the KB filters (see :func:`_tagger_state`)."""

    def __init__(self, state, entities_path: str | None = None,
                 kb_whitelist=None, kb_blacklist=None):
        import ray
        if isinstance(state, list) and len(state) == 1 \
                and isinstance(state[0], ray.ObjectRef):
            state = state[0]
        if isinstance(state, ray.ObjectRef):
            state = _tagger_state(state, entities_path, kb_whitelist,
                                  kb_blacklist)
        if not isinstance(state, dict):
            state = build_tagger_state(state)
        self.catalog = state["catalog"]
        self.fuzzy = state["fuzzy"]
        self.hot_vocab = pa.array(state["hot_vocab"])

    def interesting_mask(self, texts: pa.ChunkedArray | pa.Array) -> np.ndarray:
        """Vectorized pre-pass over a whole text column: False rows are
        PROVEN to produce an empty TurnDetection (no trigger, mention or
        imputation candidate consumer), so detect_turn is skipped for
        them. The column is dictionary-encoded once and the test runs
        over its DISTINCT texts only (system prompts and filler repeat:
        sf0.01's 48,927 turns hold about 6,200 distinct texts): one Arrow
        regex pass plus one split + hashed set-membership pass, mapped
        back to the rows through the indices; a null text is False. No
        per-row Python."""
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        enc = pc.dictionary_encode(texts)
        uniq = enc.dictionary
        n = len(uniq)
        if n == 0:
            return np.zeros(len(texts), dtype=bool)
        plain = pc.match_substring_regex(uniq, _PLAIN_RE) \
            .to_numpy(zero_copy_only=False)
        pieces = pc.split_pattern_regex(pc.utf8_lower(uniq), "[^a-z0-9]+")
        member = pc.is_in(pieces.values, value_set=self.hot_vocab) \
            .to_numpy(zero_copy_only=False).astype(bool)
        row_of = np.repeat(np.arange(n), np.diff(pieces.offsets.to_numpy()))
        vocab_hit = np.bincount(row_of[member], minlength=n) > 0
        hit = np.append(~plain | vocab_hit, False)   # index n: null text
        return hit[pc.fill_null(enc.indices, n)
                   .to_numpy(zero_copy_only=False)]

    def detect_or_skip(self, text: str | None, interesting: bool,
                       view: tuple[TokenTable, int] | None = None) \
            -> TurnDetection:
        """``view``: the text's turn in a token table of the batch's
        passing texts, or None for a one-text table."""
        if not interesting:
            return TurnDetection([], [], [], [], [])
        return detect_turn(text or "", self.catalog, self.fuzzy, view)

    def tag_batch(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        mask = self.interesting_mask(batch.column("text"))
        table = TokenTable([t or "" for t, keep in zip(texts, mask) if keep],
                           self.catalog)
        starts, flags, trigs, ments, cands = [], [], [], [], []
        k = 0
        for text, keep in zip(texts, mask):
            view = None
            if keep:
                view, k = (table, k), k + 1
            row = detection_to_row(self.detect_or_skip(text, keep, view))
            starts.append(row["token_starts"])
            flags.append(row["token_flags"])
            trigs.append(row["triggers"])
            ments.append(row["mentions"])
            cands.append(row["cand_tokens"])
        cols = {
            "conv_id": batch.column("conv_id"),
            "turn_idx": batch.column("turn_idx"),
            "text": batch.column("text"),
            "ts": batch.column("ts"),
            "token_starts": pa.array(starts, type=pa.list_(pa.int32())),
            "token_flags": pa.array(flags, type=pa.list_(pa.uint8())),
            "triggers": pa.array(trigs, type=pa.list_(TRIGGER_T)),
            "mentions": pa.array(ments, type=pa.list_(MENTION_T)),
            "cand_tokens": pa.array(cands, type=pa.list_(CAND_T)),
        }
        return pa.table({name: cols[name] for name, _ in DETECTION_FIELDS})

    __call__ = tag_batch


class ShardExtractor(DetectTagger):
    """Zero-shuffle extraction for conv-partitioned input (every
    conversation whole in one shard — see state/manifest.py; the
    pipeline's staging pre-pass makes any input so, and stage B checks
    it). Detection tokenizes the shard's passing turns once, into one
    ``semantics.TokenTable``, and each turn's ``detect_turn`` reads its
    slice. Doc logic runs per conversation
    (``doclogic.extract_conversation_events``); everything after it runs
    ONCE over the shard (``doclogic.shard_event_table``): realis windows
    read from the token table, roles and realis, event coreference (one
    ``semantics.coref_many`` numpy pass) and the event table, built
    column by column from the events and the shard's Arrow ``ts``
    column. The whole shard runs with the cyclic GC paused.

    Turn-sparse: only the turns the vectorized :meth:`interesting_mask`
    passes (about 13% at sf0.01) leave Arrow, so per-row Python is paid
    only by rows that can produce output. A masked-out turn yields an
    empty detection, and every doc-logic step reads detections with
    ``.get`` / ±1-turn lookups, so leaving it out of the conversation's
    detection dict is exact; ``ts`` is read only for event turns, which
    all pass the mask, and becomes a Python datetime only where coref
    parses a Time argument. A conversation with no passing turn is never
    visited."""

    KEYS = ["conv_id", "turn_idx"]

    def extract_turns_with_events(self, batch: pa.Table) \
            -> tuple[pa.Table, list]:
        """All conversations in `batch` must be complete. Returns the
        EVENT_SCHEMA row table AND the Event objects (the fused sink
        emits triples from the objects, skipping a rows->objects
        round-trip). A repeated (conv_id, turn_idx) keeps its LAST row,
        as the oracle does; a null key raises ValueError."""
        return self._shard_events(batch, EVENT_SCHEMA)

    @_gc_paused
    def _shard_events(self, batch: pa.Table, schema: pa.Schema) \
            -> tuple[pa.Table, list]:
        """:meth:`extract_turns_with_events` with the event table built
        in ``schema`` (EVENT_SCHEMA or SINK_EVENT_SCHEMA). Detection reads
        one :class:`TokenTable` over the shard's mask-passing texts, one
        ``detect_turn`` call per turn; doc logic is one call per
        conversation, through the ``doclogic`` module attribute."""
        for key in self.KEYS:
            if batch.column(key).null_count:
                raise ValueError(
                    f"{batch.column(key).null_count} null {key} value(s)")
        # duplicates resolve over the FULL table, before the mask filter,
        # so a masked-out later copy still wins over an earlier one
        n = batch.num_rows
        last = batch.select(self.KEYS) \
            .append_column("row", pa.array(np.arange(n))) \
            .group_by(self.KEYS).aggregate([("row", "max")])
        if last.num_rows < n:
            batch = batch.take(last.column("row_max"))
        hot = batch.filter(pa.array(self.interesting_mask(
            batch.column("text"))))
        hot = hot.take(pc.sort_indices(
            hot, [(k, "ascending") for k in self.KEYS]))
        conv_ids = hot.column("conv_id").to_pylist()
        turn_idxs = hot.column("turn_idx").to_pylist()
        texts = hot.column("text").to_pylist()   # the mask drops nulls
        convs: list[tuple[list, dict]] = []
        ev_rows: list[int] = []
        catalog, fuzzy = self.catalog, self.fuzzy
        table = TokenTable(texts, catalog)
        k, m = 0, len(conv_ids)
        while k < m:
            cid = conv_ids[k]
            detections, rows = {}, {}
            while k < m and conv_ids[k] == cid:
                ti = turn_idxs[k]
                detections[ti] = detect_turn(texts[k], catalog, fuzzy,
                                             view=(table, k))
                rows[ti] = k
                k += 1
            evs, ks = doclogic.extract_conversation_events(cid, detections,
                                                           rows)
            if evs:
                convs.append((evs, rows))
                ev_rows += ks
        return doclogic.shard_event_table(
            convs, ev_rows, table, hot.column("ts").combine_chunks(), schema)


class ShardFileExtractor(ShardExtractor):
    """File-granular zero-shuffle extraction: each call gets ONE shard
    PATH and reads the shard itself (column-pruned), so
    conversation/shard alignment is exact by construction. This is the
    engine's hot path; the fused stage-A task :func:`extract_shard_files`
    keeps one instance per worker process.

    Without ``sink`` a call returns the shard's event rows
    (EVENT_SCHEMA). With ``sink`` the call is FULLY fused: it writes the
    shard's events (SINK_EVENT_SCHEMA: the ``args`` column is never
    built) AND its partially-deduped raw triples itself (into the
    shard's group temp dirs ``sink`` names) and returns only a one-row
    stats table — no downstream stage, no object-store traffic (the
    extraction output never leaves the task). File names derive from the
    input shard, so a task retry overwrites its own output (idempotent).
    ``sink`` is a dict: ``{"gid": the shard's group id, "ev_root": dir |
    None, "raw_root": dir, "surf_root": dir | None, "convs_root": dir |
    None, "suffix": tmp-dir suffix}``. ``surf_root`` additionally
    side-writes the shard's distinct (surface node, entity block) rows,
    so canonicalization later reads only the tiny surf tables instead of
    re-scanning the whole raw-triples output; ``convs_root`` writes the
    shard's distinct conv_ids (exact strings, with the shard path and
    gid), which stage B reads to find a conversation split across
    shards. The stats row's ``task_s`` is the call's seconds from the
    shard read to its last write."""

    COLUMNS = ["conv_id", "turn_idx", "text", "ts"]
    STATS_SCHEMA = pa.schema([
        ("shard", pa.string()), ("gid", pa.int32()),
        ("n_events", pa.int64()), ("n_triples", pa.int64()),
        ("n_turns", pa.int64()), ("task_s", pa.float64()),
    ])

    def __call__(self, path: str,  # type: ignore[override]
                 sink: dict | None = None) -> pa.Table:
        import os
        import time

        import pyarrow.parquet as pq
        from ..ops.sink import read_parquet
        from ..stages.triples import (
            extract_surface_nodes, partial_dedup, triples_from_events,
        )

        t0 = time.perf_counter()
        tbl = read_parquet(path, columns=self.COLUMNS)
        try:
            events, event_objs = self._shard_events(
                tbl, EVENT_SCHEMA if sink is None else SINK_EVENT_SCHEMA)
        except ValueError as e:
            raise ValueError(f"shard {path}: {e}") from e
        if sink is None:
            return events
        base = os.path.basename(path)
        gid = sink["gid"]
        gdir = f".group-{gid:05d}{sink['suffix']}"
        trip = partial_dedup(triples_from_events(event_objs))
        pq.write_table(trip, os.path.join(sink["raw_root"], gdir, base))
        if sink.get("surf_root"):
            pq.write_table(extract_surface_nodes(trip),
                           os.path.join(sink["surf_root"], gdir, base))
        if sink.get("ev_root"):
            pq.write_table(events, os.path.join(sink["ev_root"], gdir, base))
        if sink.get("convs_root"):
            convs = pc.unique(tbl.column("conv_id"))
            pq.write_table(pa.table({
                "conv_id": convs, "shard": [path] * len(convs),
                "gid": pa.array([gid] * len(convs), pa.int32())}),
                os.path.join(sink["convs_root"], gdir, base))
        return pa.Table.from_pylist([{
            "shard": base, "gid": gid, "n_events": events.num_rows,
            "n_triples": trip.num_rows, "n_turns": tbl.num_rows,
            "task_s": time.perf_counter() - t0}], schema=self.STATS_SCHEMA)


# this worker process's extractor: (hex of the tagger-state ref it was
# built from, ShardFileExtractor). Ray reuses pooled task workers across
# executions, so a build's later tasks and waves skip the state
# deserialize and extractor set-up. Every build puts its tagger state
# anew, so the ref (and the key) changes and the next build replaces
# the entry.
_EXTRACTOR: tuple[str, ShardFileExtractor] | None = None


def _tagger_state(state_ref, entities_path, kb_whitelist, kb_blacklist):
    """``ray.get`` the broadcast tagger state; if the object is lost or
    freed, rebuild it from the entities table (disk-cached)."""
    import ray
    try:
        return ray.get(state_ref)
    except ray.exceptions.ObjectLostError:
        if entities_path is None:
            raise
        return load_tagger_state(entities_path, kb_whitelist=kb_whitelist,
                                 kb_blacklist=kb_blacklist)


def _cached_extractor(state_box: list, entities_path, kb_whitelist,
                      kb_blacklist) -> ShardFileExtractor:
    """This worker process's extractor for the boxed tagger-state ref,
    built on first use (see ``_EXTRACTOR``)."""
    global _EXTRACTOR
    key = state_box[0].hex()
    if _EXTRACTOR is None or _EXTRACTOR[0] != key:
        _EXTRACTOR = (key, ShardFileExtractor(
            state_box, entities_path, kb_whitelist, kb_blacklist))
    return _EXTRACTOR[1]


def extract_shard_files(path: str, state_box: list,
                        entities_path: str | None = None,
                        kb_whitelist=None, kb_blacklist=None,
                        sink: dict | None = None) -> pa.Table:
    """Fused stage-A task body over one shard path; see
    :class:`ShardFileExtractor` for ``sink``. ``pipelines.kg`` runs it as
    one Ray task per shard (``extract_shards``). The tagger-state ref
    travels inside a list so Ray hands it over unresolved, and it is
    fetched once per worker process, not per task. ``entities_path`` and
    the KB filters rebuild the state if the broadcast object is lost."""
    return _cached_extractor(state_box, entities_path, kb_whitelist,
                             kb_blacklist)(path, sink)
