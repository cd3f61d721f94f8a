"""Property tests (hypothesis) for the vectorized kernels: every batch
kernel must agree with an obviously-correct scalar reference on
arbitrary inputs, and the SQL-shared tokenizer must agree with DuckDB's
regex engine. No Ray session needed — pure kernels only."""

from __future__ import annotations

import datetime as dt
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

ASCII_TEXT = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126),
    max_size=80)
TEXTS = st.lists(ASCII_TEXT, max_size=8)


@settings(max_examples=60, deadline=None)
@given(TEXTS)
def test_shingle_hash_batch_matches_scalar(texts):
    from casie_ray.ops.dedup import shingle_hash_batch

    rows, hashes = shingle_hash_batch(texts)
    got: dict[int, set] = {}
    for r, h in zip(rows.tolist(), hashes.tolist()):
        got.setdefault(r, set()).add(h)
    for i, t in enumerate(texts):
        want = set(shingle_hash_batch([t])[1].tolist())
        assert got.get(i, set()) == want, (i, t)


def _fnv1a_ref(w: str) -> int:
    h = 14695981039346656037
    for b in w.encode():
        h = ((h ^ b) * 1099511628211) % (1 << 64)
    return h


@settings(max_examples=60, deadline=None)
@given(st.lists(ASCII_TEXT, max_size=6))
def test_fnv1a_hashes_match_scalar_reference(words):
    from casie_ray.ops.bucketing import fnv1a_hashes

    got = fnv1a_hashes(words)
    for w, g in zip(words, got.tolist()):
        assert g == _fnv1a_ref(w), w


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(max_size=20), max_size=8),
       st.integers(min_value=0, max_value=3), st.booleans())
def test_fnv1a_hashes_arrow_inputs_match_scalar_reference(words, skip,
                                                          large):
    """The kernel reads Arrow buffers directly: a sliced array (non-zero
    offset), a ChunkedArray and large_string offsets must all hash like
    the scalar loop, for any unicode text including empty strings."""
    import pyarrow as pa

    from casie_ray.ops.bucketing import fnv1a_hashes

    typ = pa.large_string() if large else pa.string()
    arr = pa.array(["\u00e9x"] * skip + words, typ).slice(skip)
    assert arr.offset == skip
    want = [_fnv1a_ref(w) for w in words]
    assert fnv1a_hashes(arr).tolist() == want
    half = len(words) // 2
    chunked = pa.chunked_array([arr.slice(0, half), arr.slice(half)], typ)
    assert fnv1a_hashes(chunked).tolist() == want
    assert fnv1a_hashes(words).tolist() == want


def test_fnv1a_hashes_edge_inputs():
    import pyarrow as pa

    from casie_ray.ops.bucketing import fnv1a_hashes

    for empty in ([], pa.array([], pa.string()),
                  pa.chunked_array([], pa.large_string())):
        out = fnv1a_hashes(empty)
        assert out.dtype == np.uint64 and len(out) == 0
    words = ["", "", "caf\u00e9", "\u6f22\u5b57", "\x00", ""]
    want = [_fnv1a_ref(w) for w in words]
    assert fnv1a_hashes(words).tolist() == want
    assert fnv1a_hashes(pa.array(["", ""])).tolist() == [_fnv1a_ref("")] * 2
    with pytest.raises(ValueError, match="null"):
        fnv1a_hashes(pa.array(["a", None]))
    with pytest.raises(ValueError, match="null"):
        fnv1a_hashes(["a", None])


_CONV_IDS = ["c", "c1", "c\x00", "c\x00!", "c\x00x", "\u00e9", ""]
_TYPES = ["Event", "Organization", "Person", "\u00c9", None]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["s", "t", "s\x00"]), st.sampled_from(["p", "q"]),
    st.sampled_from(["o", "\u6f22"]), st.sampled_from(_TYPES),
    st.sampled_from(_TYPES), st.sampled_from(_CONV_IDS),
    st.sampled_from([-2**31, -1, 0, 7, 10**8, 2**31 - 1]),
    st.sampled_from([-3, 0, 2, 10**9]), st.integers(-1, 2),
    st.integers(1, 3)),
    max_size=24), st.integers(0, 3), st.integers(0, 24))
@example(rows=[], skip=2, cut=0)
@example(rows=[("s", "p", "o", None, "Event", "c\x00", 7, 0, 1, 2)],
         skip=1, cut=1)
# a conv_id and its \x00 extension: the tuple order keeps the shorter
# one whatever the turn index
@example(rows=[("s", "p", "o", "Event", "Event", "c\x00", 0, 0, 0, 1),
               ("s", "p", "o", "Event", "Event", "c", 7, 0, 0, 1)],
         skip=0, cut=1)
def test_final_dedup_group_matches_dict_reference(rows, skip, cut):
    """Both dedup phases against a plain dict reference: per (subj,
    pred, obj) the count sums, the provenance is the minimal (conv_id,
    turn_idx, ev_start, ev_end) tuple and each type a minimum (skipping
    nulls); output rows come in key order. :func:`partial_dedup` keeps
    the raw layout and the key's bucket, :func:`final_dedup_group`
    gives TRIPLE_SCHEMA rows. Keys repeat and tie on provenance, types
    differ within a key, conv_ids hold \\x00 or are prefixes of one
    another, and provenance ints are negative or 10^8 and wider. The
    input is sliced (non-zero offset) and split into two chunks."""
    import zlib

    import pyarrow as pa

    from casie_ray.stages.triples import (
        RAW_TRIPLE_SCHEMA, final_dedup_group, partial_dedup,
    )

    def bucket(key):
        return zlib.crc32("\x01".join(key).encode()) % 4096

    def table(rs):
        cols = list(zip(*rs)) or [[]] * 10
        return pa.table({
            **dict(zip(RAW_TRIPLE_SCHEMA.names, cols)),
            "bucket": [bucket(r[:3]) for r in rs],
        }, schema=RAW_TRIPLE_SCHEMA)

    filler = [("z", "z", "z", "Z", "Z", "z", 1, 1, 1, 1)] * skip
    t = table(filler + rows).slice(skip)
    cut = min(cut, len(rows))
    chunked = pa.concat_tables([t.slice(0, cut), t.slice(cut)])

    def tmin(vals):
        vals = [v for v in vals if v is not None]
        return min(vals) if vals else None

    groups: dict = {}
    for r in rows:
        groups.setdefault(r[:3], []).append(r)
    raw, final = [], []
    for key in sorted(groups):
        g = groups[key]
        conv, turn, start, end = min(r[5:9] for r in g)
        row = {"subj": key[0], "pred": key[1], "obj": key[2],
               "subj_type": tmin(r[3] for r in g),
               "obj_type": tmin(r[4] for r in g),
               "conv_id": conv, "turn_idx": turn, "ev_start": start,
               "ev_end": end}
        count = sum(r[9] for r in g)
        raw.append({**row, "count": count, "bucket": bucket(key)})
        final.append({**row, "weight": 1.0, "count": count})
    for inp in (t, chunked):
        assert partial_dedup(inp).to_pylist() == raw
        assert final_dedup_group(inp).to_pylist() == final


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["a", "b", "\u6f22"]), st.sampled_from(["a", "b", "c"]),
    st.sampled_from(_TYPES), st.sampled_from(_TYPES)), max_size=16),
    st.integers(0, 16))
@example(rows=[], cut=0)
@example(rows=[("a", "a", "X", None)], cut=1)
def test_node_degrees_matches_dict_reference(rows, cut):
    """The shared node kernel against a dict reference: degree counts
    endpoints (a self-loop counts twice) and type is the minimal non-null
    endpoint type. The input comes whole and as two chunks, and the
    distributed pair final_nodes_group(emit_nodes_batch(x)) agrees."""
    import pyarrow as pa

    from casie_ray.stages.triples import (
        NODE_SCHEMA, emit_nodes_batch, final_nodes_group, node_degrees,
    )

    cols = list(zip(*rows)) or [[]] * 4
    t = pa.table({name: pa.array(c, pa.string()) for name, c in zip(
        ("subj", "obj", "subj_type", "obj_type"), cols)})
    cut = min(cut, len(rows))
    chunked = pa.concat_tables([t.slice(0, cut), t.slice(cut)])
    degree: dict = {}
    types: dict = {}
    for subj, obj, st_, ot in rows:
        for node, typ in ((subj, st_), (obj, ot)):
            degree[node] = degree.get(node, 0) + 1
            if typ is not None:
                types[node] = min(typ, types.get(node, typ))
    want = [{"node_id": n, "type": types.get(n), "degree": degree[n]}
            for n in sorted(degree)]
    schema = pa.schema([f for f in NODE_SCHEMA if f.name != "bucket"])
    for inp in (t, chunked):
        got = node_degrees(inp).sort_by("node_id")
        assert got.schema.equals(schema)
        assert got.to_pylist() == want
        assert final_nodes_group(emit_nodes_batch(inp)) \
            .drop_columns(["bucket"]).equals(got)


_SURFACES = ["person:acme corp", "person:acme corp.", "person:acme",
             "organization:acme corp", "organization:acme corps",
             "person:bob", "person:bobby"]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_SURFACES),
                          st.sampled_from(["b1", "b0", "b2"])),
                max_size=14))
@example(rows=[])
@example(rows=[("person:bob", "b1"), ("person:acme", "b0")])
@example(rows=[("person:acme corp", "b1"), ("person:acme corp.", "b1"),
               ("person:acme corp", "b1"), ("person:bob", "b0")])
def test_merge_edges_multi_matches_per_block_reference(rows):
    """merge_edges_multi equals canon_merge_edges concatenated over the
    blocks in sorted order, for unsorted rows, singleton blocks and
    duplicate nodes; no edges give an empty CC_EDGE_SCHEMA table."""
    import pyarrow as pa

    from casie_ray.semantics import canon_merge_edges
    from casie_ray.stages.triples import (
        CC_EDGE_SCHEMA, SURFACE_SCHEMA, merge_edges_multi,
    )

    cols = list(zip(*rows)) or [[]] * 2
    got = merge_edges_multi(pa.table(
        {"node": pa.array(cols[0], pa.string()),
         "block": pa.array(cols[1], pa.string())}, schema=SURFACE_SCHEMA))
    want = [{"src": a, "dst": b} for blk in sorted(set(cols[1]))
            for a, b in canon_merge_edges(
                [n for n, bb in rows if bb == blk])]
    assert got.schema.equals(CC_EDGE_SCHEMA)
    assert got.to_pylist() == want
    if not want:
        assert got.equals(CC_EDGE_SCHEMA.empty_table())


# planted entity blocks for canonical_pairs: a chain (each end merges
# only with the middle), a block whose minimum member merges only with
# the block's largest, and a one-node block
_CHAIN = ["organization:bramado group", "organization:bramado group intl",
          "organization:bramado intl"]
_VIA_MAX = ["malware:bramado group", "malware:bramado intl",
            "malware:bramado intl group"]
_CANON_POOL = _CHAIN + _VIA_MAX + ["person:zed"] + _SURFACES


def _block_of(node: str) -> str:
    from casie_ray.semantics import canon_block_key, parse_surface_node
    return canon_block_key(*parse_surface_node(node))


_CANON_BLOCKS = sorted({_block_of(n) for n in _CANON_POOL})


def _check_blockwise_canonical_pairs(nodes: list[str], groups: list[int]):
    """Run canonical_pairs once per group of whole blocks (``groups`` has
    one group id per ``_CANON_BLOCKS`` entry) and check the union of
    the pairs against the oracle."""
    import pyarrow as pa

    from casie_ray.oracle import canonical_mapping
    from casie_ray.stages.triples import (
        CANON_PAIR_SCHEMA, SURFACE_SCHEMA, canonical_pairs,
    )

    group_of = dict(zip(_CANON_BLOCKS, groups))
    got: dict[str, str] = {}
    for g in sorted(set(groups)):
        rows = [n for n in nodes if group_of[_block_of(n)] == g]
        t = canonical_pairs(pa.table(
            {"node": pa.array(rows, pa.string()),
             "block": pa.array([_block_of(n) for n in rows], pa.string())},
            schema=SURFACE_SCHEMA))
        assert t.schema.equals(CANON_PAIR_SCHEMA)
        part = dict(zip(t.column("node").to_pylist(),
                        t.column("label").to_pylist()))
        assert len(part) == t.num_rows and not part.keys() & got.keys()
        got.update(part)
    assert got == canonical_mapping(nodes)


def test_canonical_pairs_planted_blocks():
    """The planted blocks hold the merge structure they are named for,
    and each maps every member to the block minimum."""
    from casie_ray.semantics import canon_merge_edges

    a, b, c = _CHAIN
    assert canon_merge_edges(_CHAIN) == [(a, b), (b, c)]
    a, b, c = _VIA_MAX
    assert canon_merge_edges(_VIA_MAX) == [(a, c), (b, c)]
    assert len({_block_of(n) for n in _CHAIN + _VIA_MAX}) == 2
    _check_blockwise_canonical_pairs(
        _CHAIN + _VIA_MAX + ["person:zed"], [0] * len(_CANON_BLOCKS))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_CANON_POOL), max_size=24),
       st.lists(st.integers(0, 3), min_size=len(_CANON_BLOCKS),
                max_size=len(_CANON_BLOCKS)))
@example(nodes=[], groups=[0] * len(_CANON_BLOCKS))
@example(nodes=["person:zed"], groups=[1] * len(_CANON_BLOCKS))
@example(nodes=_CHAIN[::-1] + _VIA_MAX + _CHAIN + _SURFACES,
         groups=list(range(len(_CANON_BLOCKS))))
def test_canonical_pairs_blockwise_union_is_global_mapping(nodes, groups):
    """canonical_pairs over any split of whole blocks into groups (nodes
    repeated, rows in any order) gives disjoint pairs whose union is the
    oracle's global mapping."""
    _check_blockwise_canonical_pairs(nodes, groups)


# repeated texts: plain prose, vocabulary hits, non-plain characters,
# case and newline variants, the empty string
_MASK_POOL = ["", "the quick brown fox .", "we talked about lunch",
              "an attack on them", "Attack", "a breach (again)", "patch it",
              "three million", "CVE-2021-1234", "hello\n", "naïve café",
              "line one\nline two", "  ", "İstanbul"]
_MASK_TEXTS = st.lists(st.one_of(st.none(), st.sampled_from(_MASK_POOL),
                                 st.text(max_size=20)), max_size=30)


def _mask_twin(tagger, texts: list) -> list[bool]:
    """The pre-pass mask row by row, as the column-at-once formulation
    computed it: a null text is plain and empty; a row passes when it
    is not plain lowercase prose or one of its lowercased
    ``[^a-z0-9]+``-split pieces is in the hot vocabulary."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from casie_ray.stages.detect import _PLAIN_RE

    vocab = set(tagger.hot_vocab.to_pylist())
    out = []
    for t in texts:
        one = pa.array([t], pa.string())
        plain = pc.fill_null(pc.match_substring_regex(one, _PLAIN_RE),
                             True)[0].as_py()
        pieces = pc.split_pattern_regex(
            pc.fill_null(pc.utf8_lower(one), ""), "[^a-z0-9]+")[0].as_py()
        out.append(not plain or any(p in vocab for p in pieces))
    return out


@settings(max_examples=150, deadline=None)
@given(_MASK_TEXTS, st.lists(st.integers(0, 30), max_size=3),
       st.integers(0, 3), st.integers(0, 3))
@example(texts=[], cuts=[], lo=0, hi=0)
@example(texts=[None, None], cuts=[], lo=0, hi=0)
@example(texts=["", None, "the quick brown fox .", "an attack on them",
                "", "an attack on them", None, "Attack"],
         cuts=[3], lo=1, hi=1)
def test_interesting_mask_matches_row_by_row_twin(texts, cuts, lo, hi):
    """The mask over distinct texts (dictionary-encoded) equals the
    row-by-row twin on repeated texts, nulls and "", for a plain array,
    a slice of a padded array and a ChunkedArray cut at ``cuts``."""
    import pyarrow as pa

    from casie_ray.stages.detect import DetectTagger, build_hot_vocab

    tagger = DetectTagger({"catalog": {}, "fuzzy": None, "hot_vocab":
                           sorted(build_hot_vocab({"acme": None}))})
    want = _mask_twin(tagger, texts)
    arr = pa.array(texts, pa.string())
    padded = pa.array(["an attack"] * lo + texts + ["fox"] * hi,
                      pa.string()).slice(lo, len(texts))
    bounds = sorted({0, len(texts), *(c for c in cuts if c < len(texts))})
    chunked = pa.chunked_array(
        [arr.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
        or [arr], pa.string())
    for col in (arr, padded, chunked):
        got = tagger.interesting_mask(col)
        assert got.dtype == bool and got.tolist() == want


_ROLES = ["Attacker", "Victim", "Patch", "Vulnerability", "Discoverer",
          "Time"]
_EMIT_ARG = st.tuples(
    st.sampled_from(_ROLES),
    st.sampled_from(["Organization", "Person", "CVE", "Number", "Money",
                     "Software"]),
    st.sampled_from(["Acme Corp", "cve-2020-0001", "three million",
                     "1,200", "Bob", "$5"]),
    st.sampled_from([None, "E1"]), st.integers(0, 5))
_EMIT_EVENT = st.tuples(
    st.sampled_from([None, "Actual", "Other"]),
    st.sampled_from([None, "self", "c0:e00", "c9:e99"]),
    st.integers(0, 7), st.lists(_EMIT_ARG, max_size=5))


def _emit_events(spec):
    """Fresh Event objects for a drawn emission spec: (realis, cluster,
    turn, [(role, argtype, text, entity_id, start)]); cluster "self" is
    the event's own id."""
    from casie_ray.semantics import Event, Mention

    events = []
    for k, (realis, cluster, ti, args) in enumerate(spec):
        e = Event(f"c{k % 2}:e{k:02d}", f"c{k % 2}", ti, "Databreach",
                  k, k + 2, "hack", realis=realis,
                  args=[Mention(st_, st_ + 3, text, at, eid, role=role)
                        for role, at, text, eid, st_ in args])
        e.cluster = e.event_id if cluster == "self" else cluster
        events.append(e)
    return events


def _dict_emitter_table(events):
    """The raw triple table rebuilt from the oracle's dict form of the
    emitter: per-row provenance fields, unit counts, shared buckets."""
    import pyarrow as pa

    from casie_ray.semantics import emit_triples
    from casie_ray.stages.triples import RAW_TRIPLE_SCHEMA, triple_buckets

    rows = emit_triples(events)
    assert all(r["weight"] == 1.0 for r in rows)
    if not rows:
        return RAW_TRIPLE_SCHEMA.empty_table()
    cols = {c: pa.array([r[c] for r in rows], pa.string())
            for c in ("subj", "pred", "obj", "subj_type", "obj_type")}
    return pa.table({
        **cols,
        **{c: [r[c] for r in rows]
           for c in ("conv_id", "turn_idx", "ev_start", "ev_end")},
        "count": pa.array([1] * len(rows), pa.int64()),
        "bucket": triple_buckets(cols["subj"], cols["pred"], cols["obj"]),
    }, schema=RAW_TRIPLE_SCHEMA)


@settings(max_examples=150, deadline=None)
@given(st.lists(_EMIT_EVENT, max_size=6))
@example(spec=[])
# an argument-less event; a same-as cluster; derived predicates over
# several Attacker x Victim mentions listed out of start order
@example(spec=[(None, None, 0, []), ("Other", "c0:e00", 1, []),
               ("Actual", "self", 2,
                [("Victim", "Organization", "Bob", None, 4),
                 ("Attacker", "Person", "Acme Corp", "E1", 3),
                 ("Attacker", "Person", "$5", None, 1),
                 ("Victim", "Number", "three million", None, 0),
                 ("Patch", "Software", "Bob", None, 2),
                 ("Vulnerability", "CVE", "cve-2020-0001", None, 5)])])
def test_triples_from_events_matches_dict_emitter(spec):
    """The columnar emitter equals the table built from the oracle's
    dict form of the same rules."""
    from casie_ray.stages.triples import triples_from_events

    events = _emit_events(spec)
    assert triples_from_events(events).equals(_dict_emitter_table(events))


def test_triples_from_events_matches_dict_emitter_on_smoke_corpus(
        smoke_corpus):
    """The same equality over every event of the smoke corpus."""
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files
    from casie_ray.stages.detect import ShardExtractor, load_tagger_state
    from casie_ray.stages.triples import triples_from_events

    ext = ShardExtractor(load_tagger_state(
        os.path.join(smoke_corpus, "entities.parquet")))
    events = [e for f in list_transcript_files(smoke_corpus)
              for e in ext.extract_turns_with_events(pq.read_table(
                  f, columns=["conv_id", "turn_idx", "text", "ts"]))[1]]
    assert any(e.cluster and e.cluster != e.event_id for e in events)
    got = triples_from_events(events)
    assert got.num_rows > 2 * len(events)
    assert got.equals(_dict_emitter_table(events))


_COREF_TS = [None, dt.datetime(2018, 3, 1), dt.datetime(2019, 7, 4, 12)]
_COREF_ARG = st.tuples(
    st.sampled_from(["Time", "Organization", "Person", "Money"]),
    st.sampled_from(["Acme Corp", "acme corp.", "ACME's  corp", "Bob",
                     "bob!", "yesterday", "March 2018", "march 2018",
                     "last week", "soon", "Monday", "$5"]),
    st.sampled_from([None, "E1", "E2"]))
_COREF_EVENT = st.tuples(
    st.sampled_from(["Ransom", "Databreach", "Phishing"]),
    st.sampled_from(["hack", "Hack", "HACKED", "breach", "ransom"]),
    st.sampled_from(["Actual", "Other", "Generic", None]),
    st.integers(0, 3), st.lists(_COREF_ARG, max_size=3))
# (events, per-turn ts choice: an index into _COREF_TS, or 3 = no entry)
_COREF_CONV = st.tuples(st.lists(_COREF_EVENT, max_size=6),
                        st.lists(st.integers(0, 3), min_size=4,
                                 max_size=4))


def _coref_convs(spec):
    """Fresh Event objects for a drawn spec; event ids run against
    insertion order so the per-subset event_id sort matters."""
    from casie_ray.semantics import Event, Mention

    convs = []
    for ci, (evs, ts) in enumerate(spec):
        events = [Event(f"c{ci}:e{len(evs) - k:02d}", f"c{ci}", ti, etype,
                        k, k + 1, nug, realis=realis,
                        args=[Mention(0, 1, text, at, eid)
                              for at, text, eid in args])
                  for k, (etype, nug, realis, ti, args) in enumerate(evs)]
        convs.append((events, {t: _COREF_TS[c] for t, c in enumerate(ts)
                               if c < len(_COREF_TS)}))
    return convs


@settings(max_examples=200, deadline=None)
@given(st.lists(_COREF_CONV, max_size=4))
@example(spec=[])
@example(spec=[([("Ransom", "hack", None, 1, []),
                 ("Ransom", "Hack", None, 1, [])], [0, 0, 0, 0])])
# min-max must see a zeroed diagonal (argtype overlap of an event with
# itself is its argument count)
@example(spec=[([("Ransom", "ransom", "Other", 0,
                  [("Organization", "Acme Corp", "E1"),
                   ("Money", "bob!", "E2"), ("Time", "yesterday", "E1")]),
                 ("Ransom", "HACKED", "Actual", 2,
                  [("Time", "yesterday", "E1")])], [1, 3, 3, 3])])
# min-max is per subset, not over the whole call
@example(spec=[([("Databreach", "Hack", "Other", 3,
                  [("Organization", "bob!", "E1"),
                   ("Organization", "Bob", None), ("Money", "$5", None)]),
                 ("Databreach", "ransom", "Actual", 2,
                  [("Time", "Acme Corp", "E1"), ("Person", "yesterday", None),
                   ("Money", "Acme Corp", "E2")])], [3, 1, 2, 0]),
               ([("Databreach", "HACKED", "Actual", 2, []),
                 ("Databreach", "ransom", None, 0,
                  [("Money", "soon", "E1")])], [0, 3, 2, 2])])
def test_coref_many_matches_per_conversation_coref(spec):
    """The shard-batched coref kernel against the sequential per-
    conversation twin: every event gets the same cluster. Several
    conversations go in one call, with several etypes, singleton
    subsets, argument-less events, surfaces differing only in case or
    punctuation, shared and null entity ids, absolute / relative /
    unparsable Time args with and without a turn ts, nugget case
    variants, and subsets whose turn gaps or argtype overlaps are all
    zero (the min-max ``max == 0`` branch)."""
    from casie_ray.semantics import coref_events, coref_many

    want = _coref_convs(spec)
    for events, turn_ts in want:
        coref_events(events, turn_ts)
    got = _coref_convs(spec)
    coref_many(iter(got))
    assert [[e.cluster for e in evs] for evs, _ in got] \
        == [[e.cluster for e in evs] for evs, _ in want]


@settings(max_examples=40, deadline=None)
@given(TEXTS)
def test_lang_id_batch_matches_python_reference(texts):
    import pyarrow as pa

    from casie_ray.ops.text import _LANG_PROFILES, _LANGS, lang_id_batch

    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    out = lang_id_batch(batch)
    for i, t in enumerate(texts):
        s = (t or "").lower()
        bigrams = [s[k:k + 2] for k in range(len(s) - 1)]
        best_lang, best = _LANGS[0], -1
        for lg in _LANGS:
            p = set(_LANG_PROFILES[lg])
            sc = sum(1 for b in bigrams if b in p)
            if sc > best:
                best, best_lang = sc, lg
        assert out.column("pred_lang")[i].as_py() == best_lang, t
        assert out.column("score")[i].as_py() == max(best, 0), t


@settings(max_examples=40, deadline=None)
@given(TEXTS)
def test_simhash_batch_matches_scalar_reference(texts):
    from casie_ray.ops.bucketing import fnv1a_hashes
    from casie_ray.ops.dedup import simhash64_batch

    got = simhash64_batch(texts)
    for t, g in zip(texts, got.tolist()):
        words = sorted(set((t or "").split(" ")))
        hs = fnv1a_hashes(words).tolist()
        want = 0
        for i in range(64):
            ones = sum((h >> i) & 1 for h in hs)
            if 2 * ones > len(hs):
                want |= 1 << i
        assert g == want, t


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5), min_size=0,
                max_size=40))
def test_segment_pair_indices_match_bruteforce(keys):
    from casie_ray.ops.bucketing import segment_pair_indices

    arr = np.sort(np.asarray(keys, dtype=np.int64))
    ia, ib = segment_pair_indices([arr])
    got = sorted(zip(ia.tolist(), ib.tolist()))
    want = sorted((i, j) for i in range(len(arr))
                  for j in range(i + 1, len(arr)) if arr[i] == arr[j])
    assert got == want


@pytest.fixture(scope="module")
def ddb_con():
    import duckdb
    return duckdb.connect()


@settings(max_examples=60, deadline=None)
@given(ASCII_TEXT)
def test_tokenizer_matches_duckdb_regex(text):
    """The SQL-shared token stream: Python re and DuckDB RE2 must agree
    on the TOKEN_RE pattern for any printable-ASCII input (the
    turn_token_features oracle depends on this)."""
    import duckdb

    from casie_ray.tokenize import TOKEN_RE

    con = duckdb.connect()
    pat = TOKEN_RE.pattern.replace("'", "''")
    dk = con.execute(
        "SELECT regexp_extract_all(?, '" + pat + "')", [text]).fetchone()[0]
    assert TOKEN_RE.findall(text) == dk, text


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["A", "N", "R"]),
    st.floats(min_value=0, max_value=60, allow_nan=False),
    st.floats(min_value=0, max_value=120_000, allow_nan=False)),
    min_size=1, max_size=40),
    st.integers(min_value=1, max_value=7))
def test_corr_registers_merge_invariant(rows, nsplit):
    """The correlation register partial/final pair must produce
    identical registers for ANY block split of the same rows — the
    mergeability property the shuffle-free scale design relies on."""
    import pyarrow as pa

    from casie_ray.ops.relational import _corr_final, _corr_partial

    def table(rs):
        return pa.table({
            "l_returnflag": pa.array([r[0] for r in rs], pa.string()),
            "l_quantity": pa.array([r[1] for r in rs], pa.float64()),
            "l_extendedprice": pa.array([r[2] for r in rs],
                                        pa.float64()),
        })

    def run(splits):
        parts = pa.concat_tables(
            [_corr_partial(table(s)) for s in splits if s])
        out = []
        for flag in sorted(set(parts.column("l_returnflag")
                               .to_pylist())):
            import pyarrow.compute as pc
            g = parts.filter(pc.equal(parts.column("l_returnflag"),
                                      flag))
            out.append(_corr_final(g))
        return pa.concat_tables(out).sort_by("l_returnflag") \
            .to_pydict()

    whole = run([rows])
    k = max(1, len(rows) // nsplit)
    chunked = run([rows[i:i + k] for i in range(0, len(rows), k)])
    assert whole == chunked


@settings(max_examples=25, deadline=None)
@given(st.lists(st.lists(
    st.floats(min_value=-2, max_value=2, allow_nan=False,
              allow_subnormal=False),
    min_size=4, max_size=4), min_size=1, max_size=24),
    st.integers(min_value=1, max_value=5))
def test_pca_registers_merge_invariant(vecs, nsplit):
    """PCA Gram registers must be identical under any block split
    (uint64 wrap-sum merge is order- and grouping-free)."""
    import pyarrow as pa

    from casie_ray.ops.pca import pca_merge, pca_partial

    def table(vs):
        return pa.table({"embedding": pa.array(vs,
                                               pa.list_(pa.float32()))})

    whole = pca_merge(pca_partial(table(vecs))).to_pydict()
    k = max(1, len(vecs) // nsplit)
    parts = [pca_partial(table(vecs[i:i + k]))
             for i in range(0, len(vecs), k)]
    chunked = pca_merge(pa.concat_tables(parts)).to_pydict()
    assert whole == chunked


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000),
                min_size=1, max_size=60),
       st.integers(min_value=1, max_value=6))
def test_hll_partials_merge_invariant(ids, nsplit):
    """HLL register partials must max-merge to the same table under
    any block split — the mergeability the shuffle-free distinct
    count relies on."""
    import numpy as np
    import pyarrow as pa

    from casie_ray.ops.sketch import hll_partial

    def merge(tables):
        t = pa.concat_tables(tables)
        g = t.group_by(["register"]).aggregate([("max_rank", "max")])
        return dict(zip(g.column(0).to_pylist(),
                        g.column(1).to_pylist()))

    arr = np.array(ids, np.int64)
    whole = merge([hll_partial(arr)])
    k = max(1, len(arr) // nsplit)
    chunked = merge([hll_partial(arr[i:i + k])
                     for i in range(0, len(arr), k)])
    assert whole == chunked


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=4),
    st.integers(min_value=1, max_value=10**9),
    min_size=1, max_size=8),
    st.integers(min_value=1, max_value=10))
def test_mixture_thresholds_properties(counts, divisor):
    """For arbitrary source-count tables: every ppm is in [0, 1e6],
    expected kept mass never exceeds the integer target, and the
    keep-RATE ordering is inverse to source size (temperature
    flattening: bigger source -> lower or equal keep-ppm)."""
    from casie_ray.ops.curation import MIX_PPM, mixture_thresholds

    thr = mixture_thresholds(counts, target_divisor=divisor)
    total = sum(counts.values())
    target = total // divisor
    assert set(thr) == set(counts)
    assert all(0 <= p <= MIX_PPM for p in thr.values())
    kept = sum(thr[s] * n for s, n in counts.items())
    assert kept <= target * MIX_PPM + len(counts) * MIX_PPM  # int floor slack
    # keep-rate ordering follows the actual integer weights w/n
    # (floor-sqrt makes w/n itself non-monotone in n at perfect
    # squares, so compare the exact rationals by cross-multiplying)
    import math
    w = {s: int(math.floor(math.sqrt(float(n))))
         for s, n in counts.items()}
    for a in counts:
        for b in counts:
            if w[a] * counts[b] > w[b] * counts[a]:
                assert thr[a] >= thr[b], (a, b, counts, thr)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.text(alphabet="xyz", min_size=1, max_size=2),
                         min_size=0, max_size=7), max_size=6))
def test_trigram_partial_matches_bruteforce(docs_words):
    """The vectorized boundary-masked trigram kernel (the SAME function
    doc_ngrams' partial calls) agrees with a scalar counter on
    arbitrary word lists (incl. docs shorter than 3 words, empty docs,
    repeated trigrams)."""
    import collections

    import pyarrow as pa

    from casie_ray.ops.text import trigram_counts_batch

    texts = [" ".join(ws) for ws in docs_words]
    batch = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                      "text": pa.array(texts, pa.string())})
    g = trigram_counts_batch(batch)
    got = collections.Counter(dict(zip(g.column("ngram").to_pylist(),
                                       g.column("n").to_pylist())))
    want = collections.Counter()
    for t in texts:
        ws = t.split(" ")
        for i in range(len(ws) - 2):
            want[" ".join(ws[i:i + 3])] += 1
    assert got == want


UNI_TEXT = st.text(
    alphabet=st.characters(
        whitelist_categories=("Ll", "Lu", "Lo", "Nd", "Zs", "Po")),
    max_size=40)


@settings(max_examples=50, deadline=None)
@given(st.lists(UNI_TEXT, max_size=6))
def test_hash_kernels_handle_unicode(texts):
    """The vectorized byte-level kernels must treat multi-byte UTF-8
    exactly like the scalar references do (the 100 TB corpus is not
    ASCII): fnv1a over encoded bytes, shingles and simhash built on
    top of it."""
    from casie_ray.ops.bucketing import fnv1a_hashes
    from casie_ray.ops.dedup import shingle_hash_batch, simhash64_batch

    got = fnv1a_hashes(texts)
    for w, g in zip(texts, got.tolist()):
        h = 14695981039346656037
        for b in w.encode():
            h = ((h ^ b) * 1099511628211) % (1 << 64)
        assert g == h, repr(w)

    rows, hashes = shingle_hash_batch(texts)
    per_row: dict[int, set] = {}
    for r, h in zip(rows.tolist(), hashes.tolist()):
        per_row.setdefault(r, set()).add(h)
    for i, t in enumerate(texts):
        want = set(shingle_hash_batch([t])[1].tolist())
        assert per_row.get(i, set()) == want, repr(t)

    sims = simhash64_batch(texts)
    for t, g in zip(texts, sims.tolist()):
        words = sorted(set((t or "").split(" ")))
        hs = fnv1a_hashes(words).tolist()
        want = 0
        for i in range(64):
            ones = sum((h >> i) & 1 for h in hs)
            if 2 * ones > len(hs):
                want |= 1 << i
        assert g == want, repr(t)


def _table_matches_per_token_twin(texts, catalog, fuzzy=None):
    """One TokenTable over ``texts`` (None read as "", as stage A does):
    each turn's tokens and offsets equal tokenize(), its ``detect_turn``
    view equals ``detect_turn_seq``, and the table's realis windows at
    every char offset of every turn equal ``realis_window_flags``."""
    from casie_ray.semantics import (
        TokenTable, detect_turn, detect_turn_seq, realis_window_flags,
    )
    from casie_ray.tokenize import tokenize

    texts = [t or "" for t in texts]
    tt = TokenTable(texts, catalog)
    assert len(tt.bounds) == len(texts) + 1 and tt.bounds[-1] == len(tt.toks)
    turns, offsets, want = [], [], []
    for k, text in enumerate(texts):
        a, b = tt.bounds[k], tt.bounds[k + 1]
        assert list(zip(tt.toks[a:b], tt.starts[a:b], tt.ends[a:b])) \
            == tokenize(text), repr(text)
        det = detect_turn_seq(text, catalog, fuzzy)
        assert detect_turn(text, catalog, fuzzy, view=(tt, k)) == det, \
            repr(text)
        for off in range(len(text) + 1):
            turns.append(k)
            offsets.append(off)
            want.append(realis_window_flags(det, off))
    modal, generic = tt.window_flags(np.array(turns, np.int64),
                                     np.array(offsets, np.int64))
    assert list(zip(modal.tolist(), generic.tolist())) == want


_TABLE_ENTITIES = [
    {"entity_id": "E1", "canonical": "Acme Corp", "aliases": ["acme"],
     "type": "Organization"},
    {"entity_id": "E2", "canonical": "Velmir Labs Intl", "aliases": [],
     "type": "Organization"},
    {"entity_id": "E3", "canonical": "CVE-2017-0144", "aliases": [],
     "type": "CVE"},
    {"entity_id": "E4", "canonical": "v2.3 kit", "aliases": [],
     "type": "System"},
]
_TABLE_EDGES = [
    None, "", "a\nb\tc\n", "trailing whitespace   \t", "\n\n",
    "İstanbul Corp hired ǅemal Labs .", "٣ records and ٣٤ files",
    "v2.3 kit , v9 and $5M , $ , CVE-2017-0144 in C-3 Corp",
    "acme corp stole three million records from Velmir Labs Intl .",
    "the attack was led by Acme",             # capitalized run at the end
    "Corp Labs Group denied it",              # next turn starts capitalized
    "on May 12 2019 they may patch ; March 2018 .",
    "Zorvex Networks Intl breached Acme Corp's servers .",
]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.none(), st.sampled_from(_TABLE_EDGES),
                          st.text(max_size=40)), max_size=8))
@example(texts=_TABLE_EDGES)
def test_token_table_matches_per_token_detection(texts):
    """The shard-wide token table equals tokenize() and the per-token
    detect_turn_seq on arbitrary Unicode texts, with a catalog that has
    multi-token phrases and a fuzzy index."""
    from casie_ray.semantics import build_catalog_matcher, build_fuzzy_index

    _table_matches_per_token_twin(
        texts, build_catalog_matcher(_TABLE_ENTITIES),
        build_fuzzy_index(_TABLE_ENTITIES))


def test_token_table_matches_per_token_detection_on_smoke_corpus(
        smoke_corpus):
    """The same equality over every text of the smoke shards, in one
    table per shard, plus the edge cases with the corpus catalog and a
    multi-token phrase of it."""
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files
    from casie_ray.stages.detect import load_tagger_state

    state = load_tagger_state(os.path.join(smoke_corpus, "entities.parquet"))
    catalog, fuzzy = state["catalog"], state["fuzzy"]
    for f in list_transcript_files(smoke_corpus):
        _table_matches_per_token_twin(
            pq.read_table(f, columns=["text"]).column("text").to_pylist(),
            catalog, fuzzy)
    phrase = next(p for entries in catalog.values()
                  for p, ln, _, _ in entries if ln >= 3)
    _table_matches_per_token_twin(
        _TABLE_EDGES + [" ".join(phrase).title() + " was hit",
                        "they hit " + " ".join(phrase)], catalog, fuzzy)


def test_window_flags_planted_edges():
    """Realis windows over a token table at its edges, each equal to
    ``realis_window_flags`` and to the planted truth: a nugget offset
    before its turn's first token, windows clipped at both ends of a
    turn, never reaching a neighbouring turn's modal or generic word, and
    the table's first and last turns."""
    from casie_ray.semantics import (
        TokenTable, build_catalog_matcher, detect_turn_seq,
        realis_window_flags,
    )

    catalog = build_catalog_matcher(_TABLE_ENTITIES)
    filler = " ".join(f"w{i}" for i in range(18))
    texts = [
        "   may they patch it",               # first turn, leading blanks
        f"possibly {filler} typically",       # modal first, generic last
        "attackers usually",                  # generic just before...
        "stole data today",                   # ...a turn with neither...
        "if so",                              # ...and a modal just after
        "  t1 t2 t3 t4 t5 t6 t7 might",       # modal 7 tokens after start
        "  breached   ",                      # last turn, blanks around
    ]
    tt = TokenTable(texts, catalog)
    cases = [  # (turn, char offset, planted (modal, generic))
        (0, 0, (True, False)),                # before the first token
        (0, 3, (True, False)),
        (1, len("possibly w0 w1 "), (True, False)),       # clipped low
        (1, len(texts[1]) - len("w17 typically"), (False, True)),
        (1, len(texts[1]), (False, True)),    # clipped high
        (3, 0, (False, False)),
        (3, len("stole data "), (False, False)),
        (5, 0, (True, False)),                # before the first token
        (5, 1, (True, False)),
        (6, 0, (False, False)),               # last turn, before its token
        (6, len(texts[6]), (False, False)),
    ]
    modal, generic = tt.window_flags(np.array([c[0] for c in cases]),
                                     np.array([c[1] for c in cases]))
    for (k, off, truth), m, g in zip(cases, modal.tolist(),
                                     generic.tolist()):
        det = detect_turn_seq(texts[k], catalog)
        assert (m, g) == realis_window_flags(det, off) == truth, (k, off)


def test_tag_batch_matches_per_token_detection_on_smoke_corpus(
        smoke_corpus):
    """DetectTagger.tag_batch (one token table over a batch's passing
    texts) gives every row the detection columns of detect_turn_seq, and
    an empty detection to a masked-out row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files
    from casie_ray.schema import detection_to_row
    from casie_ray.semantics import TurnDetection, detect_turn_seq
    from casie_ray.stages.detect import DetectTagger, load_tagger_state

    tagger = DetectTagger(load_tagger_state(
        os.path.join(smoke_corpus, "entities.parquet")))
    tbl = pq.read_table(list_transcript_files(smoke_corpus)[0],
                        columns=["conv_id", "turn_idx", "text", "ts"])
    got = tagger.tag_batch(tbl)
    mask = tagger.interesting_mask(tbl.column("text"))
    assert 0 < mask.sum() < len(mask)
    rows = [detection_to_row(
        detect_turn_seq(t or "", tagger.catalog, tagger.fuzzy) if keep
        else TurnDetection([], [], [], [], []))
        for t, keep in zip(tbl.column("text").to_pylist(), mask)]
    for col in ("token_starts", "token_flags", "triggers", "mentions",
                "cand_tokens"):
        want = pa.array([r[col] for r in rows], got.schema.field(col).type)
        assert got.column(col).combine_chunks().equals(want), col
