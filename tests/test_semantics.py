"""Unit tests for the shared extraction kernels (SURVEY §5.2 tier 1)."""

from __future__ import annotations

import datetime as dt

import pytest

from casie_ray import lexicons as lx
from casie_ray.semantics import (
    Mention, build_catalog_matcher, detect_turn, extract_conversation,
    parse_time_mention,
)
from casie_ray.tokenize import tokenize

ENTS = [
    {"entity_id": "E1", "canonical": "Acmex Corp", "aliases": ["Acmex"],
     "type": "Organization"},
    {"entity_id": "E2", "canonical": "BoltLocker", "aliases": [],
     "type": "Malware"},
    {"entity_id": "E3", "canonical": "Norvik Server", "aliases": [],
     "type": "System"},
]
CAT = build_catalog_matcher(ENTS)


def test_tokenize_offsets_and_compounds():
    toks = tokenize("Acmex Corp fix CVE-2017-144 in v2.3.1 for $12,000 .")
    surfaces = [t[0] for t in toks]
    assert "CVE-2017-144" in surfaces
    assert "v2.3.1" in surfaces
    assert "$12,000" in surfaces
    text = "Acmex Corp fix CVE-2017-144 in v2.3.1 for $12,000 ."
    for s, a, b in toks:
        assert text[a:b] == s


def test_detect_regex_and_catalog():
    det = detect_turn(
        "Acmex Corp released a patch for CVE-2017-144 in Norvik Server .",
        CAT)
    trigs, ments = det.triggers, det.mentions
    kinds = {(m.text, m.argtype, m.entity_id) for m in ments}
    assert ("Acmex Corp", "Organization", "E1") in kinds
    assert ("CVE-2017-144", "CVE", None) in kinds
    assert ("Norvik Server", "System", "E3") in kinds
    assert ("patch", "Patch", None) in kinds
    assert [t.surface for t in trigs] == ["released"]
    assert trigs[0].etypes == ("PatchVulnerability",)


def test_argument_wins_over_trigger():
    # 'patch' is both a GENERAL_N trigger noun and the Patch argument;
    # the argument wins (link_coref.py:613-614)
    det = detect_turn("the patch arrived .", CAT)
    trigs, ments = det.triggers, det.mentions
    assert any(m.argtype == "Patch" for m in ments)
    assert not any(t.surface == "patch" for t in trigs)


def test_may_is_not_a_time_mention():
    ments = detect_turn("they may have stolen data .", CAT).mentions
    assert not any(m.argtype == "Time" for m in ments)
    ments = detect_turn("it happened in May 2018 .", CAT).mentions
    assert [(m.text, m.argtype) for m in ments] == [("May 2018", "Time")]


def test_alias_links_to_same_entity():
    m1 = detect_turn("Acmex Corp was breached .", CAT).mentions
    m2 = detect_turn("Acmex was breached .", CAT).mentions
    assert m1[0].entity_id == m2[0].entity_id == "E1"


def test_extract_conversation_end_to_end():
    turns = [
        {"turn_idx": 0, "text": "hello there .", "ts": dt.datetime(2018, 1, 1)},
        {"turn_idx": 1,
         "text": "Acmex Corp stolen customer data from Norvik Server in March 2018 .",
         "ts": dt.datetime(2018, 1, 1, 0, 5)},
    ]
    events = extract_conversation("c1", turns, CAT)
    assert len(events) == 1
    e = events[0]
    assert e.etype == "Databreach"
    assert e.realis == "Actual"
    assert e.event_id.startswith("c1:1:")
    roles = {(m.argtype, m.role) for m in e.args}
    assert ("Organization", "Attacker") in roles   # before trigger
    assert ("Data", "Compromised-Data") in roles
    assert ("System", "Victim") in roles           # after trigger
    assert ("Time", "Time") in roles
    assert e.cluster == e.event_id


def test_realis_rules():
    base = {"turn_idx": 0, "ts": dt.datetime(2018, 1, 1)}
    ev = extract_conversation(
        "c", [dict(base, text="Acmex may have stolen customer data .")], CAT)
    assert ev[0].realis == "Other"
    ev = extract_conversation(
        "c", [dict(base, text="attackers typically steal customer data .")], CAT)
    assert ev[0].realis == "Generic"


def test_orphan_args_make_no_event():
    # Time mention with no trigger anywhere -> no events, arg dropped
    turns = [{"turn_idx": 0, "text": "see you today .", "ts": None}]
    assert extract_conversation("c", turns, CAT) == []


def _stage_a_matches_oracle(texts, ts=None):
    """Stage A's kernel (``ShardExtractor``) over one planted
    conversation, turn k holding ``texts[k]`` and ``ts[k]`` (an Arrow
    array; None: no timestamps), equals the oracle's
    ``extract_conversation``: the EVENT_SCHEMA table, realis-window flags
    included, and the emitted triples. Returns the engine's events."""
    import pyarrow as pa

    from casie_ray.schema import EVENT_SCHEMA, event_to_row
    from casie_ray.semantics import detect_turn_seq, realis_window_flags
    from casie_ray.stages.detect import ShardExtractor
    from casie_ray.stages.triples import triples_from_events

    if ts is None:
        ts = pa.nulls(len(texts), pa.timestamp("us"))
    ext = ShardExtractor(ENTS)
    tbl = pa.table({"conv_id": ["c"] * len(texts),
                    "turn_idx": pa.array(range(len(texts)), pa.int32()),
                    "text": texts, "ts": ts})
    got, objs = ext.extract_turns_with_events(tbl)
    turns = [{"turn_idx": k, "text": t, "ts": v}
             for k, (t, v) in enumerate(zip(texts, ts.to_pylist()))]
    want = extract_conversation("c", turns, ext.catalog, fuzzy=ext.fuzzy)
    rows = [event_to_row(e, turns[e.turn_idx]["ts"], *realis_window_flags(
        detect_turn_seq(texts[e.turn_idx], ext.catalog, ext.fuzzy),
        e.nugget_start)) for e in want]
    assert got.equals(pa.Table.from_pylist(rows, schema=EVENT_SCHEMA))
    assert triples_from_events(objs).equals(triples_from_events(want))
    return objs


def test_mention_compatible_only_with_next_turn_trigger_stays_unlinked():
    """A mention whose only compatible trigger is in the NEXT turn is
    linked to nothing: linking looks at the mention's own turn and the
    one before, never forward."""
    texts = ["we spoke about customer data .", "hackers stole it ."]
    dets = [detect_turn(t, CAT) for t in texts]
    assert [m.argtype for m in dets[0].mentions] == ["Data"]
    assert not dets[0].triggers
    assert [tr.etypes for tr in dets[1].triggers] == [("Databreach",)]
    assert "Data" in lx.PAIR["Databreach"]
    (ev,) = _stage_a_matches_oracle(texts)
    assert (ev.turn_idx, ev.args) == (1, [])


def test_lookback_borrows_mention_without_compatible_trigger_nearby():
    """J6 lookback borrows a mention that has no compatible trigger
    within ±1 turn of its own turn (the reference's compatibility filter
    drops such a mention; the lookback reads the unfiltered table)."""
    texts = ["Acmex Corp was in the news .", "nothing more here .",
             "they stole it ."]
    dets = [detect_turn(t, CAT) for t in texts]
    assert [(m.text, m.argtype) for m in dets[0].mentions] \
        == [("Acmex Corp", "Organization")]
    assert not dets[0].triggers and not dets[1].triggers
    assert not dets[1].mentions and not dets[2].mentions
    (ev,) = _stage_a_matches_oracle(texts)
    assert (ev.turn_idx, ev.etype) == (2, "Databreach")
    assert [(m.text, m.start, m.role) for m in ev.args] \
        == [("Acmex Corp", 0, "Attacker")]
    assert ev.args[0] is not dets[0].mentions[0]


_TS_TEXTS = ["Acmex Corp stole customer data yesterday .",
             "the weather was fine .",
             "they stole passwords from BoltLocker last week ."]


@pytest.mark.parametrize("ts_type,values", [
    ("ms", [1_500_000_000_123, 1_500_000_060_000, 1_500_086_400_999]),
    ("ns", [1_500_000_000_123_456_789, 1_500_000_000_999_999_999,
            1_500_086_400_000_000_001]),
    ("ns-new-york", [1_500_000_000_123_456_789, 1_500_010_000_000_000_000,
                     1_500_086_400_000_000_001]),
    ("us-fixed-offset", [1_500_000_000_123_456, 1_500_060_000_000_000,
                         1_500_100_000_000_001]),
    ("null", [1_500_000_000_000_000, None, None]),
])
def test_event_ts_matches_oracle(ts_type, values):
    """The event table's ``ts`` (taken and cast from the shard's Arrow
    column) and the Time-argument coref (which reads only the turns it
    needs) equal the oracle's, which converts every turn to a datetime:
    for a ``ms`` column, a ``ns`` column with sub-µs values, zoned
    columns (the local wall time is kept) and null timestamps."""
    import pyarrow as pa

    types = {"ms": pa.timestamp("ms"), "ns": pa.timestamp("ns"),
             "ns-new-york": pa.timestamp("ns", "America/New_York"),
             "us-fixed-offset": pa.timestamp("us", "+05:30"),
             "null": pa.timestamp("us")}
    ts = pa.array(values, types[ts_type])
    objs = _stage_a_matches_oracle(_TS_TEXTS, ts)
    assert {e.turn_idx for e in objs} == {0, 2}
    assert all(any(m.argtype == "Time" for m in e.args) for e in objs)


def test_prev_turn_linking():
    turns = [
        {"turn_idx": 0, "text": "Acmex Corp disclosed a flaw .", "ts": None},
        {"turn_idx": 1, "text": "it affects Norvik Server .", "ts": None},
    ]
    events = extract_conversation("c", turns, CAT)
    assert len(events) == 1
    assert {m.argtype for m in events[0].args} == {"Organization",
                                                  "Vulnerability", "System"}


def test_recheck_imputes_trigger_from_doc_histogram():
    turns = [
        {"turn_idx": 0, "text": "Acmex Corp disclosed a flaw in Norvik Server .",
         "ts": None},
        {"turn_idx": 5, "text": "CVE-2017-144 again .", "ts": None},
    ]
    events = extract_conversation("c", turns, CAT)
    by_turn = {e.turn_idx: e for e in events}
    assert 5 in by_turn
    assert by_turn[5].etype == "DiscoverVulnerability"


def test_databreach_number_role_rule():
    turns = [{
        "turn_idx": 0,
        "text": "Acmex stolen 3,000 records and data of 500 customers .",
        "ts": None}]
    events = extract_conversation("c", turns, CAT)
    roles = {(m.text, m.role) for e in events for m in e.args
             if m.argtype == "Number"}
    assert ("3,000", "Number-of-Compromised-Data") in roles
    assert ("500", "Number-of-victim") in roles


def test_coref_merges_restated_event():
    txt = "BoltLocker operators are demanding $40,000 from Acmex Corp ."
    turns = [
        {"turn_idx": 0, "text": txt, "ts": dt.datetime(2018, 1, 1)},
        {"turn_idx": 2, "text": txt, "ts": dt.datetime(2018, 1, 1, 1)},
    ]
    events = extract_conversation("c", turns, CAT)
    assert len(events) == 2
    assert events[0].cluster == events[1].cluster == events[0].event_id


def test_parse_time_mention():
    assert parse_time_mention("March 2018", None) == dt.date(2018, 3, 15).toordinal()
    assert parse_time_mention("March 3 2018", None) == dt.date(2018, 3, 3).toordinal()
    ts = dt.datetime(2018, 6, 10)
    assert parse_time_mention("yesterday", ts) == dt.date(2018, 6, 9).toordinal()


def test_role_pair_normalized_to_lists():
    for etype, row in lx.ROLE_PAIR.items():
        for argtype, roles in row.items():
            assert isinstance(roles, list), (etype, argtype)


def test_txt2int_reference_semantics():
    assert lx.txt2int("three million") == 3_000_000
    assert lx.txt2int("two hundred thousand") == 200_000
    assert lx.txt2int("fifty thousand") == 50_000
    assert lx.txt2int("one hundred and five") == 105
    assert lx.txt2int("dozens") == 24
    assert lx.txt2int("seventeen") == 17


def test_numeral_phrase_becomes_number_mention():
    det = detect_turn("they stole records of three million customers .", CAT)
    nums = [m for m in det.mentions if m.argtype == "Number"]
    assert len(nums) == 1 and nums[0].text == "three million"
    # 'of' between numeral and a data-ish noun still sets the flag
    det2 = detect_turn("exposing dozens of records online .", CAT)
    nums2 = [m for m in det2.mentions if m.argtype == "Number"]
    assert len(nums2) == 1 and nums2[0].text == "dozens"
    assert nums2[0].next_noun_dataish
    # bare numeral words without a count noun stay unclaimed
    det3 = detect_turn("one more thing to check .", CAT)
    assert not [m for m in det3.mentions if m.argtype == "Number"]


def test_numeral_number_canonicalizes_to_digits():
    from casie_ray.semantics import canonical_obj
    m = Mention(0, 12, "three million", "Number")
    assert canonical_obj(m) == "3000000"
    m2 = Mention(0, 5, "6,000", "Number")
    assert canonical_obj(m2) == "6000"


def test_similarity_imputation_on_unlexiconed_verb():
    """O2 (findanytrigger, link_coref.py:922-1023): a turn with
    arguments but no lexicon trigger imputes a trigger at the token
    whose WORDSET maxsim clears the 0.68 cutoff, typed by that maxsim,
    provided the document histogram supports the type."""
    turns = [
        {"turn_idx": 0, "text": "Acmex Corp stole customer data from "
                                "Norvik Server .", "ts": None},
        {"turn_idx": 1, "text": "the interception of customer data at "
                                "Acmex Corp was confirmed .", "ts": None},
    ]
    events = extract_conversation("c1", turns, CAT)
    by_turn = {e.turn_idx: e for e in events}
    assert 1 in by_turn, [e.event_id for e in events]
    imp = by_turn[1]
    assert imp.etype == "Databreach"
    assert imp.nugget_text == "interception"
    assert any(m.role == "Compromised-Data" for m in imp.args)


def test_no_imputation_without_doc_histogram_support():
    """Without another trigger of a compatible type in the document the
    intersect is empty and nothing is imputed (reference precondition)."""
    turns = [
        {"turn_idx": 0, "text": "the interception of customer data at "
                                "Acmex Corp was confirmed .", "ts": None},
    ]
    events = extract_conversation("c1", turns, CAT)
    assert events == []


def test_imputed_templates_are_self_consistent():
    """Every planted imputation word clears SIM_CUTOFF with its intended
    type as the argmax; no template literal or filler word does."""
    import re

    import numpy as np

    from casie_ray.embed import embed_surface, embed_surfaces
    from casie_ray.synth import _FILLER, IMPUTED_TEMPLATES, TEMPLATES

    mats = {et: embed_surfaces([w.lower() for w in ws])
            for et, ws in lx.WORDSET.items()}

    def sims_of(word):
        v = embed_surface(word.lower())
        return {et: float((m @ v).max()) for et, m in mats.items()}

    literals: set[str] = set()
    for f in _FILLER:
        literals |= set(re.findall(r"[a-z]+", f))
    for tpl in list(TEMPLATES) + list(IMPUTED_TEMPLATES.values()):
        for p in tpl[2]:
            if isinstance(p, str):
                literals |= set(re.findall(r"[a-z]+", p.lower()))
    for w in literals:
        if (w in lx.TRIGGER_SURFACES or w in lx.ARG_PHRASE_SURFACES
                or w in lx.STOPWORDS or w in lx.MODAL_WORDS
                or w in lx.GENERIC_WORDS or len(w) < 3):
            continue
        assert max(sims_of(w).values()) < lx.SIM_CUTOFF, w
    for etype, (_, _, parts) in IMPUTED_TEMPLATES.items():
        verb = next(p[1] for p in parts
                    if isinstance(p, tuple) and p[0] == "IMP")
        assert verb not in lx.TRIGGER_SURFACES
        assert verb not in lx.ARG_PHRASE_SURFACES
        s = sims_of(verb)
        best = max(s, key=lambda k: (s[k], k))
        assert best == etype and s[best] >= lx.SIM_CUTOFF, (verb, s)


def test_confusion_matrix_counts_cross_label_and_misses():
    """A6 (score.py:253-341): matched pairs count under (gold, pred)
    labels; unmatched gold falls in the 'O' column, unmatched pred in
    the 'O' row."""
    from casie_ray.scoring import confusion_matrix, format_confusion

    gold = [
        {"conv_id": "c", "turn_idx": 0, "start": 0, "end": 5,
         "label": "Databreach"},
        {"conv_id": "c", "turn_idx": 0, "start": 10, "end": 15,
         "label": "Ransom"},
        {"conv_id": "c", "turn_idx": 1, "start": 0, "end": 4,
         "label": "Phishing"},
    ]
    pred = [
        {"conv_id": "c", "turn_idx": 0, "start": 0, "end": 5,
         "label": "Databreach"},          # exact match
        {"conv_id": "c", "turn_idx": 0, "start": 11, "end": 15,
         "label": "Phishing"},            # overlap, wrong label
        {"conv_id": "c", "turn_idx": 2, "start": 0, "end": 3,
         "label": "Ransom"},              # spurious
    ]
    cfm = confusion_matrix(gold, pred)
    assert cfm["Databreach"]["Databreach"] == 1
    assert cfm["Ransom"]["Phishing"] == 1      # cross-label confusion
    assert cfm["Phishing"]["O"] == 1           # missed gold
    assert cfm["O"]["Ransom"] == 1             # spurious pred
    total = sum(v for row in cfm.values() for v in row.values())
    assert total == 4
    rendered = format_confusion(cfm)
    assert "total" in rendered and "Databreach" in rendered


def test_coref_alias_propagation_unit():
    """M12 (parseJsontoFeatures.py:60-106): a bare capitalized surname
    joins the chain of the earlier full mention and inherits its type +
    entity link; ambiguous heads propagate nothing."""
    from casie_ray.semantics import build_catalog_matcher, detect_turn, doc_logic

    ents = [
        {"entity_id": "E1", "canonical": "Kiran Troveck", "aliases": [],
         "type": "Person"},
        {"entity_id": "E2", "canonical": "Harper Troveck", "aliases": [],
         "type": "Person"},
    ]
    cat = build_catalog_matcher(ents)
    dets = {
        0: detect_turn("Kiran Troveck stole customer names from the portal .",
                       cat),
        1: detect_turn("Troveck also attacked according to the team .", cat),
    }
    # surname shared by two catalog persons BUT only one mentioned here:
    # chain is unambiguous within the conversation
    evs = doc_logic("c1", dets)
    aliased = [(m.text, m.argtype, m.entity_id)
               for e in evs for m in e.args if m.text == "troveck"]
    assert aliased == [("troveck", "Person", "E1")]

    # both persons mentioned -> surname chain ambiguous -> no propagation
    dets = {
        0: detect_turn("Kiran Troveck stole records from Harper Troveck .",
                       cat),
        1: detect_turn("Troveck also attacked according to the team .", cat),
    }
    evs = doc_logic("c1", dets)
    assert not [m for e in evs for m in e.args if m.text == "troveck"]


def test_alias_plants_recovered_from_gold(smoke_corpus):
    """The synthetic corpus plants bare-surname alias events (hopper
    'ha'); the oracle must recover their Person arguments via chain
    propagation with the linked entity id."""
    import glob

    import pyarrow.parquet as pq

    from casie_ray.oracle import extract_events

    gold = []
    for f in sorted(glob.glob(f"{smoke_corpus}/gold_events/*.parquet")):
        gold.extend(pq.read_table(f).to_pylist())
    alias_gold = [g for g in gold if ":ha" in g["hopper_id"]]
    assert alias_gold, "synth must plant alias events at sf0.001"

    pred = {}
    for conv_id, events in extract_events(smoke_corpus):
        for e in events:
            for m in e.args:
                pred[(conv_id, e.turn_idx, m.start, m.end)] = m
    hits = 0
    for g in alias_gold:
        a = next(x for x in g["arguments"] if x["role"] in
                 ("Attacker", "Discoverer"))
        m = pred.get((g["conv_id"], g["turn_idx"], a["start"], a["end"]))
        if m is not None and m.argtype == "Person" and m.entity_id:
            hits += 1
    assert hits / len(alias_gold) >= 0.9, (hits, len(alias_gold))


def test_embedding_tagger_seat(smoke_corpus):
    """T3 (nug_arg_detection_bert.py): the alternative tagger seat must
    (a) keep every rule-tagger trigger (prototype cosine 1.0 on lexicon
    surfaces), (b) additionally recover near-miss spellings above
    TRIG_SIM, (c) build its prototype state once in __init__."""
    import os

    import pyarrow.parquet as pq

    from casie_ray.stages.alttagger import EmbeddingTagger
    from casie_ray.stages.detect import DetectTagger

    ents = pq.read_table(os.path.join(smoke_corpus, "entities.parquet")) \
        .to_pylist()
    rule = DetectTagger(ents)
    emb = EmbeddingTagger(ents)
    assert emb.proto_mat.shape[0] == len(emb.proto_surfaces)

    texts = [
        "the attacker stole payment records from the portal .",
        "a phishhing wave hit the helpdesk overnight .",   # near miss
        "metrics are flat over the weekend window .",
    ]
    for t in texts:
        d_rule = rule.detect_or_skip(t, True)
        d_emb = emb.detect_or_skip(t, True)
        rule_keys = {(tr.tok_idx, tr.surface) for tr in d_rule.triggers}
        emb_keys = {(tr.tok_idx, tr.surface) for tr in d_emb.triggers}
        assert rule_keys <= emb_keys          # superset contract
        assert d_emb.mentions == d_rule.mentions
    near = emb.detect_or_skip(texts[1], True)
    assert any(tr.surface == "phishhing" and "Phishing" in tr.etypes
               for tr in near.triggers)
    assert not any(tr.surface == "phishhing"
                   for tr in rule.detect_or_skip(texts[1], True).triggers)


def test_lookback_attach_unit():
    """J6: an argless event borrows the nearest preceding compatible
    mention at distance >= 2; events with args are untouched."""
    from casie_ray.semantics import (
        Event, Mention, lookback_attach,
    )

    m_far = Mention(10, 20, "acme corp", "Organization")
    m_near = Mention(5, 9, "data", "Data")
    bare = Event("e1", "c", 5, "Databreach", 0, 5, "stole")
    full = Event("e2", "c", 5, "Databreach", 10, 15, "stole",
                 args=[Mention(0, 4, "x", "Data")])
    lookback_attach([bare, full], {2: [m_far], 3: [m_near]})
    # nearest preceding turn is 3 (distance 2) -> borrows m_near copy
    assert [(m.text, m.argtype) for m in bare.args] == [("data", "Data")]
    assert bare.args[0] is not m_near          # copied, not shared
    assert len(full.args) == 1                  # untouched


def test_lookback_plants_recovered_from_gold(smoke_corpus):
    """Planted bare-trigger events (hopper 'hl') must recover their
    borrowed argument — span in the source turn — via the lookback."""
    import glob

    import pyarrow.parquet as pq

    from casie_ray.oracle import extract_events

    gold = []
    for f in sorted(glob.glob(f"{smoke_corpus}/gold_events/*.parquet")):
        gold.extend(pq.read_table(f).to_pylist())
    lb_gold = [g for g in gold if ":hl" in g["hopper_id"]]
    assert lb_gold, "synth must plant lookback events at sf0.001"

    pred = {}
    for conv_id, events in extract_events(smoke_corpus):
        for e in events:
            for m in e.args:
                pred[(conv_id, e.turn_idx, m.start, m.end)] = m
    hits = 0
    for g in lb_gold:
        a = g["arguments"][0]
        m = pred.get((g["conv_id"], g["turn_idx"], a["start"], a["end"]))
        if m is not None and m.argtype == a["type"] and m.role == a["role"]:
            hits += 1
    assert hits / len(lb_gold) >= 0.9, (hits, len(lb_gold))


def test_span_prf_hand_built():
    """Span-only scorer (score.py:106-151 re-expression) on a hand-built
    table: label-agnostic, raw-overlap argmax pick (NOT dice argmax),
    matched-pred deletion, dice credit; P = dice/n_pred, R = dice/n_gold."""
    from casie_ray.scoring import mention_prf, span_prf

    # gold [0,10); two preds: [0,4) dice=2*4/14, [2,30) overlap 8 but
    # dice=2*8/38 — span mode must pick the LONGER raw-overlap pred
    gold = [{"conv_id": "c", "turn_idx": 0, "start": 0, "end": 10,
             "label": "A"}]
    pred = [{"conv_id": "c", "turn_idx": 0, "start": 0, "end": 4,
             "label": "ZZZ"},          # label ignored in span mode
            {"conv_id": "c", "turn_idx": 0, "start": 2, "end": 30,
             "label": "B"}]
    out = span_prf(gold, pred)
    dice = 2.0 * 8 / (10 + 28)
    assert out["tp"] == pytest.approx(dice)
    assert out["precision"] == pytest.approx(dice / 2)
    assert out["recall"] == pytest.approx(dice)
    assert out["f1"] == pytest.approx(
        2 * out["precision"] * out["recall"]
        / (out["precision"] + out["recall"]))
    # mention mode with label match finds nothing (labels differ)
    assert mention_prf(gold, pred)["tp"] == 0.0
    # dice-argmax (mention, no label) picks the SHORT pred instead
    m = mention_prf(gold, pred, match_label=False)
    assert m["tp"] == pytest.approx(2.0 * 4 / 14)

    # matched-pred deletion: second gold in the same turn cannot reuse
    # the deleted prediction
    gold2 = gold + [{"conv_id": "c", "turn_idx": 0, "start": 2,
                     "end": 30, "label": "A"}]
    out2 = span_prf(gold2, pred)
    # gold1 takes pred2 (overlap 8 > 4); gold2 then takes pred1
    # (overlap 2)
    assert out2["tp"] == pytest.approx(dice + 2.0 * 2 / (28 + 4))
    # no-overlap predictions earn nothing
    assert span_prf(gold, [{"conv_id": "c", "turn_idx": 0,
                            "start": 50, "end": 60,
                            "label": "A"}])["tp"] == 0.0
