"""Learned (weak-supervision) tagger seat over the annotation corpus.

The reference's taggers are TRAINED on the annotation corpus — its
``nug_arg_detection.py`` / ``role_phrase.py`` take ``-trainfile`` /
``-testfile`` lists of annotation documents (reference
code/nug_arg_detection.py:212-214). The engine's deterministic rule
seats are tuned to the synthetic contract corpus, so their zero-shot
quality on the real out-of-domain text is documented but low
(BASELINE.md "Real-corpus ingest bridge"). This module is the honest
engine analogue of the reference's protocol with no neural weights:

- LEARN per-label surface lexicons (nugget surface -> event subtype,
  argument surface -> argument type) from a TRAIN split of the
  annotation JSONs,
- PREDICT on the held-out split with the same longest-match scan the
  synthetic seat uses,
- SCORE against the projected gold with the reference's own metrics
  (span-only raw-overlap matching, score.py:106-151; labeled dice
  matching, score.py:181-217).

Split protocol: deterministic FNV-1a hash on doc_id (the engine's
``split_assignment`` idiom, ops/mlprep.py) — train/test are disjoint
by construction and the lexicon is reduced from train-split rows only
(no-leakage is pinned by a test with a planted test-only trigger).

Ray-Data-first shape: learning is one ``map_batches`` pass over the
raw files (parse once, filter split, partial surface counts per
block) followed by a driver-side combine of the vocabulary-sized
partials — the same bounded-broadcast class as the BPE vocab and the
entity catalog. Prediction is one task ``map_batches`` over the test
files with the lexicon broadcast via ``ray.put`` and the matcher index
built once per worker process (``detect.per_process``).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .ingest import MENTION_SCHEMA, _read_raw, _turn_spans, parse_annotation
from .ops.bucketing import fnv1a_hashes
from .tokenize import tokenize

TEST_PCT = 20  # FNV-1a(doc_id) % 100 < TEST_PCT -> held-out test doc


def doc_is_test(doc_ids, test_pct: int = TEST_PCT) -> np.ndarray:
    """Boolean test-split mask, re-derivable anywhere (incl. SQL — the
    identical formula split_assignment registers for transcripts)."""
    h = fnv1a_hashes(list(doc_ids)) % np.uint64(100)
    return h < np.uint64(test_pct)


_PARTIAL_SCHEMA = pa.schema([
    ("surface", pa.string()), ("label", pa.string()), ("n", pa.int64()),
])


def _span_source(which: str, events: list[dict], args: list[dict]):
    """(surface text, label) rows for one parsed doc: nugget text ->
    event subtype, argument text -> argument entity type, or argument
    text -> semantic role — the three label families the reference's
    tagger/role classifiers learn (its -options nugget/argument/role
    scorer modes)."""
    if which == "nugget":
        return ((ev["nugget_text"], ev["subtype"]) for ev in events)
    if which == "role":
        return ((a["text"], a["role"]) for a in args)
    return ((a["text"], a["arg_type"]) for a in args)


def canon_surface(text: str) -> str:
    """Canonical surface key: the token tuple joined by single spaces,
    lowercased. EVERY count table (gold labels, gold totals, matcher
    occurrences) is keyed by this, so whitespace/newline variants of
    the same phrase ('denial of\\nservice' vs 'denial of service')
    collapse to one key and the trigger-probability numerator and
    denominator always talk about the same surface."""
    return " ".join(t[0].lower() for t in tokenize(text or ""))


def _surface_label_totals(ann_dir: str, what: str,
                          test_pct: int = TEST_PCT):
    """(surface, label, n) totals over TRAIN-split gold spans — the
    single corpus pass the lexicon, its min_count filter, AND the
    trigger-probability numerator are all derived from. Partials are
    vocabulary-sized, so the driver-side combine is a bounded
    broadcast (BPE-vocab class), not a dataset materialization."""

    def partial(batch: pa.Table) -> pa.Table:
        counts: dict[tuple[str, str], int] = {}
        paths = batch.column("path").to_pylist()
        raws = batch.column("bytes").to_pylist()
        is_test = doc_is_test(
            [_doc_of(p) for p in paths], test_pct)
        for path, raw, t in zip(paths, raws, is_test):
            if t:
                continue  # train-split only: held-out docs never counted
            _doc, events, args = parse_annotation(path, raw)
            for text, label in _span_source(what, events, args):
                key = (canon_surface(text), label or "")
                if key[0] and key[1]:
                    counts[key] = counts.get(key, 0) + 1
        if not counts:
            return _PARTIAL_SCHEMA.empty_table()
        ks = sorted(counts)
        return pa.table({
            "surface": pa.array([k[0] for k in ks], pa.string()),
            "label": pa.array([k[1] for k in ks], pa.string()),
            "n": pa.array([counts[k] for k in ks], pa.int64()),
        })

    parts = _read_raw(ann_dir).map_batches(
        partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return parts
    return parts.groupby(["surface", "label"], as_index=False)["n"].sum()


def learn_surface_lexicon(ann_dir: str, what: str = "nugget",
                          test_pct: int = TEST_PCT,
                          min_count: int = 1,
                          totals=None) -> dict[str, str]:
    """surface -> label, learned from TRAIN-split docs only.

    Each canonical surface (see ``canon_surface``) maps to its most
    frequent train-split label (count argmax, ties -> smallest label —
    fully deterministic). Surfaces whose TOTAL gold count across all
    labels is below ``min_count`` are dropped. Pass ``totals`` to
    reuse an existing ``_surface_label_totals`` frame (skips the
    corpus pass)."""
    tot = (_surface_label_totals(ann_dir, what, test_pct)
           if totals is None else totals)
    if tot.empty:
        return {}
    surf_n = tot.groupby("surface")["n"].transform("sum")
    tot = tot[surf_n >= min_count]
    # argmax count per surface, ties -> smallest label (sort then head)
    tot = tot.sort_values(["surface", "n", "label"],
                          ascending=[True, False, True])
    best = tot.groupby("surface", as_index=False).head(1)
    return dict(zip(best["surface"], best["label"]))


_OCC_SCHEMA = pa.schema([("surface", pa.string()), ("n", pa.int64())])


def surface_occurrence_counts(ann_dir: str, lexicon: dict[str, str],
                              test_pct: int = TEST_PCT) -> dict[str, int]:
    """How often each lexicon surface occurs in TRAIN-split turn text
    (gold or not), via the same longest-match scan prediction uses —
    the denominator of a distant-supervision trigger probability.
    One task pass with the matcher broadcast; partials are
    lexicon-sized, so the combine is a bounded broadcast."""
    import ray
    ref = ray.put(lexicon)

    def count(batch: pa.Table) -> pa.Table:
        matcher = _lexicon_matcher(ref)
        counts: dict[str, int] = {}
        paths = batch.column("path").to_pylist()
        raws = batch.column("bytes").to_pylist()
        is_test = doc_is_test([_doc_of(p) for p in paths], test_pct)
        for _path, raw, t in zip(paths, raws, is_test):
            if t:
                continue
            doc, _e, _a = parse_annotation(_path, raw)
            for text, _off in _turn_spans(doc["content"]):
                for _s, _e2, _label, key in scan_turn(text, matcher):
                    counts[key] = counts.get(key, 0) + 1
        if not counts:
            return _OCC_SCHEMA.empty_table()
        ks = sorted(counts)
        return pa.table({
            "surface": pa.array(ks, pa.string()),
            "n": pa.array([counts[k] for k in ks], pa.int64()),
        })

    parts = _read_raw(ann_dir).map_batches(
        count, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return {}
    tot = parts.groupby("surface", as_index=False)["n"].sum()
    return dict(zip(tot["surface"], tot["n"]))


def filter_by_trigger_prob(ann_dir: str, lexicon: dict[str, str],
                           gold_counts: dict[str, int],
                           min_prob: float = 0.5,
                           test_pct: int = TEST_PCT) -> dict[str, str]:
    """Distant-supervision precision filter: keep surfaces whose
    train-split trigger probability gold_n / occurrence_n >= min_prob
    (occurrence_n counted by the SAME scan used at prediction time, so
    the probability estimates the matcher's own precision). Ambiguous
    everyday words ('attack' as a noun in prose) fall below the bar;
    reliable triggers ('ransomware infected') stay."""
    occ = surface_occurrence_counts(ann_dir, lexicon, test_pct)
    return {s: lab for s, lab in lexicon.items()
            if gold_counts.get(s, 0) >= min_prob * max(occ.get(s, 0), 1)}


def learn_filtered_lexicon(ann_dir: str, what: str = "nugget",
                           test_pct: int = TEST_PCT, min_count: int = 1,
                           min_prob: float = 0.3) -> dict[str, str]:
    """learn_surface_lexicon + trigger-probability filter in one call
    (the seat's default high-precision operating point). ONE gold
    corpus pass: lexicon, min_count filter and the probability
    numerator all derive from the same totals frame."""
    tot = _surface_label_totals(ann_dir, what, test_pct)
    lex = learn_surface_lexicon(ann_dir, what, test_pct, min_count,
                                totals=tot)
    gold = surface_gold_counts(ann_dir, what, test_pct, totals=tot)
    return filter_by_trigger_prob(ann_dir, lex, gold, min_prob, test_pct)


def surface_gold_counts(ann_dir: str, what: str = "nugget",
                        test_pct: int = TEST_PCT,
                        totals=None) -> dict[str, int]:
    """Train-split gold span count per surface (numerator of the
    trigger probability), label-summed from the same totals frame the
    lexicon is learned from (pass ``totals`` to skip the pass)."""
    tot = (_surface_label_totals(ann_dir, what, test_pct)
           if totals is None else totals)
    if tot.empty:
        return {}
    s = tot.groupby("surface")["n"].sum()
    return dict(zip(s.index, s))


def _doc_of(path: str) -> str:
    import os
    return os.path.splitext(os.path.basename(path))[0]


def build_surface_matcher(lexicon: dict[str, str]) -> dict:
    """first_token_lower -> [(token_tuple, n_tokens, label)] via the
    shared phrase-index kernel (semantics.build_phrase_index — one
    source of truth with the entity-catalog matcher), ties broken by
    label then token tuple."""
    from .semantics import build_phrase_index
    return build_phrase_index(
        (surface, label, (label,)) for surface, label in lexicon.items())


def scan_turn(text: str,
              matcher: dict) -> list[tuple[int, int, str, str]]:
    """Longest-match left-to-right scan of one turn: [(start_char,
    end_char, label, canonical_surface)] with end exclusive — the same
    claim discipline as detect_turn's catalog channel. The 4th element
    is the matched lexicon key (token join), NOT the raw slice, so
    occurrence counts always land under the lexicon surface."""
    toks = tokenize(text)
    lowers = [t[0].lower() for t in toks]
    out: list[tuple[int, int, str, str]] = []
    i = 0
    while i < len(toks):
        hit = None
        for cand, n, label in matcher.get(lowers[i], ()):
            if i + n <= len(toks) and tuple(lowers[i:i + n]) == cand:
                hit = (toks[i][1], toks[i + n - 1][2], label,
                       " ".join(cand), n)
                break
        if hit is None:
            i += 1
        else:
            out.append(hit[:4])
            i += hit[4]
    return out


def _lexicon_matcher(lexicon_ref) -> dict:
    """This worker process's matcher for the broadcast lexicon."""
    import ray

    from .stages.detect import per_process
    return per_process(lexicon_ref,
                       lambda: build_surface_matcher(ray.get(lexicon_ref)))


def _predict_mention_rows(batch: pa.Table, lexicon_ref, want_test: bool,
                          test_pct: int) -> pa.Table:
    """Task stage: each batch of raw annotation files becomes predicted
    mention rows for its split."""
    matcher = _lexicon_matcher(lexicon_ref)
    rows: list[dict] = []
    paths = batch.column("path").to_pylist()
    raws = batch.column("bytes").to_pylist()
    is_test = doc_is_test([_doc_of(p) for p in paths], test_pct)
    for path, raw, t in zip(paths, raws, is_test):
        if bool(t) != want_test:
            continue
        doc, _events, _args = parse_annotation(path, raw)
        for ti, (text, _off) in enumerate(_turn_spans(doc["content"])):
            for s, e, label, _key in scan_turn(text, matcher):
                rows.append({
                    "conv_id": doc["doc_id"], "turn_idx": ti,
                    "start": s, "end": e, "label": label,
                    "clipped": False,
                })
    if not rows:
        return MENTION_SCHEMA.empty_table()
    return pa.Table.from_pylist(rows, schema=MENTION_SCHEMA)


def predict_mentions(ann_dir: str, lexicon: dict[str, str],
                     split: str = "test", test_pct: int = TEST_PCT):
    """Dataset of predicted mentions (scorer format) over one split."""
    import ray
    return _read_raw(ann_dir).map_batches(
        _predict_mention_rows, batch_format="pyarrow",
        fn_kwargs={"lexicon_ref": ray.put(lexicon),
                   "want_test": split == "test", "test_pct": test_pct})


def _filter_split(mentions_ds, test_pct: int, want_test: bool):
    def fn(batch: pa.Table) -> pa.Table:
        mask = doc_is_test(batch.column("conv_id").to_pylist(), test_pct)
        if not want_test:
            mask = ~mask
        return batch.filter(pa.array(mask))
    return mentions_ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Argument seat v2 (r5): the surface lexicon alone tops out at span F1
# ~0.41 on the held-out split — arguments are where unseen surfaces
# dominate. Four train-learned additions close most of the measured
# gap (held-out span F1 0.409 -> 0.488; see BASELINE.md):
#   1. pattern channels (CVE/Version/Money/month-date Time regexes) —
#      train-split distant-supervision precisions 0.93/0.55/0.60/0.47,
#      labels definitional per regex;
#   2. a nugget-turn gate: predictions only in turns where the learned
#      NUGGET lexicon fires (arguments attach to events; measured gate
#      precision x recall trade is the best single lever, +0.03);
#   3. learned in-arg token probabilities P(token inside a gold arg):
#      maximal runs of p >= RUN_THETA tokens add unseen-surface recall,
#      and adjacent p >= EXT_THETA (or capitalized) tokens extend
#      matched spans toward the gold NP boundary (dice credit);
#   4. a nugget-proximity filter (predictions > PROX_CHARS from every
#      detected nugget are dropped).
# Operating points chosen on a TRAIN-INTERNAL dev split (hash buckets
# 20-35) — the held-out 20% is touched only by the final evaluation.
# ---------------------------------------------------------------------------

ARG_CHANNEL_LABELS = {"ch_cve": "CVE", "ch_version": "Version",
                      "ch_money": "Money", "ch_time": "Time"}
ARG_MIN_PROB = 0.1        # lexicon trigger-prob bar (dev-chosen)
ARG_RUN_THETA = 0.5       # in-arg prob for run prediction
ARG_EXT_THETA = 0.25      # in-arg prob for boundary extension
ARG_PROX_CHARS = 250      # max char distance to the nearest nugget
ARG_PIN_MIN_OCC = 3       # min train occurrences for a token prob


def scan_arg_patterns(text: str) -> list[tuple[int, int, str]]:
    """Regex argument channels over one turn: CVE / Version / Money
    single tokens and month [day] [year] Time runs — the argument
    types that generalize to unseen documents by pattern, not surface.
    Returns [(start, end, channel)]."""
    from . import lexicons as lx
    toks = tokenize(text)
    lowers = [t[0].lower() for t in toks]
    months = frozenset(lx.MONTHS)
    out: list[tuple[int, int, str]] = []
    n = len(toks)
    i = 0
    while i < n:
        tok, s, e = toks[i]
        c0 = tok[0] if tok else ""
        if c0 == "C" and lx.CVE_RE.match(tok):
            out.append((s, e, "ch_cve"))
        elif (c0 == "v" or c0.isdigit()) and lx.VERSION_RE.match(tok):
            out.append((s, e, "ch_version"))
        elif c0 == "$" and lx.MONEY_RE.match(tok):
            out.append((s, e, "ch_money"))
        elif lowers[i] in months:
            j = i + 1
            ln = 1
            if j < n and lx.NUMERIC_RE.match(toks[j][0]) \
                    and len(toks[j][0]) <= 2:
                ln += 1
                j += 1
            if j < n and lx.YEAR_RE.match(toks[j][0]):
                ln = j - i + 1
            if ln > 1:
                out.append((s, toks[i + ln - 1][2], "ch_time"))
                i += ln
                continue
        i += 1
    return out


_PIN_SCHEMA = pa.schema([
    ("token", pa.string()), ("occ", pa.int64()), ("ins", pa.int64()),
])


def learn_inarg_probs(ann_dir: str, test_pct: int = TEST_PCT,
                      min_occ: int = ARG_PIN_MIN_OCC) -> dict[str, float]:
    """P(token is inside a gold argument span), from TRAIN-split docs:
    one map_batches pass emitting vocabulary-sized (token, occ, ins)
    partials, combined driver-side (bounded broadcast class)."""

    def partial(batch: pa.Table) -> pa.Table:
        occ: dict[str, int] = {}
        ins: dict[str, int] = {}
        paths = batch.column("path").to_pylist()
        raws = batch.column("bytes").to_pylist()
        is_test = doc_is_test([_doc_of(p) for p in paths], test_pct)
        for path, raw, t in zip(paths, raws, is_test):
            if t:
                continue
            from .ingest import _rebase_to_turns
            doc, _events, args = parse_annotation(path, raw)
            gold = _rebase_to_turns(
                doc, ((a["start"], a["end"], {}) for a in args))
            by_turn: dict[int, list] = {}
            for g in gold:
                by_turn.setdefault(g["turn_idx"], []).append(g)
            for ti, (text, _off) in enumerate(_turn_spans(doc["content"])):
                gs = by_turn.get(ti, ())
                for tok, s, e in tokenize(text):
                    low = tok.lower()
                    occ[low] = occ.get(low, 0) + 1
                    if any(min(e, g["end"]) - max(s, g["start"]) > 0
                           for g in gs):
                        ins[low] = ins.get(low, 0) + 1
        ks = sorted(occ)
        return pa.table({
            "token": pa.array(ks, pa.string()),
            "occ": pa.array([occ[k] for k in ks], pa.int64()),
            "ins": pa.array([ins.get(k, 0) for k in ks], pa.int64()),
        })

    parts = _read_raw(ann_dir).map_batches(
        partial, batch_format="pyarrow").to_pandas()
    if parts.empty:
        return {}
    tot = parts.groupby("token", as_index=False)[["occ", "ins"]].sum()
    tot = tot[tot["occ"] >= min_occ]
    return dict(zip(tot["token"], tot["ins"] / tot["occ"]))


ARG_CFG_DEFAULT = {"gate_min_prob": 0.3, "arg_min_prob": ARG_MIN_PROB,
                   "run_theta": ARG_RUN_THETA,
                   "ext_theta": ARG_EXT_THETA,
                   "prox": ARG_PROX_CHARS}

# permissive generation for the v3 reranked seat: a lower nugget gate
# and run bar generate more candidate spans (recall), and the learned
# per-span filter — which v2 lacked — prunes the added false
# positives. Selected against ARG_CFG_DEFAULT on the nested dev
# protocol only (learn_argument_reranker).
ARG_CFG_PERMISSIVE = {"gate_min_prob": 0.15, "arg_min_prob": 0.05,
                      "run_theta": 0.4, "ext_theta": ARG_EXT_THETA,
                      "prox": 300}


def learn_argument_seat(ann_dir: str, test_pct: int = TEST_PCT,
                        cfg: dict | None = None) -> dict:
    """All broadcastable state for the v2 argument seat: the argument
    surface lexicon (trigger-prob >= cfg arg_min_prob), the nugget
    GATE lexicon, and the in-arg token probabilities. Everything
    train-split-only. ``cfg`` (generation operating points) rides
    along in the seat so the prediction tasks apply the same thresholds."""
    cfg = dict(ARG_CFG_DEFAULT if cfg is None else cfg)
    return {
        "arg_lexicon": learn_filtered_lexicon(
            ann_dir, "argument", test_pct,
            min_prob=cfg["arg_min_prob"]),
        "gate_lexicon": learn_filtered_lexicon(
            ann_dir, "nugget", test_pct,
            min_prob=cfg["gate_min_prob"]),
        "pin": learn_inarg_probs(ann_dir, test_pct),
        "cfg": cfg,
    }


def _turn_argument_spans(text: str, matcher: dict, gate_matcher: dict,
                         pin: dict[str, float],
                         cfg: dict | None = None):
    """The v2 span construction with provenance, shared by the plain
    v2 API and the v3 reranker: returns ``(records, toks)`` where each
    record is ``(start, end, label, src, ext_chars, nug_dist)`` —
    ``src`` in {"lex", "ch_cve", "ch_version", "ch_money", "ch_time",
    "run"}, ``ext_chars`` the characters added by boundary extension,
    ``nug_dist`` the pre-extension distance to the nearest nugget.
    With ``cfg=None`` the module-constant thresholds apply and span
    order, boundaries and labels are byte-identical to v2 (the wrapper
    below is the pinned v2 behavior); a v3 cfg overrides run_theta /
    ext_theta / prox for permissive generation."""
    import bisect

    run_theta = ARG_RUN_THETA if cfg is None else cfg["run_theta"]
    ext_theta = ARG_EXT_THETA if cfg is None else cfg["ext_theta"]
    prox = ARG_PROX_CHARS if cfg is None else cfg["prox"]
    nugs = scan_turn(text, gate_matcher)
    if not nugs:
        return [], []
    nug_pos = [(s + e) // 2 for s, e, _l, _k in nugs]
    toks = tokenize(text)
    starts = [t[1] for t in toks]
    spans = [(s, e, label, "lex")
             for s, e, label, _k in scan_turn(text, matcher)]
    claimed = [(s, e) for s, e, _, _ in spans]
    for s, e, ch in scan_arg_patterns(text):
        if ch not in ARG_CHANNEL_LABELS:
            continue
        if any(min(e, ce) - max(s, cs) > 0 for cs, ce in claimed):
            continue
        spans.append((s, e, ARG_CHANNEL_LABELS[ch], ch))
    claimed = [(s, e) for s, e, _, _ in spans]
    marks = [(s, e, pin.get(t.lower(), 0.0) >= run_theta)
             for t, s, e in toks]
    i = 0
    while i < len(marks):
        if marks[i][2]:
            j = i
            while j < len(marks) and marks[j][2]:
                j += 1
            s, e = marks[i][0], marks[j - 1][1]
            if not any(min(e, ce) - max(s, cs) > 0
                       for cs, ce in claimed):
                spans.append((s, e, "Data", "run"))
            i = j
        else:
            i += 1

    def attach(tok: str) -> bool:
        return pin.get(tok.lower(), 0.0) >= ext_theta or \
            (tok[:1].isupper() and tok[:1].isalpha())

    trim = bool(cfg.get("trim")) if cfg is not None else False
    out = []
    for s, e, label, src in spans:
        nug_dist = min(abs((s + e) // 2 - p) for p in nug_pos)
        if nug_dist > prox:
            continue
        s0, e0 = s, e
        i = bisect.bisect_left(starts, s)
        while i > 0 and (s - toks[i - 1][2]) <= 1 and attach(toks[i - 1][0]):
            s = toks[i - 1][1]
            i -= 1
        j = i
        while j < len(toks) and toks[j][2] <= e:
            j += 1
        while j < len(toks) and (toks[j][1] - e) <= 1 and attach(toks[j][0]):
            e = toks[j][2]
            j += 1
        if trim:
            # closed-class / punctuation edge trim: dice credit is
            # per-character, so a leading "the " or trailing " of"
            # burns credit on every matched gold. Drop edge tokens
            # (never interior ones) until both ends are contentful;
            # a span that trims to nothing is discarded.
            cover = [t for t in toks[i:j] if t[1] >= s and t[2] <= e]
            while cover and _is_trim_token(cover[0][0]):
                cover = cover[1:]
            while cover and _is_trim_token(cover[-1][0]):
                cover = cover[:-1]
            if not cover:
                continue
            s, e = cover[0][1], cover[-1][2]
        out.append((s, e, label, src, (s0 - s) + (e - e0), nug_dist,
                    len(nug_pos)))
    return out, toks


# Closed-class boundary-trim vocabulary for the v3 "trim" generation
# mode: determiners, prepositions, conjunctions, copulas, pronouns —
# words that carry no mention content when they sit at a span EDGE.
ARG_TRIM_WORDS = frozenset(
    "the a an of in on at by for to with and or as from into over "
    "its their his her our your this that these those is are was "
    "were be been being has have had it they which who whose where "
    "when while but nor so than then also".split())


def _is_trim_token(tok: str) -> bool:
    return tok.lower() in ARG_TRIM_WORDS or \
        not any(ch.isalnum() for ch in tok)


def predict_turn_arguments(text: str, matcher: dict, gate_matcher: dict,
                           pin: dict[str, float]) -> list[tuple]:
    """v2 argument predictions for one turn: [] unless the nugget gate
    fires; lexicon longest-match + pattern channels + in-arg runs,
    nugget-proximity filtered, boundaries extended over adjacent
    high-P(in-arg) / capitalized tokens. Returns [(start, end,
    label)]."""
    recs, _toks = _turn_argument_spans(text, matcher, gate_matcher, pin)
    return [(s, e, label) for s, e, label, *_prov in recs]


# ---------------------------------------------------------------------------
# Argument seat v3 (late r5): a learned span reranker on top of v2.
# v2's dev sweep plateaued at span F1 ~0.488 because its knobs are
# global thresholds; the remaining headroom is PER-SPAN — different
# provenances (lexicon hit / pattern channel / in-arg run) have very
# different precision, and over-extended boundaries burn dice credit.
# v3 scores every v2 span with a logistic model over 21 deterministic
# features (provenance one-hots, in-arg probability stats, span
# geometry, nugget distance, capitalization, extension mass, plus the
# v3.1 context block: flanking-token in-arg probabilities, left
# preposition, digit fraction, turn shape, candidate competition),
# trained on the TRAIN split only (target: does the span overlap a
# train gold argument), with the keep-threshold chosen on the same
# train-internal dev buckets and then refined PER PROVENANCE SOURCE
# (coordinate descent on dev; v3.1 also arms closed-class boundary
# trim as a competing generation config), all before the single
# dev buckets (FNV % 100 in [20, 36)) v2's sweep used. The held-out
# 20% is touched once, by the final evaluation. No RNG anywhere —
# full-batch gradient descent from zeros is deterministic.
# ---------------------------------------------------------------------------

RERANK_DIM = 21
RERANK_SRCS = ("lex", "ch_cve", "ch_version", "ch_money", "ch_time",
               "run")
RERANK_PREPS = frozenset(
    "of in by from to at on with against for about via".split())

RERANK_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int64()),
    ("start", pa.int64()), ("end", pa.int64()),
    ("label", pa.string()), ("clipped", pa.bool_()),
    ("feats", pa.list_(pa.float64())),
])


def _span_feature_vec(rec: tuple, toks: list, pin: dict,
                      n_spans: int = 1, text: str = "") -> list:
    """21 deterministic features for one provenance record from
    _turn_argument_spans. Bounded/normalized so the standardized
    logistic is well-conditioned. Features 14-21 (v3.1) add the
    span's CONTEXT — the flanking tokens, local competition, and
    content shape — which the 13 span-internal features could not
    see (held-out span F1 0.4914 with 13, see BASELINE.md)."""
    import bisect

    s, e, _label, src, ext, nug_dist, n_nugs = rec
    fv = [1.0 if src == k else 0.0 for k in RERANK_SRCS]
    starts = [t[1] for t in toks]
    i = bisect.bisect_right(starts, s) - 1
    if i < 0:
        i = 0
    while i < len(toks) and toks[i][2] <= s:
        i += 1
    first = i
    cover = []
    while i < len(toks) and toks[i][1] < e:
        cover.append(toks[i])
        i += 1
    ps = [pin.get(t.lower(), 0.0) for t, _s, _e in cover]
    caps = [1.0 for t, _s, _e in cover
            if t[:1].isupper() and t[:1].isalpha()]
    n = max(1, len(cover))
    fv.extend([
        float(sum(ps)) / n,                    # mean in-arg prob
        float(max(ps)) if ps else 0.0,         # max in-arg prob
        min(len(cover), 8) / 8.0,              # token count
        min(e - s, 60) / 60.0,                 # char length
        min(nug_dist, ARG_PROX_CHARS) / float(ARG_PROX_CHARS),
        len(caps) / n,                         # capitalized fraction
        min(ext, 20) / 20.0,                   # boundary-extension mass
    ])
    left = toks[first - 1][0] if first > 0 else ""
    right = toks[i][0] if i < len(toks) else ""
    span_text = text[s:e] if text else " ".join(t for t, _a, _b in cover)
    digits = sum(ch.isdigit() for ch in span_text)
    turn_end = toks[-1][2] if toks else 1
    fv.extend([
        pin.get(left.lower(), 0.0),            # left-neighbor in-arg P
        pin.get(right.lower(), 0.0),           # right-neighbor in-arg P
        1.0 if left.lower() in RERANK_PREPS else 0.0,
        digits / max(1, len(span_text)),       # digit fraction
        min(n_nugs, 8) / 8.0,                  # nuggets in turn
        min(turn_end, 600) / 600.0,            # turn length (chars)
        min(n_spans, 16) / 16.0,               # candidate competition
        1.0 if span_text[:1].isupper() else 0.0,
    ])
    return fv


def _reranker_prob(rr: dict, fv: list) -> float:
    z = 0.0
    for j in range(RERANK_DIM):
        z += rr["w"][j] * ((fv[j] - rr["mu"][j]) / rr["sd"][j])
    z += rr["b"]
    return 1.0 / (1.0 + np.exp(-z))


def _theta_for(rr: dict, src: str) -> float:
    """Keep-threshold for one provenance source: the dev-refined
    per-source theta when shipped (v3.1), else the global theta."""
    by_src = rr.get("theta_by_src")
    if by_src:
        return by_src.get(src, rr["theta"])
    return rr["theta"]


def _seat_matchers(seat_ref) -> tuple:
    """This worker process's (matcher, gate, pin, cfg) for the broadcast
    v2 argument seat state."""
    import ray

    from .stages.detect import per_process

    def build():
        seat = ray.get(seat_ref)
        return (build_surface_matcher(seat["arg_lexicon"]),
                build_surface_matcher(seat["gate_lexicon"]),
                seat["pin"], seat.get("cfg"))
    return per_process(seat_ref, build)


def _predict_argument_rows(batch: pa.Table, seat_ref, want_test: bool,
                           test_pct: int, with_feats: bool,
                           reranker: dict | None) -> pa.Table:
    """Task stage for the v2 argument seat: each batch of raw annotation
    files becomes predicted argument mention rows for its split."""
    matcher, gate, pin, cfg = _seat_matchers(seat_ref)
    rows: list[dict] = []
    feats_mode = with_feats or reranker is not None
    paths = batch.column("path").to_pylist()
    raws = batch.column("bytes").to_pylist()
    is_test = doc_is_test([_doc_of(p) for p in paths], test_pct)
    for path, raw, t in zip(paths, raws, is_test):
        if bool(t) != want_test:
            continue
        doc, _events, _args = parse_annotation(path, raw)
        for ti, (text, _off) in enumerate(_turn_spans(doc["content"])):
            if not feats_mode:
                recs, _t = _turn_argument_spans(text, matcher, gate, pin,
                                                cfg)
                for s, e, label, *_prov in recs:
                    rows.append({
                        "conv_id": doc["doc_id"], "turn_idx": ti,
                        "start": s, "end": e, "label": label,
                        "clipped": False,
                    })
                continue
            recs, toks = _turn_argument_spans(text, matcher, gate, pin, cfg)
            for rec in recs:
                fv = _span_feature_vec(rec, toks, pin, len(recs), text)
                if reranker is not None and _reranker_prob(reranker, fv) \
                        < _theta_for(reranker, rec[3]):
                    continue
                s, e, label = rec[0], rec[1], rec[2]
                row = {"conv_id": doc["doc_id"], "turn_idx": ti,
                       "start": s, "end": e, "label": label,
                       "clipped": False}
                if with_feats:
                    row["feats"] = fv
                rows.append(row)
    schema = RERANK_SCHEMA if with_feats else MENTION_SCHEMA
    if not rows:
        return schema.empty_table()
    return pa.Table.from_pylist(rows, schema=schema)


def predict_arguments(ann_dir: str, seat: dict, split: str = "test",
                      test_pct: int = TEST_PCT, with_feats: bool = False,
                      reranker: dict | None = None):
    """Dataset of v2 argument predictions (scorer format); with
    ``with_feats`` each row also carries the 13 reranker features,
    with ``reranker`` rows below its keep-threshold are dropped (v3)."""
    import ray
    return _read_raw(ann_dir).map_batches(
        _predict_argument_rows, batch_format="pyarrow",
        fn_kwargs={"seat_ref": ray.put(seat), "want_test": split == "test",
                   "test_pct": test_pct, "with_feats": with_feats,
                   "reranker": reranker})


RERANK_DEV_LO, RERANK_DEV_HI = 20, 36   # v2's dev buckets (FNV % 100)


def _fit_span_logistic(preds, gold) -> tuple:
    """Deterministic full-batch logistic fit (class-balanced, from
    zeros) on prediction rows vs gold overlap. Returns (w, b, mu, sd,
    prob) with prob the in-sample probabilities."""
    gmap: dict[tuple, list] = {}
    for r in gold.itertuples():
        gmap.setdefault((r.conv_id, r.turn_idx), []) \
            .append((r.start, r.end))

    y = np.fromiter(
        (1.0 if any(min(r.end, ge) - max(r.start, gs) > 0
                    for gs, ge in gmap.get((r.conv_id, r.turn_idx), ()))
         else 0.0 for r in preds.itertuples()),
        np.float64, len(preds))
    X = np.array(list(preds["feats"]), np.float64)
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd < 1e-9] = 1.0
    Z = (X - mu) / sd
    w = np.zeros(RERANK_DIM)
    b = 0.0
    pos = y.sum()
    neg = len(y) - pos
    if pos > 0 and neg > 0:     # degenerate fixtures: no reweighting
        sw = np.where(y > 0, neg / pos, 1.0)
        sw /= sw.mean()
    else:
        sw = np.ones(len(y))
    for _ in range(400):
        p = 1.0 / (1.0 + np.exp(-(Z @ w + b)))
        g = (p - y) * sw
        w -= 0.5 * (Z.T @ g / len(y) + 1e-4 * w)
        b -= 0.5 * g.mean()
    return w, b, mu, sd


def _apply_logistic(w, b, mu, sd, preds) -> np.ndarray:
    X = np.array(list(preds["feats"]), np.float64)
    Z = (X - mu) / sd
    return 1.0 / (1.0 + np.exp(-(Z @ w + b)))


def learn_argument_reranker(ann_dir: str, test_pct: int = TEST_PCT,
                            cfg: dict | None = None) -> dict:
    """Train the v3 span reranker with a NESTED split protocol, so the
    dev estimate mimics truly unseen documents:

    - an INNER seat is trained with ``test_pct=RERANK_DEV_HI`` — it
      has seen neither the real held-out docs (buckets < test_pct)
      nor the dev buckets [test_pct, RERANK_DEV_HI);
    - the logistic is fit on the inner seat's predictions over its
      own train buckets (>= RERANK_DEV_HI), target = span overlaps a
      train gold argument;
    - the keep-threshold theta maximizes span F1 on the dev buckets
      (predicted by the inner seat + inner logistic — dev docs are
      unseen by BOTH, exactly like test docs at apply time);
    - the SHIPPED model is refit on the full outer train split (outer
      seat predictions, buckets >= test_pct) with theta carried over.

    The real held-out split is never predicted, scored, or counted
    here. Returns {w, b, mu, sd, theta, dev_f1, cfg}."""
    from .ingest import gold_argument_mentions
    from .scoring import span_prf

    cfg = dict(ARG_CFG_DEFAULT if cfg is None else cfg)
    gold_all = gold_argument_mentions(ann_dir).to_pandas()
    h_gold = fnv1a_hashes(list(gold_all["conv_id"])) % np.uint64(100)

    # --- inner: fit + theta on docs the inner seat has never seen ---
    inner_seat = learn_argument_seat(ann_dir, RERANK_DEV_HI, cfg)
    inner_fit = predict_arguments(ann_dir, inner_seat, "train",
                                  RERANK_DEV_HI,
                                  with_feats=True).to_pandas()
    gold_inner = gold_all[h_gold >= RERANK_DEV_HI]
    w, b, mu, sd = _fit_span_logistic(inner_fit, gold_inner)

    dev_preds = predict_arguments(ann_dir, inner_seat, "test",
                                  RERANK_DEV_HI,
                                  with_feats=True).to_pandas()
    h_dev = fnv1a_hashes(list(dev_preds["conv_id"])) % np.uint64(100)
    dev_preds = dev_preds[h_dev >= test_pct]       # never the held-out
    dev_mask = (h_gold >= test_pct) & (h_gold < RERANK_DEV_HI)
    gold_dev = gold_all[dev_mask][
        ["conv_id", "turn_idx", "start", "end", "label"]] \
        .to_dict("records")
    prob = _apply_logistic(w, b, mu, sd, dev_preds)
    recs = dev_preds[["conv_id", "turn_idx", "start", "end",
                      "label"]].to_dict("records")
    # provenance is recoverable from the one-hot block of the feature
    # vector — exactly what the apply-time predictor sees
    srcs = [RERANK_SRCS[int(np.argmax(fv[:len(RERANK_SRCS)]))]
            for fv in dev_preds["feats"]]
    best_theta, best_f1 = 0.0, -1.0
    for theta in np.arange(0.05, 0.91, 0.05):
        kept = [m for m, p in zip(recs, prob) if p >= theta]
        f1 = span_prf(gold_dev, kept)["f1"]
        if f1 > best_f1:
            best_theta, best_f1 = float(theta), f1

    # per-source refinement (v3.1): provenances differ widely in
    # precision, so one global keep-bar under-prunes some channels
    # and over-prunes others. Two deterministic coordinate-descent
    # sweeps over the same dev buckets, one source at a time.
    theta_by_src = {k: best_theta for k in RERANK_SRCS}
    for _sweep in range(2):
        for src in RERANK_SRCS:
            for theta in np.arange(0.0, 0.96, 0.05):
                trial = dict(theta_by_src, **{src: float(theta)})
                kept = [m for m, p, sk in zip(recs, prob, srcs)
                        if p >= trial[sk]]
                f1 = span_prf(gold_dev, kept)["f1"]
                if f1 > best_f1:
                    theta_by_src, best_f1 = trial, f1

    # --- outer: refit on the full train split, theta carried over ---
    outer_seat = learn_argument_seat(ann_dir, test_pct, cfg)
    outer_fit = predict_arguments(ann_dir, outer_seat, "train",
                                  test_pct, with_feats=True).to_pandas()
    gold_outer = gold_all[h_gold >= test_pct]
    w, b, mu, sd = _fit_span_logistic(outer_fit, gold_outer)
    return {"w": w.tolist(), "b": float(b), "mu": mu.tolist(),
            "sd": sd.tolist(), "theta": best_theta,
            "theta_by_src": theta_by_src,
            "dev_f1": best_f1, "cfg": cfg}


ARG_CFG_MID = {"gate_min_prob": 0.2, "arg_min_prob": 0.1,
               "run_theta": 0.45, "ext_theta": ARG_EXT_THETA,
               "prox": ARG_PROX_CHARS}

ARG_CFG_WIDE_LEX = {"gate_min_prob": 0.3, "arg_min_prob": 0.05,
                    "run_theta": ARG_RUN_THETA,
                    "ext_theta": ARG_EXT_THETA,
                    "prox": ARG_PROX_CHARS}

# v3.1 competitors: the same generation operating points with
# closed-class boundary trim armed (see _turn_argument_spans).
ARG_CFG_DEFAULT_TRIM = dict(ARG_CFG_DEFAULT, trim=True)
ARG_CFG_MID_TRIM = dict(ARG_CFG_MID, trim=True)
ARG_CFG_PERMISSIVE_TRIM = dict(ARG_CFG_PERMISSIVE, trim=True)


def evaluate_argument_seat_v3(ann_dir: str, test_pct: int = TEST_PCT,
                              cfgs: tuple = (ARG_CFG_DEFAULT,
                                             ARG_CFG_MID,
                                             ARG_CFG_WIDE_LEX,
                                             ARG_CFG_PERMISSIVE,
                                             ARG_CFG_DEFAULT_TRIM,
                                             ARG_CFG_MID_TRIM,
                                             ARG_CFG_PERMISSIVE_TRIM)
                              ) -> dict:
    """Held-out evaluation of the v3 reranked argument seat: every
    candidate generation config competes on the NESTED dev estimate
    only; the winner (config + theta) is applied to the held-out 20%
    exactly once."""
    from .ingest import gold_argument_mentions
    from .scoring import mention_prf, span_prf

    best = None
    for cfg in cfgs:
        rr = learn_argument_reranker(ann_dir, test_pct, cfg)
        if best is None or rr["dev_f1"] > best["dev_f1"]:
            best = rr
    seat = learn_argument_seat(ann_dir, test_pct, best["cfg"])
    pred = predict_arguments(ann_dir, seat, "test", test_pct,
                             reranker=best) \
        .to_pandas().to_dict("records")
    gold = _filter_split(gold_argument_mentions(ann_dir), test_pct,
                         True).to_pandas()
    cols = ["conv_id", "turn_idx", "start", "end", "label"]
    gold = gold[cols].to_dict("records") if not gold.empty else []
    return {
        "cfg": best["cfg"], "theta": best["theta"],
        "dev_f1": best["dev_f1"],
        "gold_mentions": len(gold), "pred_mentions": len(pred),
        "span": span_prf(gold, pred),
        "labeled": mention_prf(gold, pred, match_label=True),
    }


def evaluate_argument_seat(ann_dir: str,
                           test_pct: int = TEST_PCT) -> dict:
    """Held-out evaluation of the v2 argument seat (same 80/20
    protocol as evaluate_learned_seat). Measured on the real reference
    corpus: span F1 0.488 / labeled 0.422 (vs the surface-lexicon
    seat's 0.409 / 0.374 — BASELINE.md 'Learned argument seat v2')."""
    from .ingest import gold_argument_mentions
    from .scoring import mention_prf, span_prf

    seat = learn_argument_seat(ann_dir, test_pct)
    pred = predict_arguments(ann_dir, seat, "test", test_pct) \
        .to_pandas().to_dict("records")
    gold = _filter_split(gold_argument_mentions(ann_dir), test_pct,
                         True).to_pandas()
    cols = ["conv_id", "turn_idx", "start", "end", "label"]
    gold = gold[cols].to_dict("records") if not gold.empty else []
    return {
        "lexicon_size": len(seat["arg_lexicon"]),
        "gold_mentions": len(gold),
        "pred_mentions": len(pred),
        "span": span_prf(gold, pred),
        "labeled": mention_prf(gold, pred, match_label=True),
    }


def evaluate_learned_seat(ann_dir: str, test_pct: int = TEST_PCT,
                          min_count: int = 1,
                          min_prob: float = 0.3) -> dict:
    """Train-on-train / score-on-held-out evaluation of the learned
    seat, for nuggets AND arguments. Returns per-task span-only and
    labeled P/R/F1 plus split sizes — the engine twin of running the
    reference's taggers with its -trainfile/-testfile protocol.
    Measured on the real reference corpus (1000 docs, 20% held out):
    nugget span F1 0.587 / labeled 0.583, argument span F1 0.409 /
    labeled 0.374, role labeled F1 0.348, at the default operating
    point (vs 0.277 zero-shot for the synthetic-tuned rule seat —
    BASELINE.md 'Real-corpus ingest bridge')."""
    from .ingest import gold_argument_mentions, gold_nugget_mentions
    from .scoring import mention_prf, span_prf

    out: dict[str, dict] = {}
    for what, gold_fn in (("nugget", gold_nugget_mentions),
                          ("argument", gold_argument_mentions),
                          ("role", gold_argument_mentions)):
        lex = learn_filtered_lexicon(ann_dir, what, test_pct,
                                     min_count, min_prob)
        pred = predict_mentions(ann_dir, lex, "test", test_pct) \
            .to_pandas().to_dict("records")
        gold = _filter_split(gold_fn(ann_dir), test_pct, True) \
            .to_pandas()
        if what == "role" and not gold.empty:
            gold = gold.assign(label=gold["role"])  # -options role mode
        cols = ["conv_id", "turn_idx", "start", "end", "label"]
        gold = (gold[cols].to_dict("records")
                if not gold.empty else [])  # empty ds drops its schema
        out[what] = {
            "lexicon_size": len(lex),
            "gold_mentions": len(gold),
            "pred_mentions": len(pred),
            "span": span_prf(gold, pred),
            "labeled": mention_prf(gold, pred, match_label=True),
        }
    return out
