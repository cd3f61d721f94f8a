"""Deterministic CASIE-style extraction semantics, per conversation.

This module holds the *rules* of the extractor — detection, document
logic, role/realis assignment, event coreference, triple emission — as
pure functions over plain Python structures for ONE conversation. The
single-process oracle (``casie_ray.oracle``) drives these sequentially.
The distributed engine's stage-A kernel (``casie_ray.stages.detect``)
runs detection and :func:`doc_logic` per conversation and batches the
rest over a whole shard, each batched step with a per-conversation twin
that only the oracle runs:

- tokenization: one :class:`TokenTable` that every turn's
  :func:`detect_turn` reads (twin: the per-token :func:`detect_turn_seq`);
- realis windows: :meth:`TokenTable.window_flags` for every event of the
  shard (twin: :func:`realis_window_flags`);
- roles and realis: :func:`assign_roles` / :func:`assign_realis` in one
  loop over the shard's events;
- event coreference: :func:`coref_many` (twin: :func:`coref_events`).

The neural models of the reference (unavailable, SURVEY §3.4) are
replaced by lexicon rules occupying the same pipeline seats:

- detection       <- T1/T2 taggers (nug_arg_detection.py:111-208)
- doc logic       <- recheck/compatible/combine/link (link_coref.py:1027-1407)
- role rules      <- RolePair + role models (link_coref.py:1409-1457)
- realis rules    <- GNG/AO models (link_coref.py:1459-1483)
- coref           <- corefdiffbyevent (link_coref.py:1510-1679), same
                     feature structure / weights / threshold / avg-linkage
"""

from __future__ import annotations

import bisect
import datetime as dt
import functools
import string
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter

import numpy as np

from . import lexicons as lx
from .embed import embed_surface, embed_surfaces
from .tokenize import tokenize, tokenize_many

# ---------------------------------------------------------------------------
# Data structures (plain, picklable, small — these cross map_groups only)
# ---------------------------------------------------------------------------


@dataclass
class Mention:
    start: int
    end: int
    text: str
    argtype: str
    entity_id: str | None = None  # set when the catalog matched exactly
    role: str | None = None
    # for Number mentions: is the following noun data-ish? (drives the
    # Databreach Number role rule, link_coref.py:1444-1455)
    next_noun_dataish: bool = False


@dataclass
class Trigger:
    tok_idx: int
    start: int
    end: int
    surface: str
    etypes: tuple[str, ...]  # candidates; resolved to one by doc logic
    etype: str | None = None
    imputed: bool = False


@dataclass
class TurnDetection:
    """Sufficient statistics of one turn for all downstream stages —
    the engine ships exactly this through Arrow columns instead of the
    reference's tab-file round-trips (SURVEY §3.1)."""
    token_starts: list[int]          # char start of each token
    token_flags: list[int]           # bit 1 = modal word, bit 2 = generic word
    triggers: list[Trigger]
    mentions: list[Mention]
    # unclaimed content tokens (tok_idx, start, end, lower surface,
    # capitalized): the candidate pool for similarity-based trigger
    # imputation (O2) and for coref-chain alias propagation (M12)
    cand_tokens: list[tuple[int, int, int, str, bool]] = field(
        default_factory=list)


@dataclass
class Event:
    event_id: str
    conv_id: str
    turn_idx: int
    etype: str
    nugget_start: int
    nugget_end: int
    nugget_text: str
    realis: str | None = None
    args: list[Mention] = field(default_factory=list)
    cluster: str | None = None


# ---------------------------------------------------------------------------
# Catalog matcher (broadcast small side of the linker, SURVEY J5/T7)
# ---------------------------------------------------------------------------


def build_phrase_index(entries) -> dict:
    """Shared longest-match phrase-index kernel: ``entries`` is an
    iterable of (surface_text, tiebreak, payload_tuple). Returns
    first_token_lower -> [(phrase_tokens_lower, n_tokens, *payload)]
    sorted longest-first, then by tiebreak, then by token tuple —
    fully deterministic. Single source of truth for the matcher
    layout used by the entity catalog and the learned lexicon seat."""
    keyed: dict[str, list] = {}
    for surface, tiebreak, payload in entries:
        toks = tuple(t[0].lower() for t in tokenize(surface))
        if not toks:
            continue
        keyed.setdefault(toks[0], []).append(
            ((-len(toks), tiebreak, toks), (toks, len(toks), *payload)))
    return {k: [e for _, e in sorted(v, key=lambda r: r[0])]
            for k, v in keyed.items()}


def build_catalog_matcher(entities) -> dict:
    """entities: list of dicts or pyarrow Table with
    (entity_id, canonical, aliases, type). Returns
    first_token_lower -> [(phrase_tokens_lower, n_tokens, type, entity_id)]
    sorted longest-first then by entity_id (deterministic alias ties)."""
    if hasattr(entities, "to_pylist"):
        entities = entities.to_pylist()
    return build_phrase_index(
        (s, e["entity_id"], (e["type"], e["entity_id"]))
        for e in entities
        for s in [e["canonical"]] + list(e["aliases"] or []))


def build_fuzzy_index(entities, whitelist=None, blacklist=None) -> dict:
    """Blocked candidate index for fuzzy linking (SURVEY J5; the engine
    seat of wd_search's name-candidate generation, wd_search.py:153-201):
    (type, first-2-chars of normalized surface) ->
    (embedding matrix, entity_ids, norms), candidates sorted by
    (entity_id, norm) for deterministic ties.

    Typing filters (wd_search.py:75-141 semantics at candidate-
    generation time): an entity whose type is in ``blacklist``
    (default lx.KB_TYPE_BLACKLIST) is vetoed outright; with a
    ``whitelist`` (default lx.KB_TYPE_WHITELIST) the type must also
    be whitelisted. The defaults cover the engine's full linkable
    vocabulary, so curated KBs are unaffected while a mixed KB drops
    its out-of-domain rows; pass narrower sets to restrict further."""
    if whitelist is None:
        whitelist = lx.KB_TYPE_WHITELIST
    if blacklist is None:
        blacklist = lx.KB_TYPE_BLACKLIST
    if hasattr(entities, "to_pylist"):
        entities = entities.to_pylist()
    buckets: dict[tuple, set] = {}
    for e in sorted(entities, key=lambda e: e["entity_id"]):
        if e["type"] in blacklist or e["type"] not in whitelist:
            continue
        for s in [e["canonical"]] + list(e["aliases"] or []):
            norm = lx.normalize_surface(s)
            if not norm:
                continue
            key = (e["type"], norm[:lx.LINK_BLOCK_PREFIX])
            buckets.setdefault(key, set()).add((e["entity_id"], norm))
    out: dict[tuple, tuple] = {}
    for key, pairs in buckets.items():
        lst = sorted(pairs)
        out[key] = (embed_surfaces([n for _, n in lst]),
                    [eid for eid, _ in lst], [n for _, n in lst])
    return out


def fuzzy_link(norm: str, argtype: str, fuzzy: dict | None,
               required_types=None) -> str | None:
    """Best cosine candidate at/above LINK_THRESHOLD within the block;
    ties broken by minimum entity_id (cf. strdist scoring,
    link_coref.py:285-309). ``required_types`` is the wd_search
    required-type filter (wd_search.py:154-157): when given, only
    candidates of a required type are eligible — with single-typed
    engine entities that gates the typed block probe itself."""
    if not fuzzy or not norm:
        return None
    if required_types is not None and argtype not in required_types:
        return None
    hit = fuzzy.get((argtype, norm[:lx.LINK_BLOCK_PREFIX]))
    if hit is None:
        return None
    mat, eids, _norms = hit
    sims = mat @ embed_surface(norm)
    best = float(sims.max())
    if best < lx.LINK_THRESHOLD:
        return None
    return min(eids[i] for i in np.nonzero(sims >= best - 1e-9)[0])


_DAY_RE = lx.NUMERIC_RE
_COUNT_NOUNS = set(lx.COUNT_NOUNS)
_MONTHS_SET = frozenset(lx.MONTHS)
_DATAISH_NOUNS = {"records", "files", "documents", "emails", "passwords",
                  "credentials"}


# class bits of a lowered token in the TokenTable: modal, generic, trigger
# surface, non-content word, span-start word (arg-phrase first token,
# month or numeral word)
_MODAL, _GENERIC, _TRIG, _NONCONTENT, _START = 1, 2, 4, 8, 16


def _word_classes() -> dict[str, int]:
    bits: dict[str, int] = {}
    for words, bit in ((lx.MODAL_WORDS, _MODAL), (lx.GENERIC_WORDS, _GENERIC),
                       (lx.TRIGGER_SURFACES, _TRIG),
                       (lx.NON_CONTENT_WORDS, _NONCONTENT),
                       (lx.ARG_PHRASE_FIRST | _MONTHS_SET | lx.NUMERAL_WORDS,
                        _START)):
        for w in words:
            bits[w] = bits.get(w, 0) | bit
    return bits


_WORD_CLASSES = _word_classes()
# first characters that start no span unless the lowered token is a start
# word or a catalog key: ASCII lowercase letters and punctuation, except
# "v" (Version) and "$" (Money)
_NO_SPAN_FIRST = np.zeros(128, dtype=bool)
_NO_SPAN_FIRST[[ord(c) for c in string.ascii_lowercase + string.punctuation
                if c not in "v$"]] = True


def _is_cap(c: str) -> bool:
    return c.isupper() and c.isalpha()


_CAP_FIRST = np.array([_is_cap(chr(c)) for c in range(128)])


class TokenTable:
    """The tokens of many turns (one shard's mask-passing texts) and what
    :func:`detect_turn` reads of them, each computed in one pass over the
    whole table. Token i has ``toks[i]``, ``lowers[i]``, char offsets
    ``starts[i]`` / ``ends[i]`` within its own turn, ``flags[i]`` (bit 1
    modal, bit 2 generic), ``cap[i]`` (capitalized first char) and
    ``run_end[i]`` (for a capitalized token, the end of its capitalized
    run, never past its own turn's last token). Turn k holds tokens
    ``bounds[k]:bounds[k + 1]``. Three sorted index lists carry per-turn
    bounds (turn k's entries are ``spans[span_b[k]:span_b[k + 1]]``):
    possible span starts, trigger-surface tokens and content-word tokens.
    The joined-text offsets of :func:`~casie_ray.tokenize.tokenize_many`
    (``gstart``, ``base``) and the flag bits as an array stay for
    :meth:`window_flags`. Only strings, ints, lists and numpy arrays: no
    per-token object for the cyclic GC to track."""

    __slots__ = ("toks", "lowers", "starts", "ends", "bounds", "flags",
                 "cap", "run_end", "spans", "span_b", "trigs", "trig_b",
                 "cands", "cand_b", "gstart", "base", "flag_bits")

    def __init__(self, texts: list[str], catalog: dict):
        toks, gstart, gend, base, bounds = tokenize_many(texts)
        n = len(toks)
        own = base[np.repeat(np.arange(len(texts)), np.diff(bounds))]
        self.starts = (gstart - own).tolist()
        self.ends = (gend - own).tolist()
        self.bounds = bounds.tolist()
        self.gstart, self.base = gstart, base
        self.toks = toks
        self.lowers = lowers = list(map(str.lower, toks))
        bits = np.fromiter(map(_WORD_CLASSES.get, lowers, repeat(0)),
                           np.uint8, n)
        cp = np.fromiter(map(ord, map(itemgetter(0), toks)), np.int64, n)
        ascii_cp = np.minimum(cp, 127)
        cap = _CAP_FIRST[ascii_cp]
        wide = np.flatnonzero(cp > 127)
        cap[wide] = [_is_cap(chr(c)) for c in cp[wide].tolist()]
        span = ~((cp < 128) & _NO_SPAN_FIRST[ascii_cp]) \
            | (bits & _START > 0) \
            | np.fromiter(map(catalog.__contains__, lowers), bool, n)
        cand = (bits & (_TRIG | _NONCONTENT) == 0) \
            & (np.fromiter(map(len, lowers), np.int64, n) >= 3) \
            & np.fromiter(map(str.isalpha, toks), bool, n)
        stops = np.union1d(np.flatnonzero(~cap), bounds)
        self.run_end = stops[np.searchsorted(stops, np.arange(n),
                                             side="right")].tolist()
        self.flag_bits = bits & (_MODAL | _GENERIC)
        self.flags = self.flag_bits.tolist()
        self.cap = cap.tolist()

        def index(mask):
            idx = np.flatnonzero(mask)
            return idx.tolist(), np.searchsorted(idx, bounds).tolist()

        self.spans, self.span_b = index(span)
        self.trigs, self.trig_b = index(bits & _TRIG)
        self.cands, self.cand_b = index(cand)

    def window_flags(self, turns: np.ndarray, offsets: np.ndarray) \
            -> tuple[np.ndarray, np.ndarray]:
        """:func:`realis_window_flags` of many (turn k, char offset)
        pairs at once, as two bool arrays: one ``searchsorted`` finds
        each offset's token in the joined text, clipped to its turn's
        first token, and each ±7-token window, clipped to its turn, reads
        the modal and generic bits as a difference of prefix sums."""
        turns = np.asarray(turns, np.int64)
        offsets = np.asarray(offsets, np.int64)
        bounds = np.asarray(self.bounds, np.int64)
        first, stop = bounds[turns], bounds[turns + 1]
        idx = np.maximum(first, np.searchsorted(
            self.gstart, self.base[turns] + offsets, side="right") - 1)
        lo = np.maximum(first, idx - 7)
        hi = np.minimum(stop, idx + 8)
        out = []
        for bit in (_MODAL, _GENERIC):
            cum = np.zeros(len(self.flag_bits) + 1, np.int64)
            np.cumsum(self.flag_bits & bit > 0, out=cum[1:])
            out.append(cum[hi] > cum[lo])
        return out[0], out[1]


def detect_turn(text: str, catalog: dict, fuzzy: dict | None = None,
                view: tuple[TokenTable, int] | None = None):
    """Per-turn mention + trigger-candidate detection.

    Deterministic longest-match, left-to-right, priority:
    CVE > Version > Money > catalog phrase > argument phrase lexicon >
    month+date > number-before-count-noun; then triggers on unclaimed
    tokens (argument wins on conflict, link_coref.py:613-614).

    This is the engine's multi-channel NE merge (M9, combineExtNe
    parseJsontoFeatures.py:232-256): the regex channel (CVE/Version/
    Money), the catalog channel, and the capitalized-run + fuzzy-link
    channel are merged here by span priority; the fourth channel —
    conversation-level coref-chain propagation — joins at doc-logic
    time (:func:`propagate_coref_aliases`).

    ``view`` is ``(table, k)``: turn k of a :class:`TokenTable` over many
    texts, ``text`` being that turn's text. The span rules then run only
    at the turn's possible span starts, and triggers, candidate tokens
    and flags are slices of the table. Without a view the call builds a
    one-text table. Returns a :class:`TurnDetection`, equal to
    :func:`detect_turn_seq`'s.
    """
    tt, k = view if view is not None else (TokenTable([text], catalog), 0)
    a, n = tt.bounds[k], tt.bounds[k + 1]
    toks, lowers, starts, ends = tt.toks, tt.lowers, tt.starts, tt.ends
    cap, run_end = tt.cap, tt.run_end
    claimed: set[int] = set()
    mentions: list[Mention] = []
    cve_match = lx.CVE_RE.match
    version_match = lx.VERSION_RE.match
    money_match = lx.MONEY_RE.match
    arg_first = lx.ARG_PHRASE_FIRST
    arg_surfaces = lx.ARG_PHRASE_SURFACES
    max_arg = lx.MAX_ARG_PHRASE_LEN
    numeral_words = lx.NUMERAL_WORDS
    org_hints = lx.ORG_HINTS

    pos = a   # tokens before pos are claimed by the last span
    for i in tt.spans[tt.span_b[k]:tt.span_b[k + 1]]:
        if i < pos:
            continue
        tok = toks[i]
        low = lowers[i]
        c0 = tok[0]
        span = None  # (n_tokens, argtype, entity_id)
        if c0 == "C" and cve_match(tok):
            span = (1, "CVE", None)
        elif (c0 == "v" or c0.isdigit()) and version_match(tok):
            span = (1, "Version", None)
        elif c0 == "$" and money_match(tok):
            span = (1, "Money", None)
        if span is None and cap[i]:
            # capitalized-run NER (see detect_turn_seq)
            j = run_end[i]
            rl = j - i
            if rl >= 2 and not org_hints.isdisjoint(lowers[i:j]):
                run = tuple(lowers[i:j])
                eid = etype = None
                for phrase, ln, ptype, pid in catalog.get(low, ()):
                    if ln == rl and run == phrase:
                        eid, etype = pid, ptype
                        break
                if etype is None:
                    etype = "Organization"
                    eid = fuzzy_link(
                        lx.normalize_surface(text[starts[i]:ends[j - 1]]),
                        etype, fuzzy)
                span = (rl, etype, eid)
        if span is None and low in catalog:
            for phrase, ln, etype, eid in catalog[low]:
                if i + ln <= n and tuple(lowers[i:i + ln]) == phrase:
                    span = (ln, etype, eid)
                    break
        if span is None and low in arg_first:
            for ln in range(min(max_arg, n - i), 0, -1):
                argtype = arg_surfaces.get(" ".join(lowers[i:i + ln]))
                if argtype is not None:
                    span = (ln, argtype, None)
                    break
        if span is None and low in _MONTHS_SET:
            ln = 1
            j = i + 1
            if j < n and _DAY_RE.match(toks[j]) and len(toks[j]) <= 2:
                ln += 1
                j += 1
            if j < n and lx.YEAR_RE.match(toks[j]):
                ln = j - i + 1
            if ln > 1:
                span = (ln, "Time", None)
        if span is None and c0.isdigit() and lx.NUMERIC_RE.match(tok) \
                and i + 1 < n and lowers[i + 1] in _COUNT_NOUNS:
            span = (1, "Number", None)
        if span is None and low in numeral_words:
            j = i + 1
            while j < n and (lowers[j] in numeral_words
                             or (lowers[j] == "and" and j + 1 < n
                                 and lowers[j + 1] in numeral_words)):
                j += 1
            q = j
            if q < n and lowers[q] == "of":
                q += 1
            if q < n and lowers[q] in _COUNT_NOUNS:
                span = (j - i, "Number", None)
        if span is not None:
            ln, argtype, eid = span
            m_start = starts[i]
            m_end = ends[i + ln - 1]
            nn = i + ln
            if argtype == "Number" and nn < n and lowers[nn] == "of":
                nn += 1
            dataish = (argtype == "Number" and nn < n
                       and lowers[nn] in _DATAISH_NOUNS)
            mentions.append(Mention(m_start, m_end, text[m_start:m_end],
                                    argtype, eid,
                                    next_noun_dataish=dataish))
            claimed.update(range(i, i + ln))
            pos = i + ln

    surfaces = lx.TRIGGER_SURFACES
    triggers = [
        Trigger(i - a, starts[i], ends[i], toks[i], surfaces[lowers[i]])
        for i in tt.trigs[tt.trig_b[k]:tt.trig_b[k + 1]] if i not in claimed]
    cands = [(i - a, starts[i], ends[i], lowers[i], cap[i])
             for i in tt.cands[tt.cand_b[k]:tt.cand_b[k + 1]]
             if i not in claimed]
    return TurnDetection(starts[a:n], tt.flags[a:n], triggers, mentions,
                         cands)


def detect_turn_seq(text: str, catalog: dict, fuzzy: dict | None = None):
    """:func:`detect_turn` token by token, without a :class:`TokenTable`:
    its sequential twin, run by the oracle (:func:`extract_conversation`).
    Returns a :class:`TurnDetection`.
    """
    toks = tokenize(text)
    n = len(toks)
    lowers = [t[0].lower() for t in toks]
    claimed = [False] * n
    mentions: list[Mention] = []
    # hot-loop local bindings: the loop body runs per token (~hundreds
    # of millions of times at corpus scale) — global/attr lookups and
    # repeated set probes are measurable there
    cve_match = lx.CVE_RE.match
    version_match = lx.VERSION_RE.match
    money_match = lx.MONEY_RE.match
    arg_first = lx.ARG_PHRASE_FIRST
    arg_surfaces = lx.ARG_PHRASE_SURFACES
    max_arg = lx.MAX_ARG_PHRASE_LEN
    numeral_words = lx.NUMERAL_WORDS

    i = 0
    while i < n:
        tok, s, e = toks[i]
        low = lowers[i]
        c0 = tok[0]
        span = None  # (n_tokens, argtype, entity_id)
        # first-char gates: each pattern pins its first character
        # (^CVE / ^(v)?\d / ^\$), so word tokens skip the regex calls
        if c0 == "C" and cve_match(tok):
            span = (1, "CVE", None)
        elif (c0 == "v" or c0.isdigit()) and version_match(tok):
            span = (1, "Version", None)
        elif c0 == "$" and money_match(tok):
            span = (1, "Money", None)
        if span is None and c0.isupper() and c0.isalpha():
            # capitalized-run NER: a run of >=2 capitalized tokens
            # containing an org designator is an Organization mention —
            # exact catalog surface if the full run matches, else fuzzy
            # blocked-cosine link (stand-in for CoreNLP ORG NER + the
            # curated org lexicon, parseJsontoFeatures.py:879-985)
            j = i
            while j < n and toks[j][0][0].isupper() \
                    and toks[j][0][0].isalpha():
                j += 1
            rl = j - i
            if rl >= 2 and any(lowers[k] in lx.ORG_HINTS
                               for k in range(i, j)):
                run = tuple(lowers[i:j])
                eid = etype = None
                for phrase, ln, ptype, pid in catalog.get(low, ()):
                    if ln == rl and run == phrase:
                        eid, etype = pid, ptype
                        break
                if etype is None:
                    etype = "Organization"
                    eid = fuzzy_link(
                        lx.normalize_surface(text[toks[i][1]:toks[j - 1][2]]),
                        etype, fuzzy)
                span = (rl, etype, eid)
        if span is None and low in catalog:
            for phrase, ln, etype, eid in catalog[low]:
                if i + ln <= n and tuple(lowers[i:i + ln]) == phrase:
                    span = (ln, etype, eid)
                    break
        if span is None and low in arg_first:
            for ln in range(min(max_arg, n - i), 0, -1):
                cand = " ".join(lowers[i:i + ln])
                argtype = arg_surfaces.get(cand)
                if argtype is not None:
                    span = (ln, argtype, None)
                    break
        if span is None and low in _MONTHS_SET:
            # month [day] [year] — requires a following numeric part so
            # bare "may" (modal) is never a Time mention
            ln = 1
            j = i + 1
            if j < n and _DAY_RE.match(toks[j][0]) and len(toks[j][0]) <= 2:
                ln += 1
                j += 1
            if j < n and lx.YEAR_RE.match(toks[j][0]):
                ln = j - i + 1
            if ln > 1:
                span = (ln, "Time", None)
        if span is None and c0.isdigit() and lx.NUMERIC_RE.match(tok) \
                and i + 1 < n and lowers[i + 1] in _COUNT_NOUNS:
            span = (1, "Number", None)
        if span is None and low in numeral_words:
            # English numeral phrase before a count noun ("three million
            # customers", "dozens of records") -> Number mention over the
            # numeral run (txt2int, link_coref.py:334-362)
            j = i + 1
            while j < n and (lowers[j] in numeral_words
                             or (lowers[j] == "and" and j + 1 < n
                                 and lowers[j + 1] in numeral_words)):
                j += 1
            k = j
            if k < n and lowers[k] == "of":
                k += 1
            if k < n and lowers[k] in _COUNT_NOUNS:
                span = (j - i, "Number", None)
        if span is not None:
            ln, argtype, eid = span
            m_start = toks[i][1]
            m_end = toks[i + ln - 1][2]
            nn = i + ln
            if argtype == "Number" and nn < n and lowers[nn] == "of":
                nn += 1      # "dozens of records" -> judge the noun
            dataish = (argtype == "Number" and nn < n
                       and lowers[nn] in _DATAISH_NOUNS)
            mentions.append(Mention(m_start, m_end, text[m_start:m_end],
                                    argtype, eid,
                                    next_noun_dataish=dataish))
            for k in range(i, i + ln):
                claimed[k] = True
            i += ln
        else:
            i += 1

    triggers = [
        Trigger(i, toks[i][1], toks[i][2], toks[i][0],
                lx.TRIGGER_SURFACES[lowers[i]])
        for i in range(n)
        if not claimed[i] and lowers[i] in lx.TRIGGER_SURFACES
    ]
    flags = [(1 if w in lx.MODAL_WORDS else 0)
             | (2 if w in lx.GENERIC_WORDS else 0) for w in lowers]
    # unclaimed content tokens: the similarity-imputation candidate pool
    # (stand-in for the reference's POS-based verb/noun candidates,
    # link_coref.py:966-976 — no parser, so "content word" = alphabetic,
    # not stopword/modal/generic, not a lexicon trigger, length >= 3)
    cands = [
        (i, toks[i][1], toks[i][2], lowers[i], toks[i][0][0].isupper())
        for i in range(n)
        if not claimed[i] and len(lowers[i]) >= 3
        and lowers[i] not in lx.TRIGGER_SURFACES
        and lowers[i] not in lx.NON_CONTENT_WORDS
        and toks[i][0].isalpha()
    ]
    return TurnDetection([t[1] for t in toks], flags, triggers, mentions,
                         cands)


# ---------------------------------------------------------------------------
# Document logic (recheck / compatible / link), per conversation
# ---------------------------------------------------------------------------


def resolve_triggers(turn_triggers: dict[int, list[Trigger]]) -> dict[str, int]:
    """Resolve ambiguous / 'General' trigger candidates against the
    document trigger histogram (cf. scoreH link_coref.py:941-950 and
    recheck :1027-1126). Mutates Trigger.etype. Returns final histogram."""
    hist: dict[str, int] = {t: 0 for t in lx.TRIGGER_TYPES}
    ambiguous: list[Trigger] = []
    for trigs in turn_triggers.values():
        for tr in trigs:
            cands = [t for t in tr.etypes if t != "General"]
            if len(cands) == 1 and "General" not in tr.etypes:
                tr.etype = cands[0]
                hist[tr.etype] += 1
            else:
                ambiguous.append(tr)
    for tr in ambiguous:
        cands = [t for t in tr.etypes if t != "General"]
        if "General" in tr.etypes and not cands:
            cands = list(lx.TRIGGER_TYPES)
            if all(hist[c] == 0 for c in cands):
                tr.etype = None  # bare general noun, no doc context: drop
                continue
        # highest doc count wins; ties alphabetical (deterministic)
        best = max(hist[c] for c in cands)
        tr.etype = sorted(c for c in cands if hist[c] == best)[0]
    final = {t: 0 for t in lx.TRIGGER_TYPES}
    for trigs in turn_triggers.values():
        for tr in trigs:
            if tr.etype:
                final[tr.etype] += 1
    return final


_MUST_HAVE = {"CVE": ("DiscoverVulnerability", "PatchVulnerability"),
              "Vulnerability": ("DiscoverVulnerability", "PatchVulnerability")}


def recheck_impute(turn_triggers, turn_mentions, hist):
    """Impute a trigger on turns that carry a must-have argument (CVE /
    Vulnerability) but no trigger, typed from the doc histogram
    (cf. recheck link_coref.py:1027-1126 via findanytrigger)."""
    for ti, mentions in turn_mentions.items():
        if turn_triggers.get(ti):
            continue
        musts = [m for m in mentions if m.argtype in _MUST_HAVE]
        if not musts:
            continue
        cands = _MUST_HAVE[musts[0].argtype]
        counts = [(hist.get(c, 0), c) for c in cands]
        best_count = max(c for c, _ in counts)
        if best_count == 0:
            continue
        etype = sorted(c2 for c, c2 in counts if c == best_count)[0]
        m = min(musts, key=lambda m: m.start)
        turn_triggers[ti] = [Trigger(-1, m.start, m.end, m.text,
                                     (etype,), etype=etype, imputed=True)]
        hist[etype] = hist.get(etype, 0) + 1


_WORDSET_MATS: dict[str, np.ndarray] | None = None


def _wordset_mats() -> dict[str, np.ndarray]:
    """Per-event-type embedding matrices of the WORDSET seed words
    (built once per process; the hashed-embedding stand-in for the
    reference's w2v vocabulary in maxsim, link_coref.py:269-284)."""
    global _WORDSET_MATS
    if _WORDSET_MATS is None:
        _WORDSET_MATS = {
            et: embed_surfaces([w.lower() for w in ws])
            for et, ws in lx.WORDSET.items()
        }
    return _WORDSET_MATS


@functools.lru_cache(maxsize=65536)
def _wordset_sims(surface: str) -> tuple[float, ...]:
    """Max similarity of a lowered surface to each event type's WORDSET,
    in ``lx.TRIGGER_TYPES`` order. Memoized: candidate tokens repeat
    across turns and conversations."""
    mats, v = _wordset_mats(), embed_surface(surface)
    return tuple(float((mats[et] @ v).max()) for et in lx.TRIGGER_TYPES)


def impute_similarity_triggers(turn_triggers, turn_mentions, detections,
                               hist) -> None:
    """Similarity-based trigger imputation (O2; findanytrigger,
    link_coref.py:922-1023): a turn with argument mentions but no
    trigger imputes one at its most trigger-like unclaimed content
    token, when that token's max similarity to an event type's WORDSET
    reaches SIM_CUTOFF (0.68 at :997).

    Candidate event types = arg-compatible (PAIR) AND present in the
    document trigger histogram (the reference's intersect of score /
    scoreH). Ties on the top similarity resolve by document-histogram
    count then alphabetical type, then earliest token — all
    content-derived, no arrival order. Mutates turn_triggers + hist."""
    for ti in sorted(turn_mentions):
        if turn_triggers.get(ti):
            continue
        mentions = turn_mentions[ti]
        det = detections.get(ti)
        if not mentions or det is None or not det.cand_tokens:
            continue
        intersect = [(p, et) for p, et in enumerate(lx.TRIGGER_TYPES)
                     if hist.get(et, 0) > 0
                     and any(m.argtype in lx.PAIR[et] for m in mentions)]
        if not intersect:
            continue
        spans = {(m.start, m.end) for m in mentions}
        scored = []       # (sim, etype, tok_idx, start, end, surface)
        for tok_idx, s, e, low, _cap in det.cand_tokens:
            if any(s < me and ms < e for ms, me in spans):
                continue  # claimed by an argument (argument-wins)
            sims = _wordset_sims(low)
            best_sim, best_et = 0.0, None
            for p, et in intersect:
                sim = sims[p]
                if sim > best_sim:
                    best_sim, best_et = sim, et
            if best_et is not None:
                scored.append((best_sim, best_et, tok_idx, s, e, low))
        if not scored:
            continue
        top = max(s for s, *_ in scored)
        if top < lx.SIM_CUTOFF:
            continue
        tied = [c for c in scored if c[0] == top]
        etype = sorted((-hist.get(c[1], 0), c[1]) for c in tied)[0][1]
        _, _, tok_idx, s, e, low = min(
            c for c in tied if c[1] == etype)
        turn_triggers[ti] = [Trigger(tok_idx, s, e, low, (etype,),
                                     etype=etype, imputed=True)]
        hist[etype] = hist.get(etype, 0) + 1


PROPAGATE_TYPES = frozenset({"Organization", "System", "Person"})


def propagate_coref_aliases(turn_mentions, detections) -> None:
    """Coref-chain NER propagation (M12; readCoref/combineCoref,
    parseJsontoFeatures.py:60-106): the reference writes the
    representative coref mention's NER type onto chain members whose
    head token is untyped ('O'). The engine's chains are
    conversation-level alias links — a bare capitalized token equal to
    the FIRST or LAST token of a multi-token typed mention (org stem,
    person surname) joins that mention's chain and inherits its argtype
    and entity link.

    Conservative by construction: chain heads must be >=4 alphabetic
    chars and non-stop; a head claimed by two different (argtype,
    entity) chains in the conversation is ambiguous and propagates
    nothing. Claimed candidates leave the imputation pool (a token
    cannot be both an argument and an imputed trigger — argument-wins,
    link_coref.py:613-614). Mutates turn_mentions and det.cand_tokens.
    """
    _AMBIG = ("", None)
    chains: dict[str, tuple[str, str | None]] = {}
    for ti in sorted(turn_mentions):
        for m in turn_mentions[ti]:
            if m.argtype not in PROPAGATE_TYPES:
                continue
            words = m.text.split(" ")
            if len(words) < 2:
                continue
            for head in {words[0].lower(), words[-1].lower()}:
                if len(head) < 4 or not head.isalpha() \
                        or head in lx.STOPWORDS:
                    continue
                key = (m.argtype, m.entity_id)
                if chains.setdefault(head, key) != key:
                    chains[head] = _AMBIG
    chains = {h: k for h, k in chains.items() if k != _AMBIG}
    if not chains:
        return
    for ti in sorted(detections):
        det = detections[ti]
        if det is None or not det.cand_tokens:
            continue
        kept, added = [], []
        for c in det.cand_tokens:
            link = chains.get(c[3]) if c[4] else None
            if link is None:
                kept.append(c)
            else:
                added.append(Mention(c[1], c[2], c[3], link[0], link[1]))
        if added:
            det.cand_tokens = kept
            ms = turn_mentions.setdefault(ti, []) + added
            ms.sort(key=lambda m: (m.start, m.end))
            turn_mentions[ti] = ms


J6_WINDOW = 3


def lookback_attach(events, turn_mentions, window: int = J6_WINDOW):
    """J6 (findnearbyner, parseJsontoFeatures.py:951-958): an event left
    with NO arguments borrows the nearest PRECEDING turn's compatible
    mention within ``window`` turns — the reference's nearest-preceding-
    sentence-with-wanted-NE feature applied at link time. Distance 1 is
    already covered by link_events' previous-turn rule, so lookback
    starts at 2. The borrowed mention is copied (a shared object would
    make role assignment order-dependent); it may be one that no trigger
    within ±1 turn of its own turn is compatible with. Mutates events."""
    import dataclasses
    for e in events:
        if e.args:
            continue
        for d in range(2, window + 1):
            cands = [m for m in turn_mentions.get(e.turn_idx - d, [])
                     if m.argtype in lx.PAIR[e.etype]]
            if cands:
                src = max(cands, key=lambda m: m.start)
                e.args.append(dataclasses.replace(src))
                break


def link_events(conv_id, turn_triggers, turn_mentions) -> list[Event]:
    """One event per resolved trigger; each argument attaches to the
    nearest compatible trigger in its own turn, else the last compatible
    trigger of the previous turn (cf. link, link_coref.py:1223-1407)."""
    events: dict[tuple, Event] = {}

    def get_event(ti, tr) -> Event:
        key = (ti, tr.start)
        if key not in events:
            events[key] = Event(
                event_id=f"{conv_id}:{ti}:{tr.start}", conv_id=conv_id,
                turn_idx=ti, etype=tr.etype, nugget_start=tr.start,
                nugget_end=tr.end, nugget_text=tr.surface)
        return events[key]

    for ti in sorted(turn_triggers):
        for tr in turn_triggers[ti]:
            if tr.etype:
                get_event(ti, tr)

    for ti in sorted(turn_mentions):
        for m in turn_mentions[ti]:
            same = [tr for tr in turn_triggers.get(ti, [])
                    if tr.etype and m.argtype in lx.PAIR[tr.etype]]
            target = None
            if same:
                target = min(same, key=lambda tr: (abs(tr.start - m.start),
                                                   tr.start))
                t_ti = ti
            else:
                prev = [tr for tr in turn_triggers.get(ti - 1, [])
                        if tr.etype and m.argtype in lx.PAIR[tr.etype]]
                if prev:
                    target = max(prev, key=lambda tr: tr.start)
                    t_ti = ti - 1
            if target is not None:
                get_event(t_ti, target).args.append(m)
    return [events[k] for k in sorted(events)]


# ---------------------------------------------------------------------------
# Role + realis rules (deterministic stand-ins for T4/T5 models)
# ---------------------------------------------------------------------------


def assign_roles(event: Event) -> None:
    """RolePair-driven role assignment with deterministic disambiguation
    (cf. roleassign link_coref.py:1409-1457 incl. the Databreach Number
    special case :1444-1455). Args with no role mapping are dropped."""
    kept = []
    for m in event.args:
        roles = lx.ROLE_PAIR[event.etype].get(m.argtype)
        if not roles:
            continue
        if len(roles) == 1:
            m.role = roles[0]
        else:
            rset = set(roles)
            if {"Attacker", "Victim"} <= rset:
                m.role = "Attacker" if m.start < event.nugget_start else "Victim"
            elif {"Patch-Releaser", "Vulnerable-System-Owner"} <= rset:
                m.role = ("Patch-Releaser" if m.start < event.nugget_start
                          else "Vulnerable-System-Owner")
            elif event.etype == "Databreach" and m.argtype == "Number":
                # decided by the noun following the number (":1444-1455")
                m.role = ("Number-of-Compromised-Data"
                          if m.next_noun_dataish else "Number-of-victim")
            else:
                m.role = roles[0]
        kept.append(m)
    event.args = kept


def realis_window_flags(det: TurnDetection, nugget_start: int) -> tuple[bool, bool]:
    """(modal_in_window, generic_in_window) over the ±7-token context
    window around the nugget (window size per prepare.py:276-277)."""
    idx = max(0, bisect.bisect_right(det.token_starts, nugget_start) - 1)
    lo = max(0, idx - 7)
    hi = min(len(det.token_flags), idx + 8)
    modal = any(det.token_flags[k] & 1 for k in range(lo, hi))
    generic = any(det.token_flags[k] & 2 for k in range(lo, hi))
    return modal, generic


def assign_realis(event: Event, modal: bool, generic: bool) -> None:
    """Rule-based realis (deterministic stand-in for the GNG/AO realis
    models, link_coref.py:1459-1483): modal context -> Other, generic
    context or generic plural trigger -> Generic, else Actual."""
    if modal:
        event.realis = "Other"
    elif generic or event.nugget_text.lower() in lx.GENERIC_TRIGGER_SURFACES:
        event.realis = "Generic"
    else:
        event.realis = "Actual"


# ---------------------------------------------------------------------------
# Event coreference (corefdiffbyevent, link_coref.py:1510-1679)
#
# Two implementations of one rule. :func:`coref_many` is the engine's
# kernel: one numpy pass over every within-subset event pair of a whole
# shard. :func:`coref_events` (one :func:`_coref_distance_matrix` per
# (conversation, etype) subset) is its sequential twin, run only by the
# oracle, so the oracle comparison checks the batched kernel
# independently.
# ---------------------------------------------------------------------------


def _strdist(a: str, b: str) -> float:
    """Cosine distance / 2 of the hashed surface embeddings — same shape
    as strdist (link_coref.py:301-309) with w2v replaced by the
    deterministic hashed embedding."""
    if a == b:
        return 0.0
    va, vb = embed_surface(a.lower()), embed_surface(b.lower())
    return float(max(0.0, 1.0 - float(va @ vb))) / 2.0


_REL_DAYS = {"yesterday": -1, "today": 0, "tomorrow": 1, "last week": -7,
             "last month": -30, "last year": -365, "this week": 0,
             "this month": 0, "this year": 0, "earlier this year": -90,
             "earlier this week": -3, "recently": -7}


def parse_time_mention(text: str, turn_ts: dt.datetime | None):
    """Time-argument surface -> ordinal day (cf. strtotime/durationtotime,
    link_coref.py:364-497, with the turn timestamp as pubdate)."""
    low = text.lower().strip()
    words = low.split()
    if words and words[0] in lx.MONTHS:
        month = lx.MONTHS.index(words[0]) + 1
        day, year = 15, None
        for w in words[1:]:
            if lx.YEAR_RE.match(w):
                year = int(w)
            elif w.isdigit() and int(w) <= 31:
                day = int(w)
        if year is None:
            year = turn_ts.year if turn_ts else 2018
        try:
            return dt.date(year, month, min(day, 28)).toordinal()
        except ValueError:
            return None
    base = turn_ts.date() if turn_ts else dt.date(2018, 1, 1)
    if low in _REL_DAYS:
        return base.toordinal() + _REL_DAYS[low]
    if low in lx.WEEKDAYS:
        return base.toordinal()
    return None


def _coref_distance_matrix(evs: list[Event], turn_ts: dict[int, dt.datetime]):
    """7-feature weighted distance matrix for one (conv, etype) subset,
    mirroring the reference's feature structure and its per-subset
    min-max normalization of the count features."""
    n = len(evs)
    w = lx.COREF_WEIGHTS
    args_of = [[(m.argtype, lx.normalize_surface(m.text), m.entity_id)
                for m in e.args] for e in evs]
    nuggetdiff = np.zeros((n, n))
    realisdiff = np.zeros((n, n))
    argtype_i = np.zeros((n, n))
    argcoref = np.zeros((n, n))
    nuggetdist = np.zeros((n, n))
    argmiss = np.zeros((n, n))
    timedist = np.zeros((n, n))
    times = []
    for e in evs:
        tvals = [parse_time_mention(m.text, turn_ts.get(e.turn_idx))
                 for m in e.args if m.argtype == "Time"]
        tvals = [t for t in tvals if t is not None]
        times.append(tvals[0] if tvals else None)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            e1, e2 = evs[i], evs[j]
            nuggetdiff[i, j] = _strdist(e1.nugget_text, e2.nugget_text)
            realisdiff[i, j] = 0.0 if e1.realis == e2.realis else 1.0
            t2 = [a[0] for a in args_of[j]]
            inter = 0
            for a1, _, _ in args_of[i]:
                if a1 in t2:
                    t2.remove(a1)
                    inter += 1
            argtype_i[i, j] = inter
            argmiss[i, j] = len(args_of[i]) - inter
            nuggetdist[i, j] = abs(e1.turn_idx - e2.turn_idx)
            total = coref_hits = 0
            for a1 in args_of[i]:
                for a2 in args_of[j]:
                    if (a1[2] is not None and a1[2] == a2[2]) or a1[1] == a2[1]:
                        coref_hits += 1
                    total += 1
            argcoref[i, j] = 1.0 - coref_hits / total if total else 1.0
            if times[i] is not None and times[j] is not None:
                timedist[i, j] = 1.0 if abs(times[i] - times[j]) > 0 else 0.0

    def minmax(m):
        mx = m.max()
        if mx == 0:
            return np.zeros_like(m)
        mn = m.min()
        return (m - mn) / (mx - mn)

    dist = (nuggetdiff * w[0] + realisdiff * w[1] + minmax(argtype_i) * w[2]
            + argcoref * w[3] + minmax(nuggetdist) * w[4]
            + minmax(argmiss) * w[5] + timedist * w[6])
    np.fill_diagonal(dist, 0.0)
    return dist


def _average_linkage(dist: np.ndarray, threshold: float) -> list[int]:
    """Exact average-linkage agglomerative clustering with deterministic
    smallest-(d,i,j) tie-break; merges while min linkage < threshold
    (matches sklearn AgglomerativeClustering(distance_threshold=...) used
    at link_coref.py:1670 for small n)."""
    n = dist.shape[0]
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    d = {(i, j): float(dist[i, j] + dist[j, i]) / 2.0
         for i in range(n) for j in range(i + 1, n)}
    while len(clusters) > 1:
        keys = sorted(clusters)
        best = None
        for ai in range(len(keys)):
            for bi in range(ai + 1, len(keys)):
                a, b = keys[ai], keys[bi]
                dd = d[(a, b) if a < b else (b, a)]
                if best is None or dd < best[0] - 1e-12:
                    best = (dd, a, b)
        if best is None or best[0] >= threshold:
            break
        _, a, b = best
        na, nb = len(clusters[a]), len(clusters[b])
        for c in clusters:
            if c in (a, b):
                continue
            ka = (min(a, c), max(a, c))
            kb = (min(b, c), max(b, c))
            d[ka] = (d[ka] * na + d[kb] * nb) / (na + nb)
        clusters[a] = clusters[a] + clusters[b]
        del clusters[b]
    labels = [0] * n
    for cid, (root, members) in enumerate(sorted(clusters.items())):
        for m in members:
            labels[m] = cid
    return labels


def coref_events(events: list[Event], turn_ts: dict[int, dt.datetime]) -> None:
    """Cluster events per event type within one conversation; cluster id
    = lexicographically smallest member event_id (content-derived — never
    arrival order, SURVEY §7.4 determinism)."""
    by_type: dict[str, list[Event]] = {}
    for e in events:
        by_type.setdefault(e.etype, []).append(e)
    for etype in sorted(by_type):
        evs = sorted(by_type[etype], key=lambda e: e.event_id)
        if len(evs) == 1:
            evs[0].cluster = evs[0].event_id
            continue
        dist = _coref_distance_matrix(evs, turn_ts)
        labels = _average_linkage(dist, lx.COREF_THRESHOLD)
        groups: dict[int, list[Event]] = {}
        for e, lab in zip(evs, labels):
            groups.setdefault(lab, []).append(e)
        for members in groups.values():
            root = min(m.event_id for m in members)
            for m in members:
                m.cluster = root


def _segment_cross(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-major (a, b) index pairs of each segment's full cross product,
    diagonal included, for segments laid out contiguously with the given
    lengths: segment s yields ``start_s + (k // L_s, k % L_s)`` for
    ``k < L_s**2``, segments in order."""
    lengths = np.asarray(lengths, dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    sq = lengths * lengths
    seg = np.repeat(np.arange(len(lengths)), sq)
    k = np.arange(int(sq.sum())) - np.repeat(np.cumsum(sq) - sq, sq)
    size = lengths[seg]
    return starts[seg] + k // size, starts[seg] + k % size


def coref_many(convs) -> None:
    """Shard-batched event coreference: the engine's kernel.

    ``convs`` yields one ``(events, turn_ts)`` pair per conversation.
    Subsets are formed exactly as in :func:`coref_events`, and every
    within-subset event pair of every conversation gets its seven
    features in ONE numpy pass: subset s with n events owns the
    contiguous n×n row-major slice of the pair arrays, so the per-subset
    min-max is a ``maximum.reduceat`` over pair segments (the minimum is
    always the zeroed diagonal) and average linkage runs on the reshaped
    slice. Every distance is bit-identical to
    :func:`_coref_distance_matrix`: same per-pair float ops, same
    operand order in the weighted sum."""
    subsets: list[tuple[list[Event], dict]] = []
    for events, turn_ts in convs:
        by_type: dict[str, list[Event]] = {}
        for e in events:
            by_type.setdefault(e.etype, []).append(e)
        for etype in sorted(by_type):
            evs = sorted(by_type[etype], key=lambda e: e.event_id)
            if len(evs) == 1:
                evs[0].cluster = evs[0].event_id
            else:
                subsets.append((evs, turn_ts))
    if not subsets:
        return
    # per-event features, events flattened subset by subset
    realis_of: dict = {}
    type_of: dict[str, int] = {}
    norm_of: dict[str, int] = {}
    eid_of: dict[str, int] = {}
    nug, realis, turn, times, nargs = [], [], [], [], []
    a_owner, a_type, a_norm, a_eid = [], [], [], []
    for evs, turn_ts in subsets:
        for e in evs:
            i = len(nug)
            t = None
            for m in e.args:
                a_owner.append(i)
                a_type.append(type_of.setdefault(m.argtype, len(type_of)))
                norm = lx.normalize_surface(m.text)
                a_norm.append(norm_of.setdefault(norm, len(norm_of)))
                a_eid.append(-1 if m.entity_id is None
                             else eid_of.setdefault(m.entity_id, len(eid_of)))
                if t is None and m.argtype == "Time":
                    t = parse_time_mention(m.text, turn_ts.get(e.turn_idx))
            nug.append(e.nugget_text)
            realis.append(realis_of.setdefault(e.realis, len(realis_of)))
            turn.append(e.turn_idx)
            times.append(t)
            nargs.append(len(e.args))
    n_ev = len(nug)
    sizes = np.array([len(evs) for evs, _ in subsets], dtype=np.int64)
    sq = sizes * sizes
    pair_start = np.cumsum(sq) - sq
    pi, pj = _segment_cross(sizes)
    diag = pi == pj

    # nuggetdiff through _strdist, once per distinct ordered text pair
    text_of: dict[str, int] = {}
    nc = np.array([text_of.setdefault(s, len(text_of)) for s in nug],
                  dtype=np.int64)
    texts = list(text_of)
    keys, inv = np.unique(nc[pi] * len(texts) + nc[pj], return_inverse=True)
    nuggetdiff = np.array([_strdist(texts[k // len(texts)],
                                    texts[k % len(texts)])
                           for k in keys.tolist()], dtype=np.float64)[inv]

    rc = np.array(realis, dtype=np.int64)
    realisdiff = (rc[pi] != rc[pj]).astype(np.float64)
    tc = np.array(turn, dtype=np.int64)
    nuggetdist = np.abs(tc[pi] - tc[pj]).astype(np.float64)
    has_t = np.array([t is not None for t in times])
    tv = np.array([0 if t is None else t for t in times], dtype=np.int64)
    timedist = (has_t[pi] & has_t[pj] & (tv[pi] != tv[pj])) \
        .astype(np.float64)

    na = np.array(nargs, dtype=np.int64)
    owner = np.array(a_owner, dtype=np.int64)
    counts = np.zeros((n_ev, len(type_of)), dtype=np.int64)
    np.add.at(counts, (owner, np.array(a_type, dtype=np.int64)), 1)
    inter = np.minimum(counts[pi], counts[pj]).sum(axis=1)
    argtype_i = inter.astype(np.float64)
    argmiss = (na[pi] - inter).astype(np.float64)

    # argcoref hits: the cross product of each subset's argument codes,
    # scattered onto the owning event pair
    ev_sub = np.repeat(np.arange(len(subsets)), sizes)
    ev_loc = np.arange(n_ev) - (np.cumsum(sizes) - sizes)[ev_sub]
    aa, ab = _segment_cross(np.bincount(ev_sub[owner],
                                        minlength=len(subsets)))
    ea, eb = owner[aa], owner[ab]
    norm = np.array(a_norm, dtype=np.int64)
    eid = np.array(a_eid, dtype=np.int64)
    hit = ((eid[aa] >= 0) & (eid[aa] == eid[ab])) | (norm[aa] == norm[ab])
    sub_a = ev_sub[ea]
    pidx = pair_start[sub_a] + ev_loc[ea] * sizes[sub_a] + ev_loc[eb]
    hits = np.bincount(pidx[hit], minlength=len(pi))
    total = na[pi] * na[pj]
    argcoref = np.where(total > 0, 1.0 - hits / np.maximum(total, 1), 1.0)

    def minmax(m):
        # per-subset min-max; every feature is >= 0, so the minimum is
        # the zeroed diagonal and (m - 0) / (max - 0) is just m / max
        m[diag] = 0.0
        mx = np.repeat(np.maximum.reduceat(m, pair_start), sq)
        return m / np.where(mx == 0, 1.0, mx)

    w = lx.COREF_WEIGHTS
    dist = (nuggetdiff * w[0] + realisdiff * w[1] + minmax(argtype_i) * w[2]
            + argcoref * w[3] + minmax(nuggetdist) * w[4]
            + minmax(argmiss) * w[5] + timedist * w[6])
    dist[diag] = 0.0
    for (evs, _), off, n in zip(subsets, pair_start.tolist(),
                                sizes.tolist()):
        labels = _average_linkage(dist[off:off + n * n].reshape(n, n),
                                  lx.COREF_THRESHOLD)
        groups: dict[int, list[Event]] = {}
        for e, lab in zip(evs, labels):
            groups.setdefault(lab, []).append(e)
        for members in groups.values():
            root = min(m.event_id for m in members)
            for m in members:
                m.cluster = root


# ---------------------------------------------------------------------------
# Canonicalization + triple emission (S8 -> graph materialization)
# ---------------------------------------------------------------------------

_LITERAL_TYPES = {"CVE", "Version", "Money", "Number", "Time"}


def canonical_obj(m: Mention) -> str:
    """Canonical node id for an argument mention: linked entity id when
    the catalog matched, typed literal otherwise."""
    if m.entity_id:
        return m.entity_id
    if m.argtype == "CVE":
        return m.text.upper()
    if m.argtype == "Number":
        t = m.text.replace(",", "")
        if any(c.isalpha() for c in t):
            # English numeral phrase -> digits (txt2int,
            # link_coref.py:334-362): "three million" and "3000000"
            # become the same graph node
            return str(lx.txt2int(t))
        return t
    if m.argtype in _LITERAL_TYPES:
        return m.text.replace(",", "")
    return f"{m.argtype.lower()}:{lx.normalize_surface(m.text)}"


def parse_surface_node(node: str) -> tuple[str, str] | None:
    """`type:normalized-surface` node id -> (type, surface), else None
    (entity ids, event ids and literals are not surface nodes)."""
    i = node.find(":")
    if i <= 0:
        return None
    t = node[:i]
    if t in lx.SURFACE_NODE_TYPES:
        return (t, node[i + 1:])
    return None


def canon_block_key(node_type: str, norm: str) -> str:
    """Entity block for the canonicalization shuffle (SURVEY §7.3 #2)."""
    return f"{node_type}|{norm[:lx.LINK_BLOCK_PREFIX]}"


def canon_merge_edges(nodes: list[str]) -> list[tuple[str, str]]:
    """Pairwise merge edges within ONE entity block: surface nodes whose
    hashed-trigram cosine >= CANON_THRESHOLD. Deterministic (sorted
    nodes, vectorized similarity); shared verbatim by the sequential
    oracle and the engine's groupby(entity_block) stage."""
    uniq = sorted(set(nodes))
    if len(uniq) < 2:
        return []
    mats = embed_surfaces([parse_surface_node(nd)[1] for nd in uniq])
    sims = mats @ mats.T
    ii, jj = np.nonzero(np.triu(sims >= lx.CANON_THRESHOLD, 1))
    return [(uniq[a], uniq[b]) for a, b in zip(ii.tolist(), jj.tolist())]


TRIPLE_COLUMNS = ("subj", "pred", "obj", "subj_type", "obj_type")


def emit_triple_columns(events: list[Event]) \
        -> tuple[tuple[list, ...], list[int]]:
    """The triple rules (the engine's equivalent of the brat frame
    emitters, report.py:260-481): Events -> one list per TRIPLE_COLUMNS
    column of (subj, pred, obj) assertions, plus each event's triple
    count, so per-event fields (provenance) are repeated by event
    index. The one emitter: :func:`emit_triples` (the oracle's dict
    form) and ``stages.triples.triples_from_events`` build on it."""
    subj, pred, obj, subj_type, obj_type = cols = ([], [], [], [], [])
    counts = []

    def add(s, p, o, st, ot):
        subj.append(s)
        pred.append(p)
        obj.append(o)
        subj_type.append(st)
        obj_type.append(ot)

    for e in events:
        n0 = len(subj)
        add(e.event_id, "event-type", e.etype, "Event", "EventType")
        add(e.event_id, "has-realis", e.realis or "Actual", "Event",
            "Realis")
        role_members: dict[str, list[tuple[Mention, str]]] = {}
        for m in e.args:
            node = canonical_obj(m)
            add(e.event_id, m.role, node, "Event", m.argtype)
            role_members.setdefault(m.role, []).append((m, node))
        for pred_name, (subj_role, obj_role) in lx.DERIVED_PREDS.items():
            if subj_role not in role_members \
                    or obj_role not in role_members:
                continue
            for ms, s in sorted(role_members[subj_role],
                                key=lambda mn: mn[0].start):
                for mo, o in sorted(role_members[obj_role],
                                    key=lambda mn: mn[0].start):
                    add(s, pred_name, o, ms.argtype, mo.argtype)
        if e.cluster and e.cluster != e.event_id:
            add(e.event_id, "same-as", e.cluster, "Event", "Event")
        counts.append(len(subj) - n0)
    return cols, counts


def emit_triples(events: list[Event]) -> list[dict]:
    """Events -> one dict per triple: the :func:`emit_triple_columns`
    columns plus the event's provenance and a unit weight (the
    oracle's form)."""
    cols, counts = emit_triple_columns(events)
    rows = zip(*cols)
    out = []
    for e, k in zip(events, counts):
        per_event = {"conv_id": e.conv_id, "turn_idx": e.turn_idx,
                     "ev_start": e.nugget_start, "ev_end": e.nugget_end,
                     "weight": 1.0}
        for _ in range(k):
            out.append({**dict(zip(TRIPLE_COLUMNS, next(rows))),
                        **per_event})
    return out


# ---------------------------------------------------------------------------
# Full per-conversation extraction (the kernel both sides agree on)
# ---------------------------------------------------------------------------


def doc_logic(conv_id: str, detections: dict[int, TurnDetection]) -> list[Event]:
    """Document-level stages over precomputed per-turn detections:
    resolve/impute triggers, link, J6 lookback. Returns events WITHOUT
    realis/roles/coref — those are separate pipeline seats.

    The reference's compatibility filter (compatible,
    link_coref.py:1128-1187: drop a mention with no compatible trigger
    within ±1 turn) has no step of its own: :func:`link_events` attaches
    a mention only to a compatible trigger of its own or the previous
    turn, so every attached mention passes that filter, and the J6
    lookback reads the unfiltered mentions anyway."""
    turn_triggers = {ti: d.triggers for ti, d in detections.items()}
    turn_mentions = {ti: d.mentions for ti, d in detections.items()}
    propagate_coref_aliases(turn_mentions, detections)
    hist = resolve_triggers(turn_triggers)
    recheck_impute(turn_triggers, turn_mentions, hist)
    impute_similarity_triggers(turn_triggers, turn_mentions, detections,
                               hist)
    events = link_events(conv_id, turn_triggers, turn_mentions)
    lookback_attach(events, turn_mentions)
    return events


def extract_conversation(conv_id: str, turns: list[dict], catalog: dict,
                         detections: dict[int, TurnDetection] | None = None,
                         fuzzy: dict | None = None) -> list[Event]:
    """turns: [{turn_idx, text, ts}] sorted by turn_idx.

    ``detections``: optional precomputed {turn_idx: TurnDetection} — the
    engine passes the tagger stage's output here; the oracle leaves it
    None and detects inline.
    """
    turn_ts: dict[int, dt.datetime] = {}
    if detections is None:
        detections = {}
        for t in turns:
            detections[t["turn_idx"]] = detect_turn_seq(t["text"], catalog,
                                                        fuzzy)
    for t in turns:
        turn_ts[t["turn_idx"]] = t.get("ts")

    events = doc_logic(conv_id, detections)
    for e in events:
        assign_roles(e)
        modal, generic = realis_window_flags(detections[e.turn_idx],
                                             e.nugget_start)
        assign_realis(e, modal, generic)
    coref_events(events, turn_ts)
    return events
