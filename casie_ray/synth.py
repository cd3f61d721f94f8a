"""Deterministic synthetic transcript corpus generator (FIXTURES.md).

Produces the three tables the tests/bench run on, derived only from the
input_hint shape in BASELINE.json plus the reference's lexicons
(``casie_ray.lexicons``): ``transcripts`` (conv_id, turn_idx, role, text,
tool, ts), ``entities`` (canonical catalog, the broadcast small side of the
linker), and ``gold_events`` (planted annotations mirroring the structure of
the reference's ``data/annotation/*.json``).

Generation is a pure function of (seed, conv_index) so it can run either
single-process (tests) or as a Ray Data ``map_batches`` over a range
dataset (bench scale) with identical output.
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import lexicons as lx
from .embed import embed_surfaces

# conversations per unit scale factor: sf0.01 -> 2,000 convs (~40k turns)
CONVS_PER_SF = 200_000
ENTITIES_PER_SF = 200_000 // 100  # 2,000 at sf=1.0 per FIXTURES ratio... scaled below
N_HOT_ENTITIES = 8

# ---------------------------------------------------------------------------
# Entity catalog
# ---------------------------------------------------------------------------

_SYL_A = ["Zor", "Vel", "Kor", "Nym", "Tal", "Qua", "Bri", "Dax", "Fen",
          "Gly", "Hul", "Jor", "Lum", "Mor", "Nix", "Oth", "Pex", "Ryn",
          "Syl", "Tro", "Ulm", "Vex", "Wyn", "Xan", "Yor", "Zen"]
_SYL_B = ["vex", "mir", "dal", "ron", "tak", "bel", "cor", "dun", "far",
          "gon", "hart", "ion", "kel", "lor", "nar", "pol", "quil", "rix",
          "sun", "tor", "ven", "wick", "xel", "yar", "zor"]
_ORG_SUFFIX = ["Inc", "Corp", "Labs", "Systems", "Group", "Networks",
               "Technologies", "Solutions", "Holdings", "Software"]
_FIRST = ["Alex", "Blake", "Casey", "Devon", "Ellis", "Finley", "Harper",
          "Indra", "Jules", "Kiran", "Logan", "Mika", "Noor", "Oakley",
          "Priya", "Quinn", "Rowan", "Sasha", "Tegan", "Uma"]
_GPES = ["Germany", "France", "Brazil", "Japan", "Canada", "India",
         "Australia", "Spain", "Italy", "Norway", "Poland", "Mexico",
         "Sweden", "Austria", "Chile", "Kenya", "Vietnam", "Portugal",
         "Ireland", "Finland"]

_TYPE_CYCLE = ["Organization", "Organization", "Organization", "Person",
               "Person", "Software", "System", "Malware", "Website",
               "Device", "GPE", "File"]


def _stem(rng: random.Random) -> str:
    return rng.choice(_SYL_A) + rng.choice(_SYL_B)


def _make_entity(i: int, seed: int) -> dict:
    rng = random.Random(f"ent:{seed}:{i}")
    etype = _TYPE_CYCLE[i % len(_TYPE_CYCLE)]
    aliases: list[str] = []
    if etype == "Organization":
        stem = _stem(rng)
        suffix = rng.choice(_ORG_SUFFIX)
        canonical = f"{stem} {suffix}"
        aliases = [stem]
    elif etype == "Person":
        canonical = f"{rng.choice(_FIRST)} {_stem(rng)}"
    elif etype == "Software":
        canonical = f"{_stem(rng)}{rng.choice(['Suite', 'Office', 'DB', 'Mail', 'CMS'])}"
    elif etype == "System":
        canonical = f"{_stem(rng)} {rng.choice(['Server', 'Cloud', 'Platform', 'Portal'])}"
    elif etype == "Malware":
        canonical = f"{_stem(rng)}{rng.choice(['Locker', 'Bot', 'Worm', 'RAT', 'Stealer'])}"
    elif etype == "Website":
        canonical = f"{_stem(rng).lower()}.{rng.choice(['com', 'net', 'io', 'org'])}"
    elif etype == "Device":
        canonical = f"{_stem(rng)} Router {rng.randint(100, 999)}"
        aliases = [canonical.rsplit(' ', 1)[0]]
    elif etype == "GPE":
        canonical = _GPES[i // len(_TYPE_CYCLE) % len(_GPES)]
    else:  # File
        canonical = f"{_stem(rng).lower()}.{rng.choice(['exe', 'doc', 'zip', 'pdf', 'xls'])}"
    return {"entity_id": f"E{i:06d}", "canonical": canonical,
            "aliases": aliases, "type": etype}


def gen_entities(n: int, seed: int = 42) -> pa.Table:
    rows = [_make_entity(i, seed) for i in range(n)]
    # drop canonical-surface collisions deterministically (keep first)
    seen: set[str] = set()
    uniq = []
    for r in rows:
        key = lx.normalize_surface(r["canonical"])
        if key in seen:
            continue
        seen.add(key)
        uniq.append(r)
    emb = embed_surfaces([lx.normalize_surface(r["canonical"]) for r in uniq])
    return pa.table({
        "entity_id": pa.array([r["entity_id"] for r in uniq]),
        "canonical": pa.array([r["canonical"] for r in uniq]),
        "aliases": pa.array([r["aliases"] for r in uniq],
                            type=pa.list_(pa.string())),
        "type": pa.array([r["type"] for r in uniq]),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(emb.reshape(-1), type=pa.float32()), emb.shape[1]),
    })


def _catalog_by_type(entities: pa.Table) -> dict[str, list[dict]]:
    # the generator never reads the embeddings; converting them would
    # dominate the call
    by_type: dict[str, list[dict]] = {}
    for r in entities.drop_columns(["embedding"]).to_pylist():
        by_type.setdefault(r["type"], []).append(r)
    return by_type


# ---------------------------------------------------------------------------
# Sentence templates. Each template is a list of parts; a part is either a
# literal string (tokens joined by spaces) or a slot tuple
# ("ARG", arg_type, role) / ("TRIG", event_type) / ("TRIGGEN",) for a
# generic-surface trigger. Slots are filled by `_fill`.
# ---------------------------------------------------------------------------

def _untyped_trigger_surfaces() -> dict[str, list[str]]:
    """event type -> surfaces that map unambiguously to it (and are not
    also argument-phrase surfaces: the argument-wins rule would eat them,
    link_coref.py:613-614)."""
    out: dict[str, list[str]] = {t: [] for t in lx.TRIGGER_TYPES}
    for surf, types in sorted(lx.TRIGGER_SURFACES.items()):
        if len(types) == 1 and types[0] in out \
                and surf not in lx.ARG_PHRASE_SURFACES:
            out[types[0]].append(surf)
    return out


UNAMBIG_TRIGGERS = _untyped_trigger_surfaces()

A = lambda t, r: ("ARG", t, r)  # noqa: E731
T = ("TRIG",)

# templates: (event_type, realis, parts)
TEMPLATES: list[tuple[str, str, list]] = [
    ("Databreach", "Actual",
     [A("Organization", "Attacker"), T, A("Data", "Compromised-Data"),
      "from", A("Organization", "Victim"), "in", A("Time", "Time"), "."]),
    ("Databreach", "Actual",
     [A("Person", "Attacker"), T, "the", A("PII", "Compromised-Data"),
      "of", A("Number", "Number-of-victim"), "customers", "from",
      A("System", "Victim"), "."]),
    ("Databreach", "Other",
     ["they", "may", "have", T, A("Data", "Compromised-Data"), "belonging",
      "to", A("Organization", "Victim"), "."]),
    ("Databreach", "Generic",
     ["attackers", "typically", T, A("Data", "Compromised-Data"),
      "through", "unsecured", "databases", "."]),
    ("Phishing", "Actual",
     [A("Person", "Attacker"), T, A("Person", "Victim"),
      "with", "a", "fake", A("Website", "Trusted-Entity"), "page", "."]),
    ("Phishing", "Actual",
     [A("Organization", "Attacker"), T, "emails", "to",
      A("Number", "Number-of-Victim"), "employees", "of",
      A("Organization", "Victim"), "."]),
    ("Phishing", "Other",
     ["the", "group", "could", T, A("Person", "Victim"), "using",
      A("File", "Trusted-Entity"), "."]),
    ("Ransom", "Actual",
     [A("Malware", "Tool"), "operators", "are", T, A("Money", "Ransom-Price"),
      "from", A("Organization", "Victim"), "."]),
    ("Ransom", "Actual",
     ["attackers", "are", T, A("Money", "Ransom-Price"), "in",
      A("PaymentMethod", "Payment-Method"), "from",
      A("Organization", "Victim"), "."]),
    ("Ransom", "Other",
     ["the", "gang", "might", "be", T, A("Money", "Ransom-Price"),
      "from", A("Device", "Victim"), "owners", "."]),
    ("DiscoverVulnerability", "Actual",
     [A("Person", "Discoverer"), T, "a", A("Vulnerability", "Vulnerability"),
      "in", A("System", "Vulnerable-System"), "tracked", "as",
      A("CVE", "CVE"), "."]),
    ("DiscoverVulnerability", "Actual",
     [A("Organization", "Attacker"), T, "that",
      A("Software", "Vulnerable-System"), A("Version", "Vulnerable-System-Version"),
      "contains", "a", A("Vulnerability", "Vulnerability"), "."]),
    ("DiscoverVulnerability", "Other",
     ["researchers", "suspected", "and", "later", T, "a",
      A("Vulnerability", "Vulnerability"), "in", A("Device", "Vulnerable-System"),
      "."]),
    ("PatchVulnerability", "Actual",
     [A("Organization", "Patch-Releaser"), T, "a", A("Patch", "Patch"),
      "for", A("CVE", "CVE"), "in", A("Software", "Vulnerable-System"), "."]),
    ("PatchVulnerability", "Actual",
     [A("Organization", "Patch-Releaser"), T, "the",
      A("Vulnerability", "Vulnerability"), "in",
      A("System", "Vulnerable-System"), "with", "version",
      A("Version", "Patch-Number"), "."]),
    ("PatchVulnerability", "Other",
     [A("Organization", "Patch-Releaser"), "may", T, "a",
      A("Patch", "Patch"), "for", A("Device", "Vulnerable-System"),
      "next", "month", "."]),
]

# Imputation templates (one per event type): the "trigger" is a word NOT
# in any lexicon whose hashed-trigram maxsim against WORDSET[etype]
# clears SIM_CUTOFF with that etype as the unambiguous argmax (verified
# by tests/test_semantics.py) — exercising the O2 similarity-imputation
# path (findanytrigger, link_coref.py:922-1023). Scheduled only AFTER an
# event of the same type in the conversation so the document-histogram
# precondition holds. Literal words are verified to stay BELOW the
# cutoff so the planted word is always the imputation winner.
IMPUTED_TEMPLATES: dict[str, tuple[str, str, list]] = {
    "Databreach": ("Databreach", "Actual",
                   ["the", ("IMP", "interception"), "of",
                    A("Data", "Compromised-Data"), "at",
                    A("Organization", "Victim"), "was", "confirmed", "."]),
    "Phishing": ("Phishing", "Actual",
                 ["the", ("IMP", "impersonation"), "of",
                  A("Organization", "Victim"), "fooled",
                  A("Number", "Number-of-Victim"), "employees", "."]),
    "Ransom": ("Ransom", "Actual",
               [A("Malware", "Tool"), ("IMP", "infected"),
                A("Device", "Victim"), "fleet", "at",
                A("Organization", "Victim"), "."]),
    "DiscoverVulnerability": ("DiscoverVulnerability", "Actual",
                              ["the", ("IMP", "investigation"), "into",
                               A("System", "Vulnerable-System"), "was",
                               "led", "by", A("Person", "Discoverer"),
                               "."]),
    "PatchVulnerability": ("PatchVulnerability", "Actual",
                           ["the", ("IMP", "announcement"), "covers",
                            A("Software", "Vulnerable-System"),
                            A("Version", "Patch-Number"), "for",
                            A("Organization", "Vulnerable-System-Owner"),
                            "."]),
}

# trigger surfaces safe for each (etype, realis) — modal/generic realis
# relies on context words in the template, so any unambiguous surface works.
_FILLER = [
    "can you check the cluster logs for anything unusual",
    "sure, pulling the records now",
    "the scan completed with no alerts overnight",
    "thanks, let me know when the ticket is closed",
    "please rotate the api keys for the staging environment",
    "restarting the ingest workers changed nothing so far",
    "the dashboard latency looks normal again",
    "i opened an internal ticket with the infra team",
    "metrics are flat over the weekend window",
    "the on-call rotation changes at midnight",
    "backup verification passed on all volumes",
    "we should review the firewall rules together in the morning",
]

_TOOL_NAMES = ["search_logs", "query_siem", "fetch_ticket", "scan_host",
               "lookup_ioc"]
_ROLES = ["user", "assistant", "user", "assistant", "system", "tool"]


# novel threat-actor orgs NOT in the entity catalog: distinct syllable
# pools (no stem collisions with catalog entities) so they exercise the
# unlinked-surface canonicalization path, with a deterministic "Intl"
# variant form that the union-find must merge with the base form
_NOVEL_A = ["Bram", "Crev", "Dosk", "Ferr", "Gath", "Hesk", "Jilt",
            "Kresh", "Lorn", "Marv", "Nesk", "Ostr", "Prill", "Quell",
            "Rosk", "Stell", "Tarn", "Umbr", "Wrenn", "Yex"]
_NOVEL_B = ["ado", "eck", "illo", "ost", "urn", "ave", "ingol", "oll",
            "usk", "entor"]
_NOVEL_SUFFIX = ["Group", "Syndicate", "Collective", "Partners"]


def novel_org_base(j: int, seed: int) -> str:
    rng = random.Random(f"novel:{seed}:{j}")
    return (rng.choice(_NOVEL_A) + rng.choice(_NOVEL_B) + " "
            + rng.choice(_NOVEL_SUFFIX))


def n_novel_orgs(n_ents: int) -> int:
    return max(8, n_ents // 10)


def _fill_arg(rng: random.Random, argtype: str, cat: dict[str, list[dict]],
              hot: list[dict], n_novel: int = 8, seed: int = 42) -> str:
    """Pick a surface for an argument slot. Catalog types draw an entity
    (hot entities with boosted probability); literal types synthesize.
    Organizations sometimes surface as novel (uncataloged) orgs or as
    fuzzy 'Intl' variants of catalog orgs — exercising the blocked
    fuzzy linker and the canonicalization union-find."""
    if argtype == "Organization":
        r = rng.random()
        if r < 0.10:
            base = novel_org_base(rng.randrange(n_novel), seed)
            return base + " Intl" if rng.random() < 0.4 else base
        if r < 0.16:
            ent = cat[argtype][rng.randrange(len(cat[argtype]))]
            return ent["canonical"] + " Intl"
    if argtype in cat:
        pool = cat[argtype]
        hot_pool = [e for e in hot if e["type"] == argtype]
        if hot_pool and rng.random() < 0.25:
            ent = rng.choice(hot_pool)
        else:
            ent = pool[rng.randrange(len(pool))]
        if ent["aliases"] and rng.random() < 0.3:
            return rng.choice(ent["aliases"])
        return ent["canonical"]
    if argtype == "CVE":
        return f"CVE-{rng.randint(2015, 2019)}-{rng.randint(1000, 99999)}"
    if argtype == "Version":
        return f"{rng.randint(1, 12)}.{rng.randint(0, 9)}.{rng.randint(0, 20)}"
    if argtype == "Money":
        return f"${rng.randint(1, 900) * 1000:,}"
    if argtype == "Number":
        if rng.random() < 0.3:
            # English numeral phrase -> exercises txt2int
            # (link_coref.py:334-362): canonicalizes to digits
            return rng.choice(["three million", "two hundred thousand",
                               "fifty thousand", "five hundred", "dozens"])
        return f"{rng.randint(2, 900) * 100:,}"
    if argtype == "Time":
        return rng.choice(lx.MONTHS).capitalize() + f" {rng.randint(2015, 2019)}"
    if argtype == "Data":
        return rng.choice(lx.DATA_PHRASES)
    if argtype == "PII":
        return rng.choice(lx.PII_PHRASES)
    if argtype == "Vulnerability":
        return rng.choice(lx.GENERAL_ARG["Vulnerability"][:4])
    if argtype == "Patch":
        return "patch"
    if argtype == "PaymentMethod":
        return rng.choice(lx.PAYMENT_METHODS[:3])
    if argtype == "Capabilities":
        return rng.choice(lx.CAPABILITY_PHRASES)
    raise ValueError(argtype)


def _render_event(rng: random.Random, template, cat, hot,
                  n_novel: int = 8, seed: int = 42):
    """Instantiate a template -> (text, nugget dict, [arg dicts])."""
    etype, realis, parts = template
    tokens: list[str] = []
    pos = 0
    nugget = None
    args = []

    def emit(s: str):
        nonlocal pos
        start = pos
        tokens.append(s)
        pos += len(s) + 1
        return start, pos - 1

    for part in parts:
        if part == T:
            surf = rng.choice(UNAMBIG_TRIGGERS[etype])
            s, e = emit(surf)
            nugget = {"text": surf, "start": s, "end": e}
        elif isinstance(part, tuple) and part[0] == "ALIAS":
            # bare coref alias of an earlier multi-token mention: the
            # extractor must recover type+link via chain propagation
            # (M12, parseJsontoFeatures.py:60-106), not the catalog
            _, surf, argtype, arole = part
            s, e = emit(surf)
            args.append({"text": surf, "start": s, "end": e,
                         "type": argtype, "role": arole})
        elif isinstance(part, tuple) and part[0] == "IMP":
            # unlexiconed trigger-like word: the extractor must recover
            # it via similarity imputation (O2), not the lexicon
            s, e = emit(part[1])
            nugget = {"text": part[1], "start": s, "end": e}
        elif isinstance(part, tuple) and part[0] == "ARG":
            _, argtype, role = part
            surf = _fill_arg(rng, argtype, cat, hot, n_novel, seed)
            s, e = emit(surf)
            args.append({"text": surf, "start": s, "end": e,
                         "type": argtype, "role": role})
        else:
            emit(part)
    return " ".join(tokens), etype, realis, nugget, args


def _single_token_surfaces(cat: dict[str, list[dict]]) -> frozenset[str]:
    """Lowercased single-token catalog surfaces (canonicals + aliases):
    a planted bare-surname alias colliding with one of these would be
    claimed by the catalog matcher as that entity instead of reaching
    the coref-propagation path, so plants avoid them."""
    out: set[str] = set()
    for ents in cat.values():
        for ent in ents:
            for surf in [ent["canonical"], *ent["aliases"]]:
                if " " not in surf:
                    out.add(surf.lower())
    return frozenset(out)


def gen_conversation(conv_index: int, cat: dict[str, list[dict]],
                     hot: list[dict], seed: int = 42, n_novel: int = 8,
                     blocked: frozenset[str] | None = None):
    """Pure function -> (transcript rows, gold event rows) for one conv."""
    if blocked is None:
        blocked = _single_token_surfaces(cat)
    rng = random.Random(f"conv:{seed}:{conv_index}")
    conv_id = f"c{conv_index:08d}"
    is_hot_conv = conv_index % 100 == 7
    n_turns = rng.randint(5, 40) * (10 if is_hot_conv else 1)
    start = dt.datetime(2017, 1, 1) + dt.timedelta(
        seconds=rng.randint(0, 3 * 365 * 24 * 3600))

    n_events = min(rng.randint(0, 5) + (3 if is_hot_conv else 0), n_turns)
    event_turns = sorted(rng.sample(range(n_turns), n_events))

    t_rows, g_rows = [], []
    ts = start
    # turn_idx -> (rendered_event, hopper_id) replayed verbatim for coref
    pending_repeat: dict[int, tuple] = {}
    # turn_idx -> event type for an imputed-trigger echo turn (O2)
    pending_impute: dict[int, str] = {}
    # turn_idx -> (etype, surname, role): a follow-up event referencing a
    # person by bare surname — only coref-chain propagation (M12) can
    # type and link it
    pending_alias: dict[int, tuple[str, str, str]] = {}
    # turn_idx -> (etype, borrowed-arg dict): a bare-trigger turn whose
    # only argument must be borrowed from 2 turns back (J6 lookback)
    pending_lookback: dict[int, tuple[str, dict]] = {}

    for ti in range(n_turns):
        ts += dt.timedelta(seconds=rng.randint(10, 300))
        role = _ROLES[(conv_index + ti) % len(_ROLES)]
        tool = rng.choice(_TOOL_NAMES) if role == "tool" else None
        sent_parts = []

        planted = None
        lookback_arg = None
        if ti in event_turns:
            template = TEMPLATES[rng.randrange(len(TEMPLATES))]
            planted = (_render_event(rng, template, cat, hot, n_novel, seed),
                       f"{conv_id}:h{ti}")
        elif ti in pending_repeat:
            planted = pending_repeat.pop(ti)
        elif ti in pending_impute:
            etype_imp = pending_impute.pop(ti)
            planted = (_render_event(rng, IMPUTED_TEMPLATES[etype_imp],
                                     cat, hot, n_novel, seed),
                       f"{conv_id}:hi{ti}")
        elif ti in pending_alias:
            etype_al, surname, arole = pending_alias.pop(ti)
            tmpl = (etype_al, "Actual",
                    [("ALIAS", surname, "Person", arole), "also", T,
                     "according", "to", "the", "team", "."])
            planted = (_render_event(rng, tmpl, cat, hot, n_novel, seed),
                       f"{conv_id}:ha{ti}")
        elif ti in pending_lookback:
            etype_lb, barg = pending_lookback.pop(ti)
            tmpl = (etype_lb, "Actual",
                    ["the", T, "was", "confirmed", "by", "the", "team",
                     "."])
            rendered = _render_event(rng, tmpl, cat, hot, n_novel, seed)
            text_lb, _, realis_lb, nug_lb, _ = rendered
            # gold: nugget in THIS turn, argument borrowed verbatim
            # (span in its source turn) via the J6 lookback path
            planted = ((text_lb, etype_lb, realis_lb, nug_lb, []),
                       f"{conv_id}:hl{ti}")
            lookback_arg = barg

        if planted is None or rng.random() < 0.5:
            sent_parts.append(rng.choice(_FILLER) + " .")

        if planted is not None:
            rendered, hopper_id = planted
            text, etype, realis, nugget, args = rendered
            offset = sum(len(s) + 1 for s in sent_parts)
            sent_parts.append(text)
            nug_abs = {"text": nugget["text"],
                       "start": nugget["start"] + offset,
                       "end": nugget["end"] + offset}
            args_abs = [{**a, "start": a["start"] + offset,
                         "end": a["end"] + offset} for a in args]
            if lookback_arg is not None:
                args_abs = [lookback_arg]   # span stays in its source turn
            g_rows.append({
                "conv_id": conv_id, "turn_idx": ti, "hopper_id": hopper_id,
                "event_id": f"{conv_id}:{ti}:{nug_abs['start']}",
                "subtype": etype, "realis": realis, "nugget": nug_abs,
                "arguments": args_abs,
            })
            # restate the same event soon after -> coref pair (same hopper)
            if (ti in event_turns and realis == "Actual"
                    and rng.random() < 0.25 and ti + 2 < n_turns):
                later = ti + rng.randint(1, min(3, n_turns - ti - 1))
                if later not in event_turns and later not in pending_repeat:
                    pending_repeat[later] = (rendered, hopper_id)
            # follow up with an unlexiconed-trigger echo -> exercises the
            # O2 similarity-imputation path (same etype, so the document
            # histogram supports it)
            if (ti in event_turns and realis == "Actual"
                    and rng.random() < 0.2 and ti + 2 < n_turns):
                later = ti + rng.randint(1, min(3, n_turns - ti - 1))
                if later not in event_turns and later not in pending_repeat \
                        and later not in pending_impute:
                    pending_impute[later] = etype
            # follow up referencing a person by bare SURNAME -> exercises
            # coref-chain alias propagation (M12)
            if ti in event_turns and realis == "Actual" and ti + 2 < n_turns:
                people = [a for a in args_abs
                          if a["type"] == "Person"
                          and len(a["text"].split(" ")) == 2
                          and a["text"].split(" ")[-1].isalpha()
                          and len(a["text"].split(" ")[-1]) >= 4
                          and a["text"].split(" ")[-1].lower()
                          not in blocked]
                if people and rng.random() < 0.3 and etype in (
                        "Databreach", "Phishing", "DiscoverVulnerability"):
                    later = ti + rng.randint(1, min(3, n_turns - ti - 1))
                    if later not in event_turns \
                            and later not in pending_repeat \
                            and later not in pending_impute \
                            and later not in pending_alias:
                        arole = ("Discoverer"
                                 if etype == "DiscoverVulnerability"
                                 else "Attacker")
                        pending_alias[later] = (
                            etype, people[0]["text"].split(" ")[-1], arole)
            # follow up with a BARE trigger two turns later whose only
            # argument sits back in this turn -> exercises the J6
            # nearest-preceding-NE lookback
            if (ti in event_turns and realis == "Actual"
                    and rng.random() < 0.2 and ti + 2 < n_turns):
                later = ti + 2
                compat = [a for a in args_abs
                          if a["type"] in lx.PAIR[etype]]
                roles_of = (lx.ROLE_PAIR[etype].get(compat[-1]["type"])
                            if compat else None)
                if (compat and roles_of and len(roles_of) == 1
                        and later not in event_turns
                        and later not in pending_repeat
                        and later not in pending_impute
                        and later not in pending_alias
                        and later not in pending_lookback):
                    pending_lookback[later] = (
                        etype, {**compat[-1], "role": roles_of[0]})

        text = " ".join(sent_parts) if sent_parts else rng.choice(_FILLER) + " ."
        t_rows.append({"conv_id": conv_id, "turn_idx": ti, "role": role,
                       "text": text, "tool": tool, "ts": ts})
    return t_rows, g_rows


# ---------------------------------------------------------------------------
# Corpus assembly
# ---------------------------------------------------------------------------

TRANSCRIPT_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("role", pa.string()), ("text", pa.string()), ("tool", pa.string()),
    ("ts", pa.timestamp("us")),
])

GOLD_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("hopper_id", pa.string()), ("event_id", pa.string()),
    ("subtype", pa.string()), ("realis", pa.string()),
    ("nugget", pa.struct([("text", pa.string()), ("start", pa.int32()),
                          ("end", pa.int32())])),
    ("arguments", pa.list_(pa.struct([
        ("text", pa.string()), ("start", pa.int32()), ("end", pa.int32()),
        ("type", pa.string()), ("role", pa.string())]))),
])


def n_convs(sf: float) -> int:
    return max(8, int(CONVS_PER_SF * sf))


def n_entities(sf: float) -> int:
    return max(120, int(2_000 * (sf / 0.01) ** 0.5))


def conv_batch(conv_indices, entities: pa.Table, seed: int = 42):
    """Generate a batch of conversations -> (transcripts, gold) tables."""
    cat = _catalog_by_type(entities)
    hot = entities.slice(0, N_HOT_ENTITIES).to_pylist()
    n_novel = n_novel_orgs(entities.num_rows)
    blocked = _single_token_surfaces(cat)
    t_all, g_all = [], []
    for ci in conv_indices:
        t, g = gen_conversation(int(ci), cat, hot, seed, n_novel, blocked)
        t_all.extend(t)
        g_all.extend(g)
    t_tbl = pa.Table.from_pylist(t_all, schema=TRANSCRIPT_SCHEMA)
    g_tbl = pa.Table.from_pylist(g_all, schema=GOLD_SCHEMA) if g_all else \
        GOLD_SCHEMA.empty_table()
    return t_tbl, g_tbl


def generate(sf: float, out_dir: str, seed: int = 42,
             shard_rows: int = 6_000) -> dict:
    """Write transcripts/entities/gold_events parquet under out_dir.

    Single-process but shard-at-a-time (bounded memory); sharded output
    directories so the engine reads many fragments (parallel read) —
    mirrors how a 100 TB corpus would arrive as many parquet shards.
    """
    os.makedirs(out_dir, exist_ok=True)
    entities = gen_entities(n_entities(sf), seed)
    pq.write_table(entities, os.path.join(out_dir, "entities.parquet"))

    nc = n_convs(sf)
    tdir = os.path.join(out_dir, "transcripts")
    gdir = os.path.join(out_dir, "gold_events")
    os.makedirs(tdir, exist_ok=True)
    os.makedirs(gdir, exist_ok=True)
    # ~20 turns avg per conv -> convs per shard
    convs_per_shard = max(64, shard_rows // 20)
    total_turns = 0
    shard = 0
    for lo in range(0, nc, convs_per_shard):
        idxs = range(lo, min(lo + convs_per_shard, nc))
        t_tbl, g_tbl = conv_batch(idxs, entities, seed)
        pq.write_table(t_tbl, os.path.join(tdir, f"part-{shard:05d}.parquet"))
        pq.write_table(g_tbl, os.path.join(gdir, f"part-{shard:05d}.parquet"))
        total_turns += t_tbl.num_rows
        shard += 1
    return {"conversations": nc, "turns": total_turns,
            "entities": entities.num_rows, "shards": shard,
            "out_dir": out_dir}


def generate_ray(sf: float, out_dir: str, seed: int = 42,
                 shard_rows: int = 6_000) -> dict:
    """Parallel corpus generation on an existing Ray session: one task
    per output shard, each a pure function of (seed, conv range, entity
    table) — byte-identical to :func:`generate` output. The generator is
    a fixture builder, not an engine pipeline, so plain Ray tasks are
    appropriate here."""
    import ray

    os.makedirs(out_dir, exist_ok=True)
    entities = gen_entities(n_entities(sf), seed)
    pq.write_table(entities, os.path.join(out_dir, "entities.parquet"))
    nc = n_convs(sf)
    tdir = os.path.join(out_dir, "transcripts")
    gdir = os.path.join(out_dir, "gold_events")
    os.makedirs(tdir, exist_ok=True)
    os.makedirs(gdir, exist_ok=True)
    convs_per_shard = max(64, shard_rows // 20)
    ent_ref = ray.put(entities)

    @ray.remote(num_cpus=1)
    def write_shard(shard: int, lo: int, hi: int) -> int:
        ent = ray.get(ent_ref)
        t_tbl, g_tbl = conv_batch(range(lo, hi), ent, seed)
        pq.write_table(t_tbl, os.path.join(tdir, f"part-{shard:05d}.parquet"))
        pq.write_table(g_tbl, os.path.join(gdir, f"part-{shard:05d}.parquet"))
        return t_tbl.num_rows

    futures = []
    for shard, lo in enumerate(range(0, nc, convs_per_shard)):
        futures.append(write_shard.remote(shard, lo,
                                          min(lo + convs_per_shard, nc)))
    counts = ray.get(futures)
    return {"conversations": nc, "turns": int(sum(counts)),
            "entities": entities.num_rows, "shards": len(counts),
            "out_dir": out_dir}


_CACHE_ROOT = "/tmp/casie_fixtures"


def sf_from_dir(sf_dir: str) -> float:
    """Parse the scale factor from a path like .../sf0.01."""
    import re
    m = re.search(r"sf([0-9.]+)", os.path.basename(os.path.normpath(sf_dir)))
    return float(m.group(1)) if m else 0.01


def ensure_corpus(sf: float, seed: int = 42, root: str = _CACHE_ROOT) -> str:
    """Generate-once cache of the synthetic corpus for a scale factor.
    Uses the parallel generator when a Ray session is active."""
    out_dir = os.path.join(root, f"sf{sf:g}_seed{seed}")
    marker = os.path.join(out_dir, "_COMPLETE")
    if not os.path.exists(marker):
        import ray
        if ray.is_initialized():
            generate_ray(sf, out_dir, seed)
        else:
            generate(sf, out_dir, seed)
        with open(marker, "w") as f:
            f.write("ok")
    return out_dir


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf", type=float, default=0.01)
    ap.add_argument("--out", default=None)
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    if args.out:
        info = generate(args.sf, args.out, args.seed)
    else:
        out = ensure_corpus(args.sf, args.seed)
        info = {"out_dir": out}
    print(info)


if __name__ == "__main__":
    main()
