"""Curated lexicons and compatibility tables for the CASIE-style extractor.

These are *data* (what to compute), taken from the reference's published
tables so that the engine recognizes the same event/argument vocabulary:

- ``TRIGGER_TYPES`` / ``ARG_TYPES``: reference ``code/link_coref.py:35-37``
- ``PAIR`` (event-type -> compatible argument types): ``code/link_coref.py:38-42``
- ``WORDSET`` (per-event-type trigger seed words): ``code/link_coref.py:43-47``
- ``GENERAL_N`` (general trigger nouns): ``code/link_coref.py:48-50``
- ``DO_NOTHING`` / ``GENERAL_ARG``: ``code/link_coref.py:51-57``
- ``ROLE_PAIR`` (event-type x arg-type -> candidate roles): ``code/link_coref.py:59-81``
- ``MAX_LENGTH`` (per-event-type max role-phrase length): ``code/link_coref.py:82``
- Version / CVE regexes: ``code/parseJsontoFeatures.py:186,225``
- coref weights / threshold: ``code/link_coref.py:2041-2042``

Everything else in this module (inflection expansion, normalization,
time/number vocab) is engine infrastructure, built fresh.
"""

from __future__ import annotations

import functools
import re

TRIGGER_TYPES = [
    "Databreach",
    "DiscoverVulnerability",
    "PatchVulnerability",
    "Phishing",
    "Ransom",
]

ARG_TYPES = [
    "Patch", "Data", "Money", "Time", "Organization", "GPE", "File",
    "Version", "Person", "Vulnerability", "PaymentMethod", "CVE", "Device",
    "Website", "System", "Number", "PII", "Malware", "Capabilities",
    "Purpose", "Software",
]

# event type -> argument types that may attach to it (link_coref.py:38-42)
PAIR = {
    "Phishing": ["Capabilities", "File", "GPE", "Money", "Number",
                 "Organization", "Person", "Website", "System", "PII",
                 "Malware", "Purpose", "Time", "Data", "Software"],
    "Ransom": ["Capabilities", "Money", "Time", "Organization", "GPE",
               "File", "Person", "PaymentMethod", "Device", "System",
               "Number", "Malware", "Website", "Software"],
    "Databreach": ["Data", "Money", "Time", "Organization", "GPE", "File",
                   "Person", "Device", "System", "Number", "Website", "PII",
                   "Malware", "Capabilities", "Purpose", "Software"],
    "DiscoverVulnerability": ["Time", "Organization", "Version", "Person",
                              "Vulnerability", "CVE", "Device", "System",
                              "Capabilities", "Website", "Software"],
    "PatchVulnerability": ["Time", "Organization", "Version", "Person",
                           "Vulnerability", "CVE", "Device", "System",
                           "Capabilities", "Patch", "Website", "Software"],
}

# per-event-type trigger seed words (link_coref.py:43-47)
WORDSET = {
    "DiscoverVulnerability": [
        "find", "publish", "identify", "demonstrate", "discover",
        "investigate", "observe", "uncover", "notice", "notify",
        "acknowledge", "exist", "report", "say", "exploit", "reside",
        "study", "reveal", "disclose", "expose", "declare", "introduce",
        "develop", "exposure", "explain", "describe", "vulnerable",
        "appear", "suggest", "indicate"],
    "PatchVulnerability": [
        "install", "firmware", "reportedly", "note", "deploy", "reveal",
        "develop", "build", "address", "resolve", "announce", "release",
        "update", "bug", "fix", "issue", "improve", "distribute"],
    "Databreach": [
        "eavesdrop", "intercept", "credential-harvesting", "leakage",
        "dump", "sold", "harvest", "corrupted", "copied", "collecting",
        "handed", "published", "grab", "steal", "privacy", "obtain",
        "pilfered", "collected", "sensitive", "circulated", "compromised",
        "allegedly", "unauthorized"],
    "Ransom": [
        "asking", "demanding", "payment", "ransom", "bitcoin", "provide",
        "refusing", "paying", "effort", "holding", "payout", "infects",
        "disrupted", "requesting", "stating", "instruct", "extorting",
        "wannacry"],
    "Phishing": [
        "appear", "defraud", "trick", "hit", "phishing", "lure", "claim",
        "pose", "load", "display", "distribute", "redirect", "disguise",
        "pretending", "serve", "impersonate", "create", "scam", "dupe",
        "sent", "craft", "misleading"],
}

# general trigger nouns (link_coref.py:48-50); 'general' entries resolve
# their event type from the document trigger histogram.
GENERAL_N = {
    "general": ["attack", "attacks", "cyberattacks", "cyber-attack",
                "incident", "incidents", "threats"],
    "Databreach": ["breach", "breaches"],
    "PatchVulnerability": ["patch", "patches"],
}

# arg types per event type that skip model role prediction (link_coref.py:51-55)
DO_NOTHING = {
    "Databreach": ["Time", "Purpose", "Capabilities"],
    "Phishing": ["Money", "Time", "Purpose", "Capabilities"],
    "Ransom": ["Time", "Purpose", "Capabilities"],
    "PatchVulnerability": ["Time", "Purpose", "Capabilities"],
    "DiscoverVulnerability": ["Person", "Time", "Purpose", "Capabilities"],
}

# generic argument nouns (link_coref.py:57)
GENERAL_ARG = {
    "Vulnerability": ["flaw", "flaws", "issues", "issue", "bug", "bugs",
                      "vulnerability", "vulnerabilities"],
    "Patch": ["patch", "release", "update"],
}

# event type x argument type -> candidate semantic roles (link_coref.py:59-81).
# Values normalized to lists (the reference has one bare-string entry).
# Engine extension: PAIR admits Software everywhere (link_coref.py:38-42)
# but the reference RolePair has no Software row (its role model decided);
# we mirror the System row per event type (added below after the literal).
ROLE_PAIR = {
    "Phishing": {
        "Capabilities": ["Attack-Pattern"], "File": ["Trusted-Entity", "Tool"],
        "GPE": ["Place"], "Money": ["Damage-Amount"],
        "Number": ["Number-of-Victim"],
        "Organization": ["Attacker", "Victim", "Trusted-Entity"],
        "Person": ["Attacker", "Victim", "Trusted-Entity"],
        "Website": ["Trusted-Entity", "Tool"], "System": ["Trusted-Entity"],
        "PII": ["Trusted-Entity"], "Malware": ["Tool"],
        "Purpose": ["Purpose"], "Time": ["Time"], "Data": ["Trusted-Entity"],
    },
    "Ransom": {
        "Capabilities": ["Attack-Pattern"], "Money": ["Ransom-Price"],
        "Time": ["Time"], "Organization": ["Attacker", "Victim"],
        "GPE": ["Place"], "File": ["Tool"], "Person": ["Attacker", "Victim"],
        "PaymentMethod": ["Payment-Method"], "Device": ["Victim"],
        "System": ["Victim"], "Number": ["Number-of-Victim"],
        "Malware": ["Tool"], "Website": ["Victim"],
    },
    "Databreach": {
        "Data": ["Compromised-Data"], "Money": ["Damage-Amount"],
        "Time": ["Time"], "Organization": ["Attacker", "Victim"],
        "GPE": ["Place"], "File": ["Tool"], "Person": ["Attacker", "Victim"],
        "Device": ["Victim"], "System": ["Victim"],
        "Number": ["Number-of-victim", "Number-of-Compromised-Data"],
        "Website": ["Victim"], "PII": ["Compromised-Data"],
        "Malware": ["Tool"], "Capabilities": ["Attack-Pattern"],
        "Purpose": ["Purpose"],
    },
    "DiscoverVulnerability": {
        "Time": ["Time"], "Organization": ["Attacker", "Victim"],
        "Version": ["Vulnerable-System-Version"],
        "Person": ["Discoverer", "Vulnerable-System-Owner"],
        "Vulnerability": ["Vulnerability"], "CVE": ["CVE"],
        "Device": ["Vulnerable-System", "Supported-Platform"],
        "System": ["Vulnerable-System", "Supported-Platform"],
        "Capabilities": ["Capabilities"],
        "Website": ["Vulnerable-System", "Supported-Platform"],
    },
    "PatchVulnerability": {
        "Time": ["Time"],
        "Organization": ["Patch-Releaser", "Vulnerable-System-Owner"],
        "Version": ["Patch-Number", "Vulnerable-System-Version"],
        "Person": ["Patch-Releaser", "Vulnerable-System-Owner"],
        "Vulnerability": ["Vulnerability"], "CVE": ["CVE"],
        "Device": ["Vulnerable-System", "Supported-Platform"],
        "System": ["Vulnerable-System", "Supported-Platform"],
        "Capabilities": ["Issues-Addressed"], "Patch": ["Patch"],
        "Website": ["Vulnerable-System", "Supported-Platform"],
    },
}

for _etype, _row in ROLE_PAIR.items():
    _row.setdefault("Software", list(_row["System"]))

# per-event-type maximum role-phrase token length (link_coref.py:82)
MAX_LENGTH = {"Databreach": 8, "Phishing": 6, "Ransom": 7,
              "DiscoverVulnerability": 8, "PatchVulnerability": 7}

# event coreference distance weights + threshold (link_coref.py:2041-2042)
COREF_WEIGHTS = [0.141, 0.177, 0.14, 0.148, 0.112, 0.141, 0.141]
COREF_THRESHOLD = 0.75

# trigger-imputation similarity cutoff (link_coref.py:997)
SIM_CUTOFF = 0.68

# regexes (parseJsontoFeatures.py:186,225); anchored for whole-token match
CVE_RE = re.compile(r"^CVE-\d+-\d+$")
VERSION_RE = re.compile(r"^(v)?\d+\.\d+(\.\d+)*$")
MONEY_RE = re.compile(r"^\$\d[\d,]*(\.\d+)?[MKBmkb]?$")
NUMERIC_RE = re.compile(r"^\d[\d,]*$")
YEAR_RE = re.compile(r"^(19|20)\d\d$")

# ---------------------------------------------------------------------------
# Engine-side vocabulary (new, not from the reference): typed phrase
# lexicons used by both the synthetic generator and the deterministic
# tagger that stands in for CASIE's unavailable neural models (SURVEY §7.0).
# ---------------------------------------------------------------------------

PII_PHRASES = [
    "social security numbers", "credit card numbers", "email addresses",
    "phone numbers", "medical records", "personal information",
    "personally identifiable information", "home addresses",
    "dates of birth", "health records",
]
DATA_PHRASES = [
    "customer data", "user data", "credentials", "login credentials",
    "financial data", "passwords", "account details", "payment data",
    "user records", "customer records", "corporate data", "source code",
]
CAPABILITY_PHRASES = [
    "remote code execution", "arbitrary code execution",
    "privilege escalation", "denial of service", "code execution",
    "information disclosure", "memory corruption",
]
PAYMENT_METHODS = ["bitcoin", "bitcoins", "cryptocurrency", "monero",
                   "gift cards", "wire transfer", "paypal"]

MONTHS = ["january", "february", "march", "april", "may", "june", "july",
          "august", "september", "october", "november", "december"]
WEEKDAYS = ["monday", "tuesday", "wednesday", "thursday", "friday",
            "saturday", "sunday"]
RELATIVE_TIME = ["yesterday", "today", "tomorrow", "last week",
                 "last month", "last year", "this week", "this month",
                 "this year", "earlier this year", "earlier this week",
                 "recently"]

# English numeral parsing (txt2int, link_coref.py:334-362): each word
# maps to (scale, increment); current = current*scale + increment, and a
# scale > 100 flushes current into the running total.
def _build_numwords() -> dict[str, tuple[int, int]]:
    units = ["zero", "one", "two", "three", "four", "five", "six",
             "seven", "eight", "nine", "ten", "eleven", "twelve",
             "thirteen", "fourteen", "fifteen", "sixteen", "seventeen",
             "eighteen", "nineteen"]
    tens = ["", "", "twenty", "thirty", "forty", "fifty", "sixty",
            "seventy", "eighty", "ninety"]
    scales = ["hundred", "thousand", "million", "billion", "trillion"]
    nw: dict[str, tuple[int, int]] = {"and": (1, 0)}
    for idx, w in enumerate(units):
        nw[w] = (1, idx)
    for idx, w in enumerate(tens):
        if w:
            nw[w] = (1, idx * 10)
    for idx, w in enumerate(scales):
        nw[w] = (10 ** (idx * 3 or 2), 0)
        nw[w + "s"] = (10 ** (idx * 3 or 2), 0)   # "millions of users"
    nw["dozen"] = (1, 12)
    nw["dozens"] = (1, 24)
    return nw


NUMWORDS = _build_numwords()
# words that may start/continue a numeral-phrase Number mention ("and"
# only continues, never starts)
NUMERAL_WORDS = frozenset(w for w in NUMWORDS if w != "and")


def txt2int(text: str) -> int:
    """English numeral phrase -> integer (reference txt2int semantics,
    link_coref.py:334-362; unknown words are skipped)."""
    current = result = 0
    for w in text.lower().split():
        if w not in NUMWORDS:
            continue
        scale, increment = NUMWORDS[w]
        current = current * scale + increment
        if scale > 100:
            result += current
            current = 0
    return result + current
COUNT_NOUNS = ["users", "customers", "accounts", "records", "victims",
               "machines", "computers", "devices", "people", "employees",
               "patients", "organizations", "companies", "files"]

# realis classification vocabulary (stands in for the two binary
# realis models, link_coref.py:89-99; deterministic rules instead)
MODAL_WORDS = {
    "may", "might", "could", "would", "should", "if", "whether",
    "potentially", "possibly", "likely", "unlikely", "suspected",
    "alleged", "rumored", "planning", "plans", "expect", "expected",
}
GENERIC_WORDS = {
    "often", "typically", "usually", "generally", "commonly", "many",
    "such", "these kinds", "most", "frequently",
}
GENERIC_TRIGGER_SURFACES = {
    "attacks", "incidents", "threats", "breaches", "cyberattacks",
    "patches",
}

# predicate vocabulary for derived entity-entity triples (S8 semantics,
# report.py:260-481 -> graph materialization)
DERIVED_PREDS = {
    "targets": ("Attacker", "Victim"),
    "fixes": ("Patch", "Vulnerability"),
    "discovered-by": ("Vulnerability", "Discoverer"),
}

STOPWORDS = {
    "the", "a", "an", "and", "or", "of", "to", "in", "on", "for", "by",
    "with", "at", "from", "that", "this", "it", "is", "are", "was",
    "were", "be", "been", "has", "have", "had", "as", "its", "their",
    "they", "we", "you", "he", "she", "but", "not", "no", "so", "than",
    "then", "there", "here", "which", "who", "what", "when", "where",
    "will", "would", "can", "could", "do", "does", "did", "about",
}


_IRREGULAR = {
    "steal": ["stole", "stolen"], "find": ["found"], "say": ["said"],
    "build": ["built"], "sold": [], "sent": [], "hit": ["hitting"],
    "pay": ["paid"], "grab": ["grabbed", "grabbing"],
    "handed": [], "dump": ["dumped", "dumping"],
}

_VOWELS = "aeiou"


def inflect_forms(word: str) -> list[str]:
    """Deterministic surface-form expansion for lexicon words.

    Stands in for lemmatization: each lexicon base word is expanded to the
    inflected surfaces the tagger should also match. Pure function of the
    word; shared by the oracle and the distributed tagger so both see the
    exact same surface->label mapping.
    """
    forms = [word]
    if word.endswith(("s", "sh", "ch", "x", "z")):
        forms.append(word + "es")
    else:
        forms.append(word + "s")
    if word.endswith("e"):
        forms.append(word + "d")
        forms.append(word[:-1] + "ing")
    elif word.endswith("y") and len(word) > 2 and word[-2] not in _VOWELS:
        forms.append(word[:-1] + "ied")
        forms.append(word + "ing")
    else:
        forms.append(word + "ed")
        forms.append(word + "ing")
        # consonant-vowel-consonant ending: double the final consonant
        if (len(word) >= 3 and word[-1] not in _VOWELS + "wxy"
                and word[-2] in _VOWELS and word[-3] not in _VOWELS):
            forms.append(word + word[-1] + "ed")
            forms.append(word + word[-1] + "ing")
    forms.extend(_IRREGULAR.get(word, []))
    return forms


def build_trigger_surfaces() -> dict[str, tuple[str, ...]]:
    """surface(lower) -> sorted tuple of candidate event types.

    'General' marks GENERAL_N['general'] nouns whose type is resolved from
    the document trigger histogram (doc logic, cf. recheck
    link_coref.py:1027-1126).
    """
    out: dict[str, set[str]] = {}
    for etype, words in WORDSET.items():
        for w in words:
            for f in inflect_forms(w):
                out.setdefault(f, set()).add(etype)
    for key, words in GENERAL_N.items():
        etype = "General" if key == "general" else key
        for w in words:
            out.setdefault(w, set()).add(etype)
    return {s: tuple(sorted(ts)) for s, ts in out.items()}


def build_arg_phrase_surfaces() -> dict[str, str]:
    """multi-or-single word phrase (lower) -> argument type.

    Catalog-independent argument vocabulary: PII/Data/Capabilities/
    PaymentMethod phrases and the GENERAL_ARG nouns. Single tokens and
    phrases share one dict; the tagger matches longest-phrase-first.
    """
    out: dict[str, str] = {}
    for p in PII_PHRASES:
        out[p] = "PII"
    for p in DATA_PHRASES:
        out[p] = "Data"
    for p in CAPABILITY_PHRASES:
        out[p] = "Capabilities"
    for p in PAYMENT_METHODS:
        out[p] = "PaymentMethod"
    for w in GENERAL_ARG["Vulnerability"]:
        out.setdefault(w, "Vulnerability")
    for w in GENERAL_ARG["Patch"]:
        # 'release'/'update' stay triggers; only 'patch' doubles as the
        # Patch argument (argument-wins rule, link_coref.py:613-614).
        if w == "patch":
            out[w] = "Patch"
    out["patches"] = "Patch"
    # months are NOT matched as bare phrases ("may" is also a modal);
    # the tagger has a dedicated month+year/day rule instead.
    for m in WEEKDAYS + RELATIVE_TIME:
        out[m] = "Time"
    return out


TRIGGER_SURFACES = build_trigger_surfaces()
ARG_PHRASE_SURFACES = build_arg_phrase_surfaces()
MAX_ARG_PHRASE_LEN = max(len(p.split()) for p in ARG_PHRASE_SURFACES)
# first-token gate for the per-token arg-phrase scan in detect_turn:
# a token not in this set cannot start any arg phrase, so the hot loop
# skips the length-descending join/lookup ladder entirely (most tokens)
ARG_PHRASE_FIRST = frozenset(p.split()[0] for p in ARG_PHRASE_SURFACES)
# merged "never a similarity-imputation candidate" set: one hash probe
# in detect_turn's candidate listcomp instead of three
NON_CONTENT_WORDS = frozenset(STOPWORDS) | frozenset(MODAL_WORDS) \
    | frozenset(GENERIC_WORDS)


@functools.lru_cache(maxsize=65536)
def normalize_surface(s: str) -> str:
    """Canonical-form normalization for entity surfaces: lowercase,
    strip possessives and non-alphanumerics, collapse whitespace.
    Memoized: surfaces repeat heavily across turns and conversations."""
    s = s.lower()
    s = re.sub(r"'s\b", "", s)
    s = re.sub(r"[^a-z0-9]+", " ", s)
    return " ".join(s.split())


# ---------------------------------------------------------------------------
# Entity linking / canonicalization (SURVEY J5/T7/D4; wd_search.py:153-201
# candidate generation + link_coref.py:285-309 cosine scoring)
# ---------------------------------------------------------------------------

# organization-designator tokens: a capitalized token run containing one
# of these is detected as an Organization mention (the deterministic
# stand-in for CoreNLP ORG NER + the curated org lexicon,
# parseJsontoFeatures.py:879-884 / findNNPNN :899-985)
ORG_HINTS = frozenset({
    "inc", "corp", "labs", "systems", "group", "networks", "technologies",
    "solutions", "holdings", "software", "intl", "ltd", "co", "syndicate",
    "collective", "partners",
})

# blocked candidate generation: block key = (entity type, first-2-chars
# of normalized surface); cosine of hashed-trigram embeddings
LINK_BLOCK_PREFIX = 2
# mention -> catalog entity link accepted at or above this cosine
LINK_THRESHOLD = 0.65
# unlinked surface nodes merged (union-find edge) at or above this cosine
CANON_THRESHOLD = 0.65

# argtypes whose unlinked mentions become `type:surface` graph nodes
# eligible for cross-conversation canonicalization
SURFACE_NODE_TYPES = frozenset(t.lower() for t in (
    "Organization", "Person", "Software", "System", "Malware", "Website",
    "Device", "GPE", "File", "Data", "PII", "Vulnerability", "Patch",
    "PaymentMethod", "Capabilities",
))

# KB candidate typing filters (the engine form of the reference's
# wd_search whitelist/blacklist semantics, wd_search.py:75-141: a
# candidate must carry at least one whitelisted type and NO blacklisted
# type — a single blacklisted type vetoes the candidate outright).
# Engine entities are single-typed, so the sets are over the engine's
# own type vocabulary: the whitelist is every linkable KB type (the
# 43-QID cyber-relevance list collapses to "all of them" here because
# the KB is curated cyber entities by construction); the blacklist
# names types a mixed KB may carry but must never link (the reference's
# sports/game/fiction/performer/document veto).
KB_TYPE_WHITELIST = frozenset({
    "Organization", "Person", "Software", "System", "Malware", "Website",
    "Device", "GPE", "File", "Vulnerability", "Patch",
})
KB_TYPE_BLACKLIST = frozenset({
    "SportsOrganization", "Game", "FictionalEntity", "MusicOrganisation",
    "Performer", "Artist", "OrdinaryMatter", "Document", "Composer",
})
