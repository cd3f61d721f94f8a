"""Tokenization kernel shared by the oracle and the distributed tagger.

One deterministic regex tokenizer with character offsets; replaces the
reference's external CoreNLP tokenization + offset re-discovery
(``code/utils.py:50-69`` findTokenOffset) — the engine tokenizes once and
carries offsets, so the reference's file-cursor joins (``prepare.py:287-379``)
disappear (SURVEY J1).
"""

from __future__ import annotations

import re

import numpy as np

# money ($17,000 / $3.5M) | numbers (3,000 / 17.5) | words incl. inner
# [-._'] so CVE-2017-0144, v2.3.1, credential-harvesting stay one token |
# any other non-space char
TOKEN_RE = re.compile(
    r"\$\d[\d,]*(?:\.\d+)?[MKBmkb]?"
    r"|\d[\d,.]*\d|\d"
    r"|[A-Za-z_](?:[A-Za-z0-9_.\-']*[A-Za-z0-9_])?"
    r"|\S"
)
_SPLIT_RE = re.compile(f"({TOKEN_RE.pattern})")


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """text -> [(token, start_char, end_char)] with end exclusive."""
    return [(m.group(0), m.start(), m.end()) for m in TOKEN_RE.finditer(text)]


def tokenize_many(texts: list[str]) \
        -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`tokenize` over many texts at once, without per-token tuples:
    one ``re.split`` of the ``"\\n"``-joined texts. No alternative of
    TOKEN_RE matches ``"\\n"``, so the token boundaries are exactly
    tokenize()'s. Returns ``(tokens, gstart, gend, base, bounds)``:
    ``gstart`` / ``gend`` are char offsets in the joined text, where text
    k starts at ``base[k]``, and text k's tokens are
    ``tokens[bounds[k]:bounds[k + 1]]``."""
    parts = _SPLIT_RE.split("\n".join(texts))
    # part 2i+1 is token i; cum[p] is the end of part p in the joined text
    cum = np.cumsum(np.fromiter(map(len, parts), np.int64, len(parts)))
    gstart, gend = cum[0::2][:-1], cum[1::2]
    base = np.zeros(len(texts) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, texts), np.int64, len(texts)) + 1,
              out=base[1:])
    return parts[1::2], gstart, gend, base, np.searchsorted(gstart, base)
