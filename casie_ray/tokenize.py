"""Tokenization kernel shared by the oracle and the distributed tagger.

One deterministic regex tokenizer with character offsets; replaces the
reference's external CoreNLP tokenization + offset re-discovery
(``code/utils.py:50-69`` findTokenOffset) — the engine tokenizes once and
carries offsets, so the reference's file-cursor joins (``prepare.py:287-379``)
disappear (SURVEY J1).
"""

from __future__ import annotations

import re

# money ($17,000 / $3.5M) | numbers (3,000 / 17.5) | words incl. inner
# [-._'] so CVE-2017-0144, v2.3.1, credential-harvesting stay one token |
# any other non-space char
TOKEN_RE = re.compile(
    r"\$\d[\d,]*(?:\.\d+)?[MKBmkb]?"
    r"|\d[\d,.]*\d|\d"
    r"|[A-Za-z_](?:[A-Za-z0-9_.\-']*[A-Za-z0-9_])?"
    r"|\S"
)


def tokenize(text: str) -> list[tuple[str, int, int]]:
    """text -> [(token, start_char, end_char)] with end exclusive."""
    return [(m.group(0), m.start(), m.end()) for m in TOKEN_RE.finditer(text)]
