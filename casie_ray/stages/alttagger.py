"""Alternative tagger seat (T3): embedding nearest-prototype detection.

The reference ships a second tagger wired to 768-d BERT inputs instead
of w2v (``code/nug_arg_detection_bert.py:109-220``; wordpiece->word
pooling ``code/bert_to_pickle.py:118-189``) behind the SAME tagging
interface as T1/T2. This module is that seat made real for the engine:
``EmbeddingTagger`` has the identical ``map_batches`` actor signature as
``DetectTagger`` but detects triggers by dense similarity against a
prototype matrix instead of exact lexicon lookup — feature-hungry state
(the full per-type prototype embedding matrices plus the M6/M7 token
feature kernel) built ONCE per actor in ``__init__``.

Behavior contract (tested): a lexicon surface embeds identically to its
prototype (cosine 1.0), so EmbeddingTagger's trigger set is a SUPERSET
of the rule tagger's; near-miss spellings ("phishhing") above
``TRIG_SIM`` are additionally recovered with the prototype's types.
The flagship pipeline keeps the rule tagger (exact oracle parity); this
seat is selected with ``run_kg_pipeline``-style wiring when fuzzy
recall is worth non-parity, exactly like choosing the BERT variant in
the reference.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import lexicons as lx
from ..embed import embed_surface, embed_surfaces
from ..semantics import Trigger, TurnDetection
from .detect import DetectTagger

TRIG_SIM = 0.80


class EmbeddingTagger(DetectTagger):
    """Same actor interface as DetectTagger; triggers by prototype
    similarity. State (prototype matrices over the trigger lexicon,
    keyed by surface order) is built once per actor."""

    def __init__(self, entities_ref):
        super().__init__(entities_ref)
        self.proto_surfaces = sorted(lx.TRIGGER_SURFACES)
        self.proto_types = [tuple(lx.TRIGGER_SURFACES[s])
                            for s in self.proto_surfaces]
        self.proto_mat = embed_surfaces(self.proto_surfaces)

    def interesting_mask(self, texts) -> np.ndarray:
        # the vectorized pre-pass proof ("no hot-vocab word => empty
        # detection") holds for exact lexicon matching only; similarity
        # detection can fire on ANY content token, so this seat always
        # runs the full pass
        return np.ones(len(texts), dtype=bool)

    def detect_or_skip(self, text, interesting: bool,
                       view=None) -> TurnDetection:
        det = super().detect_or_skip(text, True, view)
        extra: list[Trigger] = []
        kept = []
        for c in det.cand_tokens:
            tok_idx, s, e, low = c[0], c[1], c[2], c[3]
            v = embed_surface(low)
            sims = self.proto_mat @ v
            j = int(np.argmax(sims))
            if float(sims[j]) >= TRIG_SIM:
                extra.append(Trigger(tok_idx, s, e, low,
                                     self.proto_types[j]))
            else:
                kept.append(c)
        if not extra:
            return det
        triggers = sorted(det.triggers + extra, key=lambda t: t.tok_idx)
        return TurnDetection(det.token_starts, det.token_flags, triggers,
                             det.mentions, kept)
