"""Rule-based dependency features (the M6 dep-fold, full-tree upgrade).

The reference folds real CoreNLP enhanced++ dependency arcs into
per-token features (``combineDep``, reference
``code/parseJsontoFeatures.py:108-139``: per-dependent ``gov_id`` /
``gov_words`` / ``gov_rel`` / ``gov_pos``).  The engine carries no
parser (SURVEY §7.0), and `ops/features.py` approximates the fold with
a linear-order governor.  This module closes the remaining gap with a
*deterministic rule dependency tree* per turn — a head-percolation
scheme over closed-class word lists + suffix morphology:

- coarse POS classes ``PUNCT NUM DET PREP CC AUX VERB NOUN`` from the
  first character, closed-class membership, the single-token trigger
  lexicon, and an ``-ing``/``-ed`` suffix rule;
- head attachment by class:  the root is the first verb (else first
  noun, else the first token); non-root verbs chain to the previous
  verb (``conj``); ``AUX→aux`` / ``DET→det`` / ``NUM→nummod`` /
  ``PREP→case`` attach forward to the next verb/noun; nouns form
  right-headed compounds inside maximal noun runs, and a run head
  attaches as ``nmod`` (object of a preceding preposition), ``obj``
  (after a verb), or ``nsubj`` (before the first verb).

Every head decision is a *window computation* (nearest preceding /
following token of a class within the turn), so the layer is one
stateless vectorized ``map_batches`` pass, shuffle-free, and every
emitted value — including the bounded tree ``depth`` and the
``root_path`` relation string (the reference's ``deppathtoTrigger``
shape, here along real tree arcs) — is reproduced exactly by a DuckDB
window-function + ancestor-self-join twin (``dep_features_sql``).

The rule tree is provably acyclic: verbs only hop backward (to the
previous verb, ending at the first-verb root); every forward hop
(det/nummod/case/cc/aux/nsubj/compound) lands on a noun-run head or a
verb; an ``nmod`` hop from a run head lands strictly before its
preposition, so noun-only chains strictly decrease in position.
Depth is still emitted with a cap (``DEPTH_MAX`` hops, sentinel -1)
so the SQL twin stays a bounded join chain.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..tokenize import TOKEN_RE
from .features import TRIGGER_TOKENS

DET_WORDS = frozenset({
    "a", "an", "the", "this", "that", "these", "those", "its", "their",
    "his", "her", "our", "your", "my", "each", "every", "some", "any",
    "no",
})
PREP_WORDS = frozenset({
    "of", "in", "on", "at", "by", "for", "with", "from", "to", "into",
    "onto", "over", "under", "through", "against", "via", "about",
    "after", "before", "during", "between", "within", "across",
    "without", "amid", "among",
})
CC_WORDS = frozenset({"and", "or", "but", "nor"})
AUX_WORDS = frozenset({
    "is", "are", "was", "were", "be", "been", "being", "am", "has",
    "have", "had", "do", "does", "did", "will", "would", "can",
    "could", "may", "might", "should", "must", "shall",
})

DEPTH_MAX = 8

DEP_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("tok_idx", pa.int64()),           # 1-based within the turn
    ("surface", pa.string()),
    ("pos", pa.string()),              # coarse class
    ("gov_id", pa.int64()),            # governor tok_idx; 0 = ROOT
    ("gov_rel", pa.string()),          # arc label to the governor
    ("gov_pos", pa.string()),          # governor's class; 'ROOT' for 0
    ("gov_surface", pa.string()),      # governor gloss (combineDep's
                                       # gov_words); NULL for the root
    ("depth", pa.int64()),             # hops to the root; -1 if > cap
    ("root_path", pa.string()),        # first 3 arc labels up the tree,
                                       # '/+'-truncated if deeper
])

_P_PUNCT, _P_NUM, _P_DET, _P_PREP, _P_CC, _P_AUX, _P_VERB, _P_NOUN = \
    range(8)
_POS_NAMES = np.array(
    ["PUNCT", "NUM", "DET", "PREP", "CC", "AUX", "VERB", "NOUN"],
    dtype=object)

(_R_ROOT, _R_CONJ, _R_AUX, _R_DEP, _R_DET, _R_NUMMOD, _R_OBL, _R_CC,
 _R_CASE, _R_PUNCT, _R_COMPOUND, _R_NMOD, _R_OBJ, _R_NSUBJ) = range(14)
_REL_NAMES = np.array(
    ["root", "conj", "aux", "dep", "det", "nummod", "obl", "cc",
     "case", "punct", "compound", "nmod", "obj", "nsubj"], dtype=object)

_DIGITS = frozenset("0123456789")


def classify_token(s: str) -> int:
    """Coarse POS class (ASCII-explicit so the DuckDB twin's regex
    semantics match exactly)."""
    c = s[0]
    if c in _DIGITS or c == "$":
        return _P_NUM
    if not (("a" <= c <= "z") or ("A" <= c <= "Z") or c == "_"):
        return _P_PUNCT
    low = s.lower()
    if low in DET_WORDS:
        return _P_DET
    if low in PREP_WORDS:
        return _P_PREP
    if low in CC_WORDS:
        return _P_CC
    if low in AUX_WORDS:
        return _P_AUX
    if low in TRIGGER_TOKENS:
        return _P_VERB
    if (len(s) >= 5 and s.isascii() and s.isalpha() and s.islower()
            and (s.endswith("ing") or s.endswith("ed"))):
        return _P_VERB
    return _P_NOUN


def _empty() -> pa.Table:
    return pa.table({f.name: pa.array([], f.type) for f in DEP_SCHEMA})


def _dep_core(batch: pa.Table):
    """Tokenize + classify + run the head-rule cascade for one batch.
    Returns ``None`` for a token-less batch, else the flat arrays
    shared by the feature and SVO emitters: (conv list, turn list,
    surface list, cls, rel, govf, start_of, tok) where ``govf`` is the
    FLAT governor index (-1 = ROOT) and ``tok`` the 1-based turn-local
    token id."""
    conv_ids = batch.column("conv_id").to_pylist()
    turn_idxs = batch.column("turn_idx").to_pylist()
    texts = batch.column("text").to_pylist()

    out_conv: list = []
    out_turn: list = []
    out_surf: list = []
    cls_l: list[int] = []
    row_bounds = [0]
    for cid, ti, text in zip(conv_ids, turn_idxs, texts):
        for s in TOKEN_RE.findall(text or ""):
            out_conv.append(cid)
            out_turn.append(ti)
            out_surf.append(s)
            cls_l.append(classify_token(s))
        row_bounds.append(len(out_surf))

    n = len(out_surf)
    if n == 0:
        return None

    cls = np.asarray(cls_l, dtype=np.int8)
    bounds = np.asarray(row_bounds, dtype=np.int64)
    lens = np.diff(bounds)
    nz = lens > 0
    turn_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    turn_start = bounds[:-1]
    start_of = turn_start[turn_of]
    idx = np.arange(n, dtype=np.int64)
    tok = idx - start_of + 1

    BIG = np.int64(n + 1)          # "no such token" sentinel (next-*)
    M = np.int64(n + 2)            # per-turn offset base

    # every "nearest X within the turn" below is one global accumulate
    # with the monotone-base trick — no per-turn Python loop
    def suffix_min_incl(mask: np.ndarray) -> np.ndarray:
        vals = np.where(mask, idx, BIG) + turn_of * M
        return np.minimum.accumulate(vals[::-1])[::-1] - turn_of * M

    def prefix_max_incl(mask: np.ndarray) -> np.ndarray:
        vals = np.where(mask, idx, np.int64(-1)) + turn_of * M
        return np.maximum.accumulate(vals) - turn_of * M

    first_mask = np.zeros(n, dtype=bool)
    first_mask[turn_start[nz]] = True
    last_mask = np.zeros(n, dtype=bool)
    last_mask[bounds[1:] - 1] = True

    def to_excl_next(sm: np.ndarray) -> np.ndarray:
        ne = np.full(n, BIG, dtype=np.int64)
        ne[:-1] = sm[1:]
        ne[last_mask] = BIG
        return ne

    def to_excl_prev(pm: np.ndarray) -> np.ndarray:
        pe = np.full(n, -1, dtype=np.int64)
        pe[1:] = pm[:-1]
        pe[first_mask] = -1
        return pe

    is_verb = cls == _P_VERB
    is_noun = cls == _P_NOUN
    is_vn = is_verb | is_noun

    nv_incl = suffix_min_incl(is_verb)
    nn_incl = suffix_min_incl(is_noun)
    next_verb = to_excl_next(nv_incl)
    next_noun = to_excl_next(nn_incl)
    next_vn = to_excl_next(suffix_min_incl(is_vn))
    prev_verb = to_excl_prev(prefix_max_incl(is_verb))
    prev_vn = to_excl_prev(prefix_max_incl(is_vn))

    # root: first verb, else first noun, else the turn's first token
    root_per_turn = np.full(len(lens), -1, dtype=np.int64)
    st = turn_start[nz]
    fverb = nv_incl[st]
    fnoun = nn_incl[st]
    root_per_turn[nz] = np.where(
        fverb < BIG, fverb, np.where(fnoun < BIG, fnoun, st))
    root = root_per_turn[turn_of]

    # maximal noun runs (right-headed compounds)
    prev_noun_adj = np.zeros(n, dtype=bool)
    prev_noun_adj[1:] = is_noun[:-1]
    prev_noun_adj[first_mask] = False
    run_begin = is_noun & ~prev_noun_adj
    next_noun_adj = np.zeros(n, dtype=bool)
    next_noun_adj[:-1] = is_noun[1:]
    next_noun_adj[last_mask] = False
    run_last = is_noun & ~next_noun_adj
    rs_incl = prefix_max_incl(run_begin)     # run start (flat idx)

    # prepositional attachment: the token just before the run start
    has_p = run_last & (rs_incl > start_of)
    p_safe = np.where(has_p, rs_incl - 1, 0)
    p_is_prep = has_p & (cls[p_safe] == _P_PREP)
    prep_pv = np.where(p_is_prep, prev_vn[p_safe], np.int64(-1))

    # ordered head-rule cascade (first matching rule wins)
    govf = np.full(n, -2, dtype=np.int64)    # flat governor; -1 = ROOT
    rel = np.full(n, _R_DEP, dtype=np.int8)
    unset = np.ones(n, dtype=bool)

    def apply(mask: np.ndarray, gov_arr, rel_code: int) -> None:
        m = unset & mask
        govf[m] = gov_arr[m] if isinstance(gov_arr, np.ndarray) \
            else gov_arr
        rel[m] = rel_code
        unset[m] = False

    apply(idx == root, np.full(n, -1, dtype=np.int64), _R_ROOT)
    apply(is_verb, prev_verb, _R_CONJ)
    m_aux = cls == _P_AUX
    apply(m_aux & (next_verb < BIG), next_verb, _R_AUX)
    apply(m_aux, root, _R_DEP)
    m_det = cls == _P_DET
    apply(m_det & (next_noun < BIG), next_noun, _R_DET)
    apply(m_det, root, _R_DEP)
    m_num = cls == _P_NUM
    apply(m_num & (next_noun < BIG), next_noun, _R_NUMMOD)
    apply(m_num & (prev_verb >= 0), prev_verb, _R_OBL)
    apply(m_num, root, _R_DEP)
    m_cc = cls == _P_CC
    apply(m_cc & (next_vn < BIG), next_vn, _R_CC)
    apply(m_cc, root, _R_DEP)
    m_prep = cls == _P_PREP
    apply(m_prep & (next_noun < BIG), next_noun, _R_CASE)
    apply(m_prep & (prev_verb >= 0), prev_verb, _R_OBL)
    apply(m_prep, root, _R_DEP)
    apply(cls == _P_PUNCT, root, _R_PUNCT)
    apply(is_noun & ~run_last, idx + 1, _R_COMPOUND)
    apply(p_is_prep & (prep_pv >= 0), prep_pv, _R_NMOD)
    apply(p_is_prep, root, _R_NMOD)
    apply(is_noun & (prev_verb >= 0), prev_verb, _R_OBJ)
    apply(is_noun & (next_verb < BIG), next_verb, _R_NSUBJ)
    apply(is_noun, root, _R_DEP)
    if unset.any():      # every class is covered above
        raise AssertionError("dep rule cascade left tokens unassigned")

    return out_conv, out_turn, out_surf, cls, rel, govf, start_of, tok


def dep_features_batch(batch: pa.Table) -> pa.Table:
    core = _dep_core(batch)
    if core is None:
        return _empty()
    out_conv, out_turn, out_surf, cls, rel, govf, start_of, tok = core
    n = len(out_surf)

    gov_id = np.where(govf == -1, np.int64(0), govf - start_of + 1)
    gsafe = np.where(govf >= 0, govf, 0)
    has_gov = govf >= 0
    gov_pos = np.where(has_gov, _POS_NAMES[cls[gsafe]], "ROOT")
    surf_arr = np.array(out_surf, dtype=object)
    gov_surface = np.where(has_gov, surf_arr[gsafe], None)

    # bounded depth: one vectorized gather per level
    depth = np.full(n, -1, dtype=np.int64)
    depth[govf == -1] = 0
    ptr = govf.copy()
    for d in range(1, DEPTH_MAX + 1):
        active = (depth == -1) & (ptr >= 0)
        safe = np.where(active, ptr, 0)
        hit = active & (govf[safe] == -1)
        depth[hit] = d
        ptr = np.where(active, govf[safe], np.int64(-3))

    # root_path: first 3 arc labels up the chain, '/+' when deeper
    a1s = np.where(has_gov, govf, 0)
    r1 = np.where(has_gov, rel[a1s], np.int8(15)).astype(np.int64)
    a2 = np.where(has_gov, govf[a1s], np.int64(-2))
    a2s = np.where(a2 >= 0, a2, 0)
    r2 = np.where(a2 >= 0, rel[a2s], np.int8(15)).astype(np.int64)
    state = np.where((depth < 0) | (depth >= 3), 3, depth)
    pack = (rel.astype(np.int64) + 16 * r1 + 256 * r2 + 4096 * state)
    uniq, inv = np.unique(pack, return_inverse=True)
    strings: list[str] = []
    for code in uniq.tolist():
        s0 = _REL_NAMES[code % 16]
        c1, c2, stt = (code // 16) % 16, (code // 256) % 16, code // 4096
        if stt == 0:
            strings.append(s0)
        elif stt == 1:
            strings.append(f"{s0}/{_REL_NAMES[c1]}")
        elif stt == 2:
            strings.append(f"{s0}/{_REL_NAMES[c1]}/{_REL_NAMES[c2]}")
        else:
            strings.append(
                f"{s0}/{_REL_NAMES[c1]}/{_REL_NAMES[c2]}/+")
    root_path = np.array(strings, dtype=object)[inv]

    return pa.table({
        "conv_id": pa.array(out_conv, pa.string()),
        "turn_idx": pa.array(out_turn, pa.int32()),
        "tok_idx": pa.array(tok, pa.int64()),
        "surface": pa.array(out_surf, pa.string()),
        "pos": pa.array(_POS_NAMES[cls].tolist(), pa.string()),
        "gov_id": pa.array(gov_id, pa.int64()),
        "gov_rel": pa.array(_REL_NAMES[rel].tolist(), pa.string()),
        "gov_pos": pa.array(gov_pos.tolist(), pa.string()),
        "gov_surface": pa.array(gov_surface.tolist(), pa.string()),
        "depth": pa.array(depth, pa.int64()),
        "root_path": pa.array(root_path.tolist(), pa.string()),
    }).cast(DEP_SCHEMA)


def dep_features(corpus_dir: str):
    """Transcripts -> per-token dependency rows (shuffle-free stream)."""
    import os

    import ray.data
    return ray.data.read_parquet(
        os.path.join(corpus_dir, "transcripts"),
        columns=["conv_id", "turn_idx", "text"]) \
        .map_batches(dep_features_batch, batch_format="pyarrow")


def _sql_set(words) -> str:
    return "(" + ", ".join(
        "'" + w.replace("'", "''") + "'" for w in sorted(words)) + ")"


def _dep_tree_cte(corpus: str) -> str:
    """The shared WITH-chain ending in ``gv`` (one row per token with
    gov_id/gov_rel), used by both the feature twin and the SVO twin."""
    pat = TOKEN_RE.pattern.replace("'", "''")
    det = _sql_set(DET_WORDS)
    prep = _sql_set(PREP_WORDS)
    cc = _sql_set(CC_WORDS)
    aux = _sql_set(AUX_WORDS)
    vtok = _sql_set(TRIGGER_TOKENS)
    return f"""
        WITH tok AS (
          SELECT conv_id, turn_idx,
                 unnest(regexp_extract_all(text, '{pat}')) AS surface,
                 generate_subscripts(regexp_extract_all(text, '{pat}'), 1)
                     AS tok_idx
          FROM read_parquet('{corpus}/transcripts/*.parquet')
        ), cls AS (
          SELECT conv_id, turn_idx, CAST(tok_idx AS BIGINT) AS tok_idx,
                 surface,
            CASE
              WHEN regexp_matches(surface, '^[0-9$]') THEN 'NUM'
              WHEN NOT regexp_matches(surface, '^[A-Za-z_]') THEN 'PUNCT'
              WHEN lower(surface) IN {det} THEN 'DET'
              WHEN lower(surface) IN {prep} THEN 'PREP'
              WHEN lower(surface) IN {cc} THEN 'CC'
              WHEN lower(surface) IN {aux} THEN 'AUX'
              WHEN lower(surface) IN {vtok}
                   OR (regexp_matches(surface, '^[a-z]+$')
                       AND length(surface) >= 5
                       AND (surface LIKE '%ing' OR surface LIKE '%ed'))
                   THEN 'VERB'
              ELSE 'NOUN' END AS pos
          FROM tok
        ), w AS (
          SELECT *,
            min(CASE WHEN pos = 'NOUN' THEN tok_idx END) OVER wf
                AS next_noun,
            min(CASE WHEN pos = 'VERB' THEN tok_idx END) OVER wf
                AS next_verb,
            min(CASE WHEN pos IN ('VERB','NOUN') THEN tok_idx END)
                OVER wf AS next_vn,
            max(CASE WHEN pos = 'VERB' THEN tok_idx END) OVER wp
                AS prev_verb,
            max(CASE WHEN pos IN ('VERB','NOUN') THEN tok_idx END)
                OVER wp AS prev_vn,
            min(CASE WHEN pos = 'VERB' THEN tok_idx END) OVER wt
                AS first_verb,
            min(CASE WHEN pos = 'NOUN' THEN tok_idx END) OVER wt
                AS first_noun,
            coalesce(lead(pos) OVER win, '') = 'NOUN' AS next_is_noun,
            coalesce(lag(pos) OVER win, '') = 'NOUN' AS prev_is_noun
          FROM cls
          WINDOW win AS (PARTITION BY conv_id, turn_idx ORDER BY tok_idx),
            wf AS (PARTITION BY conv_id, turn_idx ORDER BY tok_idx
                   ROWS BETWEEN 1 FOLLOWING AND UNBOUNDED FOLLOWING),
            wp AS (PARTITION BY conv_id, turn_idx ORDER BY tok_idx
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
            wt AS (PARTITION BY conv_id, turn_idx)
        ), runs AS (
          SELECT *,
            coalesce(first_verb, first_noun, 1) AS root_tok,
            (pos = 'NOUN' AND NOT next_is_noun) AS run_last,
            CASE WHEN pos = 'NOUN' THEN
              max(CASE WHEN pos = 'NOUN' AND NOT prev_is_noun
                       THEN tok_idx END)
                OVER (PARTITION BY conv_id, turn_idx ORDER BY tok_idx
                      ROWS UNBOUNDED PRECEDING) END AS run_start
          FROM w
        ), att AS (
          SELECT r.*, p.pos AS p_pos, p.prev_vn AS p_prev_vn
          FROM runs r LEFT JOIN runs p
            ON p.conv_id = r.conv_id AND p.turn_idx = r.turn_idx
           AND p.tok_idx = r.run_start - 1
        ), gv AS (
          SELECT conv_id, turn_idx, tok_idx, surface, pos,
            CAST(CASE
              WHEN tok_idx = root_tok THEN 0
              WHEN pos = 'VERB' THEN prev_verb
              WHEN pos = 'AUX' THEN coalesce(next_verb, root_tok)
              WHEN pos = 'DET' THEN coalesce(next_noun, root_tok)
              WHEN pos = 'NUM'
                THEN coalesce(next_noun, prev_verb, root_tok)
              WHEN pos = 'CC' THEN coalesce(next_vn, root_tok)
              WHEN pos = 'PREP'
                THEN coalesce(next_noun, prev_verb, root_tok)
              WHEN pos = 'PUNCT' THEN root_tok
              WHEN NOT run_last THEN tok_idx + 1
              WHEN p_pos = 'PREP' THEN coalesce(p_prev_vn, root_tok)
              WHEN prev_verb IS NOT NULL THEN prev_verb
              WHEN next_verb IS NOT NULL THEN next_verb
              ELSE root_tok END AS BIGINT) AS gov_id,
            CASE
              WHEN tok_idx = root_tok THEN 'root'
              WHEN pos = 'VERB' THEN 'conj'
              WHEN pos = 'AUX' THEN CASE WHEN next_verb IS NOT NULL
                   THEN 'aux' ELSE 'dep' END
              WHEN pos = 'DET' THEN CASE WHEN next_noun IS NOT NULL
                   THEN 'det' ELSE 'dep' END
              WHEN pos = 'NUM' THEN CASE
                   WHEN next_noun IS NOT NULL THEN 'nummod'
                   WHEN prev_verb IS NOT NULL THEN 'obl' ELSE 'dep' END
              WHEN pos = 'CC' THEN CASE WHEN next_vn IS NOT NULL
                   THEN 'cc' ELSE 'dep' END
              WHEN pos = 'PREP' THEN CASE
                   WHEN next_noun IS NOT NULL THEN 'case'
                   WHEN prev_verb IS NOT NULL THEN 'obl' ELSE 'dep' END
              WHEN pos = 'PUNCT' THEN 'punct'
              WHEN NOT run_last THEN 'compound'
              WHEN p_pos = 'PREP' THEN 'nmod'
              WHEN prev_verb IS NOT NULL THEN 'obj'
              WHEN next_verb IS NOT NULL THEN 'nsubj'
              ELSE 'dep' END AS gov_rel
          FROM att
        )"""


def dep_features_sql(corpus: str) -> str:
    """DuckDB twin: identical classes via regex/IN-list, identical head
    rules via window functions, depth/path via a bounded ancestor join
    chain (DEPTH_MAX levels)."""
    joins = "\n".join(
        f"        LEFT JOIN gv g{k} ON g{k}.conv_id = g{k-1}.conv_id "
        f"AND g{k}.turn_idx = g{k-1}.turn_idx "
        f"AND g{k}.tok_idx = g{k-1}.gov_id"
        for k in range(2, DEPTH_MAX + 1))
    depth_cases = "\n".join(
        f"                WHEN g{k}.gov_id = 0 THEN {k}"
        for k in range(1, DEPTH_MAX + 1))
    return _dep_tree_cte(corpus) + f"""
        SELECT b.conv_id, b.turn_idx, b.tok_idx, b.surface, b.pos,
               b.gov_id, b.gov_rel,
               CASE WHEN b.gov_id = 0 THEN 'ROOT' ELSE g1.pos END
                   AS gov_pos,
               CASE WHEN b.gov_id = 0 THEN NULL ELSE g1.surface END
                   AS gov_surface,
               CAST(CASE WHEN b.gov_id = 0 THEN 0
{depth_cases}
                    ELSE -1 END AS BIGINT) AS depth,
               CASE WHEN b.gov_id = 0 THEN b.gov_rel
                    WHEN g1.gov_id = 0
                      THEN b.gov_rel || '/' || g1.gov_rel
                    WHEN g2.gov_id = 0
                      THEN b.gov_rel || '/' || g1.gov_rel || '/'
                           || g2.gov_rel
                    ELSE b.gov_rel || '/' || g1.gov_rel || '/'
                         || g2.gov_rel || '/+' END AS root_path
        FROM gv b
        LEFT JOIN gv g1 ON g1.conv_id = b.conv_id
             AND g1.turn_idx = b.turn_idx AND g1.tok_idx = b.gov_id
{joins}
    """


SVO_SCHEMA = pa.schema([
    ("conv_id", pa.string()), ("turn_idx", pa.int32()),
    ("subj", pa.string()), ("verb", pa.string()), ("obj", pa.string()),
    ("subj_tok", pa.int64()), ("verb_tok", pa.int64()),
    ("obj_tok", pa.int64()),
])


def _svo_empty() -> pa.Table:
    return pa.table({f.name: pa.array([], f.type) for f in SVO_SCHEMA})


def svo_triples_batch(batch: pa.Table) -> pa.Table:
    """Syntactic (subject, verb, object) triples through the rule tree:
    every ``nsubj`` dependent crossed with every ``obj`` dependent of
    the same verb (open-IE style; the reference's nugget-argument
    linking is the semantic analogue, link_events). The join key is the
    FLAT verb index, so the whole cross-product is one sort +
    searchsorted — no hash join, no Python loop."""
    core = _dep_core(batch)
    if core is None:
        return _svo_empty()
    out_conv, out_turn, out_surf, cls, rel, govf, start_of, tok = core

    s_idx = np.nonzero(rel == _R_NSUBJ)[0]
    o_idx = np.nonzero(rel == _R_OBJ)[0]
    if len(s_idx) == 0 or len(o_idx) == 0:
        return _svo_empty()
    s_v = govf[s_idx]
    o_v = govf[o_idx]
    so = np.argsort(s_v, kind="stable")
    s_idx, s_v = s_idx[so], s_v[so]
    oo = np.argsort(o_v, kind="stable")
    o_idx, o_v = o_idx[oo], o_v[oo]
    lo = np.searchsorted(o_v, s_v, "left")
    hi = np.searchsorted(o_v, s_v, "right")
    cnt = hi - lo
    total = int(cnt.sum())
    if total == 0:
        return _svo_empty()
    rep_s = np.repeat(np.arange(len(s_idx)), cnt)
    off = np.concatenate([[0], np.cumsum(cnt)[:-1]])
    pos_in = np.arange(total) - np.repeat(off, cnt)
    rep_o = np.repeat(lo, cnt) + pos_in
    S = s_idx[rep_s]
    O = o_idx[rep_o]
    V = govf[S]

    surf = np.array(out_surf, dtype=object)
    conv = np.array(out_conv, dtype=object)
    turn = np.asarray(out_turn, dtype=np.int64)
    return pa.table({
        "conv_id": pa.array(conv[S].tolist(), pa.string()),
        "turn_idx": pa.array(turn[S], pa.int32()),
        "subj": pa.array(surf[S].tolist(), pa.string()),
        "verb": pa.array(surf[V].tolist(), pa.string()),
        "obj": pa.array(surf[O].tolist(), pa.string()),
        "subj_tok": pa.array(tok[S], pa.int64()),
        "verb_tok": pa.array(tok[V], pa.int64()),
        "obj_tok": pa.array(tok[O], pa.int64()),
    }).cast(SVO_SCHEMA)


def svo_triples(corpus_dir: str):
    """Transcripts -> per-turn syntactic SVO triples (shuffle-free)."""
    import os

    import ray.data
    return ray.data.read_parquet(
        os.path.join(corpus_dir, "transcripts"),
        columns=["conv_id", "turn_idx", "text"]) \
        .map_batches(svo_triples_batch, batch_format="pyarrow")


def svo_triples_sql(corpus: str) -> str:
    """DuckDB twin of svo_triples: the shared gv tree CTE + a two-way
    self-join (nsubj dependents x obj dependents of the same verb)."""
    return _dep_tree_cte(corpus) + """
        SELECT s.conv_id, s.turn_idx,
               s.surface AS subj, v.surface AS verb, o.surface AS obj,
               s.tok_idx AS subj_tok, v.tok_idx AS verb_tok,
               o.tok_idx AS obj_tok
        FROM gv s
        JOIN gv v ON v.conv_id = s.conv_id AND v.turn_idx = s.turn_idx
             AND v.tok_idx = s.gov_id
        JOIN gv o ON o.conv_id = s.conv_id AND o.turn_idx = s.turn_idx
             AND o.gov_id = v.tok_idx
        WHERE s.gov_rel = 'nsubj' AND o.gov_rel = 'obj'
    """
