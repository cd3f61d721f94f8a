"""Distributed union-find (connected components) over an edge Dataset.

The ``kg_components`` registry op (stage B's canonicalization needs no
global rounds: its merge components never leave an entity block, see
``stages.triples.canonical_pairs``): label propagation to the minimum
node id, ONE keyed exchange per round
(r5: the label-forward and min-reduce exchanges are fused — halving
the fixed per-round orchestration cost that dominated at small label
mass). Every round ships one message stream bucketed by hash(node):

  round: (self-label rows ∪ static edges ∪ last round's pointer
          edges) bucketed by hash(node)
           -> ONE vectorized per-bucket kernel: min-reduce the
              incoming labels, then immediately forward each node's
              new label along its in-bucket edges and emit
              pointer edges (label -> node) for the NEXT round

Pointer jumping is therefore one round delayed relative to the
classic two-exchange formulation — same unique fixpoint (label =
component min), near-logarithmic rounds on path-heavy graphs, at half
the exchanges per round.

Work is grouped by HASH BUCKET, not by node — each bucket group does a
vectorized Arrow join/aggregate over all its keys, so a round is O(P)
Python calls regardless of node count (a per-node map_groups would be
millions of tiny calls at corpus scale). Hot nodes only enlarge one
bucket's vectorized reduce, never a Python loop.

State between rounds is the node-sized message Dataset (materialized —
that IS the algorithm state, never the edge set). Converges at the
unique fixpoint (label constant = component min).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .bucketing import N_GRAPH_BUCKETS as N_BUCKETS
from .bucketing import _str_bucket, bucket_groupby

LABEL_SCHEMA = pa.schema([("node", pa.string()), ("label", pa.string())])


def _fused_round_bucket(n_buckets: int):
    """One hash bucket of NODES: min-reduce this round's incoming label
    messages, then forward the reduced labels along the bucket's edge
    rows and emit next-round pointer edges — reduce + propagate in a
    single kernel, so one exchange per round instead of two.

    Row kinds in the group (all share the message schema):
      label   (label valid):            a label value arriving at node
      self    (label valid, is_old set): carries last round's label for
                                         change detection
      edge    (label null, dst valid):  graph/pointer edge node -> dst
    Output rows (bucketed by hash(node)) feed the next round:
      self rows (node, newlabel, is_old=newlabel, changed 0/1),
      forwards  (dst, newlabel),
      pointers  (newlabel -> node) — the pointer jump, delivered next
      round as an edge row."""
    def kernel(group: pa.Table) -> pa.Table:
        is_msg = pc.is_valid(group.column("label"))
        msgs = group.filter(is_msg)
        red = msgs.group_by(["node"]).aggregate(
            [("label", "min"), ("is_old", "min")])
        red = red.rename_columns(["node", "label", "old"])
        red = red.combine_chunks()
        node = red.column("node").chunk(0) if red.num_rows else \
            pa.array([], pa.string())
        label = red.column("label").chunk(0) if red.num_rows else \
            pa.array([], pa.string())
        old = red.column("old").chunk(0) if red.num_rows else \
            pa.array([], pa.string())
        changed = pc.cast(
            pc.not_equal(label, pc.fill_null(old, "\x00")), pa.int64())
        edges = group.filter(pc.invert(is_msg)).select(["node", "dst"])
        fwd = edges.join(pa.table({"node": node, "label": label}),
                         keys="node", join_type="inner")
        n_self, n_fwd = red.num_rows, fwd.num_rows
        # pointer edges label -> node (skip self-pointers: a node whose
        # label is itself would just message itself)
        ptr_keep = pc.invert(pc.equal(label, node))
        p_src = label.filter(ptr_keep)
        p_dst = node.filter(ptr_keep)
        n_ptr = len(p_src)
        out_node = pa.concat_arrays([
            node, fwd.column("dst").combine_chunks(), p_src])
        out_dst = pa.concat_arrays([
            pa.nulls(n_self, pa.string()), pa.nulls(n_fwd, pa.string()),
            p_dst])
        out_label = pa.concat_arrays([
            label, fwd.column("label").combine_chunks(),
            pa.nulls(n_ptr, pa.string())])
        out_old = pa.concat_arrays([
            label, pa.nulls(n_fwd + n_ptr, pa.string())])
        out_changed = pa.concat_arrays([
            changed, pa.nulls(n_fwd + n_ptr, pa.int64())])
        return pa.table({
            "node": out_node, "dst": out_dst, "label": out_label,
            "is_old": out_old, "changed": out_changed,
            "bucket": _str_bucket(out_node, n_buckets),
        })
    return kernel


def connected_components(edges_ds, max_rounds: int = 64,
                         n_buckets: int = N_BUCKETS):
    """edges (src, dst) -> labels Dataset (node, label) where label is
    the minimum node id of the component. Requires an active Ray
    session. Undirectedness is handled by symmetrizing the edges."""
    def sym(batch: pa.Table) -> pa.Table:
        if batch.column("src").null_count or batch.column("dst").null_count:
            raise ValueError("connected_components: null src or dst")
        fwd = pa.table({"src": batch.column("src").cast(pa.string()),
                        "dst": batch.column("dst").cast(pa.string())})
        rev = pa.table({"src": batch.column("dst").cast(pa.string()),
                        "dst": batch.column("src").cast(pa.string())})
        t = pa.concat_tables([fwd, rev])
        # message-schema edge rows, bucketed by src (= the node whose
        # kernel forwards along them), built ONCE and re-unioned every
        # round
        return pa.table({
            "node": t.column("src"), "dst": t.column("dst"),
            "label": pa.nulls(t.num_rows, pa.string()),
            "is_old": pa.nulls(t.num_rows, pa.string()),
            "changed": pa.nulls(t.num_rows, pa.int64()),
            "bucket": _str_bucket(t.column("src"), n_buckets),
        })

    edges = edges_ds.map_batches(sym, batch_format="pyarrow").materialize()

    def init_msgs(batch: pa.Table) -> pa.Table:
        u = pc.unique(pa.concat_arrays([
            batch.column("node").combine_chunks(),
            batch.column("dst").combine_chunks()]))
        return pa.table({
            "node": u, "dst": pa.nulls(len(u), pa.string()),
            # is_old deliberately null: round 1 counts every node as
            # changed, and the per-bucket min-reduce dedups the
            # per-batch duplicates
            "label": u, "is_old": pa.nulls(len(u), pa.string()),
            "changed": pa.nulls(len(u), pa.int64()),
            "bucket": _str_bucket(u, n_buckets),
        })

    msgs = edges.map_batches(init_msgs, batch_format="pyarrow")

    import logging
    import time
    log = logging.getLogger(__name__)
    kernel = _fused_round_bucket(n_buckets)
    for rnd in range(max_rounds):
        t0 = time.time()
        msgs = bucket_groupby(msgs.union(edges), kernel).materialize()
        n_changed = msgs.sum("changed")
        log.info("cc round %d: %s changed (%.2fs)", rnd, n_changed,
                 time.time() - t0)
        if not n_changed:
            break

    def final_labels(batch: pa.Table) -> pa.Table:
        keep = batch.filter(pc.is_valid(batch.column("is_old")))
        return keep.select(["node", "label"])

    return msgs.map_batches(final_labels, batch_format="pyarrow")


def components_local(edges: list[tuple[str, str]]) -> dict[str, str]:
    """Sequential union-find: node -> min-id label. The per-group solver
    of ``stages.triples.canonical_pairs`` and the tests' oracle."""
    parent: dict[str, str] = {}

    def find(x: str) -> str:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb))
            parent[hi] = lo
    return {n: find(n) for n in list(parent)}
