"""Distributed-engine correctness: oracle parity, invariants, resume
(SURVEY §5.2 tiers 2-3)."""

from __future__ import annotations

import glob
import os
import re
import shutil

import pandas as pd
import pytest

from casie_ray.scoring import triple_prf


@pytest.fixture(scope="session")
def kg_out(ray_session, smoke_corpus, tmp_path_factory):
    from casie_ray.pipelines.kg import run_kg_pipeline
    out = str(tmp_path_factory.mktemp("kg") / "out")
    info = run_kg_pipeline(smoke_corpus, out, resume=False, n_groups=3)
    assert info["edges"] > 100
    return out


def _triples(out_dir):
    from casie_ray.pipelines.kg import read_triples
    return read_triples(out_dir)


KEY = ["subj", "pred", "obj"]
META = ["subj_type", "obj_type", "conv_id", "turn_idx", "ev_start",
        "ev_end", "count"]


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    out = df[KEY + META].copy()
    for c in ("turn_idx", "ev_start", "ev_end", "count"):
        out[c] = out[c].astype("int64")
    return out.sort_values(KEY).reset_index(drop=True)


def test_engine_matches_oracle_exactly(kg_out, oracle_triples):
    """The P/R >= 0.95 gate — deterministic rules on both sides, so the
    engine must in fact reproduce the oracle bit-for-bit."""
    eng = _triples(kg_out)
    res = triple_prf(oracle_triples, eng)
    assert res["precision"] >= 0.95 and res["recall"] >= 0.95, res
    # strict: full row equality including provenance + dedup counts
    pd.testing.assert_frame_equal(_norm(oracle_triples), _norm(eng))


def test_perfbench_stage_b_replay_matches_build(kg_out):
    """The benchmark's in-process replay of the stage-B kernels over a
    build's raw triples gives the build's edges and nodes: the output
    check of the kg_finalize workload, so a raw-layout change that
    breaks it fails here, not only in the benchmark."""
    from perfbench.workloads import (no_span, raw_triple_files, read_dir,
                                     sorted_table, stage_b_kernels)
    ref = stage_b_kernels(raw_triple_files(kg_out), no_span)
    assert ref["raw_rows"] > ref["edges"].num_rows > 100
    for sub, keys in (("edges", KEY), ("nodes", ["node_id"])):
        built = sorted_table(read_dir(os.path.join(kg_out, sub)), keys)
        assert built.equals(sorted_table(ref[sub], keys)), sub


def test_engine_invariant_under_grouping(ray_session, smoke_corpus, kg_out,
                                         tmp_path):
    """Triple set identical when the resumable-group partitioning
    changes (SURVEY §5.2 invariant 3)."""
    from casie_ray.pipelines.kg import run_kg_pipeline
    out2 = str(tmp_path / "kg2")
    run_kg_pipeline(smoke_corpus, out2, resume=False, n_groups=1)
    pd.testing.assert_frame_equal(_norm(_triples(kg_out)),
                                  _norm(_triples(out2)))


def test_shuffle_fallback_path_matches(ray_session, smoke_corpus, kg_out,
                                       tmp_path):
    """The general layout (a conv_id staging exchange, then the fused
    kernel) produces the same triples as the zero-shuffle
    conv-partitioned hot path, and its manifests count the same
    turns."""
    from casie_ray.pipelines.kg import run_kg_pipeline
    from casie_ray.state import manifest
    out2 = str(tmp_path / "kg_shuffle")
    info = run_kg_pipeline(smoke_corpus, out2, resume=False, n_groups=2,
                           conv_partitioned=False)
    pd.testing.assert_frame_equal(_norm(_triples(kg_out)),
                                  _norm(_triples(out2)))
    assert info["turns"] == manifest.total_counter(kg_out, "turns") > 0
    assert not os.path.exists(os.path.join(out2, "_staging"))


def test_resume_skips_completed_groups_and_matches(ray_session, smoke_corpus,
                                                   kg_out, tmp_path):
    """Kill-after-K-partitions resume: drop 2 of 3 group outputs +
    manifests, rerun with resume=True -> only missing groups rerun and
    the final output is identical."""
    from casie_ray.pipelines.kg import run_kg_pipeline
    out3 = str(tmp_path / "kg3")
    info = run_kg_pipeline(smoke_corpus, out3, resume=False, n_groups=3)
    assert info["groups"] == 3
    # simulate a crash that lost groups 1 and 2
    for gid in (1, 2):
        os.remove(os.path.join(out3, "_manifests", f"group-{gid:05d}.json"))
        shutil.rmtree(os.path.join(out3, "raw_triples", f"group-{gid:05d}"))
    info2 = run_kg_pipeline(smoke_corpus, out3, resume=True, n_groups=3)
    assert info2["groups_skipped"] == 1
    pd.testing.assert_frame_equal(_norm(_triples(kg_out)),
                                  _norm(_triples(out3)))


def test_reused_out_dir_with_fewer_groups_prunes_stale(ray_session,
                                                       smoke_corpus, kg_out,
                                                       tmp_path):
    """Rerunning into the same out_dir with FEWER groups must not
    double-count triples from the prior run's extra group dirs."""
    from casie_ray.pipelines.kg import run_kg_pipeline
    out4 = str(tmp_path / "kg4")
    run_kg_pipeline(smoke_corpus, out4, resume=False, n_groups=3)
    info = run_kg_pipeline(smoke_corpus, out4, resume=True, n_groups=1)
    assert info["groups"] == 1
    assert not os.path.exists(
        os.path.join(out4, "raw_triples", "group-00001"))
    pd.testing.assert_frame_equal(_norm(_triples(kg_out)),
                                  _norm(_triples(out4)))


def test_resume_invalidated_by_config_change(ray_session, smoke_corpus,
                                             kg_out, monkeypatch):
    """A manifest whose config hash no longer matches is not trusted."""
    from casie_ray.state import manifest
    files = ["a.parquet"]
    m = manifest.commit(kg_out + "_cfg", 0, "deadbeef", files, {})
    assert m["status"] == "complete"
    assert not manifest.is_complete(kg_out + "_cfg", 0,
                                    manifest.config_hash(), files)
    assert manifest.is_complete(kg_out + "_cfg", 0, "deadbeef", files)


def test_per_turn_text_equality(ray_session, smoke_corpus):
    """Input-hint invariant: the detect stage carries `text` through
    untouched under stable (conv_id, turn_idx) ordering."""
    import pyarrow.parquet as pq
    import ray

    import ray.data as rd
    from casie_ray.pipelines.kg import list_transcript_files
    from casie_ray.stages.detect import DetectTagger
    files = list_transcript_files(smoke_corpus)
    ents = pq.read_table(os.path.join(smoke_corpus, "entities.parquet"))
    ref = ray.put(ents.to_pylist())
    ds = rd.read_parquet(files, columns=["conv_id", "turn_idx", "text", "ts"])
    out = ds.map_batches(DetectTagger, fn_constructor_args=(ref,),
                         batch_format="pyarrow", concurrency=2,
                         batch_size=128)
    got = out.select_columns(["conv_id", "turn_idx", "text"]).to_pandas()
    want = pd.concat([pq.read_table(f).to_pandas()[
        ["conv_id", "turn_idx", "text"]] for f in files])
    key = ["conv_id", "turn_idx"]
    got = got.sort_values(key).reset_index(drop=True)
    want = want.sort_values(key).reset_index(drop=True)
    want["turn_idx"] = want["turn_idx"].astype(got["turn_idx"].dtype)
    pd.testing.assert_frame_equal(got, want)


def test_events_written_with_manifest_counters(kg_out):
    import json
    mans = sorted(glob.glob(os.path.join(kg_out, "_manifests", "*.json")))
    assert len(mans) == 3
    for mpath in mans:
        m = json.load(open(mpath))
        assert m["status"] == "complete"
        assert m["counters"]["events"] > 0
        assert m["config_hash"]
    assert glob.glob(os.path.join(kg_out, "events", "group-*", "*.parquet"))
    assert glob.glob(os.path.join(kg_out, "nodes", "*.parquet"))


def test_prescreen_mask_is_sound(smoke_corpus):
    """Every turn the vectorized pre-pass marks boring must yield an
    EMPTY detection from the full per-token pass (the skip is only legal
    when provably output-equivalent)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files
    from casie_ray.semantics import detect_turn
    from casie_ray.stages.detect import DetectTagger

    ents = pq.read_table(os.path.join(smoke_corpus, "entities.parquet"))
    tagger = DetectTagger(ents.to_pylist())
    texts = []
    for f in list_transcript_files(smoke_corpus)[:2]:
        texts.extend(pq.read_table(f, columns=["text"])
                     .column("text").to_pylist())
    texts += [
        "",  # empty
        "the quick brown fox .",
        "three million records were mentioned",   # numeral -> interesting
        "a patch arrived",                        # arg word -> interesting
        "cve-2019-1 lowercase still has digits",  # digits -> interesting
        "Zorvex walked in",                       # uppercase -> interesting
    ]
    mask = tagger.interesting_mask(pa.array(texts, pa.string()))
    n_boring = 0
    for text, keep in zip(texts, mask):
        if not keep:
            n_boring += 1
            det = detect_turn(text or "", tagger.catalog, tagger.fuzzy)
            assert det.triggers == [] and det.mentions == [], text
    # the corpus is mostly filler: the pre-pass must actually skip work
    assert n_boring > len(texts) // 3


def test_incremental_update_extracts_only_new_shards(smoke_corpus,
                                                     tmp_path):
    """Streaming KG maintenance: appending shards to the corpus and
    re-running must (a) skip every previously-completed group, (b) give
    byte-identical edges to a from-scratch run over the full corpus."""
    import shutil

    import pandas as pd
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files, run_kg_pipeline

    files = list_transcript_files(smoke_corpus)
    assert len(files) >= 3
    part = tmp_path / "part"
    (part / "transcripts").mkdir(parents=True)
    shutil.copy(os.path.join(smoke_corpus, "entities.parquet"), part)
    for f in files[:-1]:
        shutil.copy(f, part / "transcripts")

    out = str(tmp_path / "kg")
    info1 = run_kg_pipeline(str(part), out, group_size=1)
    assert info1["groups_skipped"] == 0

    # stream in the last shard and update
    shutil.copy(files[-1], part / "transcripts")
    info2 = run_kg_pipeline(str(part), out, group_size=1)
    assert info2["groups_skipped"] == len(files) - 1   # old groups reused

    fresh = str(tmp_path / "kg_fresh")
    run_kg_pipeline(smoke_corpus, fresh, group_size=1)

    def edges(d):
        return pd.concat([pq.read_table(f).to_pandas() for f in
                          sorted(glob.glob(os.path.join(d, "edges",
                                                        "*.parquet")))]) \
            .sort_values(["subj", "pred", "obj"]).reset_index(drop=True)

    pd.testing.assert_frame_equal(edges(out), edges(fresh))


def _stage_a_copy(kg_out, dest):
    """Copy a build's stage-A output (raw triples + surf and convs side
    tables) into ``dest``, the layout ``_finalize`` reads; returns the
    raw-triples root."""
    for sub in ("raw_triples", "surf", "convs"):
        shutil.copytree(os.path.join(kg_out, sub), os.path.join(dest, sub))
    return os.path.join(dest, "raw_triples")


def _finalize_files(root):
    return [sorted(glob.glob(os.path.join(root, sub, "group-*",
                                          "*.parquet")))
            for sub in ("raw_triples", "surf", "convs")]


def test_local_and_distributed_finalize_identical(kg_out, tmp_path):
    """The small-input finalize fast path must produce byte-identical
    edges and nodes to the distributed path on the same raw triples."""
    import pandas as pd
    import pyarrow.parquet as pq

    from casie_ray.pipelines import kg as kgmod

    raw_files, surf_files, conv_files = _finalize_files(kg_out)
    assert raw_files and surf_files and conv_files
    la = str(tmp_path / "local")
    da = str(tmp_path / "dist")
    os.makedirs(la), os.makedirs(da)
    kgmod._finalize_local(la, raw_files, surf_files, conv_files,
                           [[]], 0, {}, 0.0)
    # force the distributed path regardless of input size
    orig = kgmod.SMALL_FINALIZE_BYTES
    kgmod.SMALL_FINALIZE_BYTES = -1
    try:
        # distributed _finalize re-globs from a raw_root + surf layout
        kgmod._finalize(da, _stage_a_copy(kg_out, da), [[]], 0, {}, 0.0)
    finally:
        kgmod.SMALL_FINALIZE_BYTES = orig

    def load(d, sub, keys):
        files = sorted(glob.glob(os.path.join(d, sub, "*.parquet")))
        return pd.concat([pq.read_table(f).to_pandas() for f in files]) \
            .sort_values(keys).reset_index(drop=True)

    pd.testing.assert_frame_equal(
        load(la, "edges", ["subj", "pred", "obj"]),
        load(da, "edges", ["subj", "pred", "obj"]))
    pd.testing.assert_frame_equal(
        load(la, "nodes", ["node_id"]), load(da, "nodes", ["node_id"]))


def test_join_rewrite_path_identical_to_broadcast(kg_out, tmp_path):
    """Force every scale gate at once — distributed finalize,
    distributed canonicalization AND the Dataset-mapping join rewrite
    (CANON_BROADCAST_MAX = -1, i.e. a 'mega variant mass' that must
    never land on the driver) — and require byte-identical edges and
    nodes vs the broadcast-dict path on the same raw triples."""
    import pandas as pd
    import pyarrow.parquet as pq

    from casie_ray.pipelines import kg as kgmod

    raw_files, surf_files, conv_files = _finalize_files(kg_out)
    assert raw_files and surf_files and conv_files
    la = str(tmp_path / "local")
    da = str(tmp_path / "dist")
    os.makedirs(la), os.makedirs(da)
    kgmod._finalize_local(la, raw_files, surf_files, conv_files,
                           [[]], 0, {}, 0.0)
    saved = {k: getattr(kgmod, k) for k in
             ("SMALL_FINALIZE_BYTES", "SMALL_CANON_BYTES",
              "CANON_BROADCAST_MAX")}
    for k in saved:
        setattr(kgmod, k, -1)
    try:
        info = kgmod._finalize(da, _stage_a_copy(kg_out, da), [[]], 0, {},
                               0.0)
        # the forced path must actually have merged variants (otherwise
        # this test exercises nothing)
        assert info["canon_merged"] > 0
    finally:
        for k, v in saved.items():
            setattr(kgmod, k, v)

    def load(d, sub, keys):
        files = sorted(glob.glob(os.path.join(d, sub, "*.parquet")))
        return pd.concat([pq.read_table(f).to_pandas() for f in files]) \
            .sort_values(keys).reset_index(drop=True)

    pd.testing.assert_frame_equal(
        load(la, "edges", ["subj", "pred", "obj"]),
        load(da, "edges", ["subj", "pred", "obj"]))
    pd.testing.assert_frame_equal(
        load(la, "nodes", ["node_id"]), load(da, "nodes", ["node_id"]))


@pytest.mark.parametrize("broadcast", [True, False])
def test_distributed_canonicalization_is_blockwise(kg_out, tmp_path,
                                                   monkeypatch, broadcast):
    """The distributed tier canonicalizes with one canonical_pairs call
    per bucket group of whole entity blocks and never runs the
    iterative connected_components: with it raising, a forced
    distributed finalize (broadcast or join rewrite) gives edges and
    nodes equal to the local tier's."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops import graph
    from casie_ray.pipelines import kg as kgmod

    def no_cc(*_a, **_k):
        raise AssertionError("stage B ran connected_components")

    raw_files, surf_files, conv_files = _finalize_files(kg_out)
    la, da = str(tmp_path / "local"), str(tmp_path / "dist")
    os.makedirs(la), os.makedirs(da)
    local = kgmod._finalize_local(la, raw_files, surf_files, conv_files,
                                  [[]], 0, {}, 0.0)
    monkeypatch.setattr(graph, "connected_components", no_cc)
    for k in ("SMALL_FINALIZE_BYTES", "SMALL_CANON_BYTES") + \
            (() if broadcast else ("CANON_BROADCAST_MAX",)):
        monkeypatch.setattr(kgmod, k, -1)
    dist = kgmod._finalize(da, _stage_a_copy(kg_out, da), [[]], 0, {}, 0.0)
    assert dist["canon_merged"] == local["canon_merged"] > 0
    assert dist["edges"] == local["edges"]

    def load(d, sub, keys):
        files = sorted(glob.glob(os.path.join(d, sub, "*.parquet")))
        return pa.concat_tables([pq.read_table(f) for f in files]) \
            .sort_by([(k, "ascending") for k in keys]).combine_chunks()

    for sub, keys in (("edges", ["subj", "pred", "obj"]),
                      ("nodes", ["node_id"])):
        assert load(la, sub, keys).equals(load(da, sub, keys)), sub


@pytest.mark.parametrize("tier", ["default", "distributed"])
def test_mixed_layout_resume_matches_cold_build(ray_session, smoke_corpus,
                                                kg_out, tmp_path,
                                                monkeypatch, tier):
    """A fused build whose group 1 is then re-extracted by the general
    layout must finalize to the edges of a cold build: the general
    layout writes that group's surf side tables too, so
    canonicalization sees every surface node in either finalize tier."""
    from casie_ray.pipelines import kg as kgmod

    if tier == "distributed":
        monkeypatch.setattr(kgmod, "SMALL_FINALIZE_BYTES", 0)
    out = str(tmp_path / "kg")
    cold = kgmod.run_kg_pipeline(smoke_corpus, out, resume=False,
                                 n_groups=3)
    os.remove(os.path.join(out, "_manifests", "group-00001.json"))
    mixed = kgmod.run_kg_pipeline(smoke_corpus, out, resume=True,
                                  n_groups=3, conv_partitioned=False)
    assert mixed["groups_skipped"] == 2
    assert mixed["canon_merged"] == cold["canon_merged"] > 0
    pd.testing.assert_frame_equal(_norm(_triples(kg_out)),
                                  _norm(_triples(out)))


@pytest.mark.parametrize("side", ["surf", "convs"])
def test_finalize_names_group_without_surf_tables(kg_out, tmp_path, side):
    """Stage B canonicalizes from the surf side tables only and checks
    the layout from the convs side tables only, so a raw-triples group
    without either fails loudly, naming the group and the table."""
    from casie_ray.pipelines import kg as kgmod

    out = str(tmp_path / "kg")
    raw_root = _stage_a_copy(kg_out, out)
    shutil.rmtree(os.path.join(out, side, "group-00001"))
    with pytest.raises(FileNotFoundError,
                       match=f"no {side} side tables.*group-00001"):
        kgmod._finalize(out, raw_root, [[]], 0, {}, 0.0)


def test_full_skip_resume_loads_no_tagger_state(ray_session, smoke_corpus,
                                               tmp_path, monkeypatch):
    """A resume with no pending group neither loads nor broadcasts the
    tagger state."""
    from casie_ray.pipelines import kg as kgmod

    out = str(tmp_path / "kg")
    cold = kgmod.run_kg_pipeline(smoke_corpus, out, resume=False,
                                 n_groups=2)

    def no_load(*a, **k):
        raise AssertionError("tagger state loaded on a full-skip resume")

    monkeypatch.setattr(kgmod, "load_tagger_state", no_load)
    info = kgmod.run_kg_pipeline(smoke_corpus, out, resume=True,
                                 n_groups=2)
    assert info["groups_skipped"] == 2
    assert info["edges"] == cold["edges"]


_GENERAL_LAYOUT_RUN = """
import sys
import ray
from casie_ray.pipelines.kg import run_kg_pipeline
ray.init(address="local", num_cpus=int(sys.argv[3]),
         include_dashboard=False, logging_level="ERROR")
try:
    run_kg_pipeline(sys.argv[1], sys.argv[2], resume=False, n_groups=1,
                    conv_partitioned=False)
finally:
    ray.shutdown()
"""


@pytest.mark.parametrize("ncpu", [1, 2])
def test_general_layout_finishes_at_low_cpu(smoke_corpus, kg_out, tmp_path,
                                            ncpu):
    """The general layout finishes in a Ray session of 1 or 2 logical
    CPUs with the fused build's triples: detection runs as tasks, so it
    never holds every CPU while the read and the conv_id exchange wait.
    The run is a subprocess with its own session; on timeout its whole
    process group (driver and Ray daemons) is killed, so a hang fails
    the test and leaves no process behind."""
    import signal
    import subprocess
    import sys

    out = str(tmp_path / "kg")
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.Popen(
        [sys.executable, "-c", _GENERAL_LAYOUT_RUN, smoke_corpus, out,
         str(ncpu)], cwd=repo, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        log, _ = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"general layout at {ncpu} CPU(s) did not finish "
                    f"in 300 s")
    assert proc.returncode == 0, log[-3000:]
    pd.testing.assert_frame_equal(_norm(_triples(kg_out)),
                                  _norm(_triples(out)))


def _fused_sink_digests(files, entities_ref, out, to_uri=lambda p: p,
                        **kw) -> dict:
    """Run fused stage A over ``files`` into sink roots under ``out``;
    returns the sha256 of every raw / surf / events file, by root."""
    import hashlib

    import pyarrow as pa
    import ray

    from casie_ray.pipelines.kg import extract_shards

    roots = {r: os.path.join(out, r) for r in ("raw", "surf", "events")}
    for root in roots.values():
        os.makedirs(os.path.join(root, ".group-00000.tmp"))
    sink = {"raw_root": to_uri(roots["raw"]),
            "surf_root": to_uri(roots["surf"]),
            "ev_root": to_uri(roots["events"]), "suffix": ".tmp"}
    stats = pa.concat_tables(ray.get(extract_shards(
        [to_uri(p) for p in files], entities_ref, gids=[0] * len(files),
        sink=sink, detect_concurrency=2, **kw)))
    assert sum(stats.column("n_events").to_pylist()) > 0
    return {r: {os.path.basename(f): hashlib.sha256(
                    open(f, "rb").read()).hexdigest()
                for f in sorted(glob.glob(os.path.join(
                    root, ".group-00000.tmp", "*.parquet")))}
            for r, root in roots.items()}


@pytest.mark.parametrize("as_uri", [False, True],
                         ids=["plain-path", "file-uri"])
def test_fused_sink_uri_clean(ray_session, smoke_corpus, tmp_path, as_uri):
    """Multi-node deployment claim: every path opened from INSIDE a
    worker task (shard read + fused event/triple/surf sink writes) is
    fsspec-URI-clean — running the fused extraction with file:// URIs
    for both the input shards and the sink roots produces byte-identical
    parquet output to the plain-path run."""
    import json

    import ray

    from casie_ray.pipelines.kg import list_transcript_files
    from casie_ray.stages.detect import load_tagger_state

    files = list_transcript_files(smoke_corpus)[:3]
    entities_ref = ray.put(load_tagger_state(
        os.path.join(smoke_corpus, "entities.parquet")))
    got = _fused_sink_digests(
        files, entities_ref, str(tmp_path / ("uri" if as_uri else "plain")),
        to_uri=(lambda p: "file://" + p) if as_uri else (lambda p: p))
    assert all(len(v) == 3 for v in got.values())
    # stash for cross-param comparison via a session-stable location
    marker = tmp_path.parent / ("uri_clean_" +
                                ("uri" if as_uri else "plain") + ".json")
    marker.write_text(json.dumps(got, sort_keys=True))
    other = tmp_path.parent / ("uri_clean_" +
                               ("plain" if as_uri else "uri") + ".json")
    if other.exists():
        assert json.loads(other.read_text()) == got   # byte-identical


def test_lost_tagger_state_is_rebuilt(ray_session, smoke_corpus, tmp_path):
    """A lost broadcast object does not break stage A: with the
    tagger-state object freed before the run, the tasks rebuild the
    state from the entities table and write raw, surf and events files
    byte-identical to a run with a live ref."""
    import ray
    from ray._private.internal_api import free

    from casie_ray.pipelines.kg import list_transcript_files
    from casie_ray.stages.detect import load_tagger_state

    files = list_transcript_files(smoke_corpus)[:2]
    ents = os.path.join(smoke_corpus, "entities.parquet")
    live = _fused_sink_digests(files, ray.put(load_tagger_state(ents)),
                               str(tmp_path / "live"))
    lost_ref = ray.put(load_tagger_state(ents))
    free([lost_ref])
    with pytest.raises(ray.exceptions.ObjectLostError):
        ray.get(lost_ref, timeout=60)
    lost = _fused_sink_digests(files, lost_ref, str(tmp_path / "lost"),
                               entities_path=ents)
    assert lost == live


def test_general_layout_survives_lost_tagger_state(ray_session,
                                                  smoke_corpus, tmp_path):
    """The general layout's fused tasks, run on the staging pre-pass's
    shards, rebuild a freed tagger-state object from the entities
    table: their events equal a live-ref run."""
    import pyarrow as pa
    import ray
    from ray._private.internal_api import free

    from casie_ray.pipelines.kg import (_stage_group, extract_shards,
                                        list_transcript_files)
    from casie_ray.stages.detect import load_tagger_state

    staged = _stage_group(str(tmp_path / "staging"), 0,
                          list_transcript_files(smoke_corpus)[:2])
    assert len(staged) == 2
    ents = os.path.join(smoke_corpus, "entities.parquet")

    def events(ref, **kw):
        return pa.concat_tables(ray.get(extract_shards(
            staged, ref, detect_concurrency=1, **kw))).sort_by("event_id")

    live = events(ray.put(load_tagger_state(ents)))
    assert live.num_rows > 0
    lost_ref = ray.put(load_tagger_state(ents))
    free([lost_ref])
    with pytest.raises(ray.exceptions.ObjectLostError):
        ray.get(lost_ref, timeout=60)
    assert events(lost_ref, entities_path=ents).equals(live)


# ---- conversations split across shards ----

@pytest.fixture(scope="session")
def split_corpus(smoke_corpus, oracle_triples, tmp_path_factory):
    """The smoke corpus with every shard split at each conversation's
    midpoint turn into ``<shard>-a`` / ``<shard>-b``, plus one repeated
    (conv_id, turn_idx): a triple-free turn of a conversation of
    part-00001 is copied into part-00003-b with the text of a
    triple-producing turn, so the later shard's row changes the
    oracle's triples."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files

    out = str(tmp_path_factory.mktemp("split") / "corpus")
    os.makedirs(os.path.join(out, "transcripts"))
    shutil.copy(os.path.join(smoke_corpus, "entities.parquet"), out)
    halves = {}
    for f in list_transcript_files(smoke_corpus):
        t = pq.read_table(f)
        last = t.group_by("conv_id").aggregate([("turn_idx", "max")])
        mid = dict(zip(last["conv_id"].to_pylist(),
                       [(m + 1) // 2 for m in
                        last["turn_idx_max"].to_pylist()]))
        lo = pa.array([ti < mid[c] for c, ti in zip(
            t["conv_id"].to_pylist(), t["turn_idx"].to_pylist())])
        stem = os.path.basename(f)[:-len(".parquet")]
        halves[stem + "-a"] = t.filter(lo)
        halves[stem + "-b"] = t.filter(pc.invert(lo))
    producing = set(zip(oracle_triples["conv_id"],
                        oracle_triples["turn_idx"].astype(int)))
    donor = halves["part-00000-a"].to_pylist()
    donor_text = next(r["text"] for r in donor
                      if (r["conv_id"], r["turn_idx"]) in producing)
    target = next(r for r in halves["part-00001-a"].to_pylist()
                  if (r["conv_id"], r["turn_idx"]) not in producing)
    dup = pa.Table.from_pylist([{**target, "text": donor_text}],
                               schema=halves["part-00003-b"].schema)
    halves["part-00003-b"] = pa.concat_tables([halves["part-00003-b"],
                                               dup])
    for stem, t in halves.items():
        pq.write_table(t, os.path.join(out, "transcripts",
                                       stem + ".parquet"))
    return out


@pytest.mark.parametrize("tier", ["local", "distributed"])
def test_split_conversation_default_layout_raises(ray_session, split_corpus,
                                                  tmp_path, monkeypatch,
                                                  tier):
    """The default layout reads each conversation whole from one shard;
    on a corpus whose conversations span shards, stage B (either tier)
    raises, naming both halves of a source shard and the fix."""
    from casie_ray.pipelines import kg as kgmod

    if tier == "distributed":
        monkeypatch.setattr(kgmod, "SMALL_FINALIZE_BYTES", 0)
    with pytest.raises(ValueError, match=r"\d+ conversation\(s\) .*"
                       r"part-00000-a\.parquet and \S*part-00000-b\.parquet"
                       r".*conv_partitioned=False"):
        kgmod.run_kg_pipeline(split_corpus, str(tmp_path / "kg"),
                              resume=False)


def test_split_conversation_staged_one_group_matches_oracle(
        ray_session, split_corpus, oracle_triples, tmp_path):
    """conv_partitioned=False with one group re-partitions the split
    turns by conv_id and matches the oracle exactly, including the
    repeated turn whose later-shard copy wins."""
    from casie_ray.oracle import extract_triples
    from casie_ray.pipelines.kg import run_kg_pipeline

    want = extract_triples(split_corpus)
    # the repeated turn's later copy changes the oracle's output
    assert not _norm(want).equals(_norm(oracle_triples))
    out = str(tmp_path / "kg")
    run_kg_pipeline(split_corpus, out, resume=False, n_groups=1,
                    conv_partitioned=False)
    pd.testing.assert_frame_equal(_norm(want), _norm(_triples(out)))


def test_split_conversation_across_groups_raises(ray_session, split_corpus,
                                                 tmp_path):
    """conv_partitioned=False stages within a group only: with the two
    halves of every shard in different groups, stage B raises and names
    the group settings."""
    from casie_ray.pipelines.kg import run_kg_pipeline

    with pytest.raises(ValueError, match=r"conv_partitioned=False.*"
                                         r"n_groups.*group_size") as err:
        run_kg_pipeline(split_corpus, str(tmp_path / "kg"), resume=False,
                        n_groups=2, conv_partitioned=False)
    # the staging shards are gone by now: the message names the groups'
    # input shards instead
    msg = str(err.value)
    assert "_staging" not in msg
    assert re.search(r"group \d+ \(input shards \S*part-\d+-[ab]\.parquet",
                     msg), msg


@pytest.mark.parametrize("tier", ["local", "distributed"])
def test_split_conversation_rerun_staged_after_error_matches_oracle(
        ray_session, split_corpus, tmp_path, monkeypatch, tier):
    """After the default layout raises on split conversations, the
    advised rerun (conv_partitioned=False, default resume=True) into the
    same out dir re-extracts the split groups, whose manifests the check
    removed, and matches the oracle."""
    from casie_ray.oracle import extract_triples
    from casie_ray.pipelines import kg as kgmod

    if tier == "distributed":
        monkeypatch.setattr(kgmod, "SMALL_FINALIZE_BYTES", -1)
    out = str(tmp_path / "kg")
    with pytest.raises(ValueError, match="conv_partitioned=False"):
        kgmod.run_kg_pipeline(split_corpus, out)
    info = kgmod.run_kg_pipeline(split_corpus, out, conv_partitioned=False)
    assert info["groups_skipped"] == 0
    pd.testing.assert_frame_equal(_norm(extract_triples(split_corpus)),
                                  _norm(_triples(out)))


@pytest.mark.parametrize("tier", ["local", "distributed"])
def test_no_turn_passes_mask_writes_empty_tables(ray_session, smoke_corpus,
                                                 tmp_path, monkeypatch,
                                                 tier):
    """A corpus whose every turn fails the pre-pass mask: both finalize
    tiers write empty edges with exactly TRIPLE_SCHEMA and empty nodes
    with NODE_SCHEMA minus the bucket."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.pipelines import kg as kgmod
    from casie_ray.schema import TRIPLE_SCHEMA
    from casie_ray.stages.triples import NODE_SCHEMA

    text = "ok thanks"
    assert not _shard_extractor(smoke_corpus).interesting_mask(
        pa.array([text])).any()
    corpus = tmp_path / "corpus"
    os.makedirs(corpus / "transcripts")
    shutil.copy(os.path.join(smoke_corpus, "entities.parquet"), corpus)
    for f in kgmod.list_transcript_files(smoke_corpus)[:2]:
        t = pq.read_table(f)
        t = t.set_column(t.schema.get_field_index("text"), "text",
                         pa.array([text] * t.num_rows))
        pq.write_table(t, corpus / "transcripts" / os.path.basename(f))
    if tier == "distributed":
        monkeypatch.setattr(kgmod, "SMALL_FINALIZE_BYTES", -1)
    out = str(tmp_path / "kg")
    info = kgmod.run_kg_pipeline(str(corpus), out, resume=False)
    assert info["edges"] == 0 and info["turns"] > 0
    node_schema = pa.schema([f for f in NODE_SCHEMA if f.name != "bucket"])
    for sub, schema in (("edges", TRIPLE_SCHEMA), ("nodes", node_schema)):
        files = sorted(glob.glob(os.path.join(out, sub, "*.parquet")))
        assert files, sub
        for f in files:
            t = pq.read_table(f)
            assert t.num_rows == 0 and t.schema.equals(schema), (sub, t)


# ---- turn-sparse stage A: planted shards, no Ray ----

def _shard_extractor(smoke_corpus):
    from casie_ray.stages.detect import ShardFileExtractor, load_tagger_state
    return ShardFileExtractor(load_tagger_state(
        os.path.join(smoke_corpus, "entities.parquet")))


def _per_conversation_reference(ext, tbl):
    """semantics.extract_conversation over ALL turns of each conversation
    (a repeated turn keeps its later row) -> (event rows without the
    realis window flags, Event objects), conversations in id order."""
    from casie_ray.schema import event_to_row
    from casie_ray.semantics import extract_conversation

    by_conv: dict = {}
    for r in tbl.to_pylist():
        by_conv.setdefault(r["conv_id"], {})[r["turn_idx"]] = r
    rows, objs = [], []
    for cid in sorted(by_conv):
        turns = [by_conv[cid][ti] for ti in sorted(by_conv[cid])]
        evs = extract_conversation(cid, turns, ext.catalog, fuzzy=ext.fuzzy)
        ts = {t["turn_idx"]: t["ts"] for t in turns}
        rows += [event_to_row(e, ts[e.turn_idx], False, False) for e in evs]
        objs += evs
    return rows, objs


def _assert_matches_reference(ext, tbl):
    import pyarrow as pa

    from casie_ray.schema import EVENT_SCHEMA
    from casie_ray.stages.triples import triples_from_events

    events, objs = ext.extract_turns_with_events(tbl)
    want_rows, want_objs = _per_conversation_reference(ext, tbl)
    flags = ["modal", "generic"]
    want = pa.Table.from_pylist(want_rows, schema=EVENT_SCHEMA)
    assert events.drop_columns(flags).equals(want.drop_columns(flags))
    assert triples_from_events(objs).equals(triples_from_events(want_objs))
    return events


def test_sink_events_omit_args_and_plain_call_keeps_them(smoke_corpus,
                                                        tmp_path):
    """With a sink, ShardFileExtractor writes each shard's events in
    EVENT_SCHEMA without ``args`` and with the plain call's rows; the
    plain call (as ``extract_shards`` without a sink makes it) still
    returns EVENT_SCHEMA with the argument spans."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files
    from casie_ray.schema import EVENT_SCHEMA

    ext = _shard_extractor(smoke_corpus)
    files = list_transcript_files(smoke_corpus)[:2]
    plain = pa.concat_tables([ext(f) for f in files])
    assert plain.schema.equals(EVENT_SCHEMA) and plain.num_rows > 0
    assert any(plain.column("args").to_pylist())
    roots = {r: str(tmp_path / r) for r in ("raw", "events")}
    for root in roots.values():
        os.makedirs(os.path.join(root, ".group-00000.tmp"))
    sink = {"gid": 0, "raw_root": roots["raw"], "ev_root": roots["events"],
            "suffix": ".tmp"}
    stats = pa.concat_tables([ext(f, sink) for f in files])
    written = pa.concat_tables([pq.read_table(os.path.join(
        roots["events"], ".group-00000.tmp", os.path.basename(f)))
        for f in files])
    assert written.schema.equals(pa.schema(
        [f for f in EVENT_SCHEMA if f.name != "args"]))
    assert written.equals(plain.drop_columns(["args"]))
    assert sum(stats.column("n_events").to_pylist()) == plain.num_rows


def test_read_parquet_resolves_paths_and_uris(tmp_path, monkeypatch):
    """The one parquet reader of the stage-A shards and the stage-B side
    tables opens an absolute path, a relative path and a file:// URI
    alike, column-pruned, and sizes each through its filesystem."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.ops.sink import file_size, read_parquet

    t = pa.table({"a": [1, 2, 3], "b": ["x", None, "z"]})
    path = str(tmp_path / "t.parquet")
    pq.write_table(t, path)
    monkeypatch.chdir(tmp_path)
    for p in (path, "t.parquet", "file://" + path):
        assert read_parquet(p).equals(t)
        assert read_parquet(p, columns=["b"]).equals(t.select(["b"]))
        assert file_size(p) == os.path.getsize(path)


def _plain_turns(tbl, conv_id, texts):
    """Rows for ``conv_id`` with the given texts, typed like ``tbl``."""
    import pyarrow as pa
    ts = tbl.column("ts")[0].as_py()
    return pa.Table.from_pylist(
        [{"conv_id": conv_id, "turn_idx": i, "text": t, "ts": ts}
         for i, t in enumerate(texts)], schema=tbl.schema)


def test_sparse_stage_a_detects_only_mask_passing_turns(smoke_corpus,
                                                        monkeypatch):
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files
    from casie_ray.stages import detect

    ext = _shard_extractor(smoke_corpus)
    tbl = pq.read_table(list_transcript_files(smoke_corpus)[0],
                        columns=ext.COLUMNS)
    calls = []
    orig = detect.detect_turn

    def counting(*a, **k):
        calls.append(1)
        return orig(*a, **k)

    monkeypatch.setattr(detect, "detect_turn", counting)
    events, _ = ext.extract_turns_with_events(tbl)
    mask = ext.interesting_mask(tbl.column("text"))
    assert events.num_rows > 0 and 0 < mask.sum() < len(mask)
    assert len(calls) == mask.sum()


def test_sparse_stage_a_shuffled_shard_with_silent_conversation(
        smoke_corpus):
    """Row order and conversations whose every turn fails the mask do
    not change the output: the events table and the emitted triples equal
    a per-conversation extract_conversation over all turns."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files

    ext = _shard_extractor(smoke_corpus)
    tbl = pq.read_table(list_transcript_files(smoke_corpus)[0],
                        columns=ext.COLUMNS)
    silent = _plain_turns(tbl, "conv-silent", [
        "the quick brown fox .", "", "we talked about lunch and the rain ."])
    assert not ext.interesting_mask(silent.column("text")).any()
    tbl = pa.concat_tables([tbl, silent])
    perm = np.random.default_rng(7).permutation(tbl.num_rows)
    events = _assert_matches_reference(ext, tbl.take(pa.array(perm)))
    assert events.num_rows > 0
    assert "conv-silent" not in events.column("conv_id").to_pylist()


def test_sparse_stage_a_duplicate_turn_keeps_later_row(smoke_corpus,
                                                       tmp_path):
    """A repeated (conv_id, turn_idx) keeps its later row, as the dense
    loop and oracle.extract_events do, even when that later copy is plain
    prose the mask filters out: the earlier copy's event must vanish."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.oracle import extract_events
    from casie_ray.pipelines.kg import list_transcript_files
    from casie_ray.stages.triples import triples_from_events

    ext = _shard_extractor(smoke_corpus)
    tbl = pq.read_table(list_transcript_files(smoke_corpus)[0],
                        columns=ext.COLUMNS)
    base, _ = ext.extract_turns_with_events(tbl)
    cid, ti = base.column("conv_id")[0].as_py(), \
        base.column("turn_idx")[0].as_py()
    dup = _plain_turns(tbl, cid, ["the quick brown fox ."]) \
        .set_column(1, "turn_idx", pa.array([ti], tbl.schema.field(
            "turn_idx").type))
    dupped = pa.concat_tables([tbl, dup])
    events = _assert_matches_reference(ext, dupped)
    assert (cid, ti) not in set(zip(events.column("conv_id").to_pylist(),
                                    events.column("turn_idx").to_pylist()))
    assert events.num_rows < base.num_rows

    corpus = tmp_path / "dup"
    (corpus / "transcripts").mkdir(parents=True)
    shutil.copy(os.path.join(smoke_corpus, "entities.parquet"), corpus)
    pq.write_table(dupped, corpus / "transcripts" / "shard.parquet")
    want = [e for _, evs in extract_events(str(corpus)) for e in evs]
    _, objs = ext.extract_turns_with_events(dupped)
    assert triples_from_events(objs).equals(triples_from_events(want))


@pytest.mark.parametrize("key", ["conv_id", "turn_idx"])
def test_sparse_stage_a_null_key_names_the_shard(smoke_corpus, tmp_path,
                                                 key):
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files

    ext = _shard_extractor(smoke_corpus)
    tbl = pq.read_table(list_transcript_files(smoke_corpus)[0],
                        columns=ext.COLUMNS)
    i = tbl.schema.get_field_index(key)
    col = tbl.column(key)
    nulled = pc.if_else(pa.array([k == 5 for k in range(tbl.num_rows)]),
                        pa.nulls(tbl.num_rows, col.type), col)
    path = tmp_path / "shard-with-null-key.parquet"
    pq.write_table(tbl.set_column(i, key, nulled), path)
    with pytest.raises(ValueError, match=r"shard-with-null-key.*null " + key):
        ext(str(path))


def _full_sink(tmp_path, name):
    roots = {r: str(tmp_path / name / r)
             for r in ("raw", "surf", "events", "convs")}
    for root in roots.values():
        os.makedirs(os.path.join(root, ".group-00000.tmp"))
    return {"gid": 0, "raw_root": roots["raw"], "surf_root": roots["surf"],
            "ev_root": roots["events"], "convs_root": roots["convs"],
            "suffix": ".tmp"}


def _read_shard(path, ext):
    import pyarrow.parquet as pq
    return pq.read_table(path, columns=ext.COLUMNS)


def test_stage_a_kernel_leaves_no_cyclic_garbage(smoke_corpus, tmp_path):
    """Stage A runs with the cyclic GC paused, which is safe only while
    its objects are acyclic: a fully sunk shard run with the GC off
    leaves nothing for ``gc.collect()`` once its outputs are dropped."""
    import gc

    from casie_ray.pipelines.kg import list_transcript_files

    ext = _shard_extractor(smoke_corpus)
    path = list_transcript_files(smoke_corpus)[0]
    tbl = _read_shard(path, ext)
    ext(path, _full_sink(tmp_path, "warm"))   # first-call imports
    gc.collect()
    gc.disable()
    try:
        stats = ext(path, _full_sink(tmp_path, "run"))
        assert stats.column("n_events")[0].as_py() > 0
        events, objs = ext.extract_turns_with_events(tbl)
        assert events.num_rows > 0 and objs
        del stats, events, objs
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stage_a_restores_the_callers_gc_state(smoke_corpus, tmp_path):
    """The GC pause ends with the shard: enabled again after a normal
    shard and after one that raises (a null key), and still disabled
    for a caller that had disabled it."""
    import gc

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from casie_ray.pipelines.kg import list_transcript_files

    ext = _shard_extractor(smoke_corpus)
    path = list_transcript_files(smoke_corpus)[0]
    tbl = _read_shard(path, ext)
    nulled = pc.if_else(pa.array([k == 5 for k in range(tbl.num_rows)]),
                        pa.nulls(tbl.num_rows, pa.string()),
                        tbl.column("conv_id"))
    bad = str(tmp_path / "null-key.parquet")
    pq.write_table(tbl.set_column(0, "conv_id", nulled), bad)
    assert gc.isenabled()
    ext(path, _full_sink(tmp_path, "ok"))
    assert gc.isenabled()
    with pytest.raises(ValueError, match="null conv_id"):
        ext(bad)
    assert gc.isenabled()
    gc.disable()
    try:
        ext(path)
        with pytest.raises(ValueError, match="null conv_id"):
            ext(bad)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_tagger_state_cache_key_ignores_the_output_layout(monkeypatch):
    """The tagger-state disk cache depends on the extraction rules, not
    on FORMAT_VERSION: a layout bump keeps the cache path (while it
    still changes the manifest config hash); a changed lexicon table
    changes the path."""
    from casie_ray import lexicons as lx
    from casie_ray.stages.detect import tagger_state_cache_path
    from casie_ray.state import manifest

    path = tagger_state_cache_path(b"entities", ["Organization"])
    cfg = manifest.config_hash()
    monkeypatch.setattr(manifest, "FORMAT_VERSION",
                        manifest.FORMAT_VERSION + 1)
    assert manifest.config_hash() != cfg
    assert tagger_state_cache_path(b"entities", ["Organization"]) == path
    assert tagger_state_cache_path(b"other", ["Organization"]) != path
    assert tagger_state_cache_path(b"entities") != path
    monkeypatch.setattr(lx, "TRIGGER_SURFACES",
                        {**lx.TRIGGER_SURFACES, "zzqx": ("Attack",)})
    assert tagger_state_cache_path(b"entities", ["Organization"]) != path


def test_no_stage_a_actor_outlives_a_build(ray_session, smoke_corpus,
                                           tmp_path):
    """Stage A leaves no actor behind: with the cyclic GC off, after
    each of two builds in one session the GCS actor table holds no ALIVE
    ShardFileExtractor actor, and the two outputs are identical."""
    import gc

    from ray._private.state import actors

    from casie_ray.pipelines.kg import run_kg_pipeline

    outs = []
    gc.disable()
    try:
        for i in range(2):
            out = str(tmp_path / f"kg{i}")
            run_kg_pipeline(smoke_corpus, out, resume=False)
            alive = [a["ActorClassName"] for a in actors().values()
                     if a["State"] == "ALIVE"
                     and "ShardFileExtractor" in a["ActorClassName"]]
            assert alive == []
            outs.append(_norm(_triples(out)))
    finally:
        gc.enable()
    pd.testing.assert_frame_equal(*outs)


def test_model_seat_swap_only_changes_realis(ray_session, smoke_corpus):
    """The learned numpy-MLP realis model (stages/modelseat.py) drops
    into the ModelRoleRealisScorer actor-pool seat and, having distilled
    the rule to 100% on the trigger grid, reproduces the rule seat's
    output exactly — proving seat swap flows only through the declared
    interface (the realis column; here byte-equal). Also pins model
    determinism: two trainings yield bit-identical weights."""
    import os

    import numpy as np
    import ray

    from casie_ray.pipelines.kg import extract_shards, list_transcript_files
    from casie_ray.stages.detect import load_tagger_state
    from casie_ray.stages.modelseat import train_realis_model
    from casie_ray.stages.rolerealis import (ModelRoleRealisScorer,
                                             role_realis_batch)

    m1 = train_realis_model()
    m2 = train_realis_model()
    for k in ("w1", "b1", "w2", "b2"):
        assert (m1[k] == m2[k]).all()

    files = list_transcript_files(smoke_corpus)[:2]
    entities_ref = ray.put(load_tagger_state(
        os.path.join(smoke_corpus, "entities.parquet")))
    events = ray.data.from_arrow_refs(extract_shards(
        files, entities_ref, detect_concurrency=2))

    def norm(df):
        df = df.sort_values(["conv_id", "turn_idx", "event_id",
                             "nugget_text"]).reset_index(drop=True)
        return df[sorted(df.columns)]

    rule = events.map_batches(role_realis_batch, batch_format="pyarrow") \
        .to_pandas()
    model = events.map_batches(
        ModelRoleRealisScorer,
        fn_constructor_args=(train_realis_model,),
        batch_format="pyarrow", batch_size=256,
        concurrency=2).to_pandas()
    assert len(rule) > 0
    pd.testing.assert_frame_equal(norm(rule), norm(model))


def test_manifest_status_summary(ray_session, smoke_corpus, tmp_path):
    """manifest.summarize: per-group lineage/metrics view with
    config-currency — committed groups read reusable under the current
    config; a config-hash mismatch (simulated stale manifest) reads
    committed but NOT reusable."""
    import json
    import os

    from casie_ray.pipelines.kg import run_kg_pipeline
    from casie_ray.state import manifest

    out = str(tmp_path / "kg")
    info = run_kg_pipeline(smoke_corpus, out, resume=False, n_groups=2)
    s = manifest.summarize(out)
    assert s["groups_committed"] == 2
    assert s["groups_reusable_on_resume"] == 2
    assert s["events_total"] == sum(g["counters"]["events"]
                                    for g in s["groups"])
    assert s["events_total"] > 0 and info["edges"] > 0

    # stale a manifest's config hash: still committed, not reusable
    p = manifest.manifest_path(out, 0)
    m = json.load(open(p))
    m["config_hash"] = "deadbeefdeadbeef"
    json.dump(m, open(p, "w"))
    s2 = manifest.summarize(out)
    assert s2["groups_committed"] == 2
    assert s2["groups_reusable_on_resume"] == 1


def test_build_reports_stage_a_task_seconds(ray_session, smoke_corpus,
                                            tmp_path):
    """A build's own output says how long its stage-A tasks ran: each
    group manifest counts its tasks' seconds (``task_s``), ``--status``
    totals them, and the timings carry their sum as ``extract_tasks``
    next to the ``extract`` wall; a resume that extracts nothing
    reports 0."""
    from casie_ray.pipelines.kg import run_kg_pipeline
    from casie_ray.state import manifest

    out = str(tmp_path / "kg")
    t = run_kg_pipeline(smoke_corpus, out, resume=False,
                        n_groups=2)["timings"]
    assert {"extract", "extract_tasks"} <= set(t)
    assert 0 < t["extract_tasks"]
    s = manifest.summarize(out)
    per_group = [g["counters"]["task_s"] for g in s["groups"]]
    assert len(per_group) == 2 and all(x > 0 for x in per_group)
    assert s["task_s_total"] == pytest.approx(sum(per_group), abs=1e-3)
    assert t["extract_tasks"] == pytest.approx(s["task_s_total"], abs=0.01)
    resumed = run_kg_pipeline(smoke_corpus, out, resume=True, n_groups=2)
    assert resumed["timings"]["extract_tasks"] == 0


def test_canonicalize_timer_excludes_split_check(ray_session, smoke_corpus,
                                                tmp_path, monkeypatch):
    """The split-conversation check has its own timer: with the check
    made 0.5 s slower, the local tier's ``canonicalize`` time stays
    below 0.5 s and ``split_check`` carries the delay."""
    import time

    from casie_ray.pipelines import kg as kgmod

    real = kgmod.split_conversations

    def slow(t):
        time.sleep(0.5)
        return real(t)

    monkeypatch.setattr(kgmod, "split_conversations", slow)
    t = kgmod.run_kg_pipeline(smoke_corpus, str(tmp_path / "kg"),
                              resume=False)["timings"]
    assert t["canonicalize"] < 0.5
    assert t.get("split_check", 0) >= 0.5


def test_pipeline_config_surface(ray_session, smoke_corpus, tmp_path):
    """SURVEY §2.10 user-extension surface: (a) a default PipelineConfig
    reproduces the default pipeline exactly; (b) a KB blacklist in the
    config flows to the linker AND separates resume state (the manifest
    hash folds the filters, so a filtered run never reuses
    default-filter output); (c) edge_stages insert user map_batches
    steps — both a plain callable and a stateful actor class."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from casie_ray.pipelines.config import (PipelineConfig, edges_dataset,
                                            run_configured)
    from casie_ray.pipelines.kg import run_kg_pipeline

    base = str(tmp_path / "base")
    info0 = run_kg_pipeline(smoke_corpus, base, resume=False, n_groups=2)

    out = str(tmp_path / "cfg")
    info1 = run_configured(smoke_corpus, out, PipelineConfig())
    assert info1["edges"] == info0["edges"]

    def load_edges(d):
        t = pa.concat_tables([pq.read_table(f) for f in sorted(
            glob.glob(os.path.join(d, "edges", "*.parquet")))])
        return t.to_pandas().sort_values(["subj", "pred", "obj"]) \
            .reset_index(drop=True)

    pd.testing.assert_frame_equal(load_edges(base), load_edges(out))

    # blacklisting Organization kills fuzzy org links -> different KG,
    # and the SAME out_dir must re-extract (no manifest reuse)
    bl = PipelineConfig(kb_blacklist=frozenset({"Organization"}))
    info2 = run_configured(smoke_corpus, out, bl)
    assert info2["groups_skipped"] == 0          # resume state separated
    # fuzzy org links become surface nodes: contents differ (the edge
    # COUNT may coincide — each linked edge is replaced 1:1)
    e1 = set(map(tuple, load_edges(base)[["subj", "pred", "obj"]]
                 .itertuples(index=False)))
    e2 = set(map(tuple, load_edges(out)[["subj", "pred", "obj"]]
                 .itertuples(index=False)))
    assert e1 - e2 and e2 - e1

    # edge_stages: plain callable + actor class
    def only_targets(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return batch.filter(pc.equal(batch.column("pred"), "targets"))

    class CountStamp:
        def __init__(self, tag):
            self.tag = tag

        def __call__(self, batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "stage_tag", pa.array([self.tag] * batch.num_rows))

    staged = PipelineConfig(edge_stages=(
        (only_targets, {"batch_size": None}),
        (CountStamp, {"fn_constructor_args": ("v1",), "concurrency": 1}),
    ))
    df = edges_dataset(base, staged).to_pandas()
    assert set(df["pred"]) <= {"targets"} and len(df) > 0
    assert (df["stage_tag"] == "v1").all()
    plain = edges_dataset(base).to_pandas()
    assert len(plain) == info0["edges"]
