"""Declarative pipeline configuration + user stage protocol — the
engine's user-extension surface (SURVEY §2.10).

The reference's extension points are code constants (lexicon/pair
tables in link_coref.py:38-81, the KB whitelist/blacklist in
wd_search.py:75-135) and per-script argparse flags. The engine's
equivalent is one frozen dataclass carrying every knob that genuinely
flows into the Dataset chain, plus the idiomatic Ray Data extension
protocol: a *stage* is either a callable ``fn(pa.Table) -> pa.Table``
or an actor class (stateful; constructed once per actor), inserted as
a ``map_batches`` step. Curated lexicon tables themselves stay data in
:mod:`casie_ray.lexicons` — editable tables, exactly as the reference
ships them; overriding them is a fork of the table module, not a
runtime knob (changing them invalidates checkpoints via
``manifest.config_hash``).

Non-default KB typing filters are semantic config: ``run_configured``
folds them into the per-run manifest hash, so a resume never reuses
output extracted under different filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

Stage = Any  # callable fn(pa.Table) -> pa.Table, or an actor class


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob here flows; nothing is decorative.

    KB candidate typing (wd_search whitelist/blacklist semantics;
    None -> the lexicon defaults, which cover the engine's full
    linkable vocabulary):
      - kb_whitelist / kb_blacklist

    Physical execution (flow to :func:`run_kg_pipeline` verbatim):
      - detect_concurrency, group_size, keep_events, resume
      - conv_partitioned: True runs the fused stage-A kernel straight
        on the input shards; False first re-partitions each group's
        turns by conv_id into staging shards, for input whose
        conversations span shards. Stage B fails loudly if a
        conversation still ended up in two shards.

    User extension stages, each ``(stage, kwargs)`` applied as
    ``map_batches(stage, **kwargs)`` in order:
      - edge_stages: over the finished edges Dataset
        (:func:`edges_dataset`)
    """

    kb_whitelist: frozenset | None = None
    kb_blacklist: frozenset | None = None
    detect_concurrency: int | None = None
    group_size: int | None = None
    keep_events: bool = True
    conv_partitioned: bool = True
    resume: bool = True
    edge_stages: tuple = field(default_factory=tuple)


def apply_stages(ds, stages) -> Any:
    """Insert user stages into a Dataset chain: a plain callable runs
    as a task pool; a class runs as an actor pool (state built once per
    actor in ``__init__`` — the T1-T8 shape). ``kwargs`` pass through
    to ``map_batches`` (batch_size, concurrency, fn_constructor_args,
    num_cpus, ...)."""
    for stage, kwargs in stages:
        ds = ds.map_batches(stage, batch_format="pyarrow", **kwargs)
    return ds


def run_configured(corpus_dir: str, out_dir: str,
                   config: PipelineConfig | None = None) -> dict:
    """Assemble and run the KG pipeline from a config (requires an
    active Ray session; callers own init/shutdown)."""
    from .kg import GROUP_SIZE, run_kg_pipeline

    cfg = config or PipelineConfig()
    return run_kg_pipeline(
        corpus_dir, out_dir,
        resume=cfg.resume,
        detect_concurrency=cfg.detect_concurrency,
        keep_events=cfg.keep_events,
        conv_partitioned=cfg.conv_partitioned,
        group_size=cfg.group_size or GROUP_SIZE,
        kb_whitelist=cfg.kb_whitelist,
        kb_blacklist=cfg.kb_blacklist,
    )


def edges_dataset(out_dir: str, config: PipelineConfig | None = None):
    """The finished edges table as a Dataset with the config's
    ``edge_stages`` applied — the read side of the extension surface."""
    import ray.data

    cfg = config or PipelineConfig()
    ds = ray.data.read_parquet(f"{out_dir}/edges")
    return apply_stages(ds, cfg.edge_stages)
