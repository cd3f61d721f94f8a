"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

The slow ones run ``perfbench/run.py`` in fresh processes on the
benchmark's own seed-generated corpus (sf0.01, about 49k turns); they
take about three minutes together.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)

# ratios of counts: as exact as the counts themselves
EXACT_RATIOS = {"detect.mask_useful_ratio", "triples.partial_dedup_ratio",
                "finalize.dedup_ratio", "exchange.cgroup_skew"}


def _run(*args, cwd=ROOT, timeout=300):
    p = subprocess.run([sys.executable, "perfbench/run.py", *args],
                       cwd=cwd, capture_output=True, text=True,
                       timeout=timeout)
    return p


def _result(*args):
    p = _run(*args)
    assert p.returncode == 0, p.stderr[-3000:]
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_self_times_partition_the_root_span():
    from layers import Tracer
    tr = Tracer()
    with tr.span("root"):
        with tr.span("a"):
            time.sleep(0.01)
            with tr.span("b"):
                time.sleep(0.01)
        with tr.span("b"):
            time.sleep(0.01)
    selfs = tr.self_seconds()
    assert set(selfs) == {"root", "a", "b"}
    assert sum(selfs.values()) == pytest.approx(tr.total_seconds("root"),
                                                abs=1e-9)
    assert selfs["b"] >= 0.02 and selfs["a"] >= 0.01


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", "kg_cold", "--seed", "1", "--seconds", "1",
             cwd=tmp_path, timeout=60)
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_trace_counts_repeat_and_every_metric_is_reported():
    args = ["--workload", "kg_finalize", "--seed", "3", "--seconds", "1",
            "--trace", "1"]
    first, second = _result(*args), _result(*args)
    names = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == set(names)
        for k, v in res["metrics"].items():
            assert v["unit"] == names[k], k
            assert v["value"] > 0, k
    for k, v in first["metrics"].items():
        if v["unit"] in ("count", "bytes") or k in EXACT_RATIOS:
            assert v["value"] == second["metrics"][k]["value"], k
    assert first["metrics"]["manifest.groups_skipped"]["value"] >= 1
    assert first["metrics"]["triples.raw"]["value"] > 0


def test_timed_run_reports_every_end_to_end_metric():
    res = _result("--workload", "kg_cold", "--seed", "3", "--seconds", "1")
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())
