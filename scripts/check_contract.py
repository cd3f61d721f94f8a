#!/usr/bin/env python
"""Local stand-in for the driver's CORRECTNESS check: run selected
`queries()` entries and their `oracle_sql()` twins at sf0.01 (or
$GRAFT_SF_DIR) and value-compare after sorting columns by name and rows
by all columns — the same normalization the driver hashes under.

Prints one JSON line per entry: name, status (ok / rows / schema /
values / engine_error / oracle_error / rows_only), the engine's rows,
wall_s and, on a failure, a detail; exits 1 if any entry fails.

Usage: python scripts/check_contract.py [query ...]   (default: all)
"""

from __future__ import annotations

import json
import os
import sys
import time


def _norm(df):
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64").round(9)
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = pd.to_datetime(df[c]).dt.tz_localize(None)
    df = df.sort_values(list(df.columns), kind="mergesort",
                        na_position="last")
    return df.reset_index(drop=True)


def _to_pandas(obj):
    import pandas as pd

    # an Arrow table or a Ray Dataset
    return obj if isinstance(obj, pd.DataFrame) else obj.to_pandas()


def check(name, qs, oracles, con, sf_dir) -> dict:
    """One entry's result record (see the module docstring)."""
    import pandas as pd

    rec = {"name": name, "status": "engine_error", "rows": None}
    t0 = time.time()
    try:
        got = _norm(_to_pandas(qs[name](sf_dir)))
    except Exception as e:  # noqa: BLE001  (a KeyError: no such query)
        return {**rec, "wall_s": round(time.time() - t0, 2),
                "detail": f"{type(e).__name__}: {e}"}
    rec.update(status="oracle_error", rows=len(got),
               wall_s=round(time.time() - t0, 2))
    if name not in oracles:
        return {**rec, "status": "rows_only"}
    try:
        want = _norm(con.execute(oracles[name]).fetchdf())
    except Exception as e:  # noqa: BLE001
        return {**rec, "detail": f"{type(e).__name__}: {e}"}
    if len(got) != len(want):
        return {**rec, "status": "rows", "detail": f"{len(want)} expected"}
    if list(got.columns) != list(want.columns):
        return {**rec, "status": "schema", "detail": str(list(want.columns))}
    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=False,
                                      check_exact=False, rtol=0, atol=1e-9)
    except AssertionError as e:
        return {**rec, "status": "values", "detail": str(e).split("\n")[0]}
    return {**rec, "status": "ok"}


def main() -> int:
    import duckdb
    import ray

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.01")
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=int(
            os.environ.get("RAY_GRAFT_CPUS", "16")),
            include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    names = sys.argv[1:] or list(qs)
    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents", "embeddings"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    failures = 0
    for name in names:
        rec = check(name, qs, oracles, con, sf_dir)
        print(json.dumps(rec), flush=True)
        failures += rec["status"] not in ("ok", "rows_only")
    return 1 if failures else 0


if __name__ == "__main__":
    rc = main()
    import ray
    ray.shutdown()
    sys.exit(rc)
