#!/usr/bin/env python
"""Local stand-in for the driver's CORRECTNESS check: run selected
`queries()` entries and their `oracle_sql()` twins at sf0.01 (or
$GRAFT_SF_DIR) and value-compare after sorting columns by name and rows
by all columns — the same normalization the driver hashes under.

Prints one JSON line per entry: name, status (ok / rows / schema /
values / engine_error / oracle_error / rows_only / timeout / crash), the
engine's rows, wall_s and, on a failure, a detail; exits 1 if any entry
fails.

The entries run in a child process (its own process group) that
streams one JSON line per entry. An entry that gives no line within
ENTRY_TIMEOUT_S seconds gets a ``timeout`` line: the child's process
group is killed and a new child runs the entries after it. A child that
exits early gives its current entry a ``crash`` line, and the same
restart.

Usage: python scripts/check_contract.py [query ...]   (default: all)
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time

# seconds an entry may run (the child's start-up counts toward its
# first entry); the slowest entry at 1 CPU takes about 25 s
ENTRY_TIMEOUT_S = 300

_HERE = os.path.dirname(os.path.abspath(__file__))


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


def _entry_module():
    sys.path.insert(0, os.path.dirname(_HERE))
    import __ray_entry__ as entrymod
    return entrymod


def run_entries(names: list[str]) -> int:
    """The child: check each entry in one Ray session, printing its
    record as soon as it is done."""
    import duckdb
    import ray

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.01")
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=int(
            os.environ.get("RAY_GRAFT_CPUS", "16")),
            include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    entrymod = _entry_module()
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    for t in ("region", "nation", "customer", "supplier", "part",
              "orders", "lineitem", "events", "documents", "embeddings"):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    try:
        for name in names:
            print(json.dumps(check(name, qs, oracles, con, sf_dir)),
                  flush=True)
    finally:
        ray.shutdown()
    return 0


def _child_argv(names: list[str]) -> list[str]:
    code = (f"import sys; sys.path.insert(0, {_HERE!r}); "
            "import check_contract as c; "
            "sys.exit(c.run_entries(sys.argv[1:]))")
    return [sys.executable, "-c", code, *names]


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def supervise(names: list[str], child_argv=_child_argv) -> int:
    """Run ``child_argv(todo)`` in a new process group and pass on the
    record line it prints for each of ``todo``, in order (any other
    output line goes to stderr). When the current entry has no line
    after ENTRY_TIMEOUT_S seconds, print a ``timeout`` record for it,
    kill the group and start a new child on the entries after it; when
    the child exits early, print a ``crash`` record and do the same.
    Returns 1 if any record is not ``ok`` / ``rows_only``."""
    todo = list(names)
    failures = 0
    while todo:
        proc = subprocess.Popen(child_argv(todo), stdout=subprocess.PIPE,
                                start_new_session=True)
        fd = proc.stdout.fileno()
        buf = b""
        t0 = time.monotonic()
        lost = None
        while todo and lost is None:
            if b"\n" in buf:
                line, buf = buf.split(b"\n", 1)
                try:
                    rec = json.loads(line)
                except ValueError:
                    rec = None
                if not isinstance(rec, dict) or rec.get("name") != todo[0]:
                    sys.stderr.write(line.decode(errors="replace") + "\n")
                    continue
                print(json.dumps(rec), flush=True)
                failures += rec.get("status") not in ("ok", "rows_only")
                todo.pop(0)
                t0 = time.monotonic()
                continue
            left = t0 + ENTRY_TIMEOUT_S - time.monotonic()
            ready, _, _ = select.select([fd], [], [], max(left, 0))
            chunk = os.read(fd, 1 << 16) if ready else None
            if chunk:
                buf += chunk
            else:
                lost = ("timeout", f"no result in {ENTRY_TIMEOUT_S} s") \
                    if chunk is None else \
                    ("crash", f"child exited with {proc.wait()}")
        if lost is None:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        _kill_group(proc)
        proc.stdout.close()
        if lost is not None:
            status, detail = lost
            print(json.dumps({
                "name": todo.pop(0), "status": status, "rows": None,
                "wall_s": round(time.monotonic() - t0, 2),
                "detail": detail}), flush=True)
            failures += 1
    return 1 if failures else 0


def main() -> int:
    names = sys.argv[1:] or list(_entry_module().queries())
    return supervise(names)


if __name__ == "__main__":
    sys.exit(main())
