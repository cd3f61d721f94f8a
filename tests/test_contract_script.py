"""The per-entry supervisor of ``scripts/check_contract.py``, driven with a
stand-in child that streams records, hangs on one name and dies on
another."""

from __future__ import annotations

import importlib.util
import json
import os
import sys

import pytest

_STAND_IN = r"""
import json, subprocess, sys, time
pidfile = sys.argv[1]
for name in sys.argv[2:]:
    if name == "hang":
        p = subprocess.Popen(["sleep", "600"])
        with open(pidfile, "w") as f:
            f.write(str(p.pid))
        time.sleep(600)
    if name == "die":
        sys.exit(3)
    print("a log line that is not a record", flush=True)
    print(json.dumps({"name": name, "rows": 1, "wall_s": 0.0,
                      "status": "values" if name == "bad" else "ok"}),
          flush=True)
"""


@pytest.fixture
def contract(monkeypatch):
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "scripts", "check_contract.py")
    spec = importlib.util.spec_from_file_location("check_contract", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    monkeypatch.setattr(mod, "ENTRY_TIMEOUT_S", 3)
    return mod


def _run(contract, names, tmp_path, capsys):
    pidfile = str(tmp_path / "grandchild.pid")
    calls = []

    def child_argv(todo):
        calls.append(list(todo))
        return [sys.executable, "-c", _STAND_IN, pidfile, *todo]

    rc = contract.supervise(names, child_argv)
    out = capsys.readouterr()
    recs = [json.loads(line) for line in out.out.splitlines()]
    return rc, recs, calls, out.err, pidfile


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            state = f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


def test_supervisor_times_out_a_hung_entry_and_restarts_past_it(
        contract, tmp_path, capsys):
    """A hung entry gets a ``timeout`` record and its child's whole
    process group is killed (a grandchild too); a child that exits
    early gets a ``crash`` record; each time a new child runs the names
    after it, and every other record passes through in order."""
    rc, recs, calls, err, pidfile = _run(
        contract, ["a", "hang", "b", "die", "c"], tmp_path, capsys)
    assert rc == 1
    assert [(r["name"], r["status"]) for r in recs] == [
        ("a", "ok"), ("hang", "timeout"), ("b", "ok"), ("die", "crash"),
        ("c", "ok")]
    assert recs[1]["wall_s"] >= 3 and "no result in 3 s" in recs[1]["detail"]
    assert "exited with 3" in recs[3]["detail"]
    assert calls == [["a", "hang", "b", "die", "c"], ["b", "die", "c"],
                     ["c"]]
    assert err.count("not a record") == 3
    with open(pidfile) as f:
        assert not _alive(int(f.read()))


def test_supervisor_exit_code_follows_the_records(contract, tmp_path,
                                                  capsys):
    rc, recs, calls, _, _ = _run(contract, ["a", "b"], tmp_path, capsys)
    assert rc == 0 and calls == [["a", "b"]]
    assert [r["status"] for r in recs] == ["ok", "ok"]
    rc, recs, _, _, _ = _run(contract, ["a", "bad"], tmp_path, capsys)
    assert rc == 1 and [r["status"] for r in recs] == ["ok", "values"]
