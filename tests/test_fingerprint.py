"""The bit fingerprint of ``benchmarks/fingerprint.py`` is reproducible
across interpreters, and names where two fingerprints differ."""

import copy
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sisqo import kernels

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "fingerprint.py"


def _load():
    # the script lives outside the package; load it by path
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_fingerprint_matches_a_fresh_interpreter(tmp_path):
    fingerprint = _load()
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    # fingerprints hold per backend, so each backend is checked
    active = kernels.active_backend()
    try:
        for backend in kernels.available_backends():
            kernels.use_backend(backend)
            here = fingerprint.fingerprint(["small"])
            assert here["backend"] == backend
            assert len(here["runs"]) == 4
            assert fingerprint.differences(here, copy.deepcopy(here)) == []
            assert fingerprint.verdicts(here, []) == [
                "small: identical (4 runs)"]

            out = tmp_path / f"small-{backend}.json"
            env = dict(os.environ, PYTHONPATH=path, SISQO_KERNELS=backend)
            subprocess.run([sys.executable, str(SCRIPT), "small", "--json",
                            str(out)], env=env, check=True,
                           capture_output=True, timeout=300)
            child = json.loads(out.read_text())
            assert child["backend"] == backend
            assert [r["digest"] for r in child["runs"]] == \
                [r["digest"] for r in here["runs"]]
            assert child["total"] == here["total"]
    finally:
        kernels.use_backend(active)

    # every run that differs is reported by run, then row and field or
    # summary entry, and counted in its workload's verdict
    changed = copy.deepcopy(here)
    run = changed["runs"][2]
    row = run["rows"][1]
    old = row["tau"]
    row["tau"] = ("1" if old[0] == "0" else "0") + old[1:]
    run["digest"] = "0" * 64
    first = changed["runs"][0]
    first["summary"]["outer_iters"] += 1
    first["digest"] = "1" * 64
    assert fingerprint.differences(here, changed) == [
        {"workload": "small", "run": first["run"],
         "difference": f"outer_iters: {first['summary']['outer_iters'] - 1}"
                       f" here, {first['summary']['outer_iters']} there"},
        {"workload": "small", "run": run["run"],
         "difference": f"IterationRow 1 field tau:"
                       f" {fingerprint._shown(old)!r} here,"
                       f" {fingerprint._shown(row['tau'])!r} there"}]
    assert fingerprint._shown(old) != fingerprint._shown(row["tau"])
    assert fingerprint.verdicts(
        here, fingerprint.differences(here, changed)) == [
        "small: 2 of 4 runs differ"]
    changed["runs"].pop()
    with pytest.raises(ValueError, match="different lists of runs"):
        fingerprint.differences(here, changed)
