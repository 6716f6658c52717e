"""Bit fingerprint of seeded runs: the check that a change keeps the bits.

Each run of the named workloads is solved on the active kernel backend
(``SISQO_KERNELS=python`` selects the numpy one), as ``sisqo run --seed``
(``sisqo compare --seed`` for a pair) solves it.  A run's digest covers
its status, its outer, MINRES and CG iteration counts, every field of
every ``IterationRow``, the sha256 of ``x_final`` and ``y_ls_final``,
and the bits of the final feasibility and stationarity errors; the total
digests the run digests in order.  One digest per run and the total are
printed, and ``--json PATH`` writes them with every compared value.

The default workloads are those of the benchmark: poisson16 (seeds
0-8), qp_gaussian (seeds 0-19) and neumann16_pair (budget-matched pairs,
seeds 0-5).  ``small`` is qp_gaussian seeds 0-1 and the Poisson control
problem at mesh 4, seeds 0-1.

``--against REV`` also extracts REV's files (``git archive``) into a
temporary directory, runs this script there in a child interpreter on
REV's ``src``, and prints a verdict per workload: identical, or how
many of its runs differ, with each such run and the first field in which
it differs.  It exits 1 if any run differs.  Fingerprints hold for one
backend on one host: the two backends' CSR products sum in different
orders, so compare a parent with a change on the same host and backend
only.  Run from the repository root of a source checkout:

    PYTHONPATH=src python3 benchmarks/fingerprint.py --against HEAD~1
    SISQO_KERNELS=python PYTHONPATH=src python3 benchmarks/fingerprint.py \\
        small --json small.json
"""

import argparse
import dataclasses
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
import tarfile
import tempfile

import sisqo
from sisqo import kernels
from sisqo.config import (apply_overrides, build_problem, build_solver_config,
                          harness_settings, load_config, oracle_settings)
from sisqo.harness import run_budget_matched_pair, run_single

# name -> parts of (profile, overrides, budget-matched pair, seeds)
WORKLOADS = {
    "poisson16": [("control_finite_sum", (), False, range(9))],
    "qp_gaussian": [("qp_gaussian", (), False, range(20))],
    "neumann16_pair": [("control_finite_sum",
                        ("problem.kind=neumann_control",), True, range(6))],
    "small": [("qp_gaussian", (), False, range(2)),
              ("control_finite_sum", ("problem.mesh_size=4",), False,
               range(2))],
}
DEFAULT = ("poisson16", "qp_gaussian", "neumann16_pair")


def _bits(value):
    """The IEEE bits of a float, as hex."""
    return struct.pack("<d", value).hex()


def _shown(value):
    """A compared value as printed: the float whose bits ``_bits`` gave,
    else the value itself."""
    if isinstance(value, str) and len(value) == 16:
        return struct.unpack("<d", bytes.fromhex(value))[0]
    return value


def _sha(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def _run_record(workload, label, run):
    rows = [{field: _bits(v) if isinstance(v, float) else int(v)
             for field, v in dataclasses.asdict(row).items()}
            for row in run.rows]
    summary = {"status": run.status, "outer_iters": run.outer_iters,
               "minres_iters": run.total_minres_iters,
               "cg_iters": sum(row.cg_iters for row in run.rows),
               "x_final": _sha(run.x_final),
               "y_ls_final": _sha(run.y_ls_final),
               "feasibility_error": _bits(run.feasibility_error),
               "stationarity_error": _bits(run.stationarity_error)}
    payload = json.dumps([summary, rows], sort_keys=True).encode()
    return {"workload": workload, "run": label,
            "digest": hashlib.sha256(payload).hexdigest(),
            "summary": summary, "rows": rows}


def _workload_runs(name):
    for profile, overrides, pair, seeds in WORKLOADS[name]:
        config = apply_overrides(load_config(profile), list(overrides))
        problem = build_problem(config)
        kind, eps_n = oracle_settings(config)
        kappa_exact = harness_settings(config)["kappa_exact"]
        for seed in seeds:
            cfg = build_solver_config(config, seed=seed)
            if pair:
                runs = run_budget_matched_pair(
                    problem, cfg,
                    build_solver_config(config, seed=seed, kappa=kappa_exact),
                    seed, oracle_kind=kind, eps_n=eps_n).runs()
            else:
                runs = [run_single(problem, cfg, seed, oracle_kind=kind,
                                   eps_n=eps_n, strategy="sisqo")]
            for run in runs:
                yield _run_record(name, f"{name} {problem.name} seed"
                                  f" {seed} {run.strategy}", run)


def fingerprint(names):
    """The fingerprint of the workloads ``names`` on the active backend:
    a dict of the backend, the package directory, every run's record
    and the total digest."""
    runs = [record for name in names for record in _workload_runs(name)]
    total = hashlib.sha256("".join(r["digest"] for r in runs).encode())
    return {"backend": kernels.active_backend(),
            "package": os.path.dirname(os.path.abspath(sisqo.__file__)),
            "runs": runs, "total": total.hexdigest()}


def _run_difference(a, b):
    """Where the run records ``a`` and ``b``, whose digests differ, first
    differ: the first row and field, or summary entry."""
    for k, (row_a, row_b) in enumerate(zip(a["rows"], b["rows"])):
        for field, value in row_a.items():
            if row_b[field] != value:
                return (f"IterationRow {k} field {field}: {_shown(value)!r}"
                        f" here, {_shown(row_b[field])!r} there")
    for key, value in a["summary"].items():
        if b["summary"][key] != value:
            return (f"{key}: {_shown(value)!r} here,"
                    f" {_shown(b['summary'][key])!r} there")
    return "the digests differ"


def differences(ours, theirs):
    """Every run in which two fingerprints of the same runs differ, in run
    order: a dict of its workload, its label and where it first differs.
    Fingerprints of different lists of runs are a ValueError."""
    if [r["run"] for r in ours["runs"]] != [r["run"] for r in theirs["runs"]]:
        raise ValueError("the two sides ran different lists of runs")
    return [{"workload": a["workload"], "run": a["run"],
             "difference": _run_difference(a, b)}
            for a, b in zip(ours["runs"], theirs["runs"])
            if a["digest"] != b["digest"]]


def verdicts(ours, found):
    """One line per workload of ``ours``, in run order: identical, or how
    many of its runs are among the ``differences`` ``found``."""
    runs, moved = {}, {}
    for record in ours["runs"]:
        runs[record["workload"]] = runs.get(record["workload"], 0) + 1
    for diff in found:
        moved[diff["workload"]] = moved.get(diff["workload"], 0) + 1
    return [f"{name}: identical ({count} runs)" if name not in moved
            else f"{name}: {moved[name]} of {count} runs differ"
            for name, count in runs.items()]


def fingerprint_at(rev, names):
    """The fingerprint of ``names`` at git revision ``rev``, computed by a
    child interpreter on the files of that revision, extracted into a
    temporary directory."""
    # run in a subdirectory, git archive would take only that one
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        tree = os.path.join(tmp, "tree")
        archive = subprocess.run(["git", "-C", root, "archive", rev],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        out = os.path.join(tmp, "fingerprint.json")
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
        subprocess.run([sys.executable, os.path.abspath(__file__), *names,
                        "--json", out], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        with open(out) as fh:
            theirs = json.load(fh)
    if not theirs["package"].startswith(tree):
        raise RuntimeError(f"the child imported sisqo from"
                           f" {theirs['package']}, not from {rev}")
    return theirs


def _workload(name):
    # a type rather than choices: argparse checks an empty "*" list
    # against the choices too
    if name not in WORKLOADS:
        raise argparse.ArgumentTypeError(
            f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return name


def _parser():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", type=_workload,
                   metavar="WORKLOAD",
                   help=f"one of {', '.join(WORKLOADS)}; default:"
                        f" {' '.join(DEFAULT)}")
    p.add_argument("--json", metavar="PATH",
                   help="also write the fingerprint as JSON")
    p.add_argument("--against", metavar="REV",
                   help="compare with the fingerprint at git revision REV")
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    names = args.workloads or list(DEFAULT)
    ours = fingerprint(names)
    for record in ours["runs"]:
        print(f"{record['digest'][:16]}  {record['run']}")
    print(f"total {ours['total']}  ({len(ours['runs'])} runs,"
          f" {ours['backend']} backend)")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(ours, fh, indent=1)
    if args.against is None:
        return 0
    theirs = fingerprint_at(args.against, names)
    if theirs["backend"] != ours["backend"]:
        print(f"{args.against} ran on the {theirs['backend']} backend")
        return 1
    print(f"total {theirs['total']}  at {args.against}")
    try:
        found = differences(ours, theirs)
    except ValueError as exc:
        print(exc)
        return 1
    for diff in found:
        print(f"differs: {diff['run']}: {diff['difference']}")
    for line in verdicts(ours, found):
        print(line)
    print("identical" if not found
          else f"{len(found)} of {len(ours['runs'])} runs differ")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
