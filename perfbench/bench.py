"""Workloads, timed passes, output checks and metrics of the benchmark.

A pass solves the workload's seed list through the public functions
that ``sisqo run --seed`` and ``sisqo compare --seed`` call
(``load_config`` and ``build_problem`` once, then per seed
``run_single`` or ``run_budget_matched_pair`` and ``emit_results``).
Each seed is timed end to end, KKT metric and emission included.
Everything runs in one process on one thread.

End-to-end metrics (``--trace 0``):

* ``setup_s``      median over fresh interpreters of importing sisqo,
                   loading the profile and building the problem;
* ``solve_s``      time to solve the whole seed list, every seed run to
                   its stopping rule.  Passes over the list repeat while
                   the next one fits in ``--seconds``; the median pass is
                   reported;
* ``peak_rss_mb``  peak resident memory of the benchmark process, MiB;
* ``solved_frac``  solves (pairs) that passed every check, over those
                   attempted: one minus the failed fraction, which
                   ``attempted`` and ``failed`` also carry.

``setup_s`` and ``solve_s`` are given at the reference speed of
``reference.py``: each timed section is scaled by the reference loop
timed next to it, so that the drifting speed of a shared machine
cancels.  Their raw wall times are printed alongside.

Per-layer metrics (``--trace 1``) come from one untraced pass followed
by one traced pass over the first half of the seed list; see
``tracing.layer_metrics`` for the traced ones.  Their times are raw
wall times, except ``harness.untraced_solve_s`` and the tracing
overhead ``harness.trace_overhead_ratio``, which compare the two passes
at the reference speed.  ``kernels.*_computed``
are derived from nnz and the dimensions, not measured.  No bandwidth or
roofline figure is given: the mesh-16 matrices and vectors (about
50 KB) sit inside the L2 cache, so a kernel call never streams from
memory.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from glob import glob
from time import perf_counter

import numpy as np

from sisqo import kernels
from sisqo.config import (apply_overrides, build_problem, build_solver_config,
                          harness_settings, load_config, oracle_settings)
from sisqo.harness import (ComparisonRecord, emit_results, load_results,
                           run_budget_matched_pair, run_single)

from isolated import isolated_metrics
from reference import at_reference_speed, reference_time
from tracing import Tracer, layer_metrics

SETUP_SAMPLES = 11
BUILD_SAMPLES = 5
# reference-loop time spent after each seed, as a share of its solve
REFERENCE_SHARE = 0.05


@dataclass(frozen=True)
class Workload:
    profile: str
    overrides: tuple
    pair: bool
    seeds_per_run: int


# poisson16: MINRES-bound, the kernels, KKT apply and MINRES step carry
#   most of the time.
# qp_gaussian: short solves, so per-iteration overhead (operator
#   construction, Lipschitz probe, KKT metric, engine self time) shows.
# neumann16_pair: the budget-matched truncated/near-exact pair; long
#   solves, Hessian-ladder rungs past 0, a second sparsity pattern.
# Seed counts keep the spread of solve_s across seed lists small while
# one pass of poisson16 or neumann16_pair fits in the measured window;
# qp_gaussian repeats its pass.
WORKLOADS = {
    "poisson16": Workload("control_finite_sum", (), False, 9),
    "qp_gaussian": Workload("qp_gaussian", (), False, 20),
    "neumann16_pair": Workload("control_finite_sum",
                               ("problem.kind=neumann_control",), True, 6),
}


def _parser():
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description="Layered sisqo benchmark.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True,
                   help="selects the seed list: seed*K .. seed*K+K-1")
    p.add_argument("--seeds", default=None,
                   help="explicit comma-separated seed list (replaces"
                        " the one --seed selects)")
    p.add_argument("--seconds", type=float, required=True,
                   help="measured window; passes repeat while the next"
                        " one fits (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p


def seed_list(workload, seed, explicit=None):
    if explicit:
        seeds = [int(tok) for tok in explicit.split(",")]
    else:
        k = workload.seeds_per_run
        seeds = list(range(seed * k, seed * k + k))
    if any(s < 0 for s in seeds) or len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be distinct and non-negative")
    return seeds


# -- passes ------------------------------------------------------------------

@dataclass
class Solve:
    """One seeded solve (or pair) and the emission of its results file,
    as ``sisqo run --seed`` (``sisqo compare --seed``) does it."""

    seed: int
    result: object  # RunRecord, ComparisonRecord, or None if it raised
    wall: float  # seconds, solve and emission
    emit: float  # seconds, emission alone
    reference: float  # mean reference-loop time just before and after
    path: str


def solve_pass(workload, problem, config, seeds, out_dir):
    """Solve and emit every seed in turn; returns a list of Solve.  An
    exception out of a solve is reported and recorded as a None result:
    it fails that seed, not the benchmark."""
    kind, eps_n = oracle_settings(config)
    kappa_exact = harness_settings(config)["kappa_exact"]
    name = harness_settings(config)["output"]
    solves = []
    before = reference_time()
    for seed in seeds:
        path = os.path.join(out_dir, f"seed{seed}_{name}")
        start = perf_counter()
        try:
            if workload.pair:
                result = run_budget_matched_pair(
                    problem, build_solver_config(config, seed=seed),
                    build_solver_config(config, seed=seed, kappa=kappa_exact),
                    seed, oracle_kind=kind, eps_n=eps_n)
            else:
                result = run_single(
                    problem, build_solver_config(config, seed=seed), seed,
                    oracle_kind=kind, eps_n=eps_n, strategy="sisqo")
        except Exception:  # noqa: BLE001 - counted as a failed solve
            print(f"seed {seed}: solve raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            result = None
        emit_start = perf_counter()
        emit_results([] if result is None else [result], path)
        end = perf_counter()
        after = reference_time(REFERENCE_SHARE * (end - start))
        solves.append(Solve(seed, result, end - start, end - emit_start,
                            (before + after) / 2, path))
        before = after
    return solves


# -- checks ------------------------------------------------------------------

def _independent_kkt(problem, x):
    """Feasibility and stationarity at x with exact least-squares
    multipliers from a dense solve, independent of sisqo's CG."""
    c = problem.eval_c(x)
    g = problem.eval_grad_f(x)
    jt = problem.eval_jacobian(x).to_dense().T
    y = np.linalg.lstsq(jt, -g, rcond=None)[0]
    return (float(np.max(np.abs(c), initial=0.0)),
            float(np.max(np.abs(g + jt @ y), initial=0.0)))


def _check_converged(problem, cfg, rec):
    if rec.status != "converged":
        return f"{rec.strategy} status {rec.status}"
    feas, stat = _independent_kkt(problem, rec.x_final)
    for name, value, tol in (("feasibility", rec.feasibility_error,
                              cfg.feasibility_tol),
                             ("stationarity", rec.stationarity_error,
                              cfg.stationarity_tol),
                             ("recomputed feasibility", feas,
                              cfg.feasibility_tol),
                             ("recomputed stationarity", stat,
                              cfg.stationarity_tol)):
        if not value <= tol:
            return f"{name} {value:.3e} above {tol:g}"
    return None


def check_outcome(workload, problem, config, seed, result):
    """None when the solve (or pair) is correct, else the reason."""
    if result is None:
        return "solve raised"
    cfg = build_solver_config(config, seed=seed)
    if not workload.pair:
        return _check_converged(problem, cfg, result)
    if result.aborted or result.exact is None:
        return f"pair aborted: {result.info.get('reason')}"
    if result.budget != result.inexact.total_minres_iters \
            or result.budget <= 0:
        return f"budget {result.budget} is not the truncated run's" \
               f" {result.inexact.total_minres_iters} MINRES iterations"
    if result.overshoot != max(0, result.exact.total_minres_iters
                               - result.budget):
        return f"overshoot {result.overshoot} does not match the budget"
    if "selected_iterate" not in result.exact.info:
        return "exact run recorded no selected iterate"
    return _check_converged(problem, cfg, result.inexact)


def _runs(result):
    if result is None:
        return []
    return result.runs() if isinstance(result, ComparisonRecord) else [result]


def signature(result):
    """Counts and the final iterate's bytes of every run in a result;
    equal signatures mean the seed reproduced exactly."""
    if result is None:
        return ("raised",)
    return tuple((r.strategy, r.status, r.outer_iters, r.total_minres_iters,
                  hashlib.sha256(r.x_final.tobytes()).hexdigest())
                 for r in _runs(result))


def emitted_matches(solve):
    """The results file holds one row per run, in order, with the
    records' counts and statuses."""
    want = [(r.seed, r.strategy, r.status, r.total_minres_iters,
             r.outer_iters) for r in _runs(solve.result)]
    got = [(r.seed, r.strategy, r.status, r.total_minres_iters,
            r.outer_iters) for r in load_results(solve.path)]
    return got == want


class Checker:
    """Counts attempted and failed solves over passes, and requires
    every pass to reproduce the first one seed by seed."""

    def __init__(self, workload, problem, config):
        self.workload, self.problem, self.config = workload, problem, config
        self.attempted = self.failed = 0
        self.errors = []
        self.reference = None

    def add_pass(self, solves, label):
        for solve in solves:
            self.attempted += 1
            reason = check_outcome(self.workload, self.problem, self.config,
                                   solve.seed, solve.result)
            if reason is not None:
                self.failed += 1
                print(f"{label} seed {solve.seed}: FAILED ({reason})",
                      file=sys.stderr)
            if not emitted_matches(solve):
                self.errors.append(f"{label} seed {solve.seed}: results"
                                   f" file disagrees with the records")
        sigs = {solve.seed: signature(solve.result) for solve in solves}
        if self.reference is None:
            self.reference = sigs
        else:
            for seed, sig in sigs.items():
                if sig != self.reference[seed]:
                    self.errors.append(f"{label} seed {seed} did not"
                                       f" reproduce the first pass")

    @property
    def correct(self):
        return self.failed == 0 and not self.errors


# -- metadata ----------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _read(path):
    with open(path) as fh:
        return fh.read().strip()


def _caches():
    """Per-core cache sizes of cpu0, e.g. {"L2 Unified": "2048K"}."""
    out = {}
    for index in sorted(glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (_read(os.path.join(index, f))
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def _git_commit(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(src):
    """sha256 over the package sources, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(glob(os.path.join(src, "sisqo", "**", "*"),
                            recursive=True)):
        if os.path.isfile(path) and path.endswith((".py", ".pyx", ".ini")):
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def metadata(root, src, seeds, thread_vars):
    return {
        "kernel_backend": kernels.active_backend(),
        "kernel_backends_available": kernels.available_backends(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(src),
        "seeds": seeds,
        "blas_threads": {v: os.environ.get(v) for v in thread_vars},
    }


# -- set-up ------------------------------------------------------------------

def setup_seconds(root, workload):
    """Set-up time of fresh interpreters at the reference speed, median
    over children."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "setup_probe.py"),
           workload.profile, *workload.overrides]
    walls, samples = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        walls.append(probe["seconds"])
        samples.append(at_reference_speed(probe["seconds"],
                                          probe["reference"]))
    print(f"set-up wall seconds, median of {SETUP_SAMPLES}:"
          f" {statistics.median(walls):.4f}")
    return statistics.median(samples)


def build_ms(config):
    samples = []
    for _ in range(BUILD_SAMPLES):
        start = perf_counter()
        build_problem(config)
        samples.append(perf_counter() - start)
    return statistics.median(samples) * 1e3


# -- entry point -------------------------------------------------------------

def end_to_end(args, root, workload, problem, config, seeds, checker,
               out_dir):
    setup = setup_seconds(root, workload)
    totals, scaled = [], []
    deadline = perf_counter() + args.seconds
    while True:
        gc.collect()
        start = perf_counter()
        solves = solve_pass(workload, problem, config, seeds, out_dir)
        checker.add_pass(solves, f"pass {len(totals) + 1}")
        totals.append(sum(s.wall for s in solves))
        scaled.append(sum(at_reference_speed(s.wall, s.reference)
                          for s in solves))
        now = perf_counter()
        if now + (now - start) > deadline:
            break
    runs = [r for s in solves for r in _runs(s.result)]
    print(f"passes: {len(totals)}, wall seconds per pass: "
          + ", ".join(f"{t:.3f}" for t in totals)
          + "; at reference speed: "
          + ", ".join(f"{t:.3f}" for t in scaled)
          + f"; per pass: {sum(r.outer_iters for r in runs)} outer"
          f" iterations, {sum(r.total_minres_iters for r in runs)} MINRES"
          f" iterations")
    solved = (checker.attempted - checker.failed) / checker.attempted
    return {
        "setup_s": (setup, "s"),
        "solve_s": (statistics.median(scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MiB"),
        "solved_frac": (solved, "ratio"),
    }


def per_layer(args, workload, problem, config, seeds, checker, out_dir):
    # half the seed list keeps a traced run (two passes) about as long
    # as an untraced one
    seeds = seeds[:(len(seeds) + 1) // 2]
    gc.collect()
    solves = solve_pass(workload, problem, config, seeds, out_dir)
    checker.add_pass(solves, "untraced pass")
    untraced = sum(at_reference_speed(s.wall, s.reference) for s in solves)
    gc.collect()
    with Tracer() as tracer:
        solves = solve_pass(workload, problem, config, seeds, out_dir)
    checker.add_pass(solves, "traced pass")
    wall = sum(s.wall for s in solves)
    traced = sum(at_reference_speed(s.wall, s.reference) for s in solves)

    runs = [r for s in solves for r in _runs(s.result)]
    outer = sum(r.outer_iters for r in runs)
    minres = sum(r.total_minres_iters for r in runs)
    metrics = layer_metrics(tracer, wall, outer)
    metrics.update({
        "harness.emit_ms": (statistics.median(s.emit for s in solves) * 1e3,
                            "ms"),
        "harness.untraced_solve_s": (untraced, "s"),
        "harness.trace_overhead_ratio": (traced / untraced, "ratio"),
        "library.build_ms": (build_ms(config), "ms"),
    })
    metrics.update(isolated_metrics(problem, args.seed))

    # the trace must see what the records report; a mismatch is shown,
    # not gated, since it describes the trace rather than the solves
    cross = (
        ("MinresState.step calls = recorded MINRES iterations",
         metrics["krylov.minres_steps"][0], minres),
        ("sqp_iterate calls = recorded outer iterations",
         tracer.stats("engine.sqp_iterate").calls, outer),
        ("H and J matvecs per KKT apply",
         metrics["sparse.matvec_per_apply"][0], 2.0),
        ("J rmatvecs per KKT apply", metrics["sparse.rmatvec_per_apply"][0],
         1.0),
    )
    for label, seen, want in cross:
        verdict = "ok" if seen == want else "MISMATCH"
        print(f"cross-check {label}: {seen} vs {want} {verdict}")
    print(f"seeds {seeds}; tracing overhead at reference speed: traced"
          f" {traced:.3f} s / untraced {untraced:.3f} s ="
          f" {traced / untraced:.3f}")
    print("kernels.*_computed are derived from nnz and dimensions, not"
          " measured; no bandwidth figure, the working set fits in L2")
    return metrics


def main(argv, root, src, thread_vars):
    args = _parser().parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        seeds = seed_list(workload, args.seed, args.seeds)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    config = apply_overrides(load_config(workload.profile),
                             list(workload.overrides))
    problem = build_problem(config)
    meta = metadata(root, src, seeds, thread_vars)
    meta.update(workload=args.workload, problem=problem.name, n=problem.n,
                m=problem.m, trace=args.trace)
    print("metadata: " + json.dumps(meta, sort_keys=True))

    out_dir = os.path.join(root, ".perfbench_out", str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    checker = Checker(workload, problem, config)
    try:
        if args.trace:
            metrics = per_layer(args, workload, problem, config, seeds,
                                checker, out_dir)
        else:
            metrics = end_to_end(args, root, workload, problem, config,
                                 seeds, checker, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(out_dir))
        except OSError:
            pass

    for error in checker.errors:
        print(f"check: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0
