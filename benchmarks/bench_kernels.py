"""Timing comparison of the compiled CSR kernels vs the numpy fallback.

For each mesh it measures, on the discretized Poisson control problem,
raw matvec/rmatvec throughput on its Jacobian J, the matvec of its
Hessian H, one isolated MINRES step (the mean over a solve of
``--minres-steps`` steps taken by ``MinresState.step``, one
``kernels.tangential_solve`` call per step, so the figure includes that
call's argument checks), one iteration of the least-squares
multiplier CG (``J J.T y = -J g`` at the initial point, to the
tolerance, floor and iteration cap of ``sisqo.krylov``'s multiplier
solve; the mean over the whole solve) and one truncated tangential
solve, ``kernels.tangential_solve`` on the system of the first Hessian
rung of the first iteration (exact gradient) with the engine's
termination tests, timed from its start state per solve and per step.
``--qp`` adds the same table for the matrices of the ``qp_gaussian``
profile.
Every figure is timed ``--repeats`` times and printed as best/median.
The step is printed next to the two KKT applies ``(H u + J.T delta,
J u)`` it contains, each counted as the sum of its three isolated CSR
product times rather than timed through the numpy step's Python
composition ``kernels.reference._kkt_apply``, whose slicing and
temporary the compiled step does not pay; their ratio is read from the
medians.  The CG iteration of each backend is also compared with the
numpy loop of ``kernels.reference.cg`` run on that backend's CSR
products.
``--json PATH`` also writes every figure, one record per mesh and
backend.  Run from the repository root of a source checkout (an
installed package needs no ``PYTHONPATH``):

    PYTHONPATH=src python3 benchmarks/bench_kernels.py --mesh 16 32 --qp \
        --repeats 200 --json bench.json
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from sisqo import kernels
from sisqo.config import build_problem, load_config
from sisqo.engine import SolverConfig, init_state, sqp_iterate
from sisqo.krylov import (MULTIPLIER_ABS_FLOOR, MULTIPLIER_REL_TOL,
                          MinresState, cg_max_iter)
from sisqo.library import ControlProblemSpec, build_poisson_control
from sisqo.problems import GradientOracle, substream
from sisqo.sparse import KktOperator


TITLES = ("J matvec", "J rmatvec", "H matvec", "2 x 3 csr", "minres step",
          "cg iter", "tangential")
# the JSON name of each column, then of the numpy CG loop's iteration
# and of the tangential solve per step
RECORD_KEYS = ("j_matvec_us", "j_rmatvec_us", "h_matvec_us",
               "two_kkt_applies_us", "minres_step_us", "cg_iter_us",
               "tangential_solve_us", "cg_loop_iter_us",
               "tangential_step_us")


def _build(problem):
    j = problem.eval_jacobian(problem.x0)
    h = problem.eval_lagrangian_hessian(problem.x0, np.zeros(problem.m))
    return problem, h, j


def _time(fn, repeats):
    """Best and median seconds of ``repeats`` calls of ``fn``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return np.array([min(times), np.median(times)])


def bench_kernels(h, j, repeats):
    """Best and median seconds of J x, J.T y and H x."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(j.cols)
    xt = rng.standard_normal(j.rows)
    out = np.empty(j.rows)
    out_t = np.empty(j.cols)
    out_h = np.empty(h.rows)
    fwd = _time(lambda: kernels.csr_matvec(j.indptr, j.indices, j.data, x,
                                           out), repeats)
    rev = _time(lambda: kernels.csr_rmatvec(j.indptr, j.indices, j.data, xt,
                                            out_t), repeats)
    hfwd = _time(lambda: kernels.csr_matvec(h.indptr, h.indices, h.data, x,
                                            out_h), repeats)
    return fwd, rev, hfwd


def bench_minres_step(h, j, steps, repeats):
    """Best and median seconds per MINRES step: the times of ``repeats``
    solves of at most ``steps`` steps, divided by the steps one took."""
    op = KktOperator(h, j)
    rng = np.random.default_rng(1)
    rhs = (rng.standard_normal(op.n), rng.standard_normal(op.m))
    taken = []

    def solve():
        state = MinresState(op, rhs)
        while state.iteration < steps \
                and not (state.breakdown or state.stalled):
            state.step()
        taken.append(state.iteration)

    return _time(solve, repeats) / max(taken[0], 1)


def bench_cg(problem, j, repeats):
    """Best and median seconds per iteration of the multiplier CG, for
    ``kernels.cg`` and for the numpy loop ``kernels.reference.cg`` on
    the active backend's products, and the iterations of one solve."""
    b = -j.apply(problem.eval_grad_f(problem.x0))
    threshold = max(MULTIPLIER_REL_TOL * float(np.linalg.norm(b)),
                    MULTIPLIER_ABS_FLOOR)
    y = np.empty(j.rows)
    taken = []

    def per_iteration(cg):
        return _time(lambda: taken.append(cg(
            j.indptr, j.indices, j.data, j.cols, False, b, y, threshold,
            cg_max_iter(j.rows))[0]), repeats) / max(taken[0], 1)

    cg = per_iteration(kernels.cg)
    # the numpy backend's cg is the loop itself
    loop = cg if kernels.cg is kernels.reference.cg \
        else per_iteration(kernels.reference.cg)
    return cg, loop, taken[0]


def first_tangential_solve(problem):
    """The arguments of the first ``kernels.tangential_solve`` call of
    one iteration from ``problem.x0`` with the exact gradient, copied
    before the call: Hessian rung 0 of iteration 0."""
    captured = []
    solve = kernels.tangential_solve

    def capture(*args):
        if not captured:
            captured.append([a.copy() if isinstance(a, np.ndarray) else a
                             for a in args])
        return solve(*args)

    cfg = SolverConfig()
    kernels.tangential_solve = capture
    try:
        sqp_iterate(init_state(problem, cfg), problem, GradientOracle("exact"),
                    cfg, substream(0, "lipschitz"))
    finally:
        kernels.tangential_solve = solve
    return captured[0]


def bench_tangential(solve_args, repeats):
    """Best and median seconds of ``repeats`` runs of the captured
    tangential solve, each from a fresh copy of its start state (the
    copy is not timed), and the steps one run took."""
    args = list(solve_args)
    work, scal = args[7], args[8]
    times, taken = [], []
    for _ in range(repeats):
        args[7], args[8] = work.copy(), scal.copy()
        t0 = time.perf_counter()
        out = kernels.tangential_solve(*args)
        times.append(time.perf_counter() - t0)
        taken.append(out[0])
    return np.array([min(times), np.median(times)]), taken[0]


def bench_problem(label, problem, args):
    """Prints, per backend, the J matvec and rmatvec, the H matvec, one
    MINRES step, one multiplier-CG iteration and one tangential solve on
    ``problem``; returns one JSON record per backend, keyed by
    ``label``."""
    problem, h, j = _build(problem)
    print(f"\nproblem {problem.name}: n={problem.n} m={problem.m}"
          f" jacobian nnz={j.nnz} hessian nnz={h.nnz}")
    solve_args = first_tangential_solve(problem)
    results, loops, per_step, records = {}, {}, {}, []
    for name in kernels.available_backends():
        kernels.use_backend(name)
        fwd, rev, hfwd = bench_kernels(h, j, args.repeats)
        step = bench_minres_step(h, j, args.minres_steps, args.repeats)
        cg, loops[name], iterations = bench_cg(problem, j, args.repeats)
        tangential, steps = bench_tangential(solve_args, args.repeats)
        per_step[name] = tangential / max(steps, 1)
        # two KKT applies: twice J x + J.T y + H x
        results[name] = (fwd, rev, hfwd, 2 * (fwd + rev + hfwd), step, cg,
                         tangential)
        records.append({**label, "n": problem.n, "m": problem.m,
                        "backend": name, "cg_iterations": iterations,
                        "tangential_steps": steps}
                       | {key: (t * 1e6).tolist() for key, t in
                          zip(RECORD_KEYS, results[name]
                              + (loops[name], per_step[name]))})

    print("best/median, microseconds; step/6 csr from the medians")
    print(f"{'backend':<10}" + "".join(f" {title:>15}" for title in TITLES)
          + f" {'step/6 csr':>11}")
    for name, times in sorted(results.items()):
        print(f"{name:<10}" + "".join(
            f" {best * 1e6:>7.2f}/{median * 1e6:<7.2f}"
            for best, median in times)
            + f" {times[4][1] / times[3][1]:>10.2f}x")
    print("cg iter is the mean over a solve of "
          + ", ".join(f"{r['cg_iterations']} iterations ({r['backend']})"
                      for r in records))
    print("tangential is one solve of "
          + ", ".join(f"{r['tangential_steps']} steps ({r['backend']})"
                      for r in records)
          + "; per step, best/median: "
          + ", ".join(f"{name} {best * 1e6:.2f}/{median * 1e6:.2f}"
                      for name, (best, median) in sorted(per_step.items())))
    for name, times in sorted(results.items()):
        if loops[name] is not times[5]:
            print(f"cg iter over the numpy loop, both on {name} products,"
                  f" from the medians: {times[5][1] / loops[name][1]:.2f}x")
    if len(results) == 2:
        py, comp = results["python"], results["compiled"]
        print("speedup of the medians (python/compiled): "
              + ", ".join(f"{title} {p[1] / c[1]:.2f}x" for title, p, c in
                          zip(TITLES, py, comp) if title != "2 x 3 csr"))
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mesh", type=int, nargs="+", default=[16, 32],
                        help="interior grid points per side, one or more"
                             " (default 16 32)")
    parser.add_argument("--repeats", type=int, default=100,
                        help="timing repeats of each figure (default 100)")
    parser.add_argument("--minres-steps", type=int, default=200,
                        help="MINRES steps per timed solve (default 200)")
    parser.add_argument("--qp", action="store_true",
                        help="also time the matrices of the qp_gaussian"
                             " profile")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the figures to PATH as JSON")
    args = parser.parse_args(argv)

    print(f"backends: {kernels.available_backends()}"
          f" (active: {kernels.active_backend()})")
    active = kernels.active_backend()
    try:
        problems = [({"mesh": mesh, "profile": None},
                     build_poisson_control(ControlProblemSpec(mesh_size=mesh)))
                    for mesh in args.mesh]
        if args.qp:
            problems.append(({"mesh": None, "profile": "qp_gaussian"},
                             build_problem(load_config("qp_gaussian"))))
        records = [r for label, problem in problems
                   for r in bench_problem(label, problem, args)]
    finally:
        kernels.use_backend(active)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"script": "benchmarks/bench_kernels.py",
                       "argv": sys.argv[1:] if argv is None else argv,
                       "units": "microseconds, [best, median]",
                       "python": platform.python_version(),
                       "numpy": np.__version__,
                       "machine": platform.machine(),
                       "cpus": os.cpu_count(),
                       "records": records}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
