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
termination tests, timed from its start state per solve and per step,
with the share of its steps that formed the true residual.  ``--qp``
adds the same table for the matrices of the ``qp_gaussian`` profile,
and ``--neumann`` for the Neumann control problem at the meshes it
names.
Every figure is timed ``--repeats`` times and printed as best/median.
The repeats are interleaved: each round times one call of every figure
of every backend in turn, so a burst of load on the host spreads over
all the figures of a problem instead of landing on one of them.
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
        --neumann 16 --repeats 200 --json bench.json
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
from sisqo.library import (ControlProblemSpec, build_neumann_control,
                           build_poisson_control)
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


def _interleaved(figures, repeats):
    """Best and median seconds of each of ``figures``, a dict of key to
    ``(backend, prepare)``, over ``repeats`` rounds.  Each round takes the
    figures in turn: it binds the figure's backend and calls ``prepare``,
    both untimed, then times one call of the function ``prepare``
    returns."""
    times = {key: [] for key in figures}
    for _ in range(repeats):
        for key, (backend, prepare) in figures.items():
            kernels.use_backend(backend)
            call = prepare()
            t0 = time.perf_counter()
            call()
            times[key].append(time.perf_counter() - t0)
    return {key: np.array([min(t), np.median(t)]) for key, t in times.items()}


def csr_figures(h, j):
    """Calls of J x, J.T y and H x, as ``prepare`` functions of
    :func:`_interleaved`."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(j.cols)
    xt = rng.standard_normal(j.rows)
    out = np.empty(j.rows)
    out_t = np.empty(j.cols)
    out_h = np.empty(h.rows)
    return (lambda: lambda: kernels.csr_matvec(j.indptr, j.indices, j.data,
                                               x, out),
            lambda: lambda: kernels.csr_rmatvec(j.indptr, j.indices, j.data,
                                                xt, out_t),
            lambda: lambda: kernels.csr_matvec(h.indptr, h.indices, h.data,
                                               x, out_h))


def minres_step_figure(h, j, steps, taken):
    """A solve of at most ``steps`` steps taken by ``MinresState.step``;
    each solve appends the steps it took to ``taken``."""
    op = KktOperator(h, j)
    rng = np.random.default_rng(1)
    rhs = (rng.standard_normal(op.n), rng.standard_normal(op.m))

    def solve():
        state = MinresState(op, rhs)
        while state.iteration < steps \
                and not (state.breakdown or state.stalled):
            state.step()
        taken.append(state.iteration)

    return lambda: solve


def cg_figure(loop, problem, j, taken):
    """A multiplier-CG solve by ``kernels.cg``, or by the numpy loop
    ``kernels.reference.cg`` on the bound backend's products if ``loop``;
    each appends its iterations to ``taken``."""
    b = -j.apply(problem.eval_grad_f(problem.x0))
    threshold = max(MULTIPLIER_REL_TOL * float(np.linalg.norm(b)),
                    MULTIPLIER_ABS_FLOOR)
    y = np.empty(j.rows)

    def prepare():
        cg = kernels.reference.cg if loop else kernels.cg
        return lambda: taken.append(cg(j.indptr, j.indices, j.data, j.cols,
                                       False, b, y, threshold,
                                       cg_max_iter(j.rows))[0])

    return prepare


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


def tangential_figure(solve_args, outcomes):
    """The captured tangential solve from a fresh copy of its start state
    (the copy is made untimed); each run appends its outcome to
    ``outcomes``."""
    args = list(solve_args)
    work, scal = args[7], args[8]

    def prepare():
        args[7], args[8] = work.copy(), scal.copy()
        return lambda: outcomes.append(kernels.tangential_solve(*args))

    return prepare


def bench_problem(label, problem, args):
    """Prints, per backend, the J matvec and rmatvec, the H matvec, one
    MINRES step, one multiplier-CG iteration and one tangential solve on
    ``problem``; returns one JSON record per backend, keyed by
    ``label`` and the problem's name."""
    problem, h, j = _build(problem)
    print(f"\nproblem {problem.name}: n={problem.n} m={problem.m}"
          f" jacobian nnz={j.nnz} hessian nnz={h.nnz}")
    solve_args = first_tangential_solve(problem)
    figures, counts = {}, {}
    for name in kernels.available_backends():
        kernels.use_backend(name)
        taken = counts[name] = {"step": [], "cg": [], "loop": [],
                                "tangential": []}
        for title, prepare in zip(TITLES, csr_figures(h, j)):
            figures[name, title] = name, prepare
        figures[name, "minres step"] = name, minres_step_figure(
            h, j, args.minres_steps, taken["step"])
        figures[name, "cg iter"] = name, cg_figure(False, problem, j,
                                                   taken["cg"])
        # the numpy backend's cg is the loop itself
        if kernels.cg is not kernels.reference.cg:
            figures[name, "cg loop"] = name, cg_figure(True, problem, j,
                                                       taken["loop"])
        figures[name, "tangential"] = name, tangential_figure(
            solve_args, taken["tangential"])
    times = _interleaved(figures, args.repeats)

    results, loops, per_step, records = {}, {}, {}, []
    for name, taken in counts.items():
        fwd, rev, hfwd = (times[name, title] for title in TITLES[:3])
        step = times[name, "minres step"] / max(taken["step"][0], 1)
        cg = times[name, "cg iter"] / max(taken["cg"][0], 1)
        loops[name] = times[name, "cg loop"] / max(taken["loop"][0], 1) \
            if taken["loop"] else cg
        tangential = times[name, "tangential"]
        out = taken["tangential"][0]
        steps = out[0]
        # a kernel whose outcome has no count of residuals formed (an
        # older revision, timed for comparison) formed one every step
        formed = out[9] if len(out) > 9 else steps
        per_step[name] = tangential / max(steps, 1)
        # two KKT applies: twice J x + J.T y + H x
        results[name] = (fwd, rev, hfwd, 2 * (fwd + rev + hfwd), step, cg,
                         tangential)
        records.append({**label, "problem": problem.name, "n": problem.n,
                        "m": problem.m, "backend": name,
                        "cg_iterations": taken["cg"][0],
                        "tangential_steps": steps,
                        "residuals_per_step": formed / max(steps, 1)}
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
          + ", ".join(f"{r['tangential_steps']} steps forming"
                      f" {r['residuals_per_step']:.3f} residuals per step"
                      f" ({r['backend']})" for r in records)
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
    parser.add_argument("--neumann", type=int, nargs="+", default=[],
                        metavar="MESH",
                        help="also time the Neumann control problem at"
                             " these meshes")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the figures to PATH as JSON")
    args = parser.parse_args(argv)

    print(f"backends: {kernels.available_backends()}"
          f" (active: {kernels.active_backend()})")
    active = kernels.active_backend()
    try:
        problems = [({"mesh": mesh, "profile": None},
                     build(ControlProblemSpec(mesh_size=mesh)))
                    for build, meshes in ((build_poisson_control, args.mesh),
                                          (build_neumann_control,
                                           args.neumann))
                    for mesh in meshes]
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
