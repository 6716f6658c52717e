"""Timing comparison of the compiled CSR kernels vs the numpy fallback.

For each mesh it measures, on the discretized Poisson control problem,
raw matvec/rmatvec throughput on its Jacobian J, the matvec of its
Hessian H, and one isolated MINRES step (the mean over a solve of
``--minres-steps`` steps).  Every figure is timed ``--repeats`` times and
printed as best/median.  The step is printed next to the two KKT applies
``(H u + J.T delta, J u)`` it contains, each counted as the sum of its
three isolated CSR product times rather than timed through the Python
composition ``kernels.kkt_apply``, whose slicing and temporary the
compiled step does not pay; their ratio is read from the medians.  Run
from the repository root of a
source checkout (an installed package needs no ``PYTHONPATH``):

    PYTHONPATH=src python3 benchmarks/bench_kernels.py --mesh 16 32 --repeats 200
"""

import argparse
import time

import numpy as np

from sisqo import kernels
from sisqo.krylov import MinresState
from sisqo.library import ControlProblemSpec, build_poisson_control
from sisqo.sparse import KktOperator


def _build(mesh):
    spec = ControlProblemSpec(mesh_size=mesh, n_terms=3, regularization=1e-5,
                              eps_n=1e-2, eps_s=float(np.sqrt(15.0)))
    problem = build_poisson_control(spec)
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


def bench_mesh(mesh, args):
    """Prints, per backend, the J matvec and rmatvec, the H matvec and
    one MINRES step on the Poisson control problem at ``mesh``."""
    problem, h, j = _build(mesh)
    print(f"\nproblem {problem.name}: n={problem.n} m={problem.m}"
          f" jacobian nnz={j.nnz} hessian nnz={h.nnz}")
    results = {}
    for name in kernels.available_backends():
        kernels.use_backend(name)
        fwd, rev, hfwd = bench_kernels(h, j, args.repeats)
        step = bench_minres_step(h, j, args.minres_steps, args.repeats)
        # two KKT applies: twice J x + J.T y + H x
        results[name] = (fwd, rev, hfwd, 2 * (fwd + rev + hfwd), step)

    print("best/median, microseconds; step/6 csr from the medians")
    print(f"{'backend':<10}" + "".join(
        f" {title:>15}" for title in ("J matvec", "J rmatvec", "H matvec",
                                      "2 x 3 csr", "minres step"))
        + f" {'step/6 csr':>11}")
    for name, times in sorted(results.items()):
        print(f"{name:<10}" + "".join(
            f" {best * 1e6:>7.2f}/{median * 1e6:<7.2f}"
            for best, median in times)
            + f" {times[4][1] / times[3][1]:>10.2f}x")
    if len(results) == 2:
        py, comp = results["python"], results["compiled"]
        print("speedup of the medians (python/compiled): "
              + ", ".join(f"{title} {p[1] / c[1]:.2f}x" for title, p, c in
                          zip(("J matvec", "J rmatvec", "H matvec"), py, comp))
              + f", minres step {py[4][1] / comp[4][1]:.2f}x")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mesh", type=int, nargs="+", default=[16, 32],
                        help="interior grid points per side, one or more"
                             " (default 16 32)")
    parser.add_argument("--repeats", type=int, default=100,
                        help="timing repeats of each figure (default 100)")
    parser.add_argument("--minres-steps", type=int, default=200,
                        help="MINRES steps per timed solve (default 200)")
    args = parser.parse_args(argv)

    print(f"backends: {kernels.available_backends()}"
          f" (active: {kernels.active_backend()})")
    active = kernels.active_backend()
    try:
        for mesh in args.mesh:
            bench_mesh(mesh, args)
    finally:
        kernels.use_backend(active)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
