"""Isolated kernel and MINRES timings on one problem's own matrices.

The Jacobian J and the Lagrangian Hessian H (multipliers zero) are
taken at the problem's starting point.  Vectors come from ``seed``.
Each timing is the median over ``repeats`` calls of the active kernel
backend.
"""

from time import perf_counter

import numpy as np

from sisqo import kernels
from sisqo.krylov import MinresState
from sisqo.sparse import KktOperator

MINRES_STEPS = 200


def _median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return float(np.median(times))


def isolated_metrics(problem, seed, repeats=2000, solves=15):
    """Returns {name: (value, unit)} for matvec, rmatvec and a MINRES
    solve of at most ``MINRES_STEPS`` steps (fewer when the Krylov
    space of a small problem is exhausted first)."""
    j = problem.eval_jacobian(problem.x0)
    h = problem.eval_lagrangian_hessian(problem.x0, np.zeros(problem.m))
    rng = np.random.default_rng(seed)
    x, xt = rng.standard_normal(j.cols), rng.standard_normal(j.rows)
    out, out_t = np.empty(j.rows), np.empty(j.cols)
    matvec = _median_time(lambda: kernels.csr_matvec(
        j.indptr, j.indices, j.data, x, out), repeats)
    rmatvec = _median_time(lambda: kernels.csr_rmatvec(
        j.indptr, j.indices, j.data, xt, out_t), repeats)

    op = KktOperator(h, j)
    rhs = (rng.standard_normal(op.n), rng.standard_normal(op.m))
    steps = []

    def solve():
        state = MinresState(op, rhs)
        while state.iteration < MINRES_STEPS \
                and not (state.breakdown or state.stalled):
            state.step()
        steps.append(state.iteration)

    per_solve = _median_time(solve, solves)
    return {
        "kernels.iso_matvec_us": (matvec * 1e6, "us"),
        "kernels.iso_rmatvec_us": (rmatvec * 1e6, "us"),
        "krylov.iso_minres_solve_ms": (per_solve * 1e3, "ms"),
        "krylov.iso_minres_step_us": (per_solve / max(steps[0], 1) * 1e6,
                                      "us"),
    }
