"""Dense reference implementations the tests check the package against.

Everything here goes through numpy.linalg on explicitly assembled
matrices, deliberately sharing no code with the package's matrix-free
paths.  The exceptions are :class:`AllocatingMinres`, the earlier
implementation of the MINRES step kept as a bit-for-bit oracle for the
in-place one, the residual helpers, and the front ends at the end, which
work out from raw arrays the parts (norms and products) that the
engine's formulas take, so a test reaches the one implementation that
``sqp_iterate`` runs.  Among them, ``eager_termination_tests`` restates
the termination tests in full, with the package's sparse products, as
the reference for the kernel's evaluation that stops at the first
failing condition.
"""

import math
from types import SimpleNamespace

import numpy as np

import sisqo.engine as engine
from sisqo import kernels
from sisqo.engine import NormalStepResult, _IterationContext, _TestEvaluation
from sisqo.krylov import MinresState
from sisqo.sparse import KktOperator, SparseMatrix


def dense_kkt_matrix(h_dense, j_dense):
    m = j_dense.shape[0]
    return np.block([[h_dense, j_dense.T],
                     [j_dense, np.zeros((m, m))]]) if m else h_dense


def kkt_operator_dense(h, j):
    """The saddle matrix of ``KktOperator(h, j)`` assembled densely from
    the sparse blocks."""
    return dense_kkt_matrix(h.to_dense(), j.to_dense())


def dense_kkt_solve(h_dense, j_dense, rhs_top, rhs_bot):
    """Direct solve of K z = -rhs; returns (u, delta)."""
    n = h_dense.shape[0]
    k_mat = dense_kkt_matrix(h_dense, j_dense)
    rhs = np.concatenate([rhs_top, rhs_bot])
    z = np.linalg.solve(k_mat, -rhs)
    return z[:n], z[n:]


def dense_normal_step(j_dense, c):
    """Minimum-norm solution of min ||c + J v||."""
    return -np.linalg.pinv(j_dense) @ c


def dense_least_squares_multipliers(j_dense, g):
    """argmin_y ||g + J.T y||."""
    return np.linalg.lstsq(j_dense.T, -g, rcond=None)[0]


def random_full_rank(rng, m, n, smin=0.5, smax=2.0):
    """m-by-n matrix with singular values in [smin, smax]."""
    u, _, vt = np.linalg.svd(rng.standard_normal((m, n)),
                             full_matrices=False)
    return (u * np.linspace(smax, smin, min(m, n))) @ vt


def random_spd(rng, n, eig_lo=0.5, eig_hi=5.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mat = (q * np.linspace(eig_lo, eig_hi, n)) @ q.T
    return 0.5 * (mat + mat.T)


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def make_sparse(dense):
    return SparseMatrix.from_dense(np.atleast_2d(dense))


def dense_tracking_solution(problem):
    """Solve a linearly constrained quadratic tracking problem (any of
    the PDE control problems, or a QP) by one dense KKT factorization.

    Requires eval_grad_f affine and eval_c linear, which holds for the
    whole built-in library; returns (x_star, y_star).
    """
    n, m = problem.n, problem.m
    h_dense = problem.eval_lagrangian_hessian(
        problem.x0, np.zeros(m)).to_dense()
    j_dense = problem.eval_jacobian(problem.x0).to_dense()
    zero = np.zeros(n)
    q0 = problem.eval_grad_f(zero)
    b = -problem.eval_c(zero)
    k_mat = dense_kkt_matrix(h_dense, j_dense)
    sol = np.linalg.solve(k_mat, np.concatenate([-q0, b]))
    return sol[:n], sol[n:]


class AllocatingMinres:
    """MINRES on ``K z = -rhs`` as ``sisqo.krylov.MinresState`` computed it
    before it reused its buffers: a fresh array for every vector
    operation, the KKT operator applied as three separate CSR products
    (H u, then + J.T delta, and J u), and ``np.linalg.norm`` for norms.
    Its iterates and residuals are the reference the in-place step must
    reproduce bit for bit."""

    def __init__(self, h, j, rhs_top, rhs_bot):
        self.h, self.j, self.n = h, j, h.rows
        self.rhs = np.concatenate([rhs_top, rhs_bot])
        self.z = np.zeros(len(self.rhs))
        self.iteration = 0
        b = -self.rhs
        self.beta1 = float(np.linalg.norm(b))
        self.resid = self.rhs.copy()
        self.resid_norm = self.beta1
        self.r1, self.r2 = b.copy(), b.copy()
        self.oldb, self.beta, self.dbar, self.epsln = 0.0, self.beta1, 0.0, 0.0
        self.phibar, self.cs, self.sn = self.beta1, -1.0, 0.0
        self.w, self.w2 = np.zeros(len(b)), np.zeros(len(b))

    def apply(self, z):
        u, delta = z[:self.n], z[self.n:]
        top = self.h.apply(u)
        if self.j.rows:
            top += self.j.apply_transpose(delta)
            bot = self.j.apply(u)
        else:
            bot = np.zeros(0)
        return np.concatenate([top, bot])

    def step(self):
        vec = (1.0 / self.beta) * self.r2
        y = self.apply(vec)
        if self.iteration >= 1:
            y -= (self.beta / self.oldb) * self.r1
        alfa = float(np.dot(vec, y))
        y -= (alfa / self.beta) * self.r2
        self.r1, self.r2 = self.r2, y
        self.oldb = self.beta
        self.beta = float(np.linalg.norm(y))

        oldeps = self.epsln
        delta = self.cs * self.dbar + self.sn * alfa
        gbar = self.sn * self.dbar - self.cs * alfa
        self.epsln = self.sn * self.beta
        self.dbar = -self.cs * self.beta
        gamma = max(np.hypot(gbar, self.beta), np.finfo(float).eps)
        self.cs = gbar / gamma
        self.sn = self.beta / gamma
        phi = self.cs * self.phibar
        self.phibar = self.sn * self.phibar

        w1 = self.w2
        self.w2 = self.w
        self.w = (vec - oldeps * w1 - delta * self.w2) / gamma
        self.z = self.z + phi * self.w
        self.iteration += 1
        self.resid = self.apply(self.z) + self.rhs
        self.resid_norm = float(np.linalg.norm(self.resid))
        return self


def inf_norm_pair(a, b):
    """Infinity norm of the stacked vector (a; b)."""
    na = float(np.max(np.abs(a))) if a.size else 0.0
    nb = float(np.max(np.abs(b))) if b.size else 0.0
    return max(na, nb)


def residual_pair(h, j, g, v, y, u, delta):
    """Residual of the tangential saddle system at (u, delta).

    rho = H u + J.T delta + (g + H v + J.T y),  r = J u.
    """
    rho = h.apply(u) + h.apply(v) + g
    if j.shape[0]:
        rho += j.apply_transpose(delta) + j.apply_transpose(y)
        r = j.apply(u)
    else:
        r = np.zeros(0)
    return rho, r


# -- raw-array front ends to the engine's formulas ---------------------------

def merit_model_parts(g, c, j, d):
    """(g'd, ||c||, ||c + Jd||) for ``model_reduction``."""
    return (float(np.dot(g, d)), float(np.linalg.norm(c)),
            float(np.linalg.norm(c + j.apply(d))))


def tau_parts(g, d, u, h, c, j, v, r):
    """(g'd, max(u'Hu, EPS_U ||u||^2), ||c||, ||c + Jv + r||) for
    ``tau_trial_and_update``."""
    max_term = max(float(np.dot(u, h.apply(u))),
                   kernels.EPS_U * float(np.dot(u, u)))
    return (float(np.dot(g, d)), max_term, float(np.linalg.norm(c)),
            float(np.linalg.norm(c + j.apply(v) + r)))


def varphi_parts(c, j, d):
    """(c, ||c||, Jd, ||c + Jd||, ||d||^2) for ``evaluate_varphi``."""
    jd = j.apply(d)
    return (c, float(np.linalg.norm(c)), jd, float(np.linalg.norm(c + jd)),
            float(np.dot(d, d)))


def tangential_setup(g, c, j, v, y, h, tau_prev=1.0, beta=1.0,
                     prev_pair_norm=math.inf):
    """The engine's iteration context for a given normal step v rather
    than the one the CG would compute, at the Hessian ``h``, and a fresh
    MINRES state on its tangential system; returns (ctx, state)."""
    jv = j.apply(v)
    c_norm = float(np.linalg.norm(c))
    ns = NormalStepResult(
        v=v, iterations=0,
        cauchy_lhs=c_norm - float(np.linalg.norm(c + jv)),
        cauchy_rhs=math.nan, jv=jv, c_plus_jv=c + jv, c_norm=c_norm)
    ctx = _IterationContext(g, c, j, ns, y, tau_prev, beta, prev_pair_norm)
    ctx.set_rung(h)
    state = MinresState(KktOperator(h, j), (ctx.rhs_top, np.zeros(j.rows)))
    return ctx, state


def candidate_tests(g, c, j, v, y, h, u, delta, rho, r, cfg, tau_prev=1.0,
                    beta=1.0, prev_pair_norm=math.inf):
    """The evaluation of both termination tests for the candidate
    (u, delta) with residual pair (rho, r), on the context of
    :func:`tangential_setup`: ``kernels.tangential_solve`` on the active
    backend, run for ``max_iter = 0`` with an infinite cap on a MINRES
    state whose iterate and residual rows hold the candidate, with the
    engine's test parameters.

    Returns a namespace of ``failed`` (the condition, of "b", "a" and
    "c" in the order they are checked, that rejected the candidate, or
    None), ``tt1``, ``tt2``, ``accepted`` and ``reduces_model``, the
    engine record's recheck of the model reduction, which needs a
    candidate that passed conditions b and a."""
    ctx, state = tangential_setup(g, c, j, v, y, h, tau_prev, beta,
                                  prev_pair_norm)
    rows = state._work.reshape(8, -1)
    rows[6] = np.concatenate([u, delta])
    rows[7] = np.concatenate([rho, r])
    steps, tt1, tt2, _, _, *parts, rejected = state.run(
        0, ctx.vecs, engine._test_params(ctx, cfg, math.inf))
    assert steps == 0 and sum(rejected) == (0 if tt1 or tt2 else 1)
    ev = _TestEvaluation(state, ctx, tt1, tt2, *parts)
    return SimpleNamespace(
        failed=next((name for name, count in zip("bac", rejected) if count),
                    None),
        tt1=tt1, tt2=tt2, accepted=ev.accepted,
        reduces_model=ev.reduces_model)


def eager_termination_tests(g, c, j, v, y, h, u, delta, rho, r, cfg, tau_prev,
                            beta, prev_pair_norm):
    """Conditions a, b and c and termination tests 1 and 2 for the
    candidate (u, delta) with residual pair (rho, r), each formed in
    full from the raw arrays with no early exit, as
    ``candidate_tests`` poses them (its normal decrease is
    ``||c|| - ||c + Jv||``), at the constants of ``sisqo.kernels``.
    Returns a dict keyed "a", "b", "c", "tt1" and "tt2"; a comparison
    with NaN is false, so NaN fails a condition."""
    hu, hv, jv = h.apply(u), h.apply(v), j.apply(v)
    rho_norm = float(np.linalg.norm(rho))
    c_norm = float(np.linalg.norm(c))
    v_norm = float(np.linalg.norm(v))
    uhu, u_sq = float(np.dot(u, hu)), float(np.dot(u, u))
    stat = rho - hu - hv  # = g + J'(y + delta) at a true residual
    current = float(np.sqrt(np.dot(stat, stat) + np.dot(c, c)))
    out = {
        "a": rho_norm <= cfg.kappa * min(current, prev_pair_norm),
        "b": (rho_norm <= kernels.KAPPA_RHO * beta
              and float(np.linalg.norm(r)) <= kernels.KAPPA_R * beta),
        "c": (math.sqrt(u_sq) <= kernels.KAPPA_U * v_norm
              or (uhu >= kernels.EPS_U * u_sq
                  and float(np.dot(g + hv, u)) + 0.5 * uhu
                  <= kernels.KAPPA_V * v_norm)),
    }
    decrease_v = c_norm - float(np.linalg.norm(c + jv))
    norm_c_plus_jd = float(np.linalg.norm(c + jv + r))
    g_dot_d = float(np.dot(g, v)) + float(np.dot(g, u))
    reduction = -tau_prev * g_dot_d + c_norm - norm_c_plus_jd
    required = kernels.SIGMA_U * tau_prev * max(uhu, kernels.EPS_U * u_sq) \
        + kernels.SIGMA_C * decrease_v
    common = out["a"] and out["b"] and out["c"]
    out["tt1"] = common and reduction >= required
    floor = kernels.EPS_R * decrease_v
    out["tt2"] = common and c_norm - norm_c_plus_jd >= floor and floor > 0.0
    return out


def model_reduction_holds(tau, g, c, j, v, u, h, cfg):
    """The engine's sufficient model reduction check of d = v + u at tau,
    with the round-off slack of its recheck at an updated tau; the
    candidate's constraint residual is r = Ju."""
    m = j.rows
    ev = candidate_tests(g, c, j, v, np.zeros(m), h, u, np.zeros(m),
                         np.zeros(len(u)), j.apply(u), cfg)
    return ev.reduces_model(tau, relaxed=True)
