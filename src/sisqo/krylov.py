"""Matrix-free Krylov solvers for the SQP subproblems.

Three pieces live here:

* conjugate gradients on the normal equations ``J.T J v = -J.T c`` for
  the normal (feasibility) step;
* conjugate gradients on ``J J.T y = -J g`` for least-squares
  multiplier estimates, and the stationarity residual ``g + J.T y``
  they leave;
* a streaming MINRES on the symmetric saddle system whose iterate
  ``(u_t, delta_t)`` and residual pair ``(rho_t, r_t)`` are read in
  place, as read-only views that stay valid until the next step; it
  advances one step at a time, or runs until the tangential step's
  termination tests accept an iterate.

Each CG solve is one call of :func:`sisqo.kernels.cg`, which applies
its operator as two CSR products (J then J.T, or J.T then J), so the
product matrix is never formed.  It starts from zero, keeps the iterate
of least residual, and stops early when ``p.A p <= 0``.

MINRES follows the classical Lanczos + Givens formulation, and its
state lives in two arrays the kernels update in place: the Lanczos and
search-direction vectors, the iterate and the residual in one, the
scalars of the recurrence and of the breakdown and stall rules in the
other.  :func:`sisqo.kernels.tangential_solve` owns those rules, whose
constants (``BREAKDOWN_TOL``, ``STALL_WINDOW``, ``STALL_IMPROVEMENT``)
live in :mod:`sisqo.kernels`; one
:meth:`MinresState.step` is one call of it for a single step, and
:meth:`MinresState.run` one call for a whole truncated solve, which
checks the termination tests at each gated iterate in the same loop.
The residual pair is recomputed from the operator (one extra apply)
wherever it is read, so the reported residual is always the true one.  A
step of :meth:`MinresState.step` forms it every time.  Within
:meth:`MinresState.run` with the tests, a step forms it only where the
gate ``||r||_inf <= cap`` can pass.  Each step of such a solve carries
the residual vector by the recurrence of MINRES, ``r = sn^2 r + (phibar
cs) v`` for the next Lanczos vector v (Choi, Paige & Saunders, SIAM J.
Sci. Comput. 33(4), 2011; Paige & Saunders, SIAM J. Numer. Anal. 12(4),
1975), right after the iterate.  A step whose carried residual has an
infinity norm above ``RESID_SKIP_MARGIN cap`` cannot pass and makes one
apply, not two.  The carried residual only decides that skip: steps that
end a stall window or break down, and the last step of the call, form
the true residual all the same, and every formed residual replaces the
carried one.  So the stall and breakdown rules, the tests and the caller
read true residuals, and the accepted iterates are those of a solve that
forms every residual, as long as the carried residual drifts from the
true one by less than ``(RESID_SKIP_MARGIN - 1) cap``; on the mesh-8
control systems of the tests it drifts by at most 3e-4 cap.  On the
benchmark's seeded runs the skip took 87% of the steps' residuals on
poisson16, 93% on neumann16_pair and 38% on qp_gaussian.  What is left
is about one residual per stall window, the accepted iterate, and the
gated candidates that the tests reject, which need a true residual.
"""

import logging
from dataclasses import dataclass

import numpy as np

from . import kernels

__all__ = ["CgResult", "cg_normal_solve", "least_squares_multipliers",
           "least_squares_residual", "MinresState", "norm_pair"]

logger = logging.getLogger(__name__)

# the CG tolerances, read at each call: the normal-step CG stops at
# max(CG_REL_TOL * ||J'c||, CG_ABS_FLOOR), the multiplier CG at
# max(MULTIPLIER_REL_TOL * ||J g||, MULTIPLIER_ABS_FLOOR)
CG_REL_TOL = 0.1
CG_ABS_FLOOR = 1e-10
MULTIPLIER_REL_TOL = 1e-10
MULTIPLIER_ABS_FLOOR = 1e-14


def norm_pair(a, b):
    """Euclidean norm of the stacked vector (a; b)."""
    return float(np.sqrt(np.dot(a, a) + np.dot(b, b)))


@dataclass
class CgResult:
    """Outcome of a conjugate-gradient solve.

    ``v`` is the best iterate seen (the converged one when ``converged``
    is set), ``resid_norm`` its normal-equations residual norm.
    """

    v: np.ndarray
    iterations: int
    converged: bool
    resid_norm: float


def cg_max_iter(m):
    """The CG iteration cap for a J of m rows."""
    return 4 * m + 10


def _cg(j, normal, b, rel_tol, abs_floor):
    """CG on ``A x = b`` from x = 0 (A = J.T J if ``normal``, else J J.T) to
    ``max(rel_tol * ||b||, abs_floor)`` in at most :func:`cg_max_iter`
    iterations; warns unless it converged."""
    threshold = max(rel_tol * float(np.linalg.norm(b)), abs_floor)
    x = np.empty(b.shape[0])
    result = CgResult(x, *kernels.cg(j.indptr, j.indices, j.data, j.shape[1],
                                     normal, b, x, threshold,
                                     cg_max_iter(j.shape[0])))
    if not result.converged:
        logger.warning("%s CG stopped at resid %.3e (target %.3e) after %d "
                       "iterations", "normal-step" if normal else "multiplier",
                       result.resid_norm, threshold, result.iterations)
    return result


def cg_normal_solve(j, c):
    """Solve min ||c + J v|| over the row space of J by CG.

    Works on the normal equations ``J.T J v = -J.T c`` applied
    matrix-free (J then J.T).  Starts from v = 0 and stops at the first
    iterate with ``||J.T J v + J.T c|| <= max(CG_REL_TOL * ||J.T c||,
    CG_ABS_FLOOR)``, so a zero right-hand side returns v = 0 at once.

    Returns a :class:`CgResult`; non-convergence within
    :func:`cg_max_iter` of J's rows iterations is reported through
    ``converged=False`` with the best iterate kept.
    """
    return _cg(j, True, -j.apply_transpose(c), CG_REL_TOL, CG_ABS_FLOOR)


def least_squares_multipliers(j, g):
    """Least-squares multipliers: CG on ``J J.T y = -J g``.

    The tolerance is ``MULTIPLIER_REL_TOL`` relative to the right-hand
    side norm, with the absolute floor ``MULTIPLIER_ABS_FLOOR``, in at
    most :func:`cg_max_iter` of m iterations; an unconverged solve logs a
    warning and returns the best iterate reached."""
    return _cg(j, False, -j.apply(g), MULTIPLIER_REL_TOL,
               MULTIPLIER_ABS_FLOOR).v


def least_squares_residual(j, g):
    """The least-squares multipliers y for g, as
    :func:`least_squares_multipliers` returns them, and the stationarity
    residual ``g + J.T y`` they leave; returns ``(y, g + J.T y)``."""
    y = least_squares_multipliers(j, g)
    return y, g + j.apply_transpose(y)


class MinresState:
    """Streaming MINRES on ``K z = -rhs`` for the saddle operator K.

    The state owns the Lanczos vectors, the running Givens rotation, the
    iterate ``z = (u, delta)``, the residual pair ``(rho, r) = K z +
    rhs`` and the breakdown and stall bookkeeping, in the buffers
    :func:`sisqo.kernels.tangential_solve` updates in place.  It is
    single-owner: advance it only through :meth:`step` and :meth:`run`.

    Attributes
    ----------
    z, u, delta, rho, r : ndarray
        Read-only views of the iterate and of the residual pair.  Each
        step overwrites them, so they hold the current candidate until
        the next :meth:`step`; copy what must outlive it.
    resid_norm, resid_norm_inf : float
        Euclidean and infinity norms of the stacked residual (recomputed,
        true: :meth:`run` forms the residual before it returns, whatever
        steps it skipped, so the residual pair never holds the carried
        residual); the infinity norm is NaN if the residual holds one.
    iteration : int
        Number of completed steps.
    breakdown : bool
        Lanczos breakdown was detected (the iterate is the exact
        solution of the consistent system) or the state was stepped
        after convergence.
    stalled : bool
        The best residual stopped improving over a full window; the
        caller should treat the solve as unable to make progress.
    """

    def __init__(self, op, rhs):
        rhs_top, rhs_bot = rhs
        rhs_top = np.asarray(rhs_top, dtype=np.float64)
        rhs_bot = np.asarray(rhs_bot, dtype=np.float64)
        if rhs_top.shape != (op.n,) or rhs_bot.shape != (op.m,):
            raise ValueError("rhs blocks must match operator dimensions")
        self.op = op
        self.rhs = np.concatenate([rhs_top, rhs_bot])
        if not np.isfinite(self.rhs).all():
            raise ValueError("rhs must be finite")
        self.iteration = 0
        self.breakdown = False
        self.stalled = False

        b = -self.rhs
        beta1 = float(np.linalg.norm(b))
        self.resid_norm = beta1
        self.resid_norm_inf = float(np.max(np.abs(b), initial=0.0))
        # rows v, r1, r2, y, w, w2, z and the residual; r1 and r2 start
        # as the first unnormalized Lanczos vector, the residual as rhs
        self._work = np.zeros(8 * op.dim)
        rows = self._work.reshape(8, op.dim)
        rows[1] = rows[2] = b
        rows[7] = self.rhs
        self.z, resid = rows[6], rows[7]
        self.z.flags.writeable = resid.flags.writeable = False
        self.u, self.delta = self.z[:op.n], self.z[op.n:]
        self.rho, self.r = resid[:op.n], resid[op.n:]
        # beta, oldb, dbar, epsln, phibar, cs, sn, steps, ||r||_2,
        # ||r||_inf; then beta1, the best residual, the best at the last
        # window's end, and the breakdown and stall flags
        self._scal = np.array([beta1, 0.0, 0.0, 0.0, beta1, -1.0, 0.0, 0.0,
                               beta1, self.resid_norm_inf,
                               beta1, beta1, beta1, 0.0, 0.0])

    def run(self, max_iter, vecs=None, tests=None):
        """Up to ``max_iter`` steps, none once converged, by one call of
        :func:`sisqo.kernels.tangential_solve`; with ``vecs`` and
        ``tests``, it also checks the termination tests at each gated
        iterate, from the current one on, stops at the first they
        accept, and forms the residual only on steps where the carried
        residual shows that the gate can pass.  Returns the kernel's
        outcome tuple, whose last entry counts the residuals formed."""
        out = kernels.tangential_solve(*self.op.csr, self.rhs, self._work,
                                       self._scal, vecs, tests, max_iter)
        (*_, steps, self.resid_norm, self.resid_norm_inf, _, _, _, breakdown,
         stalled) = self._scal.tolist()
        self.iteration = int(steps)
        self.breakdown, self.stalled = bool(breakdown), bool(stalled)
        return out

    def step(self):
        """Advance one Lanczos/Givens step; no-op once converged."""
        self.run(1)
        return self
