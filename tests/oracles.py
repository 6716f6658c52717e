"""Dense reference implementations the tests check the package against.

Everything here goes through numpy.linalg on explicitly assembled
matrices, deliberately sharing no code with the package's matrix-free
paths.  The exception is :class:`AllocatingMinres`, the earlier
implementation of the MINRES step kept as a bit-for-bit oracle for the
in-place one.
"""

import numpy as np

from sisqo.sparse import SparseMatrix


def dense_kkt_matrix(h_dense, j_dense):
    m = j_dense.shape[0]
    return np.block([[h_dense, j_dense.T],
                     [j_dense, np.zeros((m, m))]]) if m else h_dense


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
