"""Pure-numpy CSR kernels, the fallback when the compiled core is absent.

Semantics match ``_csrkern`` bit-for-bit in exact arithmetic; floating
point sums may differ at round-off because the vectorized reductions
associate differently.  ``minres_step`` is the step the compiled one
reproduces.  It takes its KKT products from ``sisqo.kernels.kkt_apply``,
on whichever backend is active, so with the compiled backend active the
two steps agree bit for bit.
"""

import math

import numpy as np

from .. import kernels

# floor of the Givens norm gamma
_EPS = float(np.finfo(float).eps)


def csr_matvec(indptr, indices, data, x, out):
    """out[i] = sum over row i of data[k] * x[indices[k]]."""
    prod = data * x[indices]
    out[:] = 0.0
    occupied = np.flatnonzero(indptr[1:] > indptr[:-1])
    if occupied.size:
        # reduceat segment starts must point at non-empty rows
        out[occupied] = np.add.reduceat(prod, indptr[occupied])


def csr_rmatvec(indptr, indices, data, x, out):
    """out[j] = sum over entries (i, j) of data[k] * x[i]."""
    nrows = x.shape[0]
    rows = np.repeat(np.arange(nrows), np.diff(indptr))
    out[:] = np.bincount(indices, weights=data * x[rows], minlength=out.shape[0])


def minres_step(h_indptr, h_indices, h_data, j_indptr, j_indices, j_data,
                rhs, work, scal):
    """One MINRES step on ``K z = -rhs``, K as in
    :func:`sisqo.kernels.kkt_apply`.

    ``work`` holds eight vectors of length dim = n + m, in this order:
    v, r1, r2, y, w, w2, the iterate z and the residual ``K z + rhs``.
    ``scal`` holds beta, the previous beta, dbar, epsln, phibar, cs, sn,
    the step count, and the residual's 2-norm and infinity norm.  Both
    are updated in place; ``scal[0]`` must be nonzero.
    """
    dim = h_indptr.shape[0] + j_indptr.shape[0] - 2
    if rhs.shape != (dim,) or work.shape != (8 * dim,) or scal.shape != (10,):
        raise ValueError("rhs, work and scal must have lengths n + m,"
                         " 8 (n + m) and 10")
    csr = (h_indptr, h_indices, h_data, j_indptr, j_indices, j_data)
    vec, r1, r2, y, w, w2, z, resid = work.reshape(8, dim)
    beta, oldb, dbar, oldeps, phibar, cs, sn, steps = scal[:8].tolist()
    # r2 holds the latest unnormalized Lanczos vector.  Every vector
    # operation writes into a row of ``work`` (positional out=; the
    # residual row is scratch until the residual is recomputed), and the
    # scalars are Python floats: the same IEEE operations in the same
    # order as the textbook form, with less call overhead.
    np.multiply(1.0 / beta, r2, vec)
    kernels.kkt_apply(*csr, vec, y)
    if steps >= 1:
        y -= np.multiply(beta / oldb, r1, resid)
    alfa = float(vec.dot(y))
    y -= np.multiply(alfa / beta, r2, resid)
    r1[:] = r2
    r2[:] = y
    oldb = beta
    beta = math.sqrt(float(y.dot(y)))

    delta = cs * dbar + sn * alfa
    gbar = sn * dbar - cs * alfa
    epsln = sn * beta
    dbar = -cs * beta
    gamma = float(max(np.hypot(gbar, beta), _EPS))
    cs = gbar / gamma
    sn = beta / gamma
    phi = cs * phibar
    phibar = sn * phibar

    # w = (vec - oldeps * w2 - delta * w) / gamma, built in the residual
    # row; w2 takes the old w
    np.subtract(vec, np.multiply(oldeps, w2, resid), resid)
    np.subtract(resid, np.multiply(delta, w, w2), resid)
    np.divide(resid, gamma, resid)
    w2[:] = w
    w[:] = resid
    z += np.multiply(phi, w, resid)

    # true residual, recomputed from the operator every step
    kernels.kkt_apply(*csr, z, resid)
    resid += rhs
    scal[:] = (beta, oldb, dbar, epsln, phibar, cs, sn, steps + 1,
               math.sqrt(float(resid.dot(resid))),
               float(np.max(np.abs(resid))) if dim else 0.0)
