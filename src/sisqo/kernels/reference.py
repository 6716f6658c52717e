"""Pure-numpy CSR kernels, the fallback when the compiled core is absent.

The four functions take the arguments of their ``_csrkern`` twins and
agree with them in exact arithmetic; floating point sums may differ at
round-off because the vectorized reductions associate differently.
``minres_step`` and ``cg`` are the loops the compiled ones reproduce;
like its twin, ``cg`` allocates its own vectors.  They take their
products from ``sisqo.kernels`` (``kkt_apply``, ``csr_matvec`` and
``csr_rmatvec``), on whichever backend is active, so with the compiled
backend active each agrees bit for bit with its compiled twin.
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


def cg(indptr, indices, data, ncols, normal, b, x, threshold, max_iter):
    """Conjugate gradients on ``A x = b`` from x = 0, with ``A = J.T J``
    if ``normal`` is true and ``A = J J.T`` if not, for J in CSR form with
    ``ncols`` columns.

    Stops at the first iterate whose residual 2-norm is at most
    ``threshold``, at ``p.A p <= 0``, or after ``max_iter`` iterations.
    ``x`` receives the converged iterate, or else the one of least
    residual.  Returns ``(iterations, converged, resid_norm)``.
    """
    rows, size = indptr.shape[0] - 1, b.shape[0]
    if ncols < 0 or x.shape != (size,) or size != (ncols if normal else rows):
        raise ValueError("b and x do not match J and each other")
    # the length of J p (A = J.T J) or of J.T p (A = J J.T)
    inner = rows if normal else ncols
    first, second = ((kernels.csr_matvec, kernels.csr_rmatvec) if normal
                     else (kernels.csr_rmatvec, kernels.csr_matvec))

    def apply_a(p):
        jp, out = np.empty(inner), np.empty(size)
        first(indptr, indices, data, p, jp)
        second(indptr, indices, data, jp, out)
        return out

    x[:] = 0.0
    r = b.copy()
    rs = float(np.dot(r, r))
    rnorm = math.sqrt(rs)
    if rnorm <= threshold:
        return 0, True, rnorm
    p = r.copy()
    best_x, best_norm = x.copy(), rnorm
    iterations = 0
    for t in range(1, max_iter + 1):
        ap = apply_a(p)
        pap = float(np.dot(p, ap))
        if pap <= 0.0:
            # round-off pushed p outside the range space; stop here
            break
        alpha = rs / pap
        x[:] = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.dot(r, r))
        rnorm = math.sqrt(rs_new)
        iterations = t
        if rnorm < best_norm:
            best_x, best_norm = x.copy(), rnorm
        if rnorm <= threshold:
            return t, True, rnorm
        p = r + (rs_new / rs) * p
        rs = rs_new
    x[:] = best_x
    return iterations, False, best_norm
