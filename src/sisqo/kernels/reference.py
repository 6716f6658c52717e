"""Pure-numpy CSR kernels, the fallback when the compiled core is absent.

Semantics match ``_csrkern`` bit-for-bit in exact arithmetic; floating
point sums may differ at round-off because the vectorized reductions
associate differently.
"""

import numpy as np


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


def kkt_apply(h_indptr, h_indices, h_data, j_indptr, j_indices, j_data, z,
              out):
    """out = (H u + J.T delta, J u) for z = (u, delta); out must not
    overlap z.  Composes the two kernels above in the compiled order."""
    n, m = h_indptr.shape[0] - 1, j_indptr.shape[0] - 1
    if z.shape != (n + m,) or out.shape != (n + m,):
        raise ValueError("z and out must both have length n + m")
    if np.may_share_memory(z, out):
        raise ValueError("out overlaps z")
    top, bot = out[:n], out[n:]
    csr_matvec(h_indptr, h_indices, h_data, z[:n], top)
    if bot.size:
        jtd = np.empty(n)
        csr_rmatvec(j_indptr, j_indices, j_data, z[n:], jtd)
        top += jtd
        csr_matvec(j_indptr, j_indices, j_data, z[:n], bot)
