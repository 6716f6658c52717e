"""Sparse matrix and KKT operator types used by the iterative solvers.

Storage is canonical CSR (sorted, duplicate-free, int64 indices, float64
values).  Matrix-vector products dispatch to :mod:`sisqo.kernels`, so the
same objects run on the compiled core or the numpy fallback.

Matrices are immutable: the CSR arrays are read-only copies of the
caller's (a matrix combined from another of the same pattern shares its
pattern arrays), so derived quantities such as the symmetry defect are
computed once per object and cached.
"""

import numpy as np

from . import kernels

__all__ = ["SparseMatrix", "KktOperator", "blend_with_identity",
           "frobenius_distance", "is_symmetric"]


class SparseMatrix:
    """Real sparse matrix in compressed sparse row form.

    Parameters
    ----------
    shape : tuple of int
        (rows, cols).  Zero rows are permitted (an empty constraint
        block); columns of an applied vector must still match.
    indptr, indices, data : array_like
        Canonical CSR arrays.  Column indices must be sorted within each
        row and duplicate (row, col) pairs are rejected.  The matrix keeps
        read-only copies, so later writes to the arguments do not reach it.
    """

    __slots__ = ("rows", "cols", "indptr", "indices", "data", "_sym_defect")

    def __init__(self, shape, indptr, indices, data):
        rows, cols = (int(shape[0]), int(shape[1]))
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        indptr = np.array(indptr, dtype=np.int64)
        indices = np.array(indices, dtype=np.int64)
        data = np.array(data, dtype=np.float64)
        if indptr.shape != (rows + 1,) or indptr[0] != 0 or indptr[-1] != len(data):
            raise ValueError("malformed CSR indptr")
        if len(indices) != len(data):
            raise ValueError("indices and data length mismatch")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(indices) and (indices.min() < 0 or indices.max() >= cols):
            raise ValueError("column index out of range")
        # columns must increase between neighbours in one row; the pair
        # straddling each row start is exempt
        increasing = np.diff(indices) > 0
        starts = indptr[1:-1]
        increasing[starts[(starts > 0) & (starts < len(indices))] - 1] = True
        if not increasing.all():
            first = int(np.argmin(increasing))
            row = int(np.searchsorted(indptr, first, side="right")) - 1
            raise ValueError(f"row {row} has unsorted or duplicate columns")
        for a in (indptr, indices, data):
            a.flags.writeable = False
        self.rows = rows
        self.cols = cols
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._sym_defect = None

    # -- constructors ------------------------------------------------

    @classmethod
    def from_triplets(cls, shape, rows_idx, cols_idx, values, sum_duplicates=False):
        """Build from COO triplets, sorting into canonical CSR.

        Duplicate (row, col) pairs raise unless ``sum_duplicates`` is
        set, in which case they are accumulated.
        """
        rows, cols = (int(shape[0]), int(shape[1]))
        ri = np.asarray(rows_idx, dtype=np.int64)
        ci = np.asarray(cols_idx, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        if not (len(ri) == len(ci) == len(vals)):
            raise ValueError("triplet arrays must share a length")
        if len(ri):
            if ri.min() < 0 or ri.max() >= rows:
                raise ValueError("row index out of range")
            if ci.min() < 0 or ci.max() >= cols:
                raise ValueError("column index out of range")
        order = np.lexsort((ci, ri))
        ri, ci, vals = ri[order], ci[order], vals[order]
        if len(ri) > 1:
            dup = (np.diff(ri) == 0) & (np.diff(ci) == 0)
            if np.any(dup):
                if not sum_duplicates:
                    raise ValueError("duplicate (row, col) entries")
                keep = np.concatenate(([True], ~dup))
                group = np.cumsum(keep) - 1
                vals = np.bincount(group, weights=vals)
                ri, ci = ri[keep], ci[keep]
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.add.at(indptr, ri + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls((rows, cols), indptr, ci, vals)

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=np.float64)
        # != keeps NaN entries, which a magnitude test would drop
        ri, ci = np.nonzero(a != 0.0)
        return cls.from_triplets(a.shape, ri, ci, a[ri, ci])

    @classmethod
    def identity(cls, n):
        return cls.diagonal(np.ones(n))

    @classmethod
    def diagonal(cls, d):
        d = np.asarray(d, dtype=np.float64)
        n = d.shape[0]
        out = cls((n, n), np.arange(n + 1, dtype=np.int64),
                  np.arange(n, dtype=np.int64), d)
        out._sym_defect = 0.0
        return out

    def _with_data(self, data):
        """This pattern with the float64 values ``data``, taken over as
        they are: the pattern arrays are read-only and already checked,
        so the new matrix shares them."""
        out = object.__new__(SparseMatrix)
        out.rows, out.cols = self.rows, self.cols
        out.indptr, out.indices = self.indptr, self.indices
        data.flags.writeable = False
        out.data = data
        out._sym_defect = None
        return out

    # -- properties --------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    @property
    def nnz(self):
        return len(self.data)

    # -- products ----------------------------------------------------

    def apply(self, x):
        """A @ x."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise ValueError(f"expected vector of length {self.cols}")
        out = np.empty(self.rows)
        kernels.csr_matvec(self.indptr, self.indices, self.data, x, out)
        return out

    def apply_transpose(self, x):
        """A.T @ x without forming the transpose."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.shape != (self.rows,):
            raise ValueError(f"expected vector of length {self.rows}")
        out = np.empty(self.cols)
        kernels.csr_rmatvec(self.indptr, self.indices, self.data, x, out)
        return out

    # -- conversions and diagnostics ---------------------------------

    def to_dense(self):
        a = np.zeros((self.rows, self.cols))
        rows = np.repeat(np.arange(self.rows), np.diff(self.indptr))
        a[rows, self.indices] = self.data
        return a

    def triplets(self):
        """(row, col, value) arrays in canonical order."""
        rows = np.repeat(np.arange(self.rows, dtype=np.int64),
                         np.diff(self.indptr))
        return rows, self.indices.copy(), self.data.copy()

    def transpose(self):
        ri, ci, vals = self.triplets()
        return SparseMatrix.from_triplets((self.cols, self.rows), ci, ri, vals)

    def symmetry_defect(self):
        """max |A - A.T| over entries; 0 for a symmetric matrix.

        Computed on the first call and cached: the matrix is immutable.
        Diagonal matrices, and blends of an exactly symmetric matrix with
        the identity, are built knowing it is 0.0.
        """
        if self._sym_defect is None:
            self._sym_defect = self._compute_symmetry_defect()
        return self._sym_defect

    def _compute_symmetry_defect(self):
        if self.rows != self.cols:
            return np.inf
        defect = _combine(self, self.transpose(), 1.0, -1.0)
        return float(np.max(np.abs(defect.data), initial=0.0))

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"


def _combine(a, b, wa, wb):
    """wa * A + wb * B over the union of the two patterns, for A and B
    of one shape.  Entries present in both are summed in the order
    wa * a + wb * b, so a shared pattern skips the merge and gets the
    same bits."""
    if np.array_equal(a.indptr, b.indptr) and \
            np.array_equal(a.indices, b.indices):
        return a._with_data(wa * a.data + wb * b.data)
    ri, ci, va = a.triplets()
    rj, cj, vb = b.triplets()
    return SparseMatrix.from_triplets(
        a.shape, np.concatenate([ri, rj]), np.concatenate([ci, cj]),
        np.concatenate([wa * va, wb * vb]), sum_duplicates=True)


def blend_with_identity(h, iota):
    """iota * H + (1 - iota) * I for square H; exact at iota in {0, 1}.

    Mirrored entries go through identical operations, so the blend of
    an exactly symmetric H is exactly symmetric and is not checked again.
    """
    if h.rows != h.cols:
        raise ValueError("blend requires a square matrix")
    if iota == 1.0:
        return h
    if iota == 0.0:
        return SparseMatrix.identity(h.rows)
    out = _combine(h, SparseMatrix.identity(h.rows), iota, 1.0 - iota)
    if h.symmetry_defect() == 0.0:
        out._sym_defect = 0.0
    return out


def frobenius_distance(a, b):
    """||A - B||_F for two sparse matrices of one shape."""
    if a.shape != b.shape:
        raise ValueError("shape mismatch")
    return float(np.linalg.norm(_combine(a, b, 1.0, -1.0).data))


def is_symmetric(h):
    """Whether H is symmetric to 1e-12 of its largest entry (or of 1);
    the defect is cached on H, so a constant H pays for one check."""
    defect = h.symmetry_defect()
    if defect == 0.0:
        return True
    scale = max(1.0, float(np.max(np.abs(h.data))) if h.nnz else 0.0)
    return not defect > 1e-12 * scale


class KktOperator:
    """Symmetric saddle operator (u, d) -> (H u + J.T d, J u).

    H must be n-by-n and pass :func:`is_symmetric`; J is m-by-n with m
    possibly zero.  The operator is applied to stacked vectors of length
    n + m, as three CSR products.
    """

    __slots__ = ("h", "j", "n", "m", "dim", "csr")

    def __init__(self, h, j):
        if h.rows != h.cols:
            raise ValueError("H must be square")
        if j.cols != h.rows:
            raise ValueError("J column count must match H dimension")
        if not is_symmetric(h):
            raise ValueError(f"H is not symmetric"
                             f" (defect {h.symmetry_defect():.3e})")
        self.h = h
        self.j = j
        self.n = h.rows
        self.m = j.rows
        self.dim = self.n + self.m
        # the six CSR arrays of H and J, the leading arguments of
        # kernels.minres_step
        self.csr = (h.indptr, h.indices, h.data, j.indptr, j.indices,
                    j.data)

    def apply(self, z):
        """Stacked apply on z = (u, delta), into a new vector."""
        z = np.ascontiguousarray(z, dtype=np.float64)
        if z.shape != (self.dim,):
            raise ValueError(f"expected stacked vector of length {self.dim}")
        out = np.empty(self.dim)
        kernels.reference._kkt_apply(*self.csr, z, out)
        return out

    def __repr__(self):
        return f"KktOperator(n={self.n}, m={self.m})"
