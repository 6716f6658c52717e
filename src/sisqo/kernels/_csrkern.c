/*
 * Compiled CSR kernels: row-major matvec, transpose matvec, one whole
 * MINRES step on the saddle-point (KKT) operator of H and J, and one whole
 * conjugate-gradient solve on J.T J or J J.T.
 *
 * These loops sit inside every Lanczos/CG iteration and dominate the
 * solver's runtime, hence the C implementation.  Signatures mirror
 * ``sisqo.kernels.reference`` exactly:
 *
 *     csr_matvec(indptr, indices, data, x, out)    out = A @ x
 *     csr_rmatvec(indptr, indices, data, x, out)   out = A.T @ x
 *     minres_step(h_indptr, h_indices, h_data,
 *                 j_indptr, j_indices, j_data, rhs, work, scal)
 *                 one MINRES step on K z = -rhs, K z = (H u + J.T delta, J u)
 *                 for z = (u, delta)
 *     cg(indptr, indices, data, ncols, normal, b, x, threshold, max_iter)
 *                 -> (iterations, converged, resid_norm)
 *                 CG on A x = b from x = 0, A = J.T J if normal else J J.T,
 *                 for J with ncols columns
 *
 * Every array argument is a 1-D C-contiguous aligned numpy array in native
 * byte order: ``*indptr`` and ``*indices`` hold 8-byte signed integers,
 * everything else holds float64, and the arrays a kernel writes --
 * ``out``, ``work``, ``scal`` and the ``x`` of ``cg`` -- must be writable
 * and overlap neither each other nor the ``x``, ``b`` or ``rhs`` the
 * kernel reads (the matrix arrays are not checked).  The arrays are
 * borrowed for the call, not copied.  Their lengths are checked against
 * each other; the index values are not (that would cost a pass over the
 * matrix), so a malformed CSR structure reads out of bounds.  ``cg``
 * keeps nothing between calls: it allocates its scratch vectors itself
 * and frees them before it returns.
 *
 * The loop order is fixed -- a sequential per-row sum for matvec, and
 * zero-then-scatter for rmatvec -- so results are reproducible bit for bit
 * for a given compiler and flags.  ``cg`` runs its products through the
 * same two loops.  The KKT product inside ``minres_step`` keeps that
 * order for each block and adds the row sum of H u to the scattered
 * J.T delta, so it has the bits of the three separate kernel calls that
 * the numpy step's helper ``sisqo.kernels.reference._kkt_apply`` makes.
 * ``minres_step`` and ``cg`` take their dot products from numpy's own
 * float64 ``dotfunc``, the function ``ndarray.dot`` calls for 1-D
 * vectors, and do everything else elementwise in the order of the numpy
 * loops in ``reference.py``; built without floating-point contraction,
 * their results have the bits of those loops run on this module's
 * matvec and rmatvec.  Built by ``sisqo.kernels`` on first import,
 * against numpy's headers.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <float.h>
#include <math.h>
#include <string.h>

#if NPY_ABI_VERSION < 0x02000000
#define PyDataType_GetArrFuncs(descr) ((descr)->f)
#endif

/* numpy's float64 dot product, fetched once at module init */
static PyArray_DotFunc *double_dot;

/* Check that each of ``objs`` is a 1-D C-contiguous aligned native-order
 * numpy array of 8-byte items: signed integers where ``kinds`` has 'i',
 * float64 where it has 'd', writable float64 where it has 'w'.  ``names``
 * name the arguments in errors.  The arrays are borrowed: the argument
 * tuple holds them for the whole call. */
static int
check_arrays(PyObject **objs, const char *kinds, char **names)
{
    PyArrayObject *arr;
    int i;

    for (i = 0; kinds[i] != '\0'; i++) {
        arr = (PyArrayObject *)objs[i];
        if (!PyArray_Check(objs[i])) {
            PyErr_Format(PyExc_TypeError,
                         "%s: expected a numpy array, got %.200s", names[i],
                         Py_TYPE(objs[i])->tp_name);
            return -1;
        }
        if (PyArray_NDIM(arr) != 1 || !PyArray_IS_C_CONTIGUOUS(arr)) {
            PyErr_Format(PyExc_ValueError,
                         "%s: expected a 1-D C-contiguous array", names[i]);
            return -1;
        }
        if (!PyArray_ISALIGNED(arr)) {
            PyErr_Format(PyExc_ValueError, "%s: the array is not aligned",
                         names[i]);
            return -1;
        }
        if (PyArray_ITEMSIZE(arr) != 8 || !PyArray_ISNOTSWAPPED(arr)
            || (kinds[i] == 'i' ? !PyArray_ISSIGNED(arr)
                : PyArray_TYPE(arr) != NPY_DOUBLE)) {
            PyErr_Format(PyExc_ValueError, "%s: expected native %s, got %S",
                         names[i], kinds[i] == 'i' ? "int64" : "float64",
                         (PyObject *)PyArray_DESCR(arr));
            return -1;
        }
        if (kinds[i] == 'w' && !PyArray_ISWRITEABLE(arr)) {
            PyErr_Format(PyExc_ValueError, "%s: the array is read-only",
                         names[i]);
            return -1;
        }
    }
    return 0;
}

#define LEN(obj) PyArray_DIM((PyArrayObject *)(obj), 0)
#define DATA(obj) PyArray_DATA((PyArrayObject *)(obj))

static int
overlaps(PyObject *a, PyObject *b)
{
    const char *pa = DATA(a), *pb = DATA(b);
    Py_ssize_t la = PyArray_NBYTES((PyArrayObject *)a),
        lb = PyArray_NBYTES((PyArrayObject *)b);

    return la > 0 && lb > 0 && pa < pb + lb && pb < pa + la;
}

/* The row count of the CSR matrix whose checked indptr, indices and data
 * are ``objs[0..2]``, named with ``prefix``; -1 with ValueError set if
 * indptr is empty or indices and data differ in length. */
static Py_ssize_t
csr_rows(PyObject **objs, const char *prefix)
{
    if (LEN(objs[0]) < 1) {
        PyErr_Format(PyExc_ValueError, "%sindptr needs at least one entry",
                     prefix);
        return -1;
    }
    if (LEN(objs[1]) != LEN(objs[2])) {
        PyErr_Format(PyExc_ValueError,
                     "%sindices and %sdata differ in length: %zd != %zd",
                     prefix, prefix, LEN(objs[1]), LEN(objs[2]));
        return -1;
    }
    return LEN(objs[0]) - 1;
}

/* Parse and check the five arguments of a CSR kernel and check their
 * lengths against each other.  ``rows_arg`` is the argument whose length
 * is the number of matrix rows: ``out`` for matvec, ``x`` for rmatvec. */
static int
get_csr_args(PyObject *args, PyObject *kwargs, const char *format,
             PyObject *objs[5], int rows_arg)
{
    static char *kwlist[] = {"indptr", "indices", "data", "x", "out", NULL};
    Py_ssize_t rows;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, format, kwlist, &objs[0],
                                     &objs[1], &objs[2], &objs[3], &objs[4])
        || check_arrays(objs, "iiddw", kwlist) < 0
        || (rows = csr_rows(objs, "")) < 0)
        return -1;
    if (rows != LEN(objs[rows_arg])) {
        PyErr_Format(PyExc_ValueError,
                     "indptr: expected length %zd (rows + 1), got %zd",
                     LEN(objs[rows_arg]) + 1, LEN(objs[0]));
        return -1;
    }
    if (overlaps(objs[3], objs[4])) {
        PyErr_SetString(PyExc_ValueError, "x and out overlap");
        return -1;
    }
    return 0;
}

/* out = A x for the CSR matrix A of nrows rows: a sequential sum per
 * row. */
static void
matvec(const long long *indptr, const long long *indices, const double *data,
       const double *x, double *out, Py_ssize_t nrows)
{
    Py_ssize_t i;
    long long k, end;
    double acc;

    for (i = 0; i < nrows; i++) {
        acc = 0.0;
        end = indptr[i + 1];
        for (k = indptr[i]; k < end; k++)
            acc += data[k] * x[indices[k]];
        out[i] = acc;
    }
}

/* out = A.T x for the nrows-by-ncols CSR matrix A: zero, then scatter
 * row by row. */
static void
rmatvec(const long long *indptr, const long long *indices, const double *data,
        const double *x, Py_ssize_t nrows, double *out, Py_ssize_t ncols)
{
    Py_ssize_t i;
    long long k, end;

    for (i = 0; i < ncols; i++)
        out[i] = 0.0;
    for (i = 0; i < nrows; i++) {
        end = indptr[i + 1];
        for (k = indptr[i]; k < end; k++)
            out[indices[k]] += data[k] * x[i];
    }
}

PyDoc_STRVAR(csr_matvec_doc,
"csr_matvec(indptr, indices, data, x, out)\n"
"--\n\n"
"out[i] = sum_k data[k] * x[indices[k]] over row i's entries.");

static PyObject *
csr_matvec(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *objs[5];

    if (get_csr_args(args, kwargs, "OOOOO:csr_matvec", objs, 4) < 0)
        return NULL;
    matvec(DATA(objs[0]), DATA(objs[1]), DATA(objs[2]), DATA(objs[3]),
           DATA(objs[4]), LEN(objs[4]));
    Py_RETURN_NONE;
}

PyDoc_STRVAR(csr_rmatvec_doc,
"csr_rmatvec(indptr, indices, data, x, out)\n"
"--\n\n"
"out[j] += data[k] * x[i] for every entry (i, j): the transpose apply.");

static PyObject *
csr_rmatvec(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *objs[5];

    if (get_csr_args(args, kwargs, "OOOOO:csr_rmatvec", objs, 3) < 0)
        return NULL;
    rmatvec(DATA(objs[0]), DATA(objs[1]), DATA(objs[2]), DATA(objs[3]),
            LEN(objs[3]), DATA(objs[4]), LEN(objs[4]));
    Py_RETURN_NONE;
}

/* The saddle operator K = [[H, J.T], [J, 0]] in CSR form. */
typedef struct {
    Py_ssize_t n, m;
    const long long *h_indptr, *h_indices, *j_indptr, *j_indices;
    const double *h_data, *j_data;
} kkt_op;

/* out = K z; out must not overlap z. */
static void
kkt_product(const kkt_op *op, const double *z, double *out)
{
    const Py_ssize_t n = op->n, m = op->m;
    const double *u = z, *delta = z + n;
    double *top = out, *bot = out + n;
    Py_ssize_t i;
    long long k, end, col;
    double acc, d;

    if (m > 0) {
        /* one pass over J: J u as in csr_matvec, and J.T delta
         * zero-then-scatter as in csr_rmatvec.  Each output element sees
         * the same operations in the same order as in the separate
         * kernels. */
        for (i = 0; i < n; i++)
            top[i] = 0.0;
        for (i = 0; i < m; i++) {
            d = delta[i];
            acc = 0.0;
            end = op->j_indptr[i + 1];
            for (k = op->j_indptr[i]; k < end; k++) {
                col = op->j_indices[k];
                acc += op->j_data[k] * u[col];
                top[col] += op->j_data[k] * d;
            }
            bot[i] = acc;
        }
    }
    /* H u row by row, added to the finished J.T delta */
    for (i = 0; i < n; i++) {
        acc = 0.0;
        end = op->h_indptr[i + 1];
        for (k = op->h_indptr[i]; k < end; k++)
            acc += op->h_data[k] * u[op->h_indices[k]];
        top[i] = m > 0 ? acc + top[i] : acc;
    }
}

/* Slots of the ``scal`` array of minres_step. */
enum {
    S_BETA, S_OLDB, S_DBAR, S_EPSLN, S_PHIBAR, S_CS, S_SN, S_STEPS,
    S_RNORM, S_RINF, SCAL_LEN
};

/* a . b with the bits of ndarray.dot on 1-D float64 vectors: numpy's own
 * dotfunc, except for length 1, which ndarray.dot multiplies as scalars. */
static double
dot(const double *a, const double *b, Py_ssize_t len)
{
    double result;

    if (len == 1)
        return a[0] * b[0];
    double_dot((void *)a, sizeof(double), (void *)b, sizeof(double),
               &result, len, NULL);
    return result;
}

/* max |x[i]| for x free of NaN, in four independent chains that run in
 * parallel; a maximum does not depend on the order it is taken in. */
static double
max_abs(const double *x, Py_ssize_t len)
{
    double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0, a;
    Py_ssize_t i;

    for (i = 0; i + 4 <= len; i += 4) {
        a = fabs(x[i]);
        m0 = a > m0 ? a : m0;
        a = fabs(x[i + 1]);
        m1 = a > m1 ? a : m1;
        a = fabs(x[i + 2]);
        m2 = a > m2 ? a : m2;
        a = fabs(x[i + 3]);
        m3 = a > m3 ? a : m3;
    }
    for (; i < len; i++) {
        a = fabs(x[i]);
        m0 = a > m0 ? a : m0;
    }
    m0 = m1 > m0 ? m1 : m0;
    m2 = m3 > m2 ? m3 : m2;
    return m2 > m0 ? m2 : m0;
}

PyDoc_STRVAR(minres_step_doc,
"minres_step(h_indptr, h_indices, h_data, j_indptr, j_indices, j_data,\n"
"            rhs, work, scal)\n"
"--\n\n"
"One MINRES step on K z = -rhs, K = [[H, J.T], [J, 0]], with H n-by-n and\n"
"J m-by-n in CSR form; n and m are read from the indptr lengths.\n"
"work holds eight vectors of length dim = n + m, in this order: v, r1,\n"
"r2, y, w, w2, the iterate z and the residual K z + rhs.  scal holds\n"
"beta, the previous beta, dbar, epsln, phibar, cs, sn, the step count,\n"
"and the residual's 2-norm and infinity norm (NaN if it holds a NaN).\n"
"Both are updated in place; scal[0] must be nonzero.");

static PyObject *
minres_step(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"h_indptr", "h_indices", "h_data", "j_indptr",
                             "j_indices", "j_data", "rhs", "work", "scal",
                             NULL};
    PyObject *objs[9];
    kkt_op op;
    const double *rhs;
    double *scal, *v, *r1, *r2, *y, *w, *w2, *z, *resid;
    double beta, oldb, dbar, oldeps, phibar, cs, sn, alfa, s, delta, gbar,
        gamma, phi, wi, wn, rnorm;
    Py_ssize_t i, dim;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOOOOO:minres_step",
                                     kwlist, &objs[0], &objs[1], &objs[2],
                                     &objs[3], &objs[4], &objs[5], &objs[6],
                                     &objs[7], &objs[8])
        || check_arrays(objs, "iidiiddww", kwlist) < 0
        || (op.n = csr_rows(objs, "h_")) < 0
        || (op.m = csr_rows(objs + 3, "j_")) < 0)
        return NULL;
    dim = op.n + op.m;
    if (LEN(objs[6]) != dim || LEN(objs[7]) != 8 * dim
        || LEN(objs[8]) != SCAL_LEN) {
        PyErr_Format(PyExc_ValueError,
                     "rhs, work and scal: expected lengths %zd (n + m), %zd"
                     " and %d, got %zd, %zd and %zd", dim, 8 * dim, SCAL_LEN,
                     LEN(objs[6]), LEN(objs[7]), LEN(objs[8]));
        return NULL;
    }
    if (overlaps(objs[6], objs[7]) || overlaps(objs[6], objs[8])
        || overlaps(objs[7], objs[8])) {
        PyErr_SetString(PyExc_ValueError, "rhs, work and scal overlap");
        return NULL;
    }
    op.h_indptr = DATA(objs[0]);
    op.h_indices = DATA(objs[1]);
    op.h_data = DATA(objs[2]);
    op.j_indptr = DATA(objs[3]);
    op.j_indices = DATA(objs[4]);
    op.j_data = DATA(objs[5]);
    rhs = DATA(objs[6]);
    v = DATA(objs[7]);
    r1 = v + dim;
    r2 = r1 + dim;
    y = r2 + dim;
    w = y + dim;
    w2 = w + dim;
    z = w2 + dim;
    resid = z + dim;
    scal = DATA(objs[8]);

    /* Lanczos: v = r2 / beta, y = K v - (beta / oldb) r1 - alfa / beta r2;
     * then r1 takes r2 and r2 takes y */
    beta = scal[S_BETA];
    s = 1.0 / beta;
    for (i = 0; i < dim; i++)
        v[i] = s * r2[i];
    kkt_product(&op, v, y);
    if (scal[S_STEPS] >= 1.0) {
        s = beta / scal[S_OLDB];
        for (i = 0; i < dim; i++)
            y[i] -= s * r1[i];
    }
    alfa = dot(v, y, dim);
    s = alfa / beta;
    for (i = 0; i < dim; i++) {
        y[i] -= s * r2[i];
        r1[i] = r2[i];
        r2[i] = y[i];
    }
    oldb = beta;
    beta = sqrt(dot(y, y, dim));

    /* Givens rotation; gamma = max(hypot, eps) keeps a NaN */
    cs = scal[S_CS];
    sn = scal[S_SN];
    dbar = scal[S_DBAR];
    oldeps = scal[S_EPSLN];
    phibar = scal[S_PHIBAR];
    delta = cs * dbar + sn * alfa;
    gbar = sn * dbar - cs * alfa;
    scal[S_EPSLN] = sn * beta;
    scal[S_DBAR] = -cs * beta;
    gamma = hypot(gbar, beta);
    if (DBL_EPSILON > gamma)
        gamma = DBL_EPSILON;
    cs = gbar / gamma;
    sn = beta / gamma;
    phi = cs * phibar;
    scal[S_PHIBAR] = sn * phibar;

    /* w = (v - oldeps w2 - delta w) / gamma, w2 takes the old w, and
     * z += phi w */
    for (i = 0; i < dim; i++) {
        wi = w[i];
        wn = ((v[i] - oldeps * w2[i]) - delta * wi) / gamma;
        w2[i] = wi;
        w[i] = wn;
        z[i] += phi * wn;
    }

    /* the true residual K z + rhs and its norms.  A sum of squares is
     * NaN exactly when a term is, so a NaN 2-norm stands in for the
     * infinity norm, as np.max returns NaN for an array holding one. */
    kkt_product(&op, z, resid);
    for (i = 0; i < dim; i++)
        resid[i] += rhs[i];
    rnorm = sqrt(dot(resid, resid, dim));

    scal[S_BETA] = beta;
    scal[S_OLDB] = oldb;
    scal[S_CS] = cs;
    scal[S_SN] = sn;
    scal[S_STEPS] += 1.0;
    scal[S_RNORM] = rnorm;
    scal[S_RINF] = isnan(rnorm) ? rnorm : max_abs(resid, dim);
    Py_RETURN_NONE;
}

PyDoc_STRVAR(cg_doc,
"cg(indptr, indices, data, ncols, normal, b, x, threshold, max_iter)\n"
"--\n\n"
"Conjugate gradients on A x = b from x = 0, with A = J.T J if normal is\n"
"true and A = J J.T if not, for J in CSR form with ncols columns.  Stops\n"
"at the first iterate whose residual 2-norm is at most threshold, at\n"
"p.A p <= 0, or after max_iter iterations.  x receives the converged\n"
"iterate, or else the one of least residual.\n"
"Returns (iterations, converged, resid_norm).");

static PyObject *
cg(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"indptr", "indices", "data", "ncols", "normal",
                             "b", "x", "threshold", "max_iter", NULL};
    static char *names[] = {"indptr", "indices", "data", "b", "x", NULL};
    PyObject *objs[5];
    const long long *indptr, *indices;
    const double *data, *b;
    double *x, *r, *p, *ap, *best, *jp;
    double threshold, rs, rs_new, rnorm, best_norm, pap, alpha, beta;
    Py_ssize_t ncols, max_iter, rows, len, other, t, i, iterations = 0;
    int normal, converged;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOnpOOdn:cg", kwlist,
                                     &objs[0], &objs[1], &objs[2], &ncols,
                                     &normal, &objs[3], &objs[4], &threshold,
                                     &max_iter)
        || check_arrays(objs, "iiddw", names) < 0
        || (rows = csr_rows(objs, "")) < 0)
        return NULL;
    len = LEN(objs[3]);
    if (ncols < 0) {
        PyErr_Format(PyExc_ValueError,
                     "ncols: expected a non-negative count, got %zd", ncols);
        return NULL;
    }
    if (len != (normal ? ncols : rows)) {
        PyErr_Format(PyExc_ValueError, "b: expected length %zd (%s of J),"
                     " got %zd", normal ? ncols : rows,
                     normal ? "columns" : "rows", len);
        return NULL;
    }
    if (LEN(objs[4]) != len) {
        PyErr_Format(PyExc_ValueError,
                     "x: expected length %zd (that of b), got %zd", len,
                     LEN(objs[4]));
        return NULL;
    }
    if (overlaps(objs[3], objs[4])) {
        PyErr_SetString(PyExc_ValueError, "b and x overlap");
        return NULL;
    }
    indptr = DATA(objs[0]);
    indices = DATA(objs[1]);
    data = DATA(objs[2]);
    b = DATA(objs[3]);
    x = DATA(objs[4]);
    /* scratch: r, p, A p and the best iterate, then J p (A = J.T J) or
     * J.T p (A = J J.T) */
    other = normal ? rows : ncols;
    if (other > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(double) - 4 * len
        || (r = PyMem_Malloc((4 * len + other) * sizeof(double))) == NULL)
        return PyErr_NoMemory();
    p = r + len;
    ap = p + len;
    best = ap + len;
    jp = best + len;

    for (i = 0; i < len; i++) {
        x[i] = 0.0;
        r[i] = b[i];
        p[i] = b[i];
        best[i] = 0.0;
    }
    rs = dot(r, r, len);
    best_norm = rnorm = sqrt(rs);
    converged = rnorm <= threshold;
    for (t = 1; t <= max_iter && !converged; t++) {
        if (normal) {
            matvec(indptr, indices, data, p, jp, rows);
            rmatvec(indptr, indices, data, jp, rows, ap, len);
        }
        else {
            rmatvec(indptr, indices, data, p, rows, jp, other);
            matvec(indptr, indices, data, jp, ap, rows);
        }
        /* round-off pushed p outside the range space; a NaN goes on */
        pap = dot(p, ap, len);
        if (pap <= 0.0)
            break;
        alpha = rs / pap;
        for (i = 0; i < len; i++) {
            x[i] = x[i] + alpha * p[i];
            r[i] = r[i] - alpha * ap[i];
        }
        rs_new = dot(r, r, len);
        rnorm = sqrt(rs_new);
        iterations = t;
        if (rnorm < best_norm) {
            memcpy(best, x, len * sizeof(double));
            best_norm = rnorm;
        }
        if (rnorm <= threshold) {
            converged = 1;
            break;
        }
        beta = rs_new / rs;
        for (i = 0; i < len; i++)
            p[i] = r[i] + beta * p[i];
        rs = rs_new;
    }
    if (!converged) {
        memcpy(x, best, len * sizeof(double));
        rnorm = best_norm;
    }
    PyMem_Free(r);
    return Py_BuildValue("nOd", iterations, converged ? Py_True : Py_False,
                         rnorm);
}

static PyMethodDef csrkern_methods[] = {
    {"csr_matvec", (PyCFunction)(void (*)(void))csr_matvec,
     METH_VARARGS | METH_KEYWORDS, csr_matvec_doc},
    {"csr_rmatvec", (PyCFunction)(void (*)(void))csr_rmatvec,
     METH_VARARGS | METH_KEYWORDS, csr_rmatvec_doc},
    {"minres_step", (PyCFunction)(void (*)(void))minres_step,
     METH_VARARGS | METH_KEYWORDS, minres_step_doc},
    {"cg", (PyCFunction)(void (*)(void))cg, METH_VARARGS | METH_KEYWORDS,
     cg_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef csrkern_module = {
    PyModuleDef_HEAD_INIT,
    "_csrkern",
    "Compiled CSR kernels: matvec, transpose matvec, a MINRES step and a\n"
    "CG solve.",
    0,
    csrkern_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__csrkern(void)
{
    PyArray_Descr *descr;

    import_array();
    descr = PyArray_DescrFromType(NPY_DOUBLE);
    if (descr == NULL)
        return NULL;
    double_dot = PyDataType_GetArrFuncs(descr)->dotfunc;
    Py_DECREF(descr);
    if (double_dot == NULL) {
        PyErr_SetString(PyExc_ImportError, "numpy has no float64 dotfunc");
        return NULL;
    }
    return PyModule_Create(&csrkern_module);
}
