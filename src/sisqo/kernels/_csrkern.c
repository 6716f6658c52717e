/*
 * Compiled CSR kernels: row-major matvec, transpose matvec, the
 * saddle-point (KKT) apply that fuses three of them, and one whole MINRES
 * step on that saddle operator.
 *
 * These loops sit inside every Lanczos/CG iteration and dominate the
 * solver's runtime, hence the C implementation.  Signatures mirror
 * ``sisqo.kernels.reference`` exactly:
 *
 *     csr_matvec(indptr, indices, data, x, out)    out = A @ x
 *     csr_rmatvec(indptr, indices, data, x, out)   out = A.T @ x
 *     kkt_apply(h_indptr, h_indices, h_data,
 *               j_indptr, j_indices, j_data, z, out)
 *                                   out = (H u + J.T delta, J u), z = (u, delta)
 *     minres_step(h_indptr, h_indices, h_data,
 *                 j_indptr, j_indices, j_data, rhs, work, scal)
 *                                   one MINRES step on K z = -rhs, K as above
 *
 * Every argument is a 1-D C-contiguous buffer: ``*indptr`` and ``*indices``
 * hold 8-byte signed integers, everything else holds float64, and ``out``,
 * ``work`` and ``scal`` must be writable.  The array lengths are checked
 * against each other; the index values are not (that would cost a pass
 * over the matrix), so a malformed CSR structure reads out of bounds.
 *
 * The loop order is fixed -- a sequential per-row sum for matvec, and
 * zero-then-scatter for rmatvec -- so results are reproducible bit for bit
 * for a given compiler and flags.  ``kkt_apply`` keeps that order for each
 * block and adds the row sum of H u to the scattered J.T delta, so its
 * output has the bits of the three separate kernel calls.  ``minres_step``
 * takes its three dot products from numpy's own float64 ``dotfunc``, the
 * function ``ndarray.dot`` calls for 1-D vectors, and does everything else
 * elementwise in the order of the numpy step in ``reference.py``; built
 * without floating-point contraction, its iterates have the bits of that
 * step run on this module's ``kkt_apply``.  Built by setup.py at install
 * time, or by ``sisqo.kernels`` on first import in a source checkout, with
 * numpy's headers either way.
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

/* Accept only native-order formats: '@', '=' and the native explicit
 * byte-order prefix; '>' / '<' / '!' for the other order are rejected. */
static const char *
native_kind(const char *format)
{
    if (format == NULL)
        return "B";
    if (*format == '@' || *format == '=')
        return format + 1;
#if PY_LITTLE_ENDIAN
    if (*format == '<')
        return format + 1;
#else
    if (*format == '>' || *format == '!')
        return format + 1;
#endif
    return format;
}

/* Fill ``view`` with a 1-D C-contiguous buffer of 8-byte items whose
 * format is one of ``kinds``; ``what`` names the argument in errors. */
static int
get_vector(PyObject *obj, Py_buffer *view, const char *kinds, int writable,
           const char *what)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    const char *kind;

    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    kind = native_kind(view->format);
    if (view->ndim != 1) {
        PyErr_Format(PyExc_ValueError,
                     "%s: expected a 1-D buffer, got %d dimensions",
                     what, view->ndim);
    }
    else if (view->itemsize != 8 || kind[0] == '\0' || kind[1] != '\0'
             || strchr(kinds, kind[0]) == NULL) {
        PyErr_Format(PyExc_ValueError,
                     "%s: expected %s, got format '%s' with itemsize %zd",
                     what, kinds[0] == 'd' ? "float64" : "int64",
                     view->format ? view->format : "B", view->itemsize);
    }
    else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

#define INT64_KINDS "qln"
#define FLOAT64_KINDS "d"
#define NARGS 5
#define KKT_NARGS 8
#define MINRES_NARGS 9

static void
release_views(Py_buffer *views, int count)
{
    while (--count >= 0)
        PyBuffer_Release(&views[count]);
}

/* Acquire one buffer per object; those from ``first_writable`` on must be
 * writable. */
static int
get_vectors(PyObject **objs, Py_buffer *views, const char **kinds,
            char **names, int count, int first_writable)
{
    int i;

    for (i = 0; i < count; i++) {
        if (get_vector(objs[i], &views[i], kinds[i], i >= first_writable,
                       names[i]) < 0) {
            release_views(views, i);
            return -1;
        }
    }
    return 0;
}

static int
overlaps(const Py_buffer *a, const Py_buffer *b)
{
    const char *pa = a->buf, *pb = b->buf;

    return a->len > 0 && b->len > 0 && pa < pb + b->len && pb < pa + a->len;
}

/* Acquire all five buffers and check their lengths against each other.
 * ``rows_arg`` is the argument whose length is the number of matrix rows:
 * ``out`` for matvec, ``x`` for rmatvec. */
static int
get_csr_args(PyObject *args, PyObject *kwargs, const char *format,
             Py_buffer views[NARGS], int rows_arg)
{
    static char *kwlist[] = {"indptr", "indices", "data", "x", "out", NULL};
    static const char *kinds[NARGS] = {INT64_KINDS, INT64_KINDS,
                                       FLOAT64_KINDS, FLOAT64_KINDS,
                                       FLOAT64_KINDS};
    PyObject *objs[NARGS];
    Py_ssize_t rows;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, format, kwlist, &objs[0],
                                     &objs[1], &objs[2], &objs[3], &objs[4]))
        return -1;
    if (get_vectors(objs, views, kinds, kwlist, NARGS, NARGS - 1) < 0)
        return -1;
    rows = views[rows_arg].shape[0];
    if (views[0].shape[0] != rows + 1) {
        PyErr_Format(PyExc_ValueError,
                     "indptr: expected length %zd (rows + 1), got %zd",
                     rows + 1, views[0].shape[0]);
    }
    else if (views[1].shape[0] != views[2].shape[0]) {
        PyErr_Format(PyExc_ValueError,
                     "indices and data differ in length: %zd != %zd",
                     views[1].shape[0], views[2].shape[0]);
    }
    else {
        return 0;
    }
    release_views(views, NARGS);
    return -1;
}

PyDoc_STRVAR(csr_matvec_doc,
"csr_matvec(indptr, indices, data, x, out)\n"
"--\n\n"
"out[i] = sum_k data[k] * x[indices[k]] over row i's entries.");

static PyObject *
csr_matvec(PyObject *self, PyObject *args, PyObject *kwargs)
{
    Py_buffer views[NARGS];
    const long long *indptr, *indices;
    const double *data, *x;
    double *out;
    Py_ssize_t i, nrows;
    long long k, end;
    double acc;

    if (get_csr_args(args, kwargs, "OOOOO:csr_matvec", views, 4) < 0)
        return NULL;
    indptr = views[0].buf;
    indices = views[1].buf;
    data = views[2].buf;
    x = views[3].buf;
    out = views[4].buf;
    nrows = views[4].shape[0];
    for (i = 0; i < nrows; i++) {
        acc = 0.0;
        end = indptr[i + 1];
        for (k = indptr[i]; k < end; k++)
            acc += data[k] * x[indices[k]];
        out[i] = acc;
    }
    release_views(views, NARGS);
    Py_RETURN_NONE;
}

PyDoc_STRVAR(csr_rmatvec_doc,
"csr_rmatvec(indptr, indices, data, x, out)\n"
"--\n\n"
"out[j] += data[k] * x[i] for every entry (i, j): the transpose apply.");

static PyObject *
csr_rmatvec(PyObject *self, PyObject *args, PyObject *kwargs)
{
    Py_buffer views[NARGS];
    const long long *indptr, *indices;
    const double *data, *x;
    double *out;
    Py_ssize_t i, nrows, ncols;
    long long k, end;

    if (get_csr_args(args, kwargs, "OOOOO:csr_rmatvec", views, 3) < 0)
        return NULL;
    indptr = views[0].buf;
    indices = views[1].buf;
    data = views[2].buf;
    x = views[3].buf;
    out = views[4].buf;
    nrows = views[3].shape[0];
    ncols = views[4].shape[0];
    for (i = 0; i < ncols; i++)
        out[i] = 0.0;
    for (i = 0; i < nrows; i++) {
        end = indptr[i + 1];
        for (k = indptr[i]; k < end; k++)
            out[indices[k]] += data[k] * x[i];
    }
    release_views(views, NARGS);
    Py_RETURN_NONE;
}

/* The saddle operator K = [[H, J.T], [J, 0]] in CSR form. */
typedef struct {
    Py_ssize_t n, m;
    const long long *h_indptr, *h_indices, *j_indptr, *j_indices;
    const double *h_data, *j_data;
} kkt_op;

/* Acquire one buffer per object -- the six CSR arrays of H and J, then
 * the vectors, those from ``first_writable`` on writable -- and read the
 * operator from the CSR arrays.  On failure every view is released. */
static int
get_kkt_args(PyObject **objs, Py_buffer *views, const char **kinds,
             char **names, int count, int first_writable, kkt_op *op)
{
    if (get_vectors(objs, views, kinds, names, count, first_writable) < 0)
        return -1;
    op->n = views[0].shape[0] - 1;
    op->m = views[3].shape[0] - 1;
    if (op->n < 0 || op->m < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "h_indptr and j_indptr need at least one entry");
    }
    else if (views[1].shape[0] != views[2].shape[0]
             || views[4].shape[0] != views[5].shape[0]) {
        PyErr_SetString(PyExc_ValueError,
                        "indices and data differ in length");
    }
    else {
        op->h_indptr = views[0].buf;
        op->h_indices = views[1].buf;
        op->h_data = views[2].buf;
        op->j_indptr = views[3].buf;
        op->j_indices = views[4].buf;
        op->j_data = views[5].buf;
        return 0;
    }
    release_views(views, count);
    return -1;
}

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

static char *kkt_kwlist[] = {"h_indptr", "h_indices", "h_data", "j_indptr",
                             "j_indices", "j_data", "z", "out", NULL};
static const char *kkt_kinds[MINRES_NARGS] = {
    INT64_KINDS, INT64_KINDS, FLOAT64_KINDS, INT64_KINDS, INT64_KINDS,
    FLOAT64_KINDS, FLOAT64_KINDS, FLOAT64_KINDS, FLOAT64_KINDS};

PyDoc_STRVAR(kkt_apply_doc,
"kkt_apply(h_indptr, h_indices, h_data, j_indptr, j_indices, j_data, z, out)\n"
"--\n\n"
"out = (H u + J.T delta, J u) for z = (u, delta), with H n-by-n and J\n"
"m-by-n in CSR form; n and m are read from the indptr lengths.  out must\n"
"not overlap z.");

static PyObject *
kkt_apply(PyObject *self, PyObject *args, PyObject *kwargs)
{
    PyObject *objs[KKT_NARGS];
    Py_buffer views[KKT_NARGS];
    kkt_op op;
    Py_ssize_t dim;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOOOO:kkt_apply",
                                     kkt_kwlist, &objs[0], &objs[1],
                                     &objs[2], &objs[3], &objs[4], &objs[5],
                                     &objs[6], &objs[7]))
        return NULL;
    if (get_kkt_args(objs, views, kkt_kinds, kkt_kwlist, KKT_NARGS,
                     KKT_NARGS - 1, &op) < 0)
        return NULL;
    dim = op.n + op.m;
    if (views[6].shape[0] != dim || views[7].shape[0] != dim) {
        PyErr_Format(PyExc_ValueError,
                     "z and out: expected length %zd (n + m), got %zd and %zd",
                     dim, views[6].shape[0], views[7].shape[0]);
    }
    else if (overlaps(&views[6], &views[7])) {
        PyErr_SetString(PyExc_ValueError, "out overlaps z");
    }
    else {
        kkt_product(&op, views[6].buf, views[7].buf);
        release_views(views, KKT_NARGS);
        Py_RETURN_NONE;
    }
    release_views(views, KKT_NARGS);
    return NULL;
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
"One MINRES step on K z = -rhs, K = [[H, J.T], [J, 0]] as in kkt_apply.\n"
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
    PyObject *objs[MINRES_NARGS];
    Py_buffer views[MINRES_NARGS];
    kkt_op op;
    const double *rhs;
    double *scal, *v, *r1, *r2, *y, *w, *w2, *z, *resid;
    double beta, oldb, dbar, oldeps, phibar, cs, sn, alfa, s, delta, gbar,
        gamma, phi, wi, wn, rnorm;
    Py_ssize_t i, dim;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOOOOO:minres_step",
                                     kwlist, &objs[0], &objs[1], &objs[2],
                                     &objs[3], &objs[4], &objs[5], &objs[6],
                                     &objs[7], &objs[8]))
        return NULL;
    if (get_kkt_args(objs, views, kkt_kinds, kwlist, MINRES_NARGS, 7,
                     &op) < 0)
        return NULL;
    dim = op.n + op.m;
    if (views[6].shape[0] != dim || views[7].shape[0] != 8 * dim
        || views[8].shape[0] != SCAL_LEN) {
        PyErr_Format(PyExc_ValueError,
                     "rhs, work and scal: expected lengths %zd (n + m), %zd"
                     " and %d, got %zd, %zd and %zd", dim, 8 * dim, SCAL_LEN,
                     views[6].shape[0], views[7].shape[0], views[8].shape[0]);
        release_views(views, MINRES_NARGS);
        return NULL;
    }
    if (overlaps(&views[6], &views[7]) || overlaps(&views[6], &views[8])
        || overlaps(&views[7], &views[8])) {
        PyErr_SetString(PyExc_ValueError, "rhs, work and scal overlap");
        release_views(views, MINRES_NARGS);
        return NULL;
    }
    rhs = views[6].buf;
    v = views[7].buf;
    r1 = v + dim;
    r2 = r1 + dim;
    y = r2 + dim;
    w = y + dim;
    w2 = w + dim;
    z = w2 + dim;
    resid = z + dim;
    scal = views[8].buf;

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
    release_views(views, MINRES_NARGS);
    Py_RETURN_NONE;
}

static PyMethodDef csrkern_methods[] = {
    {"csr_matvec", (PyCFunction)(void (*)(void))csr_matvec,
     METH_VARARGS | METH_KEYWORDS, csr_matvec_doc},
    {"csr_rmatvec", (PyCFunction)(void (*)(void))csr_rmatvec,
     METH_VARARGS | METH_KEYWORDS, csr_rmatvec_doc},
    {"kkt_apply", (PyCFunction)(void (*)(void))kkt_apply,
     METH_VARARGS | METH_KEYWORDS, kkt_apply_doc},
    {"minres_step", (PyCFunction)(void (*)(void))minres_step,
     METH_VARARGS | METH_KEYWORDS, minres_step_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef csrkern_module = {
    PyModuleDef_HEAD_INIT,
    "_csrkern",
    "Compiled CSR kernels: matvec, transpose matvec, the KKT apply and a"
    " MINRES step.",
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
