/*
 * Compiled CSR kernels: row-major matvec, transpose matvec, and the
 * saddle-point (KKT) apply that fuses three of them.
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
 *
 * Every argument is a 1-D C-contiguous buffer: ``*indptr`` and ``*indices``
 * hold 8-byte signed integers, ``*data``, ``x``, ``z`` and ``out`` hold
 * float64, and ``out`` must be writable.  The array lengths are checked
 * against each other; the index values are not (that would cost a pass
 * over the matrix), so a malformed CSR structure reads out of bounds.
 *
 * The loop order is fixed -- a sequential per-row sum for matvec, and
 * zero-then-scatter for rmatvec -- so results are reproducible bit for bit
 * for a given compiler and flags.  ``kkt_apply`` keeps that order for each
 * block and adds the row sum of H u to the scattered J.T delta, so its
 * output has the bits of the three separate kernel calls.  Built by
 * setup.py at install time, or by ``sisqo.kernels`` on first import in a
 * source checkout.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <string.h>

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

static void
release_views(Py_buffer *views, int count)
{
    while (--count >= 0)
        PyBuffer_Release(&views[count]);
}

/* Acquire one buffer per object; only the last one must be writable. */
static int
get_vectors(PyObject **objs, Py_buffer *views, const char **kinds,
            char **names, int count)
{
    int i;

    for (i = 0; i < count; i++) {
        if (get_vector(objs[i], &views[i], kinds[i], i == count - 1,
                       names[i]) < 0) {
            release_views(views, i);
            return -1;
        }
    }
    return 0;
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
    if (get_vectors(objs, views, kinds, kwlist, NARGS) < 0)
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

PyDoc_STRVAR(kkt_apply_doc,
"kkt_apply(h_indptr, h_indices, h_data, j_indptr, j_indices, j_data, z, out)\n"
"--\n\n"
"out = (H u + J.T delta, J u) for z = (u, delta), with H n-by-n and J\n"
"m-by-n in CSR form; n and m are read from the indptr lengths.  out must\n"
"not overlap z.");

static PyObject *
kkt_apply(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"h_indptr", "h_indices", "h_data", "j_indptr",
                             "j_indices", "j_data", "z", "out", NULL};
    static const char *kinds[KKT_NARGS] = {INT64_KINDS, INT64_KINDS,
                                           FLOAT64_KINDS, INT64_KINDS,
                                           INT64_KINDS, FLOAT64_KINDS,
                                           FLOAT64_KINDS, FLOAT64_KINDS};
    PyObject *objs[KKT_NARGS];
    Py_buffer views[KKT_NARGS];
    const long long *h_indptr, *h_indices, *j_indptr, *j_indices;
    const double *h_data, *j_data, *u, *delta;
    const char *zbuf, *obuf;
    double *top, *bot;
    Py_ssize_t i, n, m;
    long long k, end, col;
    double acc, d;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOOOOO:kkt_apply",
                                     kwlist, &objs[0], &objs[1], &objs[2],
                                     &objs[3], &objs[4], &objs[5], &objs[6],
                                     &objs[7]))
        return NULL;
    if (get_vectors(objs, views, kinds, kwlist, KKT_NARGS) < 0)
        return NULL;
    n = views[0].shape[0] - 1;
    m = views[3].shape[0] - 1;
    zbuf = views[6].buf;
    obuf = views[7].buf;
    if (n < 0 || m < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "h_indptr and j_indptr need at least one entry");
    }
    else if (views[1].shape[0] != views[2].shape[0]
             || views[4].shape[0] != views[5].shape[0]) {
        PyErr_SetString(PyExc_ValueError,
                        "indices and data differ in length");
    }
    else if (views[6].shape[0] != n + m || views[7].shape[0] != n + m) {
        PyErr_Format(PyExc_ValueError,
                     "z and out: expected length %zd (n + m), got %zd and %zd",
                     n + m, views[6].shape[0], views[7].shape[0]);
    }
    else if (views[6].len > 0 && zbuf < obuf + views[7].len
             && obuf < zbuf + views[6].len) {
        PyErr_SetString(PyExc_ValueError, "out overlaps z");
    }
    else {
        h_indptr = views[0].buf;
        h_indices = views[1].buf;
        h_data = views[2].buf;
        j_indptr = views[3].buf;
        j_indices = views[4].buf;
        j_data = views[5].buf;
        u = views[6].buf;
        delta = u + n;
        top = views[7].buf;
        bot = top + n;
        if (m > 0) {
            /* one pass over J: J u as in csr_matvec, and J.T delta
             * zero-then-scatter as in csr_rmatvec.  Each output element
             * sees the same operations in the same order as in the
             * separate kernels. */
            for (i = 0; i < n; i++)
                top[i] = 0.0;
            for (i = 0; i < m; i++) {
                d = delta[i];
                acc = 0.0;
                end = j_indptr[i + 1];
                for (k = j_indptr[i]; k < end; k++) {
                    col = j_indices[k];
                    acc += j_data[k] * u[col];
                    top[col] += j_data[k] * d;
                }
                bot[i] = acc;
            }
        }
        /* H u row by row, added to the finished J.T delta */
        for (i = 0; i < n; i++) {
            acc = 0.0;
            end = h_indptr[i + 1];
            for (k = h_indptr[i]; k < end; k++)
                acc += h_data[k] * u[h_indices[k]];
            top[i] = m > 0 ? acc + top[i] : acc;
        }
        release_views(views, KKT_NARGS);
        Py_RETURN_NONE;
    }
    release_views(views, KKT_NARGS);
    return NULL;
}

static PyMethodDef csrkern_methods[] = {
    {"csr_matvec", (PyCFunction)(void (*)(void))csr_matvec,
     METH_VARARGS | METH_KEYWORDS, csr_matvec_doc},
    {"csr_rmatvec", (PyCFunction)(void (*)(void))csr_rmatvec,
     METH_VARARGS | METH_KEYWORDS, csr_rmatvec_doc},
    {"kkt_apply", (PyCFunction)(void (*)(void))kkt_apply,
     METH_VARARGS | METH_KEYWORDS, kkt_apply_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef csrkern_module = {
    PyModuleDef_HEAD_INIT,
    "_csrkern",
    "Compiled CSR kernels: matvec, transpose matvec and the KKT apply.",
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
    return PyModule_Create(&csrkern_module);
}
