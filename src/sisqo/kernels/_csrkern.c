/*
 * Compiled CSR kernels: row-major matvec, transpose matvec, one whole
 * truncated MINRES solve on the saddle-point (KKT) operator of H and J
 * with the termination tests of the tangential step, and one whole
 * conjugate-gradient solve on J.T J or J J.T.
 *
 * These loops sit inside every Lanczos/CG iteration and dominate the
 * solver's runtime, hence the C implementation.  Signatures mirror
 * ``sisqo.kernels.reference`` exactly:
 *
 *     csr_matvec(indptr, indices, data, x, out)    out = A @ x
 *     csr_rmatvec(indptr, indices, data, x, out)   out = A.T @ x
 *     tangential_solve(h_indptr, h_indices, h_data,
 *                      j_indptr, j_indices, j_data, rhs, work, scal,
 *                      vecs, tests, max_iter)
 *                 -> (steps, tt1, tt2, breakdown, stalled, g_dot_d,
 *                     max_term, norm_c_plus_jd, rejected, formed)
 *                 up to max_iter MINRES steps on K z = -rhs,
 *                 K z = (H u + J.T delta, J u) for z = (u, delta), with
 *                 the breakdown and stall rules, each gated iterate
 *                 checked against the termination tests until one
 *                 accepts
 *     cg(indptr, indices, data, ncols, normal, b, x, threshold, max_iter)
 *                 -> (iterations, converged, resid_norm)
 *                 CG on A x = b from x = 0, A = J.T J if normal else J J.T,
 *                 for J with ncols columns
 *
 * Every array argument is a 1-D C-contiguous aligned numpy array in native
 * byte order: ``*indptr`` and ``*indices`` hold 8-byte signed integers,
 * everything else holds float64, and the arrays a kernel writes --
 * ``out``, ``work``, ``scal`` and the ``x`` of ``cg`` -- must be writable
 * and overlap neither each other nor the ``x``, ``b``, ``rhs`` or ``vecs``
 * the kernel reads (the matrix arrays are not checked).  The arrays are
 * borrowed for the call, not copied.  Their lengths are checked against
 * each other; the index values are not (that would cost a pass over the
 * matrix), so a malformed CSR structure reads out of bounds.  ``cg`` and
 * ``tangential_solve`` keep no scratch between calls: each takes one
 * block from PyMem_Malloc and frees it before it returns.
 * ``tangential_solve`` and ``cg`` run without the GIL from after their
 * argument checks and that allocation until they free the block and
 * build their result: their loops call nothing of Python, and numpy's
 * dotfunc (a BLAS ddot) needs no GIL either.  So two threads can solve
 * at once, and no other thread may write any array of a call, the
 * matrix arrays included, while it runs.  ``csr_matvec`` and
 * ``csr_rmatvec`` keep the GIL: a call is too short for a release to
 * pay.
 *
 * The loop order is fixed -- a sequential per-row sum for matvec, and
 * zero-then-scatter for rmatvec -- so results are reproducible bit for bit
 * for a given compiler and flags.  ``cg`` runs its products through the
 * same two loops.  The KKT product inside the MINRES step keeps that
 * order for each block and adds the row sum of H u to the scattered
 * J.T delta, so it has the bits of the three separate kernel calls that
 * the numpy step's helper ``sisqo.kernels.reference._kkt_apply`` makes.
 * It also finishes each element in the loop that writes it, with the
 * operation that the numpy step applies in a later pass: the Lanczos
 * product subtracts (beta / oldb) r1, and the residual product adds rhs
 * and takes the infinity norm.  The step count places the Lanczos rows
 * r1, r2 and y and the direction rows w and w2 in ``work`` by the rule
 * of the numpy step, so neither backend copies a row, and ``work``
 * leaves every call with the bytes that the numpy step leaves.
 * The loop that updates w and z also writes the next step's Lanczos
 * vector r2 / beta over v once it has read v, so only the first step
 * forms v in a pass of its own.
 * A solve with the termination tests forms the true residual only on
 * steps where the gate ||r||_inf <= cap can pass.  After that loop it
 * carries the residual row by the recurrence of MINRES, r = sn^2 r +
 * (phibar cs) v for the new rotation and the next v (Choi, Paige &
 * Saunders, SIAM J. Sci. Comput. 33(4), 2011), and takes the carried
 * row's infinity norm, in a loop of SSE2 instructions where the target
 * has them.  A step where that norm is above RESID_SKIP_MARGIN cap skips
 * the residual product and its 2-norm: the step costs one KKT product
 * instead of two.  The gate reads inf for such a step.  Steps
 * that end a stall window or break down form the residual all the same,
 * as does the call before it returns, and a formed residual overwrites
 * the carried one, so the carry restarts from a true residual at least
 * every STALL_WINDOW steps, and the rules, the tests and the caller only
 * ever read a true residual.  While the carried residual stays within
 * (RESID_SKIP_MARGIN - 1) cap of the true one (on the mesh-8 control
 * systems of the tests it stays within 3e-4 cap), the solve accepts the
 * iterates of one that forms every residual.  A NaN in the carried row
 * forces the true residual.  A solve without the tests, or with an
 * infinite cap, forms it at every step and carries nothing.
 * The MINRES step, the termination tests and ``cg`` take their dot
 * products from numpy's own float64 ``dotfunc``, the function
 * ``ndarray.dot`` calls for 1-D vectors, their norms as the square root
 * of one, as ``np.linalg.norm`` forms them, and do everything else
 * elementwise in the order of the numpy loops in ``reference.py``; built
 * without floating-point contraction, their results have the bits of
 * those loops run on this module's matvec and rmatvec.  The breakdown
 * and stall rules of a MINRES solve live in ``tangential_solve`` alone:
 * ``sisqo.krylov.MinresState`` steps through it.  Their constants and
 * those of the termination tests (BREAKDOWN_TOL, STALL_WINDOW, ...,
 * RESID_SKIP_MARGIN) are macros that ``sisqo.kernels`` defines when it
 * builds this file on first import, from its module constants of the
 * same names; a build by hand passes ``sisqo.kernels._EXTRA_COMPILE_ARGS``
 * too.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>

#include <float.h>
#include <math.h>
#include <string.h>
#ifdef __SSE2__
#include <emmintrin.h>
#endif

#ifndef EPS_R
#error "build with the flags of sisqo.kernels, which define the constants"
#endif

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

/* How kkt_product finishes each element of K z: as it is, less s times
 * the matching element of ``tail`` (the Lanczos product), or plus that
 * element (the residual). */
enum { KKT_PLAIN, KKT_LESS_TAIL, KKT_PLUS_TAIL };

/* Element i of K z, ``value``, finished as ``kind`` says; for
 * KKT_PLUS_TAIL its magnitude is folded into ``*biggest`` ("a > max",
 * which passes over a NaN).  ``tail`` is read only when kind uses it. */
static inline double
finish(double value, int kind, const double *tail, Py_ssize_t i, double s,
       double *biggest)
{
    double a;

    if (kind == KKT_LESS_TAIL)
        return value - s * tail[i];
    if (kind == KKT_PLUS_TAIL) {
        value += tail[i];
        a = fabs(value);
        if (a > *biggest)
            *biggest = a;
    }
    return value;
}

/* out = K z, with each element finished in the loop that writes it:
 * K z - s tail for KKT_LESS_TAIL, K z + tail for KKT_PLUS_TAIL, K z for
 * KKT_PLAIN.  Returns max |out[i]| over the elements that are not NaN
 * for KKT_PLUS_TAIL, 0 otherwise; a maximum does not depend on the
 * order it is taken in.  Each element sees the operations of the
 * product and then those of its tail, in the order that separate passes
 * take them.  out overlaps neither z nor tail.  It is not declared
 * inline: inlined at its three calls by gcc 12 -O3, the step measured
 * about 10% slower. */
static double
kkt_product(const kkt_op *op, const double *z, double *out, int kind,
            const double *tail, double s)
{
    const Py_ssize_t n = op->n, m = op->m;
    const double *u = z, *delta = z + n;
    double *top = out, *bot = out + n;
    Py_ssize_t i;
    long long k, end, col;
    double acc, d, biggest = 0.0;

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
            bot[i] = finish(acc, kind, tail, n + i, s, &biggest);
        }
    }
    /* H u row by row, added to the finished J.T delta */
    for (i = 0; i < n; i++) {
        acc = 0.0;
        end = op->h_indptr[i + 1];
        for (k = op->h_indptr[i]; k < end; k++)
            acc += op->h_data[k] * u[op->h_indices[k]];
        top[i] = finish(m > 0 ? acc + top[i] : acc, kind, tail, i, s,
                        &biggest);
    }
    return biggest;
}

/* Slots of the ``scal`` array of tangential_solve: those of one MINRES
 * step, then those of the solve's breakdown and stall rules. */
enum {
    S_BETA, S_OLDB, S_DBAR, S_EPSLN, S_PHIBAR, S_CS, S_SN, S_STEPS,
    S_RNORM, S_RINF, S_BETA1, S_BEST, S_WINDOW, S_BREAKDOWN, S_STALLED,
    SCAL_LEN
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

/* The state of one call besides ``scal``: ``work``, the count of
 * residuals formed, and ``stale``, set while the residual row lags the
 * iterate. */
typedef struct {
    double *work;
    Py_ssize_t formed;
    int stale;
} minres_rows;

/* resid = sn2 resid + pc v over dim entries, each as the numpy twin
 * forms it; returns max |resid[i]|, NaN if an entry is NaN.  With SSE2 it
 * takes four entries at a time into two running maxima, so that the
 * latency of maxpd stays off the loop's critical path; maxpd returns its
 * second operand when the first is NaN, so NaNs are gathered apart.  The
 * scalar loop takes what is left, and all of it without SSE2.  On x86-64
 * the scalar loop alone makes poisson16's solve about 17% slower. */
static double
carry_residual(double *resid, const double *v, Py_ssize_t dim, double sn2,
               double pc)
{
    double big = 0.0, a;
    Py_ssize_t i = 0;
#ifdef __SSE2__
    const __m128d s = _mm_set1_pd(sn2), p = _mm_set1_pd(pc),
        magnitude = _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
    __m128d r, q, big0 = _mm_setzero_pd(), big1 = _mm_setzero_pd(),
        nan = _mm_setzero_pd();
    double lanes[2];

    for (; i + 4 <= dim; i += 4) {
        r = _mm_add_pd(_mm_mul_pd(s, _mm_loadu_pd(resid + i)),
                       _mm_mul_pd(p, _mm_loadu_pd(v + i)));
        q = _mm_add_pd(_mm_mul_pd(s, _mm_loadu_pd(resid + i + 2)),
                       _mm_mul_pd(p, _mm_loadu_pd(v + i + 2)));
        _mm_storeu_pd(resid + i, r);
        _mm_storeu_pd(resid + i + 2, q);
        nan = _mm_or_pd(nan, _mm_cmpunord_pd(r, q));
        big0 = _mm_max_pd(_mm_and_pd(r, magnitude), big0);
        big1 = _mm_max_pd(_mm_and_pd(q, magnitude), big1);
    }
    _mm_storeu_pd(lanes, _mm_max_pd(big0, big1));
    big = lanes[0] > lanes[1] ? lanes[0] : lanes[1];
    if (_mm_movemask_pd(nan))
        big = NAN;
#endif
    /* "a > big" alone would pass over a NaN; this keeps one */
    for (; i < dim; i++) {
        resid[i] = sn2 * resid[i] + pc * v[i];
        a = fabs(resid[i]);
        if (a > big || isnan(a))
            big = a;
    }
    return big;
}

/* One MINRES step on the state in ``work`` and ``scal`` (see
 * tangential_solve_doc), up to the new iterate, which leaves the next
 * step's Lanczos vector r2 / beta in the v row.  With ``carry`` it also
 * carries the residual row by the recurrence of MINRES, r = sn^2 r +
 * (phibar cs) v for the new sn, cs and phibar and the next v, and
 * returns that row's infinity norm, NaN if it holds a NaN; without, it
 * leaves the row to form_residual and returns 0.  A zero beta or
 * previous beta divides to inf or NaN, and the step goes on; the numpy
 * twin divides alike.  The step count p places the rows as
 * tangential_solve_doc says; the step writes y into the one Lanczos row
 * that it does not read and the new w over w2, so at p + 1 every row is
 * in place, and none is copied. */
static double
step(const kkt_op *op, double *work, double *scal, int carry)
{
    const Py_ssize_t dim = op->n + op->m;
    const long long p = (long long)scal[S_STEPS];
    double *v = work, *r1 = work + (1 + p % 3) * dim,
        *r2 = work + (1 + (p + 1) % 3) * dim,
        *y = work + (1 + (p + 2) % 3) * dim, *w = work + (4 + p % 2) * dim,
        *w2 = work + (5 - p % 2) * dim, *z = work + 6 * dim;
    double beta, oldb, dbar, oldeps, phibar, cs, sn, alfa, s, delta, gbar,
        gamma, phi, wn;
    Py_ssize_t i;

    /* Lanczos: y = K v - (beta / oldb) r1 - alfa / beta r2 with its first
     * subtraction done in the product, for the v = r2 / beta that the
     * last step left in its row (formed here at the first step) */
    beta = scal[S_BETA];
    if (p >= 1)
        kkt_product(op, v, y, KKT_LESS_TAIL, r1, beta / scal[S_OLDB]);
    else {
        s = 1.0 / beta;
        for (i = 0; i < dim; i++)
            v[i] = s * r2[i];
        kkt_product(op, v, y, KKT_PLAIN, NULL, 0.0);
    }
    alfa = dot(v, y, dim);
    s = alfa / beta;
    for (i = 0; i < dim; i++)
        y[i] -= s * r2[i];
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
    phibar = sn * phibar;
    scal[S_PHIBAR] = phibar;

    /* w = (v - oldeps w2 - delta w) / gamma, written over w2, and
     * z += phi w; once v[i] is read, the next v = y / beta over it (y is
     * the next r2; 1 / 0 is inf).  The carry takes a loop of its own: in
     * this one, its running maximum keeps gcc from vectorizing the
     * division, and the fused loop took 1.4 us at 768 entries, the two
     * loops 0.85 */
    s = 1.0 / beta;
    for (i = 0; i < dim; i++) {
        wn = ((v[i] - oldeps * w2[i]) - delta * w[i]) / gamma;
        w2[i] = wn;
        z[i] += phi * wn;
        v[i] = s * y[i];
    }

    scal[S_BETA] = beta;
    scal[S_OLDB] = oldb;
    scal[S_CS] = cs;
    scal[S_SN] = sn;
    scal[S_STEPS] += 1.0;
    return carry ? carry_residual(work + 7 * dim, v, dim, sn * sn,
                                  phibar * cs) : 0.0;
}

/* The true residual K z + rhs into its row, its infinity norm taken as
 * the product writes it, and its 2-norm; then the least residual.  A sum
 * of squares is NaN exactly when a term is, so a NaN 2-norm stands in
 * for the infinity norm, as np.max returns NaN for an array holding
 * one. */
static void
form_residual(const kkt_op *op, const double *rhs, minres_rows *rows,
              double *scal)
{
    const Py_ssize_t dim = op->n + op->m;
    double *resid = rows->work + 7 * dim, rinf, rnorm;

    rinf = kkt_product(op, rows->work + 6 * dim, resid, KKT_PLUS_TAIL, rhs,
                       0.0);
    rnorm = sqrt(dot(resid, resid, dim));
    scal[S_RNORM] = rnorm;
    scal[S_RINF] = isnan(rnorm) ? rnorm : rinf;
    if (rnorm < scal[S_BEST])
        scal[S_BEST] = rnorm;
    rows->stale = 0;
    rows->formed++;
}

/* Check the nine leading arguments of tangential_solve, ``objs[0..8]``,
 * and fill ``op`` from the CSR arrays; -1 with an exception set if they
 * do not fit. */
static int
get_minres_args(PyObject **objs, char **names, kkt_op *op)
{
    Py_ssize_t dim;
    double steps;

    if (check_arrays(objs, "iidiiddww", names) < 0
        || (op->n = csr_rows(objs, "h_")) < 0
        || (op->m = csr_rows(objs + 3, "j_")) < 0)
        return -1;
    dim = op->n + op->m;
    if (LEN(objs[6]) != dim || LEN(objs[7]) != 8 * dim
        || LEN(objs[8]) != SCAL_LEN) {
        PyErr_Format(PyExc_ValueError,
                     "rhs, work and scal: expected lengths %zd (n + m), %zd"
                     " and %zd, got %zd, %zd and %zd", dim, 8 * dim,
                     (Py_ssize_t)SCAL_LEN, LEN(objs[6]), LEN(objs[7]),
                     LEN(objs[8]));
        return -1;
    }
    if (overlaps(objs[6], objs[7]) || overlaps(objs[6], objs[8])
        || overlaps(objs[7], objs[8])) {
        PyErr_SetString(PyExc_ValueError, "rhs, work and scal overlap");
        return -1;
    }
    /* the count places the rows of work: a bad one would misplace them */
    steps = ((const double *)DATA(objs[8]))[S_STEPS];
    if (!(steps >= 0.0 && steps < 0x1p53 && steps == floor(steps))) {
        PyErr_SetString(PyExc_ValueError, "scal[7], the step count: expected"
                        " a whole number from 0 to 2**53 - 1");
        return -1;
    }
    op->h_indptr = DATA(objs[0]);
    op->h_indices = DATA(objs[1]);
    op->h_data = DATA(objs[2]);
    op->j_indptr = DATA(objs[3]);
    op->j_indices = DATA(objs[4]);
    op->j_data = DATA(objs[5]);
    return 0;
}

/* One step of a solve, as ``MinresState.step`` takes it: none once the
 * solve broke down or stalled, and none but the breakdown flag when the
 * residual or the right-hand side is zero.  Then the rules: breakdown
 * below BREAKDOWN_TOL, and a stall when the least residual falls by less
 * than the share STALL_IMPROVEMENT over STALL_WINDOW steps.  Under a
 * finite ``skip_above`` the step carries the residual by the recurrence
 * and forms the true one unless the carried one's infinity norm is above
 * ``skip_above``, where the iterate cannot pass the gate; a step that
 * ends a window or breaks down forms it all the same, so the rules read
 * true residuals, and each formed residual restarts the carry.  A
 * skipped step leaves the 2-norm and the least residual as they were and
 * sets the infinity norm to inf, which the gate rejects. */
static void
guarded_step(const kkt_op *op, const double *rhs, minres_rows *rows,
             double *scal, double skip_above)
{
    double carried;
    int window_end;

    if (scal[S_BREAKDOWN] != 0.0 || scal[S_STALLED] != 0.0)
        return;
    if (scal[S_RNORM] == 0.0 || scal[S_BETA1] == 0.0) {
        scal[S_BREAKDOWN] = 1.0;
        return;
    }
    carried = step(op, rows->work, scal, skip_above < INFINITY);
    if (scal[S_BETA] < BREAKDOWN_TOL)
        scal[S_BREAKDOWN] = 1.0;
    window_end = (long long)scal[S_STEPS] % STALL_WINDOW == 0;
    if (carried > skip_above && scal[S_BREAKDOWN] == 0.0 && !window_end) {
        scal[S_RINF] = INFINITY;
        rows->stale = 1;
    }
    else
        form_residual(op, rhs, rows, scal);
    if (window_end) {
        if (scal[S_BEST] > (1.0 - STALL_IMPROVEMENT) * scal[S_WINDOW])
            scal[S_STALLED] = 1.0;
        scal[S_WINDOW] = scal[S_BEST];
    }
}

/* The scalars the termination tests read, in the order of the ``tests``
 * tuple of tangential_solve. */
typedef struct {
    double cap, beta, kappa, prev_pair_norm, tau_prev, v_norm, g_dot_v,
        c_norm, decrease_v;
} test_params;

/* What ``evaluate`` found: the condition that rejected the candidate,
 * REJECT_TESTS when it passed them all and neither test, or ACCEPTED. */
enum { REJECT_B, REJECT_A, REJECT_C, REJECT_TESTS, ACCEPTED };

/* The termination tests' parts of the last candidate that passed
 * conditions b and a. */
typedef struct {
    int tt1, tt2;
    double g_dot_d, max_term, norm_c_plus_jd;
} candidate;

/* Conditions b, a and c, then tests 1 and 2, for the candidate in the
 * iterate and residual rows of ``work``; ``vecs`` holds g, H v, g + H v,
 * c and c + J v, and ``hu``, ``stat`` and ``cjd`` are scratch of n, n and
 * m entries.  Each check reads "not x <= bound", so a NaN fails it. */
static int
evaluate(const kkt_op *op, const double *work, const double *vecs,
         const test_params *p, double *hu, double *stat, double *cjd,
         candidate *out)
{
    const Py_ssize_t n = op->n, m = op->m, dim = n + m;
    const double *u = work + 6 * dim, *rho = work + 7 * dim, *r = rho + n;
    const double *g = vecs, *hv = g + n, *gv = hv + n, *c = gv + n,
        *c_plus_jv = c + m;
    double rho_norm, current, least, uhu, u_sq, eps_term, lhs, rhs, floor;
    Py_ssize_t i;

    rho_norm = sqrt(dot(rho, rho, n));
    if (!(rho_norm <= KAPPA_RHO * p->beta
          && sqrt(dot(r, r, m)) <= KAPPA_R * p->beta))
        return REJECT_B;
    /* the dual residual against min(current, previous), tried against
     * the previous one first; current = ||(rho - Hu - Hv; c)||, and
     * min() keeps the current one when the previous is NaN */
    if (rho_norm > p->kappa * p->prev_pair_norm)
        return REJECT_A;
    matvec(op->h_indptr, op->h_indices, op->h_data, u, hu, n);
    for (i = 0; i < n; i++)
        stat[i] = (rho[i] - hu[i]) - hv[i];
    current = sqrt(dot(stat, stat, n) + dot(c, c, m));
    least = p->prev_pair_norm < current ? p->prev_pair_norm : current;
    if (!(rho_norm <= p->kappa * least))
        return REJECT_A;

    uhu = dot(u, hu, n);
    u_sq = dot(u, u, n);
    for (i = 0; i < m; i++)
        cjd[i] = c_plus_jv[i] + r[i];
    out->norm_c_plus_jd = sqrt(dot(cjd, cjd, m));
    out->g_dot_d = p->g_dot_v + dot(g, u, n);
    eps_term = EPS_U * u_sq;
    out->max_term = eps_term > uhu ? eps_term : uhu;
    if (!(sqrt(u_sq) <= KAPPA_U * p->v_norm)
        && !(uhu >= eps_term
             && dot(gv, u, n) + 0.5 * uhu <= KAPPA_V * p->v_norm))
        return REJECT_C;

    lhs = -p->tau_prev * out->g_dot_d + p->c_norm - out->norm_c_plus_jd;
    rhs = SIGMA_U * p->tau_prev * out->max_term + SIGMA_C * p->decrease_v;
    out->tt1 = lhs >= rhs;
    floor = EPS_R * p->decrease_v;
    out->tt2 = p->c_norm - out->norm_c_plus_jd >= floor && floor > 0.0;
    return out->tt1 || out->tt2 ? ACCEPTED : REJECT_TESTS;
}

PyDoc_STRVAR(tangential_solve_doc,
"tangential_solve(h_indptr, h_indices, h_data, j_indptr, j_indices, j_data,\n"
"                 rhs, work, scal, vecs, tests, max_iter)\n"
"--\n\n"
"MINRES on K z = -rhs from the state in work and scal, truncated at the\n"
"first iterate the termination tests accept.  For t = 0 ... max_iter:\n"
"at t > 0 one step, none once the solve broke down or stalled and none\n"
"but the breakdown flag when ||r|| or beta1 is zero; then, if vecs is\n"
"not None and not ||r||_inf > cap, conditions b, a and c and tests 1\n"
"and 2 for the iterate; the loop ends at an accepted iterate, then at a\n"
"breakdown or stall.  With vecs and a finite cap, each step carries the\n"
"residual by the recurrence of MINRES, and a step whose carried residual\n"
"has an infinity norm above RESID_SKIP_MARGIN cap forms no true residual\n"
"unless it breaks down or ends a stall window: its infinity norm reads\n"
"inf, the 2-norm and the least residual stay, and the call forms the\n"
"residual before it returns.  K = [[H, J.T], [J, 0]], with H n-by-n and\n"
"J m-by-n in CSR form; n and m are read from the indptr lengths.  work\n"
"holds eight rows of length dim = n + m: the next step's Lanczos vector\n"
"v (read from the second step on), then, for the step count p, r1, r2\n"
"and y in rows 1 + (p + i) % 3 for i = 0, 1, 2 and w and w2 in rows\n"
"4 + p % 2 and 5 - p % 2, then the iterate z and the residual K z + rhs.\n"
"scal holds beta, the previous beta, dbar, epsln, phibar, cs, sn, the\n"
"step count (a whole number below 2**53, else ValueError), the\n"
"residual's 2-norm and infinity norm (NaN if it holds a NaN), beta1, the\n"
"least residual, the least at the last window's end, and the breakdown\n"
"and stall flags (1.0 when set).  Both are updated in place.  vecs\n"
"holds g, H v, g + H v (n each), c and c + J v (m each); tests = (cap,\n"
"beta, kappa, prev_pair_norm, tau_prev, ||v||, g'v, ||c||, normal\n"
"decrease); both are None or neither.  The rules' and the tests'\n"
"constants are those of sisqo.kernels at build time.\n"
"Returns (steps, tt1, tt2, breakdown, stalled, g_dot_d, max_term,\n"
"norm_c_plus_jd, rejected, formed): the t it stopped at, the tests'\n"
"outcomes for the accepted iterate (False if none), the flags, g'd,\n"
"max(u'Hu, eps_u ||u||^2) and ||c + Jd|| of the last iterate to pass\n"
"conditions b and a (NaN if none), the counts of iterates rejected by\n"
"condition b, a or c, and by the tests after passing all three, and\n"
"the count of residuals formed, so the KKT products number steps +\n"
"formed.");

static PyObject *
tangential_solve(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"h_indptr", "h_indices", "h_data", "j_indptr",
                             "j_indices", "j_data", "rhs", "work", "scal",
                             "vecs", "tests", "max_iter", NULL};
    static char *vecs_name[] = {"vecs"};
    PyObject *objs[9], *vecs_obj, *tests_obj;
    kkt_op op;
    minres_rows rows;
    test_params p;
    candidate found = {0, 0, NAN, NAN, NAN};
    Py_ssize_t max_iter, t, rejected[4] = {0, 0, 0, 0};
    const double *rhs, *vecs = NULL;
    double *work, *scal, *hu = NULL, skip_above = INFINITY;
    int verdict;

    if (!PyArg_ParseTupleAndKeywords(
            args, kwargs, "OOOOOOOOOOOn:tangential_solve", kwlist,
            &objs[0], &objs[1], &objs[2], &objs[3], &objs[4], &objs[5],
            &objs[6], &objs[7], &objs[8], &vecs_obj, &tests_obj, &max_iter)
        || get_minres_args(objs, kwlist, &op) < 0)
        return NULL;
    if (max_iter < 0) {
        PyErr_Format(PyExc_ValueError,
                     "max_iter: expected at least 0, got %zd", max_iter);
        return NULL;
    }
    if ((vecs_obj == Py_None) != (tests_obj == Py_None)) {
        PyErr_SetString(PyExc_ValueError,
                        "vecs and tests: pass both or neither");
        return NULL;
    }
    if (vecs_obj != Py_None) {
        if (!PyTuple_Check(tests_obj)) {
            PyErr_Format(PyExc_TypeError, "tests: expected a tuple, got"
                         " %.200s", Py_TYPE(tests_obj)->tp_name);
            return NULL;
        }
        if (!PyArg_ParseTuple(tests_obj, "ddddddddd", &p.cap, &p.beta,
                              &p.kappa, &p.prev_pair_norm, &p.tau_prev,
                              &p.v_norm, &p.g_dot_v, &p.c_norm,
                              &p.decrease_v)
            || check_arrays(&vecs_obj, "d", vecs_name) < 0)
            return NULL;
        if (LEN(vecs_obj) != 3 * op.n + 2 * op.m) {
            PyErr_Format(PyExc_ValueError, "vecs: expected length %zd"
                         " (3 n + 2 m), got %zd", 3 * op.n + 2 * op.m,
                         LEN(vecs_obj));
            return NULL;
        }
        if (overlaps(vecs_obj, objs[7]) || overlaps(vecs_obj, objs[8])) {
            PyErr_SetString(PyExc_ValueError, "vecs overlaps work or scal");
            return NULL;
        }
        vecs = DATA(vecs_obj);
        /* above this carried ||r||_inf, ||r||_inf > cap: see the header */
        skip_above = RESID_SKIP_MARGIN * p.cap;
        /* scratch: H u, the stationarity residual and c + J d */
        if ((hu = PyMem_Malloc((2 * op.n + op.m) * sizeof(double)))
            == NULL)
            return PyErr_NoMemory();
    }
    rhs = DATA(objs[6]);
    work = DATA(objs[7]);
    scal = DATA(objs[8]);
    rows = (minres_rows){work, 0, 0};

    Py_BEGIN_ALLOW_THREADS
    for (t = 0;; t++) {
        if (t > 0)
            guarded_step(&op, rhs, &rows, scal, skip_above);
        if (vecs != NULL && !(scal[S_RINF] > p.cap)) {
            verdict = evaluate(&op, work, vecs, &p, hu, hu + op.n,
                               hu + 2 * op.n, &found);
            if (verdict == ACCEPTED)
                break;
            rejected[verdict]++;
        }
        if (scal[S_BREAKDOWN] != 0.0 || scal[S_STALLED] != 0.0
            || t == max_iter)
            break;
    }
    /* only a step at t == max_iter ends the loop with a stale row */
    if (rows.stale)
        form_residual(&op, rhs, &rows, scal);
    Py_END_ALLOW_THREADS
    PyMem_Free(hu);
    /* a candidate that passed a test was accepted, so tt1 and tt2 are
     * still 0 unless the loop stopped at an accepted one */
    return Py_BuildValue("nOOOOddd(nnnn)n", t,
                         found.tt1 ? Py_True : Py_False,
                         found.tt2 ? Py_True : Py_False,
                         scal[S_BREAKDOWN] != 0.0 ? Py_True : Py_False,
                         scal[S_STALLED] != 0.0 ? Py_True : Py_False,
                         found.g_dot_d, found.max_term, found.norm_c_plus_jd,
                         rejected[0], rejected[1], rejected[2], rejected[3],
                         rows.formed);
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

    Py_BEGIN_ALLOW_THREADS
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
    Py_END_ALLOW_THREADS
    PyMem_Free(r);
    return Py_BuildValue("nOd", iterations, converged ? Py_True : Py_False,
                         rnorm);
}

static PyMethodDef csrkern_methods[] = {
    {"csr_matvec", (PyCFunction)(void (*)(void))csr_matvec,
     METH_VARARGS | METH_KEYWORDS, csr_matvec_doc},
    {"csr_rmatvec", (PyCFunction)(void (*)(void))csr_rmatvec,
     METH_VARARGS | METH_KEYWORDS, csr_rmatvec_doc},
    {"tangential_solve", (PyCFunction)(void (*)(void))tangential_solve,
     METH_VARARGS | METH_KEYWORDS, tangential_solve_doc},
    {"cg", (PyCFunction)(void (*)(void))cg, METH_VARARGS | METH_KEYWORDS,
     cg_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef csrkern_module = {
    PyModuleDef_HEAD_INIT,
    "_csrkern",
    "Compiled CSR kernels: matvec, transpose matvec, a truncated\n"
    "tangential MINRES solve and a CG solve.",
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
