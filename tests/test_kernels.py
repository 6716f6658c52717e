"""Kernel backends: both must exist and agree with dense products."""

import importlib.machinery
import inspect
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from sisqo import kernels


def _csr_from_dense(dense):
    indptr = [0]
    indices = []
    data = []
    for row in dense:
        nz = np.nonzero(row)[0]
        indices.extend(nz)
        data.extend(row[nz])
        indptr.append(len(indices))
    return (np.asarray(indptr, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(data, dtype=np.float64))


def _csr_arrays(rng, rows, cols, density=0.3):
    dense = rng.standard_normal((rows, cols))
    dense[rng.uniform(size=dense.shape) > density] = 0.0
    return (dense, *_csr_from_dense(dense))


@pytest.fixture(params=kernels.available_backends())
def backend(request):
    previous = kernels.active_backend()
    kernels.use_backend(request.param)
    yield request.param
    kernels.use_backend(previous)


def test_compiled_backend_present():
    # the build ships a compiled core; the numpy path is the fallback
    assert "python" in kernels.available_backends()
    assert "compiled" in kernels.available_backends()


def test_matvec_matches_dense(backend):
    rng = np.random.default_rng(11)
    for rows, cols in ((1, 1), (5, 3), (3, 8), (20, 20)):
        dense, indptr, indices, data = _csr_arrays(rng, rows, cols)
        x = rng.standard_normal(cols)
        out = np.empty(rows)
        kernels.csr_matvec(indptr, indices, data, x, out)
        np.testing.assert_allclose(out, dense @ x, rtol=1e-13, atol=1e-13)


def test_rmatvec_matches_dense(backend):
    rng = np.random.default_rng(12)
    for rows, cols in ((1, 4), (6, 2), (9, 9)):
        dense, indptr, indices, data = _csr_arrays(rng, rows, cols)
        w = rng.standard_normal(rows)
        out = np.empty(cols)
        kernels.csr_rmatvec(indptr, indices, data, w, out)
        np.testing.assert_allclose(out, dense.T @ w, rtol=1e-13, atol=1e-13)


def test_empty_rows_and_matrices(backend):
    # rows with no entries must produce zeros, not stale memory
    indptr = np.array([0, 0, 2, 2], dtype=np.int64)
    indices = np.array([0, 2], dtype=np.int64)
    data = np.array([3.0, -1.0])
    x = np.array([1.0, 10.0, 2.0])
    out = np.full(3, np.nan)
    kernels.csr_matvec(indptr, indices, data, x, out)
    np.testing.assert_array_equal(out, [0.0, 1.0, 0.0])

    out_t = np.full(3, np.nan)
    kernels.csr_rmatvec(indptr, indices, data, np.array([5.0, 2.0, 7.0]),
                        out_t)
    np.testing.assert_array_equal(out_t, [6.0, 0.0, -2.0])

    empty = np.zeros(0, dtype=np.int64)
    out0 = np.zeros(0)
    kernels.csr_matvec(np.array([0], dtype=np.int64), empty, np.zeros(0),
                       np.zeros(4), out0)
    assert out0.shape == (0,)


def _kkt_blocks(rng, n, m):
    """CSR arrays of H (n-by-n, rows 0 and 2 empty) and J (m-by-n, last
    row empty); the kernel does not need H symmetric."""
    h, j = rng.standard_normal((n, n)), rng.standard_normal((m, n))
    h[rng.uniform(size=h.shape) > 0.5] = 0.0
    j[rng.uniform(size=j.shape) > 0.5] = 0.0
    h[[0, 2]] = 0.0
    j[-1:] = 0.0
    return _csr_from_dense(h), _csr_from_dense(j)


@pytest.mark.parametrize("n, m", [(7, 3), (6, 0), (5, 5), (3, 1)])
def test_kkt_apply_matches_composed_kernels(backend, n, m):
    # bit for bit the three separate products: H u + J.T delta, J u
    rng = np.random.default_rng(14)
    h, j = _kkt_blocks(rng, n, m)
    z = rng.standard_normal(n + m)
    u, delta = z[:n], z[n:]
    top, bot = np.empty(n), np.empty(m)
    kernels.csr_matvec(*h, u, top)
    if m:
        jtd = np.empty(n)
        kernels.csr_rmatvec(*j, delta, jtd)
        top = top + jtd
        kernels.csr_matvec(*j, u, bot)
    out = np.full(n + m, np.nan)
    kernels.reference._kkt_apply(*h, *j, z, out)
    assert out.tobytes() == np.concatenate([top, bot]).tobytes()


def _minres_start(rhs):
    """work and scal of a MINRES state at z = 0 for K z = -rhs, laid out
    as ``kernels.minres_step`` reads them."""
    dim = len(rhs)
    work = np.zeros(8 * dim)
    rows = work.reshape(8, dim)
    rows[1] = rows[2] = -rhs
    rows[7] = rhs
    beta1 = float(np.linalg.norm(rhs))
    scal = np.array([beta1, 0.0, 0.0, 0.0, beta1, -1.0, 0.0, 0.0, beta1,
                     float(np.max(np.abs(rhs)))])
    return work, scal


def _symmetric_kkt_blocks(rng, n, m):
    h, j = _kkt_blocks(rng, n, m)
    dense = np.zeros((n, n))
    dense[np.repeat(np.arange(n), np.diff(h[0])), h[1]] = h[2]
    return _csr_from_dense(dense + dense.T), j


@pytest.mark.parametrize("n, m", [(7, 3), (6, 0), (5, 5), (1, 0)])
def test_minres_step_matches_reference(backend, n, m):
    # the numpy step on this backend's KKT products, bit for bit: work
    # and scal agree after every step, m = 0 and dim = 1 included
    rng = np.random.default_rng(15)
    if n == 1:
        h = _csr_from_dense(np.array([[2.5]]))
        j = _csr_from_dense(np.zeros((0, 1)))
    else:
        h, j = _symmetric_kkt_blocks(rng, n, m)
    rhs = rng.standard_normal(n + m)
    work, scal = _minres_start(rhs)
    ref_work, ref_scal = work.copy(), scal.copy()
    for _ in range(n + m):
        kernels.minres_step(*h, *j, rhs, work, scal)
        kernels.reference.minres_step(*h, *j, rhs, ref_work, ref_scal)
        assert work.tobytes() == ref_work.tobytes()
        assert scal.tobytes() == ref_scal.tobytes()
        if scal[0] < 1e-14:
            break
    assert scal[7] >= 1


@pytest.mark.parametrize("where", [0, 4, -1])
def test_minres_step_infinity_norm_propagates_nan(backend, where):
    rng = np.random.default_rng(16)
    h, j = _symmetric_kkt_blocks(rng, 6, 3)
    rhs = rng.standard_normal(9)
    work, scal = _minres_start(rhs)
    rhs[where] = np.nan
    kernels.minres_step(*h, *j, rhs, work, scal)
    assert np.isnan(scal[8]) and np.isnan(scal[9])


def _cg_system(rng, rows, cols, normal, case):
    """CSR arrays of a random J (rows-by-cols), b in the range of A
    (J.T J if ``normal``, else J J.T) as the solver's right-hand sides
    are, and the threshold and max_iter of a solve that ends as ``case``
    says."""
    dense = rng.standard_normal((rows, cols))
    dense[rng.uniform(size=dense.shape) > 0.6] = 0.0
    b = dense.T @ rng.standard_normal(rows) if normal \
        else dense @ rng.standard_normal(cols)
    threshold, max_iter = 1e-12 * float(np.linalg.norm(b)), 4 * len(b) + 10
    if case == "max_iter":
        threshold, max_iter = 0.0, 2
    elif case == "zero_row":
        # b on a zero row of J (a zero column for J.T J): A b = 0
        if normal:
            dense[:, 0] = 0.0
        else:
            dense[0] = 0.0
        b = np.zeros(len(b))
        b[0] = 1.0
    elif case == "nan":
        b[0] = np.nan
    return _csr_from_dense(dense), b, threshold, max_iter


@pytest.mark.parametrize("normal", [True, False])
@pytest.mark.parametrize("shape", [(7, 3), (3, 7), (5, 5), (0, 4), (4, 1)])
@pytest.mark.parametrize("case", ["solve", "max_iter", "zero_row", "nan"])
def test_cg_matches_reference(backend, normal, shape, case):
    # the numpy loop on this backend's CSR products, bit for bit: x, the
    # iteration count, the flag and the residual norm
    rows, cols = shape
    size = cols if normal else rows
    if size == 0 and case != "solve":
        pytest.skip("an empty b converges at once")
    rng = np.random.default_rng(17)
    j, b, threshold, max_iter = _cg_system(rng, rows, cols, normal, case)
    results = []
    for cg in (kernels.cg, kernels.reference.cg):
        x = np.full(size, np.nan)
        iterations, converged, resid = cg(*j, cols, normal, b, x, threshold,
                                          max_iter)
        results.append((x.tobytes(), iterations, converged,
                        np.float64(resid).tobytes()))
    assert results[0] == results[1]
    _, iterations, converged, resid = results[0]
    resid = np.frombuffer(resid)[0]
    if case == "solve":
        assert converged and resid <= threshold
    elif case == "max_iter":
        # ranks of 3 and more need more than two iterations
        assert iterations <= 2
        if min(shape) >= 3:
            assert (iterations, converged) == (2, False)
    elif case == "zero_row":
        assert (iterations, converged) == (0, False) and resid == 1.0
        assert np.frombuffer(results[0][0]).tolist() == [0.0] * size
    else:
        assert (iterations, converged) == (max_iter, False)
        assert np.isnan(resid)


def test_backends_agree():
    rng = np.random.default_rng(13)
    _, indptr, indices, data = _csr_arrays(rng, 40, 25)
    x = rng.standard_normal(25)
    w = rng.standard_normal(40)
    results = {}
    previous = kernels.active_backend()
    for name in kernels.available_backends():
        kernels.use_backend(name)
        try:
            ax = np.empty(40)
            atw = np.empty(25)
            kernels.csr_matvec(indptr, indices, data, x, ax)
            kernels.csr_rmatvec(indptr, indices, data, w, atw)
            results[name] = (ax, atw)
        finally:
            kernels.use_backend(previous)
    # vectorized reductions associate differently, so agreement is to
    # round-off rather than bit-for-bit
    ref_ax, ref_atw = results["python"]
    for name, (ax, atw) in results.items():
        np.testing.assert_allclose(ax, ref_ax, rtol=1e-12, atol=1e-13,
                                   err_msg=name)
        np.testing.assert_allclose(atw, ref_atw, rtol=1e-12, atol=1e-13,
                                   err_msg=name)


def test_use_backend_binds_the_backends_own_functions(backend):
    # no wrapper between a caller and the kernel it calls
    module = kernels.reference if backend == "python" else kernels._csrkern
    for name in ("csr_matvec", "csr_rmatvec", "minres_step", "cg"):
        assert getattr(kernels, name) is getattr(module, name)


def test_use_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.use_backend("fortran")
    assert kernels.active_backend() in kernels.available_backends()


def test_backends_agree_restores_active_backend():
    previous = kernels.active_backend()
    kernels.use_backend("python")
    try:
        test_backends_agree()
        assert kernels.active_backend() == "python"
    finally:
        kernels.use_backend(previous)


@pytest.fixture
def compiled():
    if "compiled" not in kernels.available_backends():
        pytest.skip("the compiled core was not built")
    previous = kernels.active_backend()
    kernels.use_backend("compiled")
    yield
    kernels.use_backend(previous)


def _good_args():
    # 2x3 matrix [[1, 0, 2], [0, 3, 0]]
    return dict(indptr=np.array([0, 2, 3], dtype=np.int64),
                indices=np.array([0, 2, 1], dtype=np.int64),
                data=np.array([1.0, 2.0, 3.0]),
                x=np.array([1.0, 1.0, 1.0]),
                out=np.empty(2))


def _read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("name, bad, error", [
    ("indptr", np.array([0, 2, 3], dtype=np.int32), ValueError),
    ("indices", np.array([0, 2, 1], dtype=np.uint64), ValueError),
    ("data", np.array([1.0, 2.0, 3.0], dtype=np.float32), ValueError),
    ("x", np.ones(6)[::2], ValueError),
    ("out", np.empty((2, 1)), ValueError),
    ("out", _read_only(np.empty(2)), (ValueError, BufferError)),
    ("indptr", np.array([0, 2], dtype=np.int64), ValueError),
    ("data", np.array([1.0, 2.0]), ValueError),
    ("x", None, TypeError),
    ("data", np.array([1.0, 2.0, 3.0], dtype=">f8"), ValueError),
    ("indptr", np.array([0, 2, 3], dtype=">i8"), ValueError),
    ("indptr", np.array([0, 2, 3], dtype=np.longlong), None),
    ("x", memoryview(np.ones(3)), TypeError),
    ("x", np.frombuffer(bytearray(25), np.float64, offset=1, count=3),
     ValueError),
    ("indices", np.frombuffer(bytearray(25), np.int64, offset=1, count=3),
     ValueError),
    ("x", np.array([1.0, 1.0, 1.0], dtype=np.float32), ValueError),
    ("out", np.empty(4)[::2], ValueError),
    ("indptr", np.zeros(0, dtype=np.int64), ValueError),
])
def test_compiled_rejects_bad_buffers(compiled, name, bad, error):
    args = _good_args()
    args[name] = bad
    if error is None:
        kernels.csr_matvec(**args)
        np.testing.assert_array_equal(args["out"], [3.0, 3.0])
        return
    with pytest.raises(error):
        kernels.csr_matvec(**args)


def _good_minres_args():
    # H = diag(2, 3), J = [[0, 4]]
    args = dict(h_indptr=np.array([0, 1, 2], dtype=np.int64),
                h_indices=np.array([0, 1], dtype=np.int64),
                h_data=np.array([2.0, 3.0]),
                j_indptr=np.array([0, 1], dtype=np.int64),
                j_indices=np.array([1], dtype=np.int64),
                j_data=np.array([4.0]),
                rhs=np.array([1.0, -2.0, 0.5]))
    args["work"], args["scal"] = _minres_start(args["rhs"])
    return args


@pytest.mark.parametrize("name, bad, error", [
    ("work", np.zeros(23), ValueError),
    ("work", np.zeros(25), ValueError),
    ("scal", np.zeros(9), ValueError),
    ("work", _read_only(np.zeros(24)), (ValueError, BufferError)),
    ("scal", _read_only(np.zeros(10)), (ValueError, BufferError)),
    ("work", np.zeros(24, dtype=np.int64), ValueError),
    ("scal", np.zeros(10, dtype=np.int64), ValueError),
    ("rhs", np.array([1, -2, 0], dtype=np.int64), ValueError),
    ("rhs", np.ones(4), ValueError),
])
def test_compiled_minres_step_rejects_bad_buffers(compiled, name, bad,
                                                  error):
    args = _good_minres_args()
    args[name] = bad
    with pytest.raises(error):
        kernels.minres_step(**args)
    args = _good_minres_args()
    kernels.minres_step(**args)
    assert args["scal"][7] == 1.0 and np.isfinite(args["work"]).all()


def test_compiled_minres_step_rejects_overlap(compiled):
    args = _good_minres_args()
    buf = np.zeros(34)
    buf[:24], buf[24:] = args["work"], args["scal"]
    args["work"], args["scal"] = buf[:24], buf[23:33]
    with pytest.raises(ValueError, match="overlap"):
        kernels.minres_step(**args)


def _good_cg_args():
    # J = [[1, 0, 2], [0, 3, 0]], A = J J.T = diag(5, 9), b = (5, 9)
    args = _good_args()
    del args["x"], args["out"]
    args.update(ncols=3, normal=False, b=np.array([5.0, 9.0]),
                x=np.empty(2), threshold=1e-12, max_iter=10)
    return args


@pytest.mark.parametrize("changes, error", [
    ({"b": None}, TypeError),
    ({"b": [5.0, 9.0]}, TypeError),
    ({"b": np.ones((2, 1))}, ValueError),
    ({"x": np.empty(4)[::2]}, ValueError),
    ({"x": np.empty((2, 1))}, ValueError),
    ({"b": np.frombuffer(bytearray(17), np.float64, offset=1, count=2)},
     ValueError),
    ({"x": np.frombuffer(bytearray(17), np.float64, offset=1, count=2)},
     ValueError),
    ({"b": np.array([5.0, 9.0], dtype=">f8")}, ValueError),
    ({"indptr": np.array([0, 2, 3], dtype=np.int32)}, ValueError),
    ({"indices": np.array([0, 2, 1], dtype=np.int32)}, ValueError),
    ({"x": np.empty(2, dtype=np.int64)}, ValueError),
    ({"x": _read_only(np.empty(2))}, (ValueError, BufferError)),
    ({"ncols": 2.5}, TypeError),
    ({"indptr": np.zeros(0, dtype=np.int64)}, ValueError),
    ({"data": np.array([1.0, 2.0])}, ValueError),
    ({"b": np.ones(3), "x": np.empty(3)}, ValueError),
    ({"x": np.empty(3)}, ValueError),
    ({"ncols": -1}, ValueError),
    ({"normal": True}, ValueError),
    ({"normal": True, "b": np.ones(4), "x": np.empty(4)}, ValueError),
    ({"threshold": "small"}, TypeError),
    ({"max_iter": 2.5}, TypeError),
    # scratch of more than PY_SSIZE_T_MAX bytes: refused before allocating
    ({"ncols": 2 ** 62}, MemoryError),
])
def test_compiled_cg_rejects_bad_buffers(compiled, changes, error):
    args = _good_cg_args()
    args.update(changes)
    with pytest.raises(error):
        kernels.cg(**args)
    # ncols = 5 gives J two zero columns more; A has two distinct nonzero
    # eigenvalues either way
    for normal, b, ncols, x in ((False, [5.0, 9.0], 5, [1.0, 1.0]),
                                (True, [1.0, 3.0, 2.0], 3, None)):
        args = _good_cg_args()
        args.update(ncols=ncols, normal=normal, b=np.array(b),
                    x=np.empty(len(b)))
        assert kernels.cg(**args)[:2] == (2, True)
        if x is not None:
            np.testing.assert_allclose(args["x"], x, rtol=1e-14)


def test_compiled_cg_rejects_overlap(compiled):
    args = _good_cg_args()
    args["x"] = args["b"]
    with pytest.raises(ValueError, match="overlap"):
        kernels.cg(**args)
    np.testing.assert_array_equal(args["b"], [5.0, 9.0])


def test_compiled_csr_kernels_reject_overlap(compiled):
    # A = [[0, 1], [1, 0]]: out written over x would feed back into the
    # product
    indptr, indices, data = _csr_from_dense(np.array([[0.0, 1.0],
                                                      [1.0, 0.0]]))
    for kernel in (kernels.csr_matvec, kernels.csr_rmatvec):
        buf = np.array([1.0, 2.0, 3.0])
        for x, out in ((buf[:2], buf[:2]), (buf[:2], buf[1:]),
                       (buf[1:], buf[:2])):
            with pytest.raises(ValueError, match="x and out overlap"):
                kernel(indptr, indices, data, x, out)
        np.testing.assert_array_equal(buf, [1.0, 2.0, 3.0])


def test_backends_share_signatures(compiled):
    # the compiled signatures are read from their "--" doc strings
    for name in ("csr_matvec", "csr_rmatvec", "minres_step", "cg"):
        assert inspect.signature(getattr(kernels._csrkern, name)) \
            == inspect.signature(getattr(kernels.reference, name)), name


def test_compiled_rmatvec_checks_rows_against_x(compiled):
    args = _good_args()
    args["x"], args["out"] = np.ones(3), np.empty(3)  # three rows, not two
    with pytest.raises(ValueError, match="indptr"):
        kernels.csr_rmatvec(**args)
    args["x"] = np.array([1.0, 2.0])
    kernels.csr_rmatvec(**args)
    np.testing.assert_array_equal(args["out"], [1.0, 6.0, 2.0])


# Imports sisqo.kernels in a fresh interpreter from a copy of the package,
# so its build cache starts empty.  "missing" points the recorded compiler
# at a path that does not exist; "cached" refuses to start processes or
# import setuptools; "where" also prints the file the compiled core was
# loaded from.
_CHILD = """
import logging, subprocess, sys, sysconfig
logging.basicConfig(format="WARNING %(name)s: %(message)s")
if sys.argv[1] == "missing":
    sysconfig.get_config_vars()["LDSHARED"] = sys.argv[2]
elif sys.argv[1] == "cached":
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")
    subprocess.Popen = refuse
    sys.modules["setuptools"] = None
from sisqo import kernels
print(kernels.active_backend(), *kernels.available_backends())
if sys.argv[1] == "where":
    print(kernels._csrkern.__file__)
"""

needs_source = pytest.mark.skipif(not os.path.exists(kernels._SOURCE),
                                  reason="no _csrkern.c beside the package")


def _package_copy(tmp_path):
    import sisqo

    shutil.copytree(os.path.dirname(sisqo.__file__), tmp_path / "sisqo",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return tmp_path / "sisqo" / "kernels"


def _import_in_child(root, mode, arg=""):
    env = {k: v for k, v in os.environ.items() if k != "SISQO_KERNELS"}
    env["PYTHONPATH"] = str(root)
    proc = subprocess.run([sys.executable, "-c", _CHILD, mode, arg],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    warnings = [ln for ln in proc.stderr.splitlines()
                if ln.startswith("WARNING ")]
    return proc.stdout.split(), warnings


def _cache_entries(kernel_dir):
    cache = kernel_dir / "__pycache__"
    return sorted(p.name for p in cache.iterdir()
                  if p.name.startswith("_csrkern")) if cache.exists() else []


@needs_source
@pytest.mark.parametrize("failure", ["compiler_error", "compiler_missing"])
def test_failed_build_falls_back_to_numpy(tmp_path, failure):
    kernel_dir = _package_copy(tmp_path)
    if failure == "compiler_error":
        (kernel_dir / "_csrkern.c").write_text("#error broken on purpose\n")
        mode, arg = "plain", ""
    else:
        mode, arg = "missing", str(tmp_path / "no-such-compiler")
    backends, warnings = _import_in_child(tmp_path, mode, arg)
    assert backends == ["python", "python"]
    assert len(warnings) == 1 and "numpy fallback" in warnings[0], warnings
    assert _cache_entries(kernel_dir) == []


@needs_source
def test_stale_builds_are_pruned(tmp_path):
    # builds of other source versions for this interpreter go, on a
    # fresh build and on a cache hit; other interpreters' builds stay
    kernel_dir = _package_copy(tmp_path)
    cache = kernel_dir / "__pycache__"
    cache.mkdir()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    stale = "_csrkern-0123456789abcdef" + suffix
    other = "_csrkern-0123456789abcdef.cpython-0-other-interpreter.so"
    for name in (stale, other):
        (cache / name).write_bytes(b"")
    assert _import_in_child(tmp_path, "plain") == (
        ["compiled", "compiled", "python"], [])
    built = _cache_entries(kernel_dir)
    assert stale not in built and other in built and len(built) == 2
    (cache / stale).write_bytes(b"")
    assert _import_in_child(tmp_path, "cached") == (
        ["compiled", "compiled", "python"], [])
    assert _cache_entries(kernel_dir) == built


@needs_source
def test_build_is_cached_and_reused(tmp_path):
    kernel_dir = _package_copy(tmp_path)
    assert _import_in_child(tmp_path, "plain") == (
        ["compiled", "compiled", "python"], [])
    built = _cache_entries(kernel_dir)
    assert len(built) == 1 and built[0].endswith(
        importlib.machinery.EXTENSION_SUFFIXES[0])
    # a cache hit neither compiles nor imports setuptools
    assert _import_in_child(tmp_path, "cached") == (
        ["compiled", "compiled", "python"], [])
    assert _cache_entries(kernel_dir) == built


@needs_source
def test_in_tree_extension_is_not_loaded(tmp_path, compiled):
    # an importable _csrkern<EXT_SUFFIX> beside the source (what an
    # in-place extension build leaves) would hide later edits of
    # _csrkern.c; the loader takes only the build keyed by the source
    kernel_dir = _package_copy(tmp_path)
    decoy = kernel_dir / ("_csrkern"
                          + importlib.machinery.EXTENSION_SUFFIXES[0])
    shutil.copyfile(kernels._csrkern.__file__, decoy)
    out, warnings = _import_in_child(tmp_path, "where")
    assert out[:3] == ["compiled", "compiled", "python"] and not warnings
    loaded = os.path.realpath(out[3])
    assert loaded != os.path.realpath(decoy)
    assert os.path.dirname(loaded) == os.path.realpath(
        kernel_dir / "__pycache__")


@needs_source
def test_built_package_imports_with_compiled_backend(tmp_path):
    # the package as setuptools lays it out for an install carries
    # _csrkern.c and compiles it on first import, as a checkout does
    root = Path(__file__).resolve().parents[1]
    if not (root / "pyproject.toml").exists():
        pytest.skip("not run from a source checkout")
    checkout = tmp_path / "checkout"
    checkout.mkdir()
    for name in ("pyproject.toml", "README.md"):
        shutil.copyfile(root / name, checkout / name)
    shutil.copytree(root / "src", checkout / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.so",
                                                  "*.egg-info"))
    proc = subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "-q", "build_py", "--build-lib", str(tmp_path / "lib")],
        cwd=checkout, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "lib" / "sisqo" / "kernels" / "_csrkern.c").exists()
    assert _import_in_child(tmp_path / "lib", "plain") == (
        ["compiled", "compiled", "python"], [])


@needs_source
def test_kernel_source_compiles_without_warnings():
    # the interpreter's compiler, as the package build uses it, with
    # every common warning an error
    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not ldshared or shutil.which(ldshared[0]) is None:
        pytest.skip("the interpreter records no usable C compiler")
    proc = subprocess.run(
        [ldshared[0], "-fsyntax-only", "-Wall", "-Wextra",
         "-Wno-unused-parameter", "-Werror",
         "-I", sysconfig.get_path("include"), "-I", np.get_include(),
         kernels._SOURCE], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@needs_source
def test_cache_name_follows_the_numpy_version(monkeypatch):
    # a build against one numpy's headers is not loaded under another
    built_for = kernels._cached_path()
    monkeypatch.setattr(np, "__version__", "0.0.0")
    other = kernels._cached_path()
    assert other != built_for
    assert os.path.dirname(other) == os.path.dirname(built_for)


def test_bench_kernels_script_runs(capsys, tmp_path):
    # the benchmark script lives outside the package; load it by path
    import importlib.util
    import json

    script = Path(__file__).resolve().parents[1] / "benchmarks" \
        / "bench_kernels.py"
    spec = importlib.util.spec_from_file_location("bench_kernels", script)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    previous = kernels.active_backend()
    record_path = tmp_path / "bench.json"
    try:
        assert bench.main(["--mesh", "3", "4", "--repeats", "2",
                           "--minres-steps", "3",
                           "--json", str(record_path)]) == 0
        assert kernels.active_backend() == previous
    finally:
        kernels.use_backend(previous)
    out = capsys.readouterr().out
    # one table per mesh, one row per backend: best/median of the three
    # CSR products, of the two KKT applies they add up to, of the
    # isolated step and of a multiplier-CG iteration, then the step over
    # the applies from the medians
    assert out.count("best/median, microseconds; step/6 csr from the"
                     " medians") == 2
    headers = [ln for ln in out.splitlines() if ln.startswith("backend ")]
    assert len(headers) == 2 and all("cg iter" in ln for ln in headers)
    if "compiled" in kernels.available_backends():
        assert out.count("cg iter over the numpy loop, both on compiled"
                         " products") == 2
    assert "n=18 m=9" in out and "n=32 m=16" in out
    for name in kernels.available_backends():
        rows = [ln.split() for ln in out.splitlines()
                if ln.startswith(f"{name} ")]
        assert len(rows) == 2
        for row in rows:
            assert len(row) == 8 and row[-1].endswith("x")
            cells = [tuple(map(float, cell.split("/"))) for cell in row[1:7]]
            assert all(0.0 < best <= median for best, median in cells)
            step, applies = cells[4][1], cells[3][1]
            assert float(row[-1][:-1]) == pytest.approx(
                step / applies, rel=0.02, abs=0.01)
    # the JSON holds the same figures, one record per mesh and backend
    records = json.loads(record_path.read_text())["records"]
    assert [(r["mesh"], r["backend"]) for r in records] == [
        (mesh, name) for mesh in (3, 4)
        for name in kernels.available_backends()]
    for record in records:
        assert sorted(record) == sorted(
            ["mesh", "n", "m", "backend", "cg_iterations"]
            + list(bench.RECORD_KEYS))
        assert record["cg_iterations"] > 0
        for key in bench.RECORD_KEYS:
            best, median = record[key]
            assert 0.0 < best <= median
