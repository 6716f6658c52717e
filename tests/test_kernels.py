"""Kernel backends: both must exist and agree with dense products."""

import importlib.machinery
import inspect
import os
import shutil
import subprocess
import sys
import sysconfig
import threading
from pathlib import Path

import functools
import math

import numpy as np
import pytest

from kernel_builds import (build_in_copy, compiler, copy_package,
                           pytest_in_copy)
from oracles import state_candidate_tests, tangential_setup
from sisqo import kernels
from sisqo.config import (apply_overrides, build_problem, build_solver_config,
                          load_config, oracle_settings)
from sisqo.engine import SolverConfig
from sisqo.harness import run_single
from sisqo.krylov import MinresState
from sisqo.sparse import KktOperator, SparseMatrix


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
    as ``kernels.tangential_solve`` reads them."""
    dim = len(rhs)
    work = np.zeros(8 * dim)
    rows = work.reshape(8, dim)
    rows[1] = rows[2] = -rhs
    rows[7] = rhs
    beta1 = float(np.linalg.norm(rhs))
    scal = np.array([beta1, 0.0, 0.0, 0.0, beta1, -1.0, 0.0, 0.0, beta1,
                     float(np.max(np.abs(rhs))), beta1, beta1, beta1, 0.0,
                     0.0])
    return work, scal


def _one_step(solve, h, j, rhs, work, scal):
    """One MINRES step by ``solve``, a backend's tangential_solve, without
    the termination tests."""
    return solve(*h, *j, rhs, work, scal, None, None, 1)


def _symmetric_kkt_blocks(rng, n, m):
    h, j = _kkt_blocks(rng, n, m)
    dense = np.zeros((n, n))
    dense[np.repeat(np.arange(n), np.diff(h[0])), h[1]] = h[2]
    return _csr_from_dense(dense + dense.T), j


@pytest.mark.parametrize("n, m", [(7, 3), (6, 0), (5, 5), (1, 0)])
def test_minres_step_matches_reference(backend, n, m):
    # the numpy step on this backend's KKT products, bit for bit: work
    # and scal agree after every one-step solve, m = 0 and dim = 1
    # included
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
        _one_step(kernels.tangential_solve, h, j, rhs, work, scal)
        _one_step(kernels.reference.tangential_solve, h, j, rhs, ref_work,
                  ref_scal)
        assert work.tobytes() == ref_work.tobytes()
        assert scal.tobytes() == ref_scal.tobytes()
        if scal[13]:
            break
    assert scal[7] >= 1


@pytest.mark.parametrize("where", [0, 4, -1])
def test_minres_step_infinity_norm_propagates_nan(backend, where):
    rng = np.random.default_rng(16)
    h, j = _symmetric_kkt_blocks(rng, 6, 3)
    rhs = rng.standard_normal(9)
    work, scal = _minres_start(rhs)
    rhs[where] = np.nan
    _one_step(kernels.tangential_solve, h, j, rhs, work, scal)
    assert np.isnan(scal[8]) and np.isnan(scal[9])


@pytest.mark.parametrize("infs", [{0: np.inf}, {4: -np.inf},
                                  {0: -np.inf, 8: np.inf}])
def test_minres_step_infinity_norm_of_an_infinite_residual(backend, infs):
    # a residual holding +-inf but no NaN: its infinity norm is inf, as
    # np.max(np.abs(...)) takes it
    rng = np.random.default_rng(16)
    h, j = _symmetric_kkt_blocks(rng, 6, 3)
    rhs = rng.standard_normal(9)
    work, scal = _minres_start(rhs)
    for where, value in infs.items():
        rhs[where] = value
    _one_step(kernels.tangential_solve, h, j, rhs, work, scal)
    resid = work[-9:]
    assert not np.isnan(resid).any()
    assert scal[8] == scal[9] == np.inf


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


# (case, shape, normal): an empty b converges at once, so only the solve
# case runs on one
_CG_CASES = [pytest.param(case, shape, normal,
                          id=f"{case}-shape{i}-{normal}")
             for case in ("solve", "max_iter", "zero_row", "nan")
             for i, shape in enumerate([(7, 3), (3, 7), (5, 5), (0, 4),
                                        (4, 1)])
             for normal in (True, False)
             if case == "solve" or shape[1 if normal else 0] > 0]


@pytest.mark.parametrize("case, shape, normal", _CG_CASES)
def test_cg_matches_reference(backend, normal, shape, case):
    # the numpy loop on this backend's CSR products, bit for bit: x, the
    # iteration count, the flag and the residual norm
    rows, cols = shape
    size = cols if normal else rows
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
    for name in ("csr_matvec", "csr_rmatvec", "tangential_solve", "cg"):
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
                rhs=np.array([1.0, -2.0, 0.5]), vecs=None, tests=None,
                max_iter=1)
    args["work"], args["scal"] = _minres_start(args["rhs"])
    return args


@pytest.mark.parametrize("name, bad, error", [
    ("work", np.zeros(23), ValueError),
    ("work", np.zeros(25), ValueError),
    ("scal", np.zeros(9), ValueError),
    ("work", _read_only(np.zeros(24)), (ValueError, BufferError)),
    ("scal", _read_only(np.zeros(15)), (ValueError, BufferError)),
    ("work", np.zeros(24, dtype=np.int64), ValueError),
    ("scal", np.zeros(15, dtype=np.int64), ValueError),
    ("rhs", np.array([1, -2, 0], dtype=np.int64), ValueError),
    ("rhs", np.ones(4), ValueError),
])
def test_compiled_minres_step_rejects_bad_buffers(compiled, name, bad,
                                                  error):
    # the MINRES state's checks, on a one-step solve without the tests
    args = _good_minres_args()
    args[name] = bad
    with pytest.raises(error):
        kernels.tangential_solve(**args)
    args = _good_minres_args()
    kernels.tangential_solve(**args)
    assert args["scal"][7] == 1.0 and np.isfinite(args["work"]).all()


def test_compiled_minres_step_rejects_overlap(compiled):
    args = _good_minres_args()
    buf = np.zeros(39)
    buf[:24], buf[24:] = args["work"], args["scal"]
    args["work"], args["scal"] = buf[:24], buf[23:38]
    with pytest.raises(ValueError, match="overlap"):
        kernels.tangential_solve(**args)


@functools.lru_cache(maxsize=None)
def _captured_solves(overrides, profile="qp_gaussian", iterations=3):
    """The arguments of every ``kernels.tangential_solve`` call of the
    first ``iterations`` iterations of ``profile`` seed 0 with
    ``overrides``, copied before the call."""
    config = apply_overrides(load_config(profile), list(overrides))
    kind, eps_n = oracle_settings(config)
    captured = []
    solve = kernels.tangential_solve

    def capture(*args):
        captured.append([_copy(a) for a in args])
        return solve(*args)

    kernels.tangential_solve = capture
    try:
        run_single(build_problem(config),
                   build_solver_config(config, seed=0,
                                       max_outer_iterations=iterations),
                   0, oracle_kind=kind, eps_n=eps_n)
    finally:
        kernels.tangential_solve = solve
    return captured


def _copy(arg):
    return arg.copy() if isinstance(arg, np.ndarray) else arg


def _solve_args(h, j, max_iter, rng, rhs=None, beta=1.0):
    """Arguments of a tangential solve for the dense blocks ``h`` and
    ``j``, with the termination tests of g, c, v and y drawn from ``rng``
    at ``beta`` and the engine's parameters, and no gate on the residual;
    the system is the tests' own tangential one unless ``rhs`` is
    given."""
    n, m = j.shape[1], j.shape[0]
    vecs, tests, state = tangential_setup(
        rng.standard_normal(n), rng.standard_normal(m),
        SparseMatrix.from_dense(j), rng.standard_normal(n),
        rng.standard_normal(m), SparseMatrix.from_dense(h),
        SolverConfig().kappa, beta=beta)
    if rhs is not None:
        state = MinresState(state.op, (rhs[:n], rhs[n:]))
    return [*state.op.csr, state.rhs, state._work, state._scal, vecs,
            (math.inf, *tests), max_iter]


def _synthetic_solve(n, m, max_iter):
    """Arguments of a tangential solve of random data: a symmetric H with
    an empty row, a random J, g, c, v and y."""
    rng = np.random.default_rng(18 + n + m)
    h = rng.standard_normal((n, n))
    h = h + h.T
    h[0] = h[:, 0] = 0.0
    return _solve_args(h, rng.standard_normal((m, n)), max_iter, rng)


def _solve_case(case):
    """Arguments of a tangential solve that ends as ``case`` says."""
    if case in ("m0", "n1", "n1m1"):
        return _synthetic_solve(*{"m0": (6, 0), "n1": (1, 0),
                                  "n1m1": (1, 1)}[case], max_iter=12)
    if case == "stall":
        # J's one row is empty, so the constraint residual stays at 1:
        # the least residual stops falling, and the solve stalls at the
        # end of its second window.  That residual is above condition
        # b's cap at beta = 1e-3, so every candidate is rejected
        rhs = np.append(np.random.default_rng(0).standard_normal(200), 1.0)
        return _solve_args(np.diag(np.linspace(1.0, 2.0, 200)),
                           np.zeros((1, 200)), 500, np.random.default_rng(19),
                           rhs, beta=1e-3)
    if case == "breakdown":
        # K = H = I: the first step solves the system
        return _solve_args(np.eye(3), np.zeros((0, 3)), 12,
                           np.random.default_rng(19))
    # copies: the captured arrays are shared by every case
    if case == "test1":
        return [_copy(a) for a in _captured_solves(())[0]]
    args = [_copy(a) for a in _captured_solves(("algorithm.tau_init=1",))[1]]
    if case in ("max_iter", "carried_nan", "carried_nan_last"):
        args[11] = 20
    if case.startswith("carried_nan"):
        # a NaN in the residual row the call starts from, which the first
        # step carries, in the SSE2 loop or in the scalar one after it;
        # the gate is so tight that every other step skips.  The SSE2 loop
        # takes four entries at a time, so the last entry reaches the
        # scalar one only while dim is not a multiple of 4
        dim = len(args[6])
        assert case == "carried_nan" or dim % 4, (
            f"dim {dim} leaves the scalar loop no entries to carry")
        args[7][7 * dim + (3 if case == "carried_nan" else dim - 1)] = np.nan
        args[10] = (1e-300, *args[10][1:])
    elif case == "zero_rhs":
        n, m = len(args[0]) - 1, len(args[3]) - 1
        state = MinresState(KktOperator(
            SparseMatrix((n, n), *args[:3]), SparseMatrix((m, n), *args[3:6])),
            (np.zeros(n), np.zeros(m)))
        # u = 0 at a zero residual passes test 2 here, so no tests
        args[6:11] = state.rhs, state._work, state._scal, None, None
    elif case == "nan":
        args[6][3] = np.nan
    return args


def _bits(out):
    return tuple(np.float64(x).tobytes() if isinstance(x, float) else x
                 for x in out)


@pytest.mark.parametrize("case", ["test1", "test2", "max_iter", "stall",
                                  "breakdown", "zero_rhs", "nan",
                                  "carried_nan", "carried_nan_last", "m0",
                                  "n1", "n1m1"])
def test_tangential_solve_matches_reference(compiled, case):
    # the numpy loop on compiled products, bit for bit: the outcome, the
    # iterate, the residual and every vector and scalar of the state
    args = _solve_case(case)
    results = []
    for solve in (kernels.tangential_solve,
                  kernels.reference.tangential_solve):
        run = [_copy(a) for a in args]
        out = solve(*run)
        results.append((_bits(out), run[7].tobytes(), run[8].tobytes()))
    assert results[0] == results[1]
    steps, tt1, tt2, breakdown, stalled, *parts, rejected, formed = out
    scal = run[8]
    assert 0 <= steps <= args[11] and scal[7] <= steps
    assert len(rejected) == 4 and all(count >= 0 for count in rejected)
    assert 0 <= formed <= scal[7]
    ending = {"test1": tt1, "test2": tt2 and not tt1,
              "max_iter": (steps, tt1, tt2, breakdown, stalled)
              == (20, False, False, False, False) and sum(rejected) > 0,
              "stall": (steps, stalled, breakdown) == (100, True, False)
              and rejected[0] == 101,
              "breakdown": breakdown and steps == scal[7] == 1,
              "zero_rhs": breakdown and (steps, scal[7]) == (1, 0.0),
              "nan": rejected[0] > 0 and math.isnan(scal[8]) and stalled}
    # the NaN that the first step carries forces its residual, and the
    # call forms the skipped last step's
    for nan_case in ("carried_nan", "carried_nan_last"):
        ending[nan_case] = (steps, breakdown, stalled, formed) \
            == (20, False, False, 2) and rejected == (0, 0, 0, 0)
    assert ending.get(case, steps == args[11] or breakdown or stalled)
    if tt1 or tt2:
        assert all(math.isfinite(x) for x in parts)


def test_one_step_solves_match_a_whole_solve(backend):
    # a solve stepped one call at a time, without tests, walks the
    # iterates of the whole solve: the loop of MinresState.step
    args = _solve_case("max_iter")
    whole = [_copy(a) for a in args]
    whole[9] = whole[10] = None
    kernels.tangential_solve(*whole)
    stepped = [_copy(a) for a in args]
    stepped[9:] = None, None, 1
    for _ in range(20):
        assert kernels.tangential_solve(*stepped)[0] == 1
    assert stepped[7].tobytes() == whole[7].tobytes()
    assert stepped[8].tobytes() == whole[8].tobytes()


def _twin_outcome(args):
    """The outcome of the numpy twin's solve on a copy of ``args``, after
    checking that the compiled solve on another copy leaves the same
    outcome and the same bytes in ``work`` and ``scal``."""
    results = []
    for solve in (kernels.tangential_solve,
                  kernels.reference.tangential_solve):
        run = [_copy(a) for a in args]
        out = solve(*run)
        results.append((_bits(out), run[7].tobytes(), run[8].tobytes()))
    assert results[0] == results[1]
    return out


def _poisson4_solve(max_iter):
    """Arguments of a solve without tests of a random right-hand side on
    the KKT system of the mesh-4 Poisson control problem at its start."""
    problem = build_problem(apply_overrides(load_config("control_finite_sum"),
                                            ["problem.mesh_size=4"]))
    op = KktOperator(problem.eval_lagrangian_hessian(problem.x0,
                                                     np.zeros(problem.m)),
                     problem.eval_jacobian(problem.x0))
    rng = np.random.default_rng(20)
    state = MinresState(op, (rng.standard_normal(op.n),
                             rng.standard_normal(op.m)))
    return [*op.csr, state.rhs, state._work, state._scal, None, None,
            max_iter]


@pytest.mark.parametrize("system", ["poisson4", "m0"])
@pytest.mark.parametrize("max_iter", range(1, 7))
def test_tangential_solve_restores_its_rows(compiled, system, max_iter):
    # the step count places the Lanczos rows by its residue mod 3 and the
    # direction rows by its parity; whatever the count of steps, the
    # compiled solve leaves work with the bytes the numpy twin leaves
    if system == "poisson4":
        args = _poisson4_solve(max_iter)
    else:
        args = _synthetic_solve(6, 0, max_iter)
        args[9] = args[10] = None
    out = _twin_outcome(args)
    assert out[0] == max_iter and not (out[3] or out[4])


def test_accepting_solves_restore_their_rows(compiled):
    # solves that end at an accepted iterate after a count of steps of
    # each residue mod 3, and of either parity, leave work and scal as
    # the numpy twin leaves them
    steps = []
    for args in _captured_solves(()):
        out = _twin_outcome(args)
        assert out[1] or out[2]
        steps.append(out[0])
    assert {t % 3 for t in steps} == {0, 1, 2}
    assert {t % 2 for t in steps} == {0, 1}


def test_rejection_counts_add_up_to_the_gated_candidates(backend):
    # every candidate past the gate is rejected by one condition, or by
    # the tests, or accepted: replayed step by step, the gated
    # candidates of each solve of the first three iterations
    for overrides in ((), ("algorithm.tau_init=1",)):
        for args in _captured_solves(overrides):
            out = kernels.tangential_solve(*[_copy(a) for a in args])
            steps, tt1, tt2 = out[:3]
            replay = [_copy(a) for a in args]
            replay[9:] = None, None, 1
            cap, scal, gated = args[10][0], replay[8], 0
            for t in range(steps + 1):
                if t:
                    kernels.tangential_solve(*replay)
                gated += not scal[9] > cap
            assert sum(out[8]) + (tt1 or tt2) == gated


def _first_control_solve(kind, kappa=1e-4):
    """The arguments of the first tangential solve, rung 0 of iteration 0,
    of the mesh-8 control problem of ``kind`` at ``kappa`` (the profile's
    own by default)."""
    return _captured_solves(("problem.mesh_size=8", f"problem.kind={kind}",
                             f"algorithm.kappa={kappa}"),
                            "control_finite_sum", 1)[0]


def _fresh_state(args):
    """A new MinresState on the system of the solve ``args``, checked to
    start where the captured call started."""
    n, m = len(args[0]) - 1, len(args[3]) - 1
    state = MinresState(KktOperator(SparseMatrix((n, n), *args[:3]),
                                    SparseMatrix((m, n), *args[3:6])),
                        (args[6][:n], args[6][n:]))
    assert state._work.tobytes() == args[7].tobytes()
    assert state._scal.tobytes() == args[8].tobytes()
    return state


def _carry(state, carried, skip_above):
    """The residual row after the step ``state`` just took, carried from
    ``carried``, the row before it, as a gated solve under
    ``skip_above`` carries it: r = sn^2 r + (phibar cs) v for the next v,
    in the kernel's order of operations.  Returns it and whether that
    solve forms the true residual there, as the kernel decides: unless
    its infinity norm is above ``skip_above`` (a NaN forms it) and the
    step neither breaks down nor ends a stall window."""
    phibar, cs, sn = state._scal[4:7]
    carried = sn * sn * carried + (phibar * cs) * state._work[:state.op.dim]
    forms = not np.max(np.abs(carried)) > skip_above or state.breakdown \
        or state.iteration % kernels.STALL_WINDOW == 0
    return carried, forms


def _stepped_solve(args):
    """The solve ``args`` driven one ``MinresState.step`` at a time, which
    forms every residual, with the termination tests evaluated at each
    gated iterate and the residual carried alongside as the gated solve
    carries it: its outcome, the count of residuals formed that the carry
    predicts included, and the state."""
    state = _fresh_state(args)
    vecs, (cap, *tests), max_iter = args[9:]
    dim = state.op.dim
    rejected, tt1, tt2, parts = [0] * 4, False, False, (math.nan,) * 3
    carried, formed, stale = state._work[7 * dim:].copy(), 0, False
    for t in range(max_iter + 1):
        taken = state.iteration
        if t:
            state.step()
        # a call that takes no step carries and forms nothing
        if state.iteration > taken:
            carried, forms = _carry(state, carried,
                                    kernels.RESID_SKIP_MARGIN * cap)
            if forms:
                carried = state._work[7 * dim:].copy()
            formed, stale = formed + forms, not forms
        if not state.resid_norm_inf > cap:
            ev = state_candidate_tests(state, vecs, tests)
            if ev.failed in (None, "c"):
                parts = ev.parts
            if ev.accepted:
                tt1, tt2 = ev.tt1, ev.tt2
                break
            rejected = [a + b for a, b in zip(rejected, ev.rejected)]
        if state.breakdown or state.stalled:
            break
    # the kernel forms a stale residual before it returns
    return (t, tt1, tt2, state.breakdown, state.stalled, *parts,
            tuple(rejected), formed + stale), state


@pytest.mark.parametrize("kind, max_iter, kappa", [
    pytest.param("poisson_control", None, 1e-4, id="poisson_control-None"),
    pytest.param("neumann_control", None, 1e-4, id="neumann_control-None"),
    pytest.param("neumann_control", None, 1e-7,
                 id="neumann_control-None-1e-07"),
    pytest.param("neumann_control", 51, 1e-4, id="neumann_control-51")])
def test_whole_solve_matches_the_step_by_step_drive(backend, kind, max_iter,
                                                    kappa):
    # a gated solve skips the residual product where the carried residual
    # shows the gate cannot pass; one that forms every residual and
    # checks the gate at every step reaches the same outcome, iterate and
    # state, and the residual carried alongside it predicts which steps
    # the gated solve formed the residual at.  The Poisson solve ends at
    # an accepted iterate, the Neumann ones at max_iter, and cut at 51
    # steps it forms only the residuals of the window's end and of the
    # skipped last step.  At kappa = 1e-7 the gate's cap is 1000 times
    # smaller, and the carried residual's drift is the largest of the
    # premise test's drives
    args = _first_control_solve(kind, kappa)
    if max_iter is not None:
        args = [_copy(a) for a in args]
        args[11] = max_iter
    run = [_copy(a) for a in args]
    out = kernels.tangential_solve(*run)
    stepped, state = _stepped_solve(args)
    assert _bits(out) == _bits(stepped)
    assert run[7].tobytes() == state._work.tobytes()
    assert run[8].tobytes() == state._scal.tobytes()
    steps, formed = out[0], out[9]
    assert 0 < formed < steps
    if kind == "neumann_control":
        assert steps == args[11] and not (out[1] or out[2])
    else:
        assert out[1] or out[2]
    if max_iter is not None:
        assert formed == 2


@pytest.mark.parametrize("kind", ["poisson_control", "neumann_control"])
def test_phibar_tracks_the_true_residual(kind):
    # at every step of a drive that forms each residual, phibar, the
    # 2-norm of the residual that the recurrence carries, is within 0.1%
    # above the true one, far inside RESID_SKIP_MARGIN
    args = _first_control_solve(kind)
    state = _fresh_state(args)
    ratios = []
    while state.iteration < args[11] \
            and not (state.breakdown or state.stalled):
        state.step()
        ratios.append(state._scal[4] / state.resid_norm)
    assert len(ratios) > 100
    assert max(ratios) <= 1.0 + 1e-3 < kernels.RESID_SKIP_MARGIN


@pytest.mark.parametrize("kind", ["poisson_control", "neumann_control"])
@pytest.mark.parametrize("kappa", [1e-4, 1e-7])
def test_carried_residual_tracks_the_true_one(kind, kappa):
    # the premise of the skip: the residual carried by the recurrence
    # r = sn^2 r + (phibar cs) v of the next v, restarted from the true
    # one where a gated solve forms it, stays within 1% of the gate's cap
    # of the true residual at every step of a drive that forms each one,
    # far inside RESID_SKIP_MARGIN - 1; so no step whose true residual
    # passes the gate skips it
    args = _first_control_solve(kind, kappa)
    state = _fresh_state(args)
    cap, dim = args[10][0], state.op.dim
    carried, drifts = state._work[7 * dim:].copy(), []
    while state.iteration < args[11] \
            and not (state.breakdown or state.stalled):
        state.step()
        carried, forms = _carry(state, carried,
                                kernels.RESID_SKIP_MARGIN * cap)
        resid = state._work[7 * dim:]
        drifts.append(float(np.max(np.abs(carried - resid))) / cap)
        if forms:
            carried = resid.copy()
    assert len(drifts) > 300
    assert max(drifts) <= 1e-2 < kernels.RESID_SKIP_MARGIN - 1.0


def _good_solve_args():
    args = dict(zip(
        ("h_indptr", "h_indices", "h_data", "j_indptr", "j_indices",
         "j_data", "rhs", "work", "scal", "vecs", "tests", "max_iter"),
        _synthetic_solve(4, 2, max_iter=6)))
    return args


@pytest.mark.parametrize("changes, error", [
    ({"work": np.zeros(47)}, ValueError),
    ({"scal": np.zeros(10)}, ValueError),
    ({"rhs": np.ones(5)}, ValueError),
    ({"vecs": np.zeros(15)}, ValueError),
    ({"vecs": np.zeros(17)}, ValueError),
    ({"work": _read_only(np.zeros(48))}, (ValueError, BufferError)),
    ({"scal": _read_only(np.zeros(15))}, (ValueError, BufferError)),
    ({"work": np.frombuffer(bytearray(385), np.float64, offset=1, count=48)},
     ValueError),
    ({"vecs": np.frombuffer(bytearray(129), np.float64, offset=1, count=16)},
     ValueError),
    ({"vecs": np.zeros(16, dtype=np.float32)}, ValueError),
    ({"vecs": list(np.zeros(16))}, TypeError),
    ({"vecs": None}, ValueError),
    ({"tests": None}, ValueError),
    ({"tests": (1.0,) * 8}, TypeError),
    ({"tests": [1.0] * 9}, TypeError),
    # the 17 values of a solve that also took the method constants
    ({"tests": (1.0,) * 17}, TypeError),
    ({"j_indptr": np.zeros(0, dtype=np.int64)}, ValueError),
    ({"max_iter": -1}, ValueError),
    ({"max_iter": 2.5}, TypeError),
])
def test_compiled_tangential_solve_rejects_bad_arguments(compiled, changes,
                                                         error):
    args = _good_solve_args()
    args.update(changes)
    with pytest.raises(error):
        kernels.tangential_solve(**args)
    args = _good_solve_args()
    assert kernels.tangential_solve(**args)[0] >= 1
    args = _good_solve_args()
    args.update(vecs=None, tests=None)
    assert kernels.tangential_solve(**args)[0] == 6


@pytest.mark.parametrize("count", [-1.0, 0.5, 2.5, math.nan, math.inf,
                                   2.0 ** 53])
def test_tangential_solve_rejects_a_bad_step_count(backend, count):
    # the step count places the rows of work, so one that is not a whole
    # number below 2**53 is an error on both backends, raised before any
    # array is written; the largest whole one is taken
    args = _good_solve_args()
    args["scal"][7] = count
    before = args["work"].tobytes(), args["scal"].tobytes()
    with pytest.raises(ValueError, match=r"scal\[7\]"):
        kernels.tangential_solve(**args)
    assert (args["work"].tobytes(), args["scal"].tobytes()) == before
    args.update(vecs=None, tests=None, max_iter=0)
    args["scal"][7] = 2.0 ** 53 - 1.0
    assert kernels.tangential_solve(**args)[0] == 0


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("steps, zero", [(4.0, 1), (4.0, 0), (0.0, 0)])
def test_twins_step_alike_from_a_zero_beta(compiled, steps, zero):
    # a hand-built state whose previous beta (scal[1]) or beta (scal[0])
    # is 0 where the step divides by it: both backends divide as IEEE
    # doubles (x / 0 is inf or NaN), take the step, and leave the same
    # outcome and the same bytes in work and scal
    args = _good_solve_args()
    args["scal"][7], args["scal"][zero] = steps, 0.0
    args.update(vecs=None, tests=None, max_iter=1)
    out = _twin_outcome(list(args.values()))
    assert out[:5] == (1, False, False, False, False)


def test_compiled_tangential_solve_rejects_overlap(compiled):
    args = _good_solve_args()
    buf = np.zeros(48 + 15)
    args["work"], args["vecs"] = buf[:48], buf[40:56]
    with pytest.raises(ValueError, match="overlap"):
        kernels.tangential_solve(**args)
    args = _good_solve_args()
    args["scal"], args["vecs"] = buf[:15], buf[10:26]
    with pytest.raises(ValueError, match="overlap"):
        kernels.tangential_solve(**args)
    args = _good_solve_args()
    args["rhs"], args["scal"] = buf[:6], buf[5:20]
    with pytest.raises(ValueError, match="overlap"):
        kernels.tangential_solve(**args)


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
    for name in ("csr_matvec", "csr_rmatvec", "tangential_solve", "cg"):
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


def _long_solve(name):
    """A call of kernel ``name`` of 3000 iterations on the 1-D Laplacian
    of order 4000, with nothing to stop it earlier."""
    n = 4000
    i = np.arange(n)
    laplacian = SparseMatrix.from_triplets(
        (n, n), np.concatenate([i, i[1:], i[:-1]]),
        np.concatenate([i, i[:-1], i[1:]]),
        np.concatenate([np.full(n, 2.0), np.full(2 * n - 2, -1.0)]))
    rhs = np.random.default_rng(0).standard_normal(n)
    if name == "cg":
        return lambda: kernels.cg(laplacian.indptr, laplacian.indices,
                                  laplacian.data, n, True, rhs, np.empty(n),
                                  0.0, 3000)
    ones = SparseMatrix.from_triplets((1, n), np.zeros(n, dtype=np.int64), i,
                                      np.ones(n))
    state = MinresState(KktOperator(laplacian, ones), (rhs, np.zeros(1)))
    return lambda: state.run(3000)


@pytest.mark.parametrize("name", ["tangential_solve", "cg"])
def test_solves_release_the_gil(compiled, name):
    # with no forced switch, a thread gives the GIL up only where it
    # blocks or a C call releases it: the main thread runs its loop
    # while the worker's call is under way only if the call released it
    call = _long_solve(name)
    order, started = [], threading.Event()

    def work():
        started.set()
        out = call()
        order.append(("returned", out[0]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(100.0)
    try:
        worker = threading.Thread(target=work)
        worker.start()
        assert started.wait(timeout=60)
        order.append(("looped", sum(k * k for k in range(1000))))
        worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert order == [("looped", 332833500), ("returned", 3000)]


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
    kernel_dir = copy_package(tmp_path)
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
    kernel_dir = copy_package(tmp_path)
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
    kernel_dir = copy_package(tmp_path)
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
    kernel_dir = copy_package(tmp_path)
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
    # its flags and the method constants it defines, and every common
    # warning an error
    ldshared = compiler()
    if ldshared is None:
        pytest.skip("the interpreter records no usable C compiler")
    proc = subprocess.run(
        [ldshared[0], "-fsyntax-only", "-Wall", "-Wextra",
         "-Wno-unused-parameter", "-Werror", *kernels._EXTRA_COMPILE_ARGS,
         "-I", sysconfig.get_path("include"), "-I", np.get_include(),
         kernels._SOURCE], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# the tests that compare the compiled solve with its numpy twin, and
# those of the carried residual
_TWIN_TESTS = ("test_minres_step_matches_reference",
               "test_tangential_solve_matches_reference",
               "test_one_step_solves_match_a_whole_solve",
               "test_tangential_solve_restores_its_rows",
               "test_accepting_solves_restore_their_rows",
               "test_whole_solve_matches_the_step_by_step_drive",
               "test_carried_residual_tracks_the_true_one")


@needs_source
def test_build_without_sse2_agrees_with_the_twin(tmp_path):
    # without SSE2, as on aarch64, the carry runs its scalar loop alone;
    # a build with __SSE2__ undefined keeps the twin's bits all the same
    if compiler() is None:
        pytest.skip("the interpreter records no usable C compiler")
    built = build_in_copy(tmp_path, ("-U__SSE2__",))
    proc = pytest_in_copy(tmp_path, built, [
        str(Path(__file__).resolve()), "-k", " or ".join(_TWIN_TESTS)])
    assert proc.returncode == 0, (proc.stdout + proc.stderr)[-4000:]
    assert " passed" in proc.stdout and "skipped" not in proc.stdout, \
        proc.stdout[-2000:]


def test_method_constants_reach_the_build_exactly():
    # the rules' and the termination tests' constants are -D flags of
    # the build, which the cache name covers: a float as the exact
    # hexadecimal literal of its value
    defines = dict(arg[2:].split("=") for arg in kernels._EXTRA_COMPILE_ARGS
                   if arg.startswith("-D"))
    assert set(defines) == {
        "BREAKDOWN_TOL", "STALL_WINDOW", "STALL_IMPROVEMENT", "KAPPA_RHO",
        "KAPPA_R", "KAPPA_U", "KAPPA_V", "EPS_U", "SIGMA_U", "SIGMA_C",
        "EPS_R", "RESID_SKIP_MARGIN"}
    for name, literal in defines.items():
        value = getattr(kernels, name)
        parse = float.fromhex if isinstance(value, float) else int
        assert parse(literal) == value, name


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
        assert bench.main(["--mesh", "3", "4", "--qp", "--neumann", "3",
                           "--repeats", "2", "--minres-steps", "3",
                           "--json", str(record_path)]) == 0
        assert kernels.active_backend() == previous
        assert kernels.tangential_solve is getattr(
            kernels._BACKENDS[previous], "tangential_solve")
    finally:
        kernels.use_backend(previous)
    out = capsys.readouterr().out
    # one table per problem, one row per backend: best/median of the
    # three CSR products, of the two KKT applies they add up to, of the
    # isolated step, of a multiplier-CG iteration and of a tangential
    # solve, then the step over the applies from the medians
    assert out.count("best/median, microseconds; step/6 csr from the"
                     " medians") == 4
    headers = [ln for ln in out.splitlines() if ln.startswith("backend ")]
    assert len(headers) == 4 and all("cg iter" in ln and "tangential" in ln
                                     for ln in headers)
    assert out.count("tangential is one solve of ") == 4
    if "compiled" in kernels.available_backends():
        assert out.count("cg iter over the numpy loop, both on compiled"
                         " products") == 4
    assert "n=18 m=9" in out and "n=32 m=16" in out and "n=40 m=15" in out
    assert "problem neumann_nh3:" in out
    for name in kernels.available_backends():
        rows = [ln.split() for ln in out.splitlines()
                if ln.startswith(f"{name} ")]
        assert len(rows) == 4
        for row in rows:
            assert len(row) == 9 and row[-1].endswith("x")
            cells = [tuple(map(float, cell.split("/"))) for cell in row[1:8]]
            assert all(0.0 < best <= median for best, median in cells)
            step, applies = cells[4][1], cells[3][1]
            assert float(row[-1][:-1]) == pytest.approx(
                step / applies, rel=0.02, abs=0.01)
    # the JSON holds the same figures, one record per problem and backend
    records = json.loads(record_path.read_text())["records"]
    assert [(r["mesh"], r["profile"], r["problem"][:7], r["backend"])
            for r in records] == [
        (mesh, profile, family, name)
        for mesh, profile, family in (
            (3, "control_finite_sum", "poisson"),
            (4, "control_finite_sum", "poisson"),
            (3, "control_finite_sum", "neumann"),
            (None, "qp_gaussian", "qp_n40_"))
        for name in kernels.available_backends()]
    for record in records:
        assert sorted(record) == sorted(
            ["mesh", "profile", "problem", "n", "m", "backend",
             "cg_iterations", "tangential_steps", "residuals_per_step"]
            + list(bench.RECORD_KEYS))
        assert record["cg_iterations"] > 0 and record["tangential_steps"] > 0
        assert 0.0 < record["residuals_per_step"] <= 1.0
        for key in bench.RECORD_KEYS:
            best, median = record[key]
            assert 0.0 < best <= median
