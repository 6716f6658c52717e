"""Iterative solvers against dense direct references."""

import logging

import numpy as np
import pytest

from sisqo import kernels, krylov
from sisqo.krylov import (MinresState, cg_normal_solve,
                          least_squares_multipliers, norm_pair)
from sisqo.sparse import KktOperator, SparseMatrix

from oracles import (AllocatingMinres, dense_kkt_matrix, dense_kkt_solve,
                     dense_least_squares_multipliers, dense_normal_step,
                     inf_norm_pair, make_sparse, random_full_rank, random_spd,
                     random_symmetric, residual_pair)


def _no_constraints(n):
    return SparseMatrix((0, n), [0], [], [])


def _cg_tolerances(monkeypatch, rel_tol, abs_floor):
    """The normal-step CG's tolerance and floor, for the test."""
    monkeypatch.setattr(krylov, "CG_REL_TOL", rel_tol)
    monkeypatch.setattr(krylov, "CG_ABS_FLOOR", abs_floor)


def test_norm_helpers():
    a = np.array([3.0])
    b = np.array([4.0])
    assert norm_pair(a, b) == pytest.approx(5.0)
    assert inf_norm_pair(a, b) == 4.0
    assert inf_norm_pair(np.zeros(0), b) == 4.0
    assert norm_pair(np.zeros(0), np.zeros(0)) == 0.0


# -- normal-step CG ----------------------------------------------------------

def test_cg_identity_constraints(monkeypatch):
    _cg_tolerances(monkeypatch, 1e-10, 1e-14)
    j = SparseMatrix.identity(2)
    res = cg_normal_solve(j, np.array([1.0, 1.0]))
    np.testing.assert_allclose(res.v, [-1.0, -1.0], rtol=0, atol=1e-12)
    assert res.converged
    assert res.iterations <= 2


def test_cg_zero_rhs():
    # c = 0, and a c whose J.T c is exactly zero: the zero start converges
    for rows, c in (([[1.0, 2.0, 0.0]], [0.0]),
                    ([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0]], [1.0, -1.0])):
        j = make_sparse(np.array(rows))
        res = cg_normal_solve(j, np.array(c))
        assert res.iterations == 0
        assert res.converged
        assert res.resid_norm == 0.0
        np.testing.assert_array_equal(res.v, np.zeros(3))


def test_cg_matches_pseudoinverse(monkeypatch):
    _cg_tolerances(monkeypatch, 1e-12, 1e-14)
    rng = np.random.default_rng(21)
    j_dense = random_full_rank(rng, 4, 7)
    c = rng.standard_normal(4)
    res = cg_normal_solve(make_sparse(j_dense), c)
    expected = dense_normal_step(j_dense, c)
    np.testing.assert_allclose(res.v, expected, rtol=0, atol=1e-8)


def test_cg_iterates_stay_in_row_space(monkeypatch):
    # CG from zero on J'J keeps every iterate in range(J'), the
    # minimum-norm solution manifold
    _cg_tolerances(monkeypatch, 0.05, 1e-14)
    rng = np.random.default_rng(22)
    for trial in range(5):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(m, m + 8))
        j_dense = random_full_rank(rng, m, n)
        c = rng.standard_normal(m)
        res = cg_normal_solve(make_sparse(j_dense), c)
        projector = j_dense.T @ np.linalg.solve(j_dense @ j_dense.T, j_dense)
        off_range = res.v - projector @ res.v
        assert np.linalg.norm(off_range) <= 1e-8 * max(
            1.0, np.linalg.norm(res.v))


def test_cg_reports_nonconvergence(monkeypatch):
    rng = np.random.default_rng(23)
    j_dense = random_full_rank(rng, 6, 9, smin=0.05, smax=3.0)
    c = rng.standard_normal(6)
    monkeypatch.setattr(krylov, "cg_max_iter", lambda m: 1)
    _cg_tolerances(monkeypatch, 1e-14, 0.0)
    res = cg_normal_solve(make_sparse(j_dense), c)
    assert not res.converged
    assert res.iterations == 1
    assert np.isfinite(res.resid_norm)


# -- least-squares multipliers ------------------------------------------------

def test_multipliers_zero_for_orthogonal_gradient():
    rng = np.random.default_rng(24)
    j_dense = random_full_rank(rng, 2, 6)
    raw = rng.standard_normal(6)
    # project out the row space so J g = 0 up to round-off
    g = raw - j_dense.T @ np.linalg.solve(j_dense @ j_dense.T, j_dense @ raw)
    y = least_squares_multipliers(make_sparse(j_dense), g)
    assert np.linalg.norm(y) <= 1e-8


def test_multipliers_recover_exact_combination(monkeypatch):
    monkeypatch.setattr(krylov, "MULTIPLIER_REL_TOL", 1e-12)
    rng = np.random.default_rng(25)
    j_dense = random_full_rank(rng, 3, 7)
    y_true = rng.standard_normal(3)
    g = -j_dense.T @ y_true
    y = least_squares_multipliers(make_sparse(j_dense), g)
    np.testing.assert_allclose(y, y_true, rtol=0, atol=1e-8)


def test_multipliers_match_dense_lstsq(monkeypatch):
    monkeypatch.setattr(krylov, "MULTIPLIER_REL_TOL", 1e-12)
    rng = np.random.default_rng(26)
    j_dense = random_full_rank(rng, 3, 6)
    g = rng.standard_normal(6)
    y = least_squares_multipliers(make_sparse(j_dense), g)
    np.testing.assert_allclose(y, dense_least_squares_multipliers(j_dense, g),
                               rtol=0, atol=1e-8)


def test_multipliers_exact_zero_for_null_gradient(caplog):
    # J g = 0 exactly: +0.0 multipliers from the zero start, no warning
    j = make_sparse(np.array([[1.0, 0.0]]))
    with caplog.at_level(logging.WARNING, logger="sisqo.krylov"):
        y = least_squares_multipliers(j, np.array([0.0, 1.0]))
    assert y.tobytes() == np.zeros(1).tobytes()
    assert caplog.records == []


def test_multipliers_empty_constraint_block():
    y = least_squares_multipliers(_no_constraints(4), np.ones(4))
    assert y.shape == (0,)


# -- residual pair ------------------------------------------------------------

def test_residual_pair_at_zero_candidate():
    rng = np.random.default_rng(27)
    h = make_sparse(random_symmetric(rng, 4))
    j_dense = rng.standard_normal((2, 4))
    j = make_sparse(j_dense)
    g = rng.standard_normal(4)
    v = rng.standard_normal(4)
    y = rng.standard_normal(2)
    rho, r = residual_pair(h, j, g, v, y, np.zeros(4), np.zeros(2))
    np.testing.assert_allclose(
        rho, g + h.to_dense() @ v + j_dense.T @ y, rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(r, np.zeros(2))


def test_residual_pair_vanishes_at_dense_solution():
    rng = np.random.default_rng(28)
    h_dense = random_spd(rng, 5)
    j_dense = random_full_rank(rng, 2, 5)
    g = rng.standard_normal(5)
    v = rng.standard_normal(5)
    y = rng.standard_normal(2)
    rhs_top = g + h_dense @ v + j_dense.T @ y
    u, delta = dense_kkt_solve(h_dense, j_dense, rhs_top, np.zeros(2))
    rho, r = residual_pair(make_sparse(h_dense), make_sparse(j_dense),
                           g, v, y, u, delta)
    assert np.linalg.norm(rho) <= 1e-10
    assert np.linalg.norm(r) <= 1e-10


# -- MINRES -------------------------------------------------------------------

def test_minres_initial_state():
    h = SparseMatrix.identity(3)
    j = make_sparse(np.array([[1.0, 0.0, 0.0]]))
    op = KktOperator(h, j)
    state = MinresState(op, (np.array([1.0, 0.0, 0.0]), np.zeros(1)))
    np.testing.assert_array_equal(state.u, np.zeros(3))
    np.testing.assert_array_equal(state.delta, np.zeros(1))
    np.testing.assert_array_equal(state.rho, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(state.r, [0.0])
    assert state.resid_norm == pytest.approx(1.0)
    assert state.iteration == 0


def test_minres_rejects_bad_rhs_shapes():
    op = KktOperator(SparseMatrix.identity(3),
                     make_sparse(np.array([[1.0, 0.0, 0.0]])))
    with pytest.raises(ValueError, match="rhs blocks"):
        MinresState(op, (np.zeros(2), np.zeros(1)))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="rhs must be finite"):
            MinresState(op, (np.array([1.0, bad, 0.0]), np.zeros(1)))
        with pytest.raises(ValueError, match="rhs must be finite"):
            MinresState(op, (np.zeros(3), np.array([bad])))


def test_minres_identity_system():
    # K = I when H = I and m = 0, so one step lands on u = -b exactly
    op = KktOperator(SparseMatrix.identity(2), _no_constraints(2))
    b = np.array([2.0, -1.0])
    state = MinresState(op, (b, np.zeros(0)))
    for _ in range(2):
        if state.resid_norm <= 1e-12:
            break
        state.step()
    np.testing.assert_allclose(state.u, -b, rtol=0, atol=1e-12)
    assert state.resid_norm <= 1e-12


def test_minres_finite_termination_with_few_eigenvalues():
    # the Krylov space of a matrix with k distinct eigenvalues has
    # dimension at most k, so step k is exact
    rng = np.random.default_rng(29)
    eigs = np.array([1.0, 2.0, 3.0])[rng.integers(0, 3, size=12)]
    eigs[:3] = [1.0, 2.0, 3.0]
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    h_dense = (q * eigs) @ q.T
    op = KktOperator(make_sparse(0.5 * (h_dense + h_dense.T)),
                     _no_constraints(12))
    state = MinresState(op, (rng.standard_normal(12), np.zeros(0)))
    for _ in range(3):
        state.step()
    assert state.resid_norm <= 1e-10


def test_minres_matches_dense_solves():
    rng = np.random.default_rng(30)
    for trial in range(6):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(0, n + 1))
        h_dense = random_symmetric(rng, n)
        j_dense = random_full_rank(rng, m, n) if m else np.zeros((0, n))
        k_dense = dense_kkt_matrix(h_dense, j_dense)
        if np.linalg.cond(k_dense) > 1e8:
            h_dense += np.eye(n)
            k_dense = dense_kkt_matrix(h_dense, j_dense)
        rhs_top = rng.standard_normal(n)
        rhs_bot = rng.standard_normal(m)
        op = KktOperator(make_sparse(h_dense),
                         make_sparse(j_dense) if m else _no_constraints(n))
        state = MinresState(op, (rhs_top, rhs_bot))
        scale = norm_pair(rhs_top, rhs_bot)
        for _ in range(4 * (n + m)):
            if state.resid_norm <= 1e-12 * scale:
                break
            state.step()
        expected = np.linalg.solve(k_dense,
                                   -np.concatenate([rhs_top, rhs_bot]))
        np.testing.assert_allclose(state.z, expected, rtol=0,
                                   atol=1e-8 * max(1.0, np.linalg.norm(expected)))


def test_minres_residual_is_monotone():
    # MINRES minimizes the residual over a growing space, so the
    # recomputed true residual must never increase beyond round-off
    rng = np.random.default_rng(31)
    h_dense = random_symmetric(rng, 10)
    j_dense = random_full_rank(rng, 4, 10)
    op = KktOperator(make_sparse(h_dense), make_sparse(j_dense))
    state = MinresState(op, (rng.standard_normal(10), rng.standard_normal(4)))
    prev = state.resid_norm
    for _ in range(40):
        state.step()
        assert state.resid_norm <= prev + 1e-10 * max(1.0, prev)
        prev = state.resid_norm
        if state.breakdown:
            break
    assert state.resid_norm <= 1e-8


def test_minres_breakdown_flags_converged_state():
    op = KktOperator(SparseMatrix.identity(2), _no_constraints(2))
    state = MinresState(op, (np.array([1.0, 0.0]), np.zeros(0)))
    state.step()
    assert state.resid_norm <= 1e-14
    z_at_convergence = state.z.copy()
    state.step()
    assert state.breakdown
    np.testing.assert_array_equal(state.z, z_at_convergence)


def test_minres_zero_rhs_is_immediately_converged():
    op = KktOperator(SparseMatrix.identity(3), _no_constraints(3))
    state = MinresState(op, (np.zeros(3), np.zeros(0)))
    assert state.resid_norm == 0.0
    state.step()
    assert state.breakdown
    np.testing.assert_array_equal(state.u, np.zeros(3))


def test_minres_candidate_views_are_read_only_and_follow_step():
    # the iterate and residual are views of the state's own buffers:
    # a caller cannot write through them, and a view taken at step t
    # shows step t + 1 after the next step
    rng = np.random.default_rng(32)
    h_dense = random_spd(rng, 4)
    j_dense = random_full_rank(rng, 2, 4)
    op = KktOperator(make_sparse(h_dense), make_sparse(j_dense))
    state = MinresState(op, (rng.standard_normal(4), rng.standard_normal(2)))
    state.step()
    views = {name: getattr(state, name)
             for name in ("z", "u", "delta", "rho", "r")}
    for name, view in views.items():
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 1.0
        assert getattr(state, name) is view
    before = {name: view.copy() for name, view in views.items()}
    state.step()
    for name, view in views.items():
        assert getattr(state, name) is view
        assert not np.array_equal(view, before[name])
    np.testing.assert_array_equal(state.u, state.z[:4])
    np.testing.assert_array_equal(state.delta, state.z[4:])
    resid = op.apply(state.z) + state.rhs
    np.testing.assert_array_equal(np.concatenate([state.rho, state.r]),
                                  resid)


@pytest.mark.parametrize("name", kernels.available_backends())
def test_minres_matches_allocating_step_bitwise(name):
    # the in-place step with the fused operator apply must reproduce the
    # allocating step over separate CSR products bit for bit, on sparse
    # blocks with empty rows and with m = 0
    rng = np.random.default_rng(33)
    previous = kernels.active_backend()
    kernels.use_backend(name)
    try:
        for n, m in ((12, 5), (9, 0), (20, 8)):
            h_dense = random_symmetric(rng, n)
            h_dense[rng.uniform(size=(n, n)) > 0.4] = 0.0
            h_dense = np.triu(h_dense) + np.triu(h_dense, 1).T
            h_dense[1] = h_dense[:, 1] = 0.0
            j_dense = rng.standard_normal((m, n))
            j_dense[rng.uniform(size=(m, n)) > 0.5] = 0.0
            if m:
                j_dense[-1] = 0.0
            h = make_sparse(h_dense)
            j = SparseMatrix.from_dense(j_dense) if m else _no_constraints(n)
            rhs_top, rhs_bot = rng.standard_normal(n), rng.standard_normal(m)
            state = MinresState(KktOperator(h, j), (rhs_top, rhs_bot))
            oracle = AllocatingMinres(h, j, rhs_top, rhs_bot)
            for _ in range(n + m):
                if state.breakdown or state.stalled:
                    break
                state.step()
                oracle.step()
                assert state.z.tobytes() == oracle.z.tobytes()
                assert np.concatenate([state.rho, state.r]).tobytes() \
                    == oracle.resid.tobytes()
                assert state.resid_norm == oracle.resid_norm
            assert state.iteration == oracle.iteration >= 5
    finally:
        kernels.use_backend(previous)
