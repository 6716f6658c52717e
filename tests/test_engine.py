"""Core iteration mechanics: normal step, termination tests, parameter
updates, step-size selection, and full iterations on hand-checked
problems."""

import math

import numpy as np
import pytest

import sisqo.engine
import sisqo.krylov
from sisqo import kernels
from sisqo.engine import (InvariantBreach, SolverConfig,
                          StationaryPointDetected, beta_for_iteration,
                          compute_normal_step, evaluate_varphi, init_state,
                          merit_value, model_reduction, select_step_size,
                          sqp_iterate, step_size_bounds, tau_trial_and_update,
                          update_duals, xi_update)
from sisqo.library import SyntheticQpSpec, build_synthetic_qp
from sisqo.problems import GradientOracle, Problem, substream
from sisqo.sparse import SparseMatrix

from oracles import (candidate_tests, dense_kkt_matrix, dense_kkt_solve,
                     dense_normal_step, make_sparse, merit_model_parts,
                     model_reduction_holds, random_full_rank, random_spd,
                     tau_parts, varphi_parts)


CFG = SolverConfig()


def _identity_problem():
    """min 0.5||x||^2 s.t. x_1 = 0; solution x = 0, y = 0."""
    return Problem(
        name="iso", n=2, m=1,
        eval_f=lambda x: 0.5 * float(x @ x),
        eval_grad_f=lambda x: x.copy(),
        eval_c=lambda x: x[:1].copy(),
        eval_jacobian=lambda x: make_sparse([[1.0, 0.0]]),
        eval_lagrangian_hessian=lambda x, y: SparseMatrix.identity(2),
        x0=np.zeros(2))


def _circle_problem():
    """min x_1 s.t. x_1^2 + x_2^2 = 1; nonlinear constraint, zero
    objective curvature."""
    return Problem(
        name="circle", n=2, m=1,
        eval_f=lambda x: float(x[0]),
        eval_grad_f=lambda x: np.array([1.0, 0.0]),
        eval_c=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 1.0]),
        eval_jacobian=lambda x: make_sparse([[2.0 * x[0], 2.0 * x[1]]]),
        eval_lagrangian_hessian=lambda x, y:
            SparseMatrix.diagonal(np.full(2, 2.0 * y[0])),
        x0=np.array([0.0, 1.0]))


def test_merit_and_model_reduction_values():
    problem = _identity_problem()
    x = np.array([2.0, 1.0])
    assert merit_value(0.5, problem.eval_f(x), problem.eval_c(x)) \
        == pytest.approx(0.5 * 2.5 + 2.0)

    g = np.array([1.0, 0.0])
    c = np.array([1.0])
    j = make_sparse([[1.0, 0.0]])
    d = np.array([-1.0, 0.0])
    assert model_reduction(0.1, *merit_model_parts(g, c, j, d)) \
        == pytest.approx(1.1)


# -- normal step ----------------------------------------------------------------

def test_normal_step_identity_jacobian():
    ns = compute_normal_step(np.array([3.0, 4.0]), SparseMatrix.identity(2))
    np.testing.assert_allclose(ns.v, [-3.0, -4.0], rtol=0, atol=1e-10)
    assert ns.iterations <= 2
    assert ns.cauchy_lhs == pytest.approx(5.0)
    assert ns.cauchy_rhs == pytest.approx(5.0 * sisqo.engine.EPS_C)


def test_normal_step_dominates_cauchy_point():
    rng = np.random.default_rng(40)
    for trial in range(5):
        j_dense = random_full_rank(rng, 3, 8)
        c = rng.standard_normal(3)
        ns = compute_normal_step(c, make_sparse(j_dense))
        assert ns.cauchy_lhs >= ns.cauchy_rhs - 1e-9
        assert np.linalg.norm(c + j_dense @ ns.v) <= np.linalg.norm(c)


def test_normal_step_losing_to_cauchy_point_breaches(monkeypatch):
    import sisqo.engine
    from sisqo.krylov import CgResult

    monkeypatch.setattr(sisqo.engine, "cg_normal_solve",
                        lambda j, c: CgResult(
                            np.zeros(j.cols), 0, True, 0.0))
    with pytest.raises(InvariantBreach, match="lost to the Cauchy point"):
        compute_normal_step(np.array([3.0, 4.0]), SparseMatrix.identity(2))


def test_normal_step_tight_tolerance_matches_pseudoinverse(monkeypatch):
    rng = np.random.default_rng(41)
    j_dense = random_full_rank(rng, 4, 9)
    c = rng.standard_normal(4)
    monkeypatch.setattr(sisqo.krylov, "CG_REL_TOL", 1e-12)
    monkeypatch.setattr(sisqo.krylov, "CG_ABS_FLOOR", 1e-14)
    ns = compute_normal_step(c, make_sparse(j_dense))
    np.testing.assert_allclose(ns.v, dense_normal_step(j_dense, c),
                               rtol=0, atol=1e-8)


def test_model_reduction_condition_rejects_ascent():
    g = np.array([1.0, 0.0])
    c = np.array([0.0])
    j = make_sparse([[0.0, 1.0]])
    v = np.zeros(2)
    h = SparseMatrix.identity(2)
    ascent = np.array([1.0, 0.0])
    assert not model_reduction_holds(1.0, g, c, j, v, ascent, h, CFG)
    descent = np.array([-1.0, 0.0])
    assert model_reduction_holds(1.0, g, c, j, v, descent, h, CFG)


# -- termination tests -----------------------------------------------------------

def _tangential_fixture(seed=42, n=6, m=2):
    """A consistent tangential subproblem with its exact solution."""
    rng = np.random.default_rng(seed)
    h_dense = random_spd(rng, n)
    j_dense = random_full_rank(rng, m, n)
    g = 0.3 * rng.standard_normal(n)
    c = rng.standard_normal(m)
    v = dense_normal_step(j_dense, c)
    y = np.zeros(m)
    rhs_top = g + h_dense @ v + j_dense.T @ y
    u, delta = dense_kkt_solve(h_dense, j_dense, rhs_top, np.zeros(m))
    return {"h": make_sparse(h_dense), "j": make_sparse(j_dense),
            "g": g, "c": c, "v": v, "y": y, "u": u, "delta": delta}


def test_termination_test_1_accepts_exact_solve():
    f = _tangential_fixture()
    zero_rho = np.zeros(6)
    zero_r = np.zeros(2)
    assert candidate_tests(f["g"], f["c"], f["j"], f["v"], f["y"], f["h"],
                           f["u"], f["delta"], zero_rho, zero_r, CFG,
                           tau_prev=1e-3, beta=1.0).tt1


def test_termination_test_1_rejects_large_residual():
    f = _tangential_fixture()
    big_rho = 50.0 * np.ones(6)
    assert not candidate_tests(f["g"], f["c"], f["j"], f["v"], f["y"],
                               f["h"], f["u"], f["delta"], big_rho,
                               np.zeros(2), CFG, tau_prev=1e-3,
                               beta=1e-3).tt1


def test_termination_test_1_rejects_null_step_off_stationarity():
    # u = 0 with c = 0 leaves the dual residual untouched, so the
    # contraction condition must fail away from a stationary point
    g = np.array([1.0, 1.0, 0.0])
    c = np.zeros(1)
    j = make_sparse([[0.0, 0.0, 1.0]])
    h = SparseMatrix.identity(3)
    v = np.zeros(3)
    u = np.zeros(3)
    rho = g.copy()  # residual of the zero candidate
    assert not candidate_tests(g, c, j, v, np.zeros(1), h, u, np.zeros(1),
                               rho, np.zeros(1), CFG, tau_prev=0.1,
                               beta=1.0).tt1


def test_termination_test_1_requires_share_of_normal_decrease():
    # u = 0 and r = 0 pass conditions a-c; with c = 1 and Jv = -0.5 the
    # normal decrease is 0.5 and TT1 at tau = 1 needs
    # -g'v + 0.5 >= sigma_c * 0.5 = 0.05, i.e. g'v <= 0.45
    c = np.array([1.0])
    j = make_sparse([[1.0]])
    h = SparseMatrix.identity(1)
    v = np.array([-0.5])
    zero = np.zeros(1)

    def tt1(g0):
        return candidate_tests(np.array([g0]), c, j, v, zero, h, zero, zero,
                               zero, zero, CFG, tau_prev=1.0).tt1

    assert tt1(-0.88)  # g'v = 0.44
    assert not tt1(-0.92)  # g'v = 0.46


def test_termination_tests_cap_the_constraint_residual():
    # condition b: ||r|| <= kappa_r * beta, shared by both tests
    f = _tangential_fixture()
    r = 2.0 * np.ones(2)  # ||r|| = 2.83

    def evaluate(beta):
        return candidate_tests(f["g"], f["c"], f["j"], f["v"], f["y"], f["h"],
                               f["u"], f["delta"], np.zeros(6), r, CFG,
                               tau_prev=1e-3, beta=beta)

    assert evaluate(0.03).failed != "b"  # cap 3.0
    rejected = evaluate(0.02)  # cap 2.0
    assert rejected.failed == "b"
    assert not rejected.tt1 and not rejected.tt2


def test_termination_test_2_requires_constraint_progress():
    f = _tangential_fixture()
    # feasible iterate: no normal decrease exists to retain
    assert not candidate_tests(f["g"], np.zeros(2), f["j"], np.zeros(6),
                               f["y"], f["h"], f["u"], f["delta"],
                               np.zeros(6), np.zeros(2), CFG, beta=1.0).tt2


def test_termination_test_2_retention_threshold():
    rng = np.random.default_rng(43)
    n, m = 5, 2
    j_dense = random_full_rank(rng, m, n)
    c = rng.standard_normal(m)
    v = dense_normal_step(j_dense, c)  # exact step: c + Jv = 0
    h = make_sparse(random_spd(rng, n))
    g = rng.standard_normal(n)
    decrease = float(np.linalg.norm(c))

    def tt2(share):
        # a tangential residual that gives back this share of the
        # normal decrease; test 2 retains EPS_R of it
        r = share * decrease * np.array([1.0, 0.0])
        return candidate_tests(g, c, make_sparse(j_dense), v, np.zeros(m), h,
                               np.zeros(n), np.zeros(m), np.zeros(n), r, CFG,
                               beta=1.0).tt2

    previous = kernels.active_backend()
    try:
        for backend in kernels.available_backends():
            kernels.use_backend(backend)
            assert tt2(0.0)
            assert tt2(0.99 * (1.0 - kernels.EPS_R))
            assert not tt2(1.01 * (1.0 - kernels.EPS_R))
            assert not tt2(0.25)
    finally:
        kernels.use_backend(previous)


# -- merit parameter -------------------------------------------------------------

def _tau_ingredients(denom, retained, c_norm=1.0):
    """Craft one-dimensional vectors realizing g'd + max term = denom
    and ||c|| - ||c + Jd|| = retained."""
    g = np.array([denom])
    d = np.array([1.0])
    u = np.zeros(1)
    h = SparseMatrix.identity(1)
    c = np.array([c_norm])
    j = make_sparse([[1.0]])
    v = np.array([(c_norm - retained) - c_norm])  # c + Jv = c_norm - retained
    r = np.zeros(1)
    return g, d, u, h, c, j, v, r


def test_tau_keeps_value_when_denominator_is_negative(monkeypatch):
    monkeypatch.setattr(sisqo.engine, "EPS_R", 1.0)
    g, d, u, h, c, j, v, r = _tau_ingredients(-1.0, 0.5)
    tau_trial, tau_new = tau_trial_and_update(
        0.1, *tau_parts(g, d, u, h, c, j, v, r))
    assert tau_trial == math.inf
    assert tau_new == 0.1


def test_tau_decreases_to_small_trial(monkeypatch):
    # (1 - sigma_c/eps_r) = 0.9; trial = 0.9 * 0.5 / 9 = 0.05
    monkeypatch.setattr(sisqo.engine, "EPS_R", 1.0)
    g, d, u, h, c, j, v, r = _tau_ingredients(9.0, 0.5)
    tau_trial, tau_new = tau_trial_and_update(
        0.1, *tau_parts(g, d, u, h, c, j, v, r))
    assert tau_trial == pytest.approx(0.05)
    assert tau_new == pytest.approx(0.05)


def test_tau_decrease_is_at_least_geometric(monkeypatch):
    # trial 0.0995 sits between 0.099 and 0.1: the geometric fraction wins
    monkeypatch.setattr(sisqo.engine, "EPS_R", 1.0)
    g, d, u, h, c, j, v, r = _tau_ingredients(0.45 / 0.0995, 0.5)
    tau_trial, tau_new = tau_trial_and_update(
        0.1, *tau_parts(g, d, u, h, c, j, v, r))
    assert tau_trial == pytest.approx(0.0995)
    assert tau_new == pytest.approx(0.099)


def test_tau_unchanged_when_trial_is_larger(monkeypatch):
    monkeypatch.setattr(sisqo.engine, "EPS_R", 1.0)
    g, d, u, h, c, j, v, r = _tau_ingredients(9.0, 0.5)
    tau_trial, tau_new = tau_trial_and_update(
        0.01, *tau_parts(g, d, u, h, c, j, v, r))
    assert tau_trial == pytest.approx(0.05)
    assert tau_new == 0.01


def test_tau_collapse_raises(monkeypatch):
    monkeypatch.setattr(sisqo.engine, "EPS_R", 1.0)
    g, d, u, h, c, j, v, r = _tau_ingredients(9.0, -1.0)
    with pytest.raises(InvariantBreach, match="merit parameter"):
        tau_trial_and_update(0.1, *tau_parts(g, d, u, h, c, j, v, r))


# -- ratio parameter -------------------------------------------------------------

def test_xi_update_cases():
    d = np.array([1.0])
    d_sq = float(np.dot(d, d))
    assert xi_update(1.0, 1.0, 2.0, d_sq) == (2.0, 1.0)
    assert xi_update(1.0, 1.0, 0.5, d_sq) == (0.5, 0.5)
    trial, new = xi_update(1.0, 1.0, 0.995, d_sq)
    assert trial == pytest.approx(0.995)
    assert new == pytest.approx(0.99)
    with pytest.raises(InvariantBreach, match="model reduction"):
        xi_update(1.0, 1.0, 0.0, d_sq)
    zero = np.zeros(1)
    with pytest.raises(InvariantBreach, match="model reduction"):
        xi_update(1.0, 1.0, 1.0, float(np.dot(zero, zero)))


# -- step size --------------------------------------------------------------------

def test_varphi_zero_at_zero_and_positive_for_large_steps():
    rng = np.random.default_rng(44)
    c = rng.standard_normal(3)
    j = make_sparse(rng.standard_normal((3, 5)))
    d = rng.standard_normal(5)
    args = (1.0, 0.2, 0.7, 2.0, 1.0, *varphi_parts(c, j, d), CFG)
    assert evaluate_varphi(0.0, *args) == 0.0
    assert evaluate_varphi(50.0, *args) > 0.0


def test_varphi_nonpositive_at_sufficient_step():
    # the quadratic model is tuned so alpha_suff cancels it exactly;
    # the norm interpolation term only helps for alpha <= 1
    rng = np.random.default_rng(45)
    for trial in range(8):
        n, m = 6, 2
        c = rng.standard_normal(m)
        j = make_sparse(rng.standard_normal((m, n)))
        d = rng.standard_normal(n)
        tau = 10.0 ** rng.uniform(-3, 0)
        delta_l = 10.0 ** rng.uniform(-3, 1)
        lip_l, lip_gamma = 2.0, 1.0
        cfg = SolverConfig(eta=0.3)
        denom = (tau * lip_l + lip_gamma) * float(d @ d)
        alpha_suff = min(2.0 * (1.0 - cfg.eta) * 1.0 * delta_l / denom, 1.0)
        val = evaluate_varphi(alpha_suff, 1.0, tau, delta_l, lip_l,
                              lip_gamma, *varphi_parts(c, j, d), cfg)
        assert val <= 1e-10 * max(1.0, delta_l)


def test_step_size_bounds_frozen_case():
    cfg = SolverConfig(eta=0.5)
    d = np.array([1.0])
    alpha_min, alpha_suff = step_size_bounds(
        tau=0.1, xi=0.2, beta=1.0, delta_l=0.05, d_sq=float(np.dot(d, d)),
        lip_l=1.0, lip_gamma=0.0, cfg=cfg)
    assert alpha_min == pytest.approx(0.2)
    assert alpha_suff == pytest.approx(0.5)

    # xi at its trial value closes the gap between the bounds
    alpha_min, alpha_suff = step_size_bounds(
        tau=0.1, xi=0.5, beta=1.0, delta_l=0.05, d_sq=float(np.dot(d, d)),
        lip_l=1.0, lip_gamma=0.0, cfg=cfg)
    assert alpha_min == alpha_suff == pytest.approx(0.5)


def test_step_size_bounds_validation():
    ones, zero = np.ones(1), np.zeros(1)
    with pytest.raises(InvariantBreach, match="positive"):
        step_size_bounds(1.0, 1.0, 1.0, 1.0, float(np.dot(ones, ones)), 0.0,
                         0.0, CFG)
    with pytest.raises(InvariantBreach, match="zero step"):
        step_size_bounds(1.0, 1.0, 1.0, 1.0, float(np.dot(zero, zero)), 1.0,
                         0.0, CFG)


def test_select_step_size_full_step():
    assert select_step_size(0.5, 1.0, 1.0, lambda a: 0.0) == 1.0


def test_select_step_size_capped_by_lower_bound(monkeypatch):
    # cap = alpha_min + theta beta^2 = 0.25 <= alpha_suff: take the cap
    monkeypatch.setattr(sisqo.engine, "THETA", 0.05)
    alpha = select_step_size(0.2, 0.3, 1.0, lambda a: 0.0)
    assert alpha == pytest.approx(0.25)


def test_select_step_size_cap_below_one_wins_over_full_step(monkeypatch):
    monkeypatch.setattr(sisqo.engine, "THETA", 1e-9)
    alpha = select_step_size(1e-9, 1.0, 1e-3, lambda a: 0.0)
    assert alpha == pytest.approx(1e-9 + 1e-15)


def test_select_step_size_expands_while_model_allows(monkeypatch):
    monkeypatch.setattr(sisqo.engine, "THETA", 10.0)
    calls = []

    def varphi(a):
        calls.append(a)
        return -1.0 if a <= 0.40 else 1.0

    alpha = select_step_size(0.0, 0.3, 1.0, varphi)
    assert alpha == pytest.approx(0.3 * 1.1 ** 3)
    assert max(calls) > 0.40  # the rejected trial was probed


def test_select_step_size_expansion_respects_cap(monkeypatch):
    monkeypatch.setattr(sisqo.engine, "THETA", 0.35)
    alpha = select_step_size(0.0, 0.3, 1.0, lambda a: -1.0)
    assert alpha == pytest.approx(0.33)


def test_select_step_size_stops_expanding_at_one(monkeypatch):
    monkeypatch.setattr(sisqo.engine, "THETA", 1e6)
    alpha = select_step_size(0.0, 0.99, 1.0, lambda a: -1.0)
    assert alpha == pytest.approx(0.99 * 1.1)
    assert alpha < 1.1


def test_beta_schedule():
    assert beta_for_iteration(SolverConfig(beta_mode="constant", beta0=0.7),
                              9) == 0.7
    diminishing = SolverConfig(beta_mode="diminishing", beta0=1.0)
    assert beta_for_iteration(diminishing, 0) == 1.0
    assert beta_for_iteration(diminishing, 3) == pytest.approx(0.25)


# -- dual update -------------------------------------------------------------------

def test_update_duals_direct():
    y = np.array([1.0, -1.0])
    delta = np.array([0.5, 0.5])
    out = update_duals(y, delta)
    np.testing.assert_array_equal(out, [1.5, -0.5])


# -- full iterations ---------------------------------------------------------------

def test_init_state_shapes_and_defaults(monkeypatch):
    problem = build_synthetic_qp(SyntheticQpSpec(n=6, m=2, seed=0))
    monkeypatch.setattr(sisqo.engine, "XI_INIT", 0.5)
    cfg = SolverConfig(tau_init=0.25)
    state = init_state(problem, cfg)
    assert state.k == 0
    assert state.tau == 0.25 and state.xi == 0.5
    np.testing.assert_array_equal(state.y, np.zeros(2))
    assert state.f == problem.eval_f(problem.x0)
    np.testing.assert_array_equal(state.c, problem.eval_c(problem.x0))


def test_iterate_detects_stationary_start():
    problem = _identity_problem()
    cfg = SolverConfig()
    state = init_state(problem, cfg)
    with pytest.raises(StationaryPointDetected) as info:
        sqp_iterate(state, problem, GradientOracle("exact"), cfg,
                    substream(0, "lipschitz"))
    assert info.value.diagnostics["residual"] <= 1e-12
    assert not info.value.diagnostics["resampled"]


def test_iterate_resamples_before_declaring_stationarity():
    base = _identity_problem()
    # every finite-sum term returns the full gradient, so the resample
    # confirms the certificate instead of rescuing the iterate
    problem = Problem(
        name="iso_terms", n=2, m=1,
        eval_f=base.eval_f, eval_grad_f=base.eval_grad_f,
        eval_c=base.eval_c, eval_jacobian=base.eval_jacobian,
        eval_lagrangian_hessian=base.eval_lagrangian_hessian,
        x0=base.x0, term_grid=2,
        eval_term_grad=lambda x, i, j: x.copy())
    cfg = SolverConfig()
    oracle = GradientOracle("finite_sum", rng=substream(0, "oracle"))
    with pytest.raises(StationaryPointDetected) as info:
        sqp_iterate(init_state(problem, cfg), problem, oracle, cfg,
                    substream(0, "lipschitz"))
    assert info.value.diagnostics["resampled"]


def test_circle_problem_first_iteration_hand_checked():
    # start (0, 1) is feasible but not stationary; the Lagrangian
    # Hessian vanishes at y = 0, so the tangential system is singular
    # and the ladder must escalate once before a candidate passes
    problem = _circle_problem()
    cfg = SolverConfig()
    state = init_state(problem, cfg)
    oracle = GradientOracle("exact")
    next_state, step = sqp_iterate(state, problem, oracle, cfg,
                                   probe_rng=substream(0, "lipschitz"))

    np.testing.assert_array_equal(step.v, np.zeros(2))
    assert step.hessian_rung == 1
    assert step.accepted_test == 1
    # rung 0 breaks down after one Lanczos step, rung 1 solves in one
    assert step.minres_iters == 2
    assert len(step.info["rungs"]) == 2
    np.testing.assert_allclose(step.u, [-10.0 / 9.0, 0.0], rtol=0, atol=1e-9)
    np.testing.assert_allclose(step.delta, [0.0], rtol=0, atol=1e-9)
    assert step.tau == 0.1
    assert step.delta_l == pytest.approx(1.0 / 9.0, rel=1e-9)
    assert step.xi == pytest.approx(0.9, rel=1e-9)
    # estimated constants: constant gradient gives the floor for L,
    # the linear-in-x Jacobian gives exactly 2 for Gamma
    assert step.lip_l == pytest.approx(1e-8)
    assert step.lip_gamma == pytest.approx(2.0, rel=1e-6)
    assert step.alpha == pytest.approx(0.081, rel=1e-6)
    assert step.alpha_min == pytest.approx(step.alpha_suff, rel=1e-9)
    np.testing.assert_allclose(next_state.x, [-0.09, 1.0], rtol=0, atol=1e-7)
    assert step.violations == []


def test_failed_iteration_diagnostics_match_raw_arrays(monkeypatch):
    # one MINRES step on each of two Hessian rungs (H, then I) accepts
    # no tangential iterate; every diagnostic is formed again from the
    # iterate's arrays
    monkeypatch.setattr(sisqo.engine, "MINRES_MAX_ITER_SCALE", 0.01)
    monkeypatch.setattr(sisqo.engine, "MAX_RUNG", 0)
    problem = build_synthetic_qp(SyntheticQpSpec(n=8, m=3, seed=4))
    state = init_state(problem, CFG)
    with pytest.raises(sisqo.engine.IterationFailure) as info:
        sqp_iterate(state, problem, GradientOracle("exact"), CFG,
                    probe_rng=substream(0, "lipschitz"))
    diagnostics = info.value.diagnostics

    g = problem.eval_grad_f(state.x)
    j = state.j.to_dense()
    v = compute_normal_step(state.c, state.j).v
    jty = j.T @ state.y
    hess = problem.eval_lagrangian_hessian(state.x, state.y).to_dense()
    assert diagnostics["c_norm"] == np.linalg.norm(state.c)
    assert diagnostics["v_norm"] == np.linalg.norm(v)
    assert diagnostics["rhs_norm"] == pytest.approx(
        np.linalg.norm(g + v + jty), rel=1e-12)
    assert diagnostics["minres_iters"] == 2
    records = diagnostics["rungs"]
    assert [r["rung"] for r in records] == [0, 1]
    for record, h in zip(records, (hess, np.eye(problem.n))):
        # one MINRES step on K z = b from zero is z = (b'Kb / ||Kb||^2) b
        k_mat = dense_kkt_matrix(h, j)
        b = -np.concatenate([g + h @ v + jty, np.zeros(problem.m)])
        kb = k_mat @ b
        resid = (b @ kb) / (kb @ kb) * kb - b
        assert record["minres_iters"] == 1
        assert not record["breakdown"] and not record["stalled"]
        assert record["resid_norm"] == pytest.approx(np.linalg.norm(resid),
                                                     rel=1e-10)
        # no iterate passes the gate, so no test rejects one
        assert np.abs(resid).max() > CFG.kappa * np.abs(b).max()
        assert record["rejected"] == {"b": 0, "a": 0, "c": 0, "tests": 0}


def test_iterate_monotone_merit_on_qp():
    problem = build_synthetic_qp(SyntheticQpSpec(n=8, m=3, seed=2))
    lip_l, lip_gamma = problem.lipschitz
    cfg = SolverConfig(lipschitz_mode="fixed", lip_l=lip_l,
                       lip_gamma=lip_gamma)
    oracle = GradientOracle("exact")
    state = init_state(problem, cfg)
    feas0 = np.abs(state.c).max()
    tau_prev, xi_prev = cfg.tau_init, sisqo.engine.XI_INIT
    for _ in range(40):
        f_prev, c_prev = state.f, state.c
        try:
            state, step = sqp_iterate(state, problem, oracle, cfg,
                                      substream(0, "lipschitz"))
        except StationaryPointDetected:
            break
        assert step.violations == []
        assert state.f == problem.eval_f(state.x)
        np.testing.assert_array_equal(state.c, problem.eval_c(state.x))
        # guaranteed decrease, measured at the updated merit parameter
        drop = (merit_value(step.tau, state.f, state.c)
                - merit_value(step.tau, f_prev, c_prev))
        bound = -step.alpha * step.delta_l * (1.0 - (1.0 - cfg.eta) * step.beta)
        assert drop <= bound + 1e-9 * max(1.0, abs(bound))
        assert 0.0 < step.tau <= tau_prev
        assert 0.0 < step.xi <= xi_prev
        tau_prev, xi_prev = step.tau, step.xi
    assert np.abs(state.c).max() <= 1e-6 * max(1.0, feas0)


def test_iterate_is_deterministic():
    problem = build_synthetic_qp(SyntheticQpSpec(n=10, m=4, seed=7))
    cfg = SolverConfig(seed=3)
    runs = []
    for _ in range(2):
        oracle = GradientOracle("gaussian", rng=substream(3, "oracle"),
                                eps_n=1e-2)
        state = init_state(problem, cfg)
        for _ in range(5):
            state, step = sqp_iterate(state, problem, oracle, cfg,
                                      probe_rng=substream(3, "lipschitz"))
        runs.append((state.x.copy(), state.tau, state.xi))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]
    assert runs[0][2] == runs[1][2]
