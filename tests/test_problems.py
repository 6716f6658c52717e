"""Oracles, the Hessian ladder, the curvature along a step, and
derivative validation."""

import dataclasses

import numpy as np
import pytest

from sisqo.engine import (MAX_RUNG, SolverConfig, init_state, ladder_matrix,
                          sqp_iterate)
from sisqo.library import (ControlProblemSpec, SyntheticQpSpec,
                           build_neumann_control, build_poisson_control,
                           build_synthetic_qp)
from sisqo.problems import (LIP_FLOOR, GradientOracle, Problem,
                            estimate_lipschitz, finite_sum_oracle_sample,
                            gaussian_oracle_sample, substream,
                            validate_problem)
from sisqo.sparse import SparseMatrix


def _small_qp(seed=0, n=10, m=4):
    return build_synthetic_qp(SyntheticQpSpec(n=n, m=m, seed=seed))


def _small_poisson(mesh=4, eps_n=1e-2):
    return build_poisson_control(ControlProblemSpec(mesh_size=mesh,
                                                    eps_n=eps_n))


def test_substream_reproducible_and_distinct():
    a = substream(7, "oracle").standard_normal(5)
    b = substream(7, "oracle").standard_normal(5)
    c = substream(7, "problem").standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    with pytest.raises(ValueError, match="unknown stream"):
        substream(7, "weather")


def test_problem_shape_validation():
    ident = SparseMatrix.identity(2)
    kwargs = dict(eval_f=lambda x: 0.0, eval_grad_f=lambda x: np.zeros(2),
                  eval_c=lambda x: np.zeros(3),
                  eval_jacobian=lambda x: ident,
                  eval_lagrangian_hessian=lambda x, y: ident)
    with pytest.raises(ValueError, match="constraint dimension"):
        Problem(name="bad", n=2, m=3, x0=np.zeros(2), **kwargs)
    with pytest.raises(ValueError, match="x0"):
        Problem(name="bad", n=2, m=1, x0=np.zeros(5), **kwargs)


@pytest.mark.parametrize("lipschitz", [
    (np.nan, 0.0), (-1.0, 0.0), (0.0, 0.0), (np.inf, 0.0),
    (1.0, np.nan), (1.0, -1.0), (1.0, np.inf), (1.0,), (1.0, 0.0, 0.0),
    1.0], ids=["L-nan", "L-negative", "L-zero", "L-inf", "Gamma-nan",
               "Gamma-negative", "Gamma-inf", "one-value", "three-values",
               "scalar"])
def test_problem_rejects_a_bad_lipschitz(lipschitz):
    # the step-size rule divides by tau L + Gamma and reads Gamma's
    # normalization: both must be finite, L positive and Gamma at least 0
    with pytest.raises(ValueError, match=r"lipschitz must be a pair"):
        dataclasses.replace(_small_qp(), lipschitz=lipschitz)


# -- gaussian oracle ----------------------------------------------------------

def test_gaussian_oracle_exact_at_zero_noise():
    problem = _small_qp()
    x = problem.x0
    g = gaussian_oracle_sample(problem, x, 0.0, substream(0, "oracle"))
    np.testing.assert_array_equal(g, problem.eval_grad_f(x))
    with pytest.raises(ValueError, match="non-negative"):
        gaussian_oracle_sample(problem, x, -1.0, substream(0, "oracle"))


def test_gaussian_oracle_replay_and_statistics():
    problem = _small_qp(n=50, m=5)
    x = problem.x0
    eps = 1e-2
    g1 = gaussian_oracle_sample(problem, x, eps, substream(3, "oracle"))
    g2 = gaussian_oracle_sample(problem, x, eps, substream(3, "oracle"))
    np.testing.assert_array_equal(g1, g2)

    rng = substream(4, "oracle")
    grad = problem.eval_grad_f(x)
    sq = [float(np.dot(d, d)) for d in
          (gaussian_oracle_sample(problem, x, eps, rng) - grad
           for _ in range(2000))]
    # E||g - grad||^2 = eps^2 by construction
    assert 0.85 * eps ** 2 <= np.mean(sq) <= 1.15 * eps ** 2


def test_finite_sum_oracle_single_term_grid():
    problem = _small_poisson()
    spec = ControlProblemSpec(mesh_size=4, n_terms=1, eps_n=1e-2)
    single = build_poisson_control(spec)
    g = finite_sum_oracle_sample(single, single.x0, substream(0, "oracle"))
    np.testing.assert_allclose(g, single.eval_grad_f(single.x0),
                               rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="finite-sum"):
        finite_sum_oracle_sample(_small_qp(), problem.x0[:10],
                                 substream(0, "oracle"))


def test_finite_sum_terms_average_to_gradient():
    problem = _small_poisson()
    x = problem.x0 + 0.1
    acc = np.zeros(problem.n)
    for i in range(1, problem.term_grid + 1):
        for j in range(1, problem.term_grid + 1):
            acc += problem.eval_term_grad(x, i, j)
    mean = acc / problem.term_grid ** 2
    grad = problem.eval_grad_f(x)
    np.testing.assert_allclose(mean, grad, rtol=0,
                               atol=1e-12 * max(1.0, np.abs(grad).max()))


def test_oracle_wrapper_contracts():
    with pytest.raises(ValueError, match="unknown oracle kind"):
        GradientOracle("bootstrap")
    with pytest.raises(ValueError, match="requires an rng"):
        GradientOracle("gaussian")
    assert not GradientOracle("exact").is_stochastic
    assert not GradientOracle("gaussian", rng=substream(0, "oracle"),
                              eps_n=0.0).is_stochastic
    assert GradientOracle("gaussian", rng=substream(0, "oracle"),
                          eps_n=1e-3).is_stochastic
    assert GradientOracle("finite_sum",
                          rng=substream(0, "oracle")).is_stochastic


def test_oracle_variance_bounds():
    qp = _small_qp()
    assert GradientOracle("exact").variance_bound(qp) == 0.0
    gauss = GradientOracle("gaussian", rng=substream(0, "oracle"), eps_n=0.05)
    assert gauss.variance_bound(qp) == pytest.approx(0.0025)

    problem = _small_poisson()
    oracle = GradientOracle("finite_sum", rng=substream(0, "oracle"))
    bound = oracle.variance_bound(problem)
    full = problem.eval_grad_f(problem.x0)
    worst = max(
        float(np.dot(dev, dev)) for dev in
        (problem.eval_term_grad(problem.x0, i, j) - full
         for i in range(1, 4) for j in range(1, 4)))
    assert bound == pytest.approx(worst, rel=1e-12)
    assert bound > 0.0


def test_oracle_sampling_dispatch():
    problem = _small_poisson()
    exact = GradientOracle("exact").sample(problem, problem.x0)
    np.testing.assert_array_equal(exact, problem.eval_grad_f(problem.x0))
    fs = GradientOracle("finite_sum", rng=substream(1, "oracle"))
    draws = {tuple(np.round(fs.sample(problem, problem.x0), 12))
             for _ in range(30)}
    # nine distinct terms exist; sampling should find more than one
    assert len(draws) > 1


# -- Hessian ladder -----------------------------------------------------------

def test_ladder_schedule():
    # H has no diagonal, so the blend's off-diagonal entry is iota * 1
    h = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    iotas = [ladder_matrix(h, rung).to_dense()[0, 1]
             for rung in range(MAX_RUNG + 2)]
    assert iotas[:4] == [1.0, 0.1, 0.01, 0.001]
    assert iotas[:-1] == [10.0 ** (-rung) for rung in range(MAX_RUNG + 1)]
    assert iotas[-1] == 0.0


def test_ladder_matrix_rungs():
    problem = _small_qp(n=6, m=2)
    x = problem.x0
    y = np.zeros(2)
    h = problem.eval_lagrangian_hessian(x, y)
    hess = h.to_dense()

    at0 = ladder_matrix(h, 0)
    np.testing.assert_array_equal(at0.to_dense(), hess)

    at2 = ladder_matrix(h, 2)
    np.testing.assert_allclose(at2.to_dense(),
                               0.01 * hess + 0.99 * np.eye(6),
                               rtol=0, atol=1e-14)

    past = ladder_matrix(h, MAX_RUNG + 1)
    np.testing.assert_array_equal(past.to_dense(), np.eye(6))


def test_ladder_fixed_point_at_identity_hessian():
    ident = SparseMatrix.identity(3)
    for rung in (0, 1, 7):
        h = ladder_matrix(ident, rung)
        np.testing.assert_allclose(h.to_dense(), np.eye(3), rtol=0, atol=0)


# -- Lipschitz estimation -------------------------------------------------

def test_estimate_lipschitz_is_the_curvature_along_d_on_a_qp():
    problem = _small_qp(n=12, m=3)
    hess = problem.eval_lagrangian_hessian(problem.x0, np.zeros(3)).to_dense()
    rng = np.random.default_rng(4)
    x, d = rng.standard_normal(12), rng.standard_normal(12)
    d_sq = float(d @ d)
    curvature = float(d @ hess @ d) / d_sq
    assert estimate_lipschitz(d, d_sq, problem.eval_grad_f(x + d),
                              problem.eval_grad_f(x)) == \
        pytest.approx(curvature, rel=1e-12)
    # the iteration measures it along its own step d = v + u
    cfg = SolverConfig()
    _, step = sqp_iterate(init_state(problem, cfg), problem,
                          GradientOracle("exact"), cfg)
    d = step.v + step.u
    assert step.lip_l == pytest.approx(float(d @ hess @ d) / float(d @ d),
                                       rel=1e-12)


def test_estimate_lipschitz_floors_non_positive_curvature():
    # f = x'Hx / 2 with H = diag(2, -1, 0): negative and zero curvature
    # along the second and third axes
    hess = np.diag([2.0, -1.0, 0.0])
    x = np.array([0.5, -1.0, 3.0])
    for d, expected in (([0.0, 1.0, 0.0], LIP_FLOOR),
                        ([0.0, 0.0, 2.0], LIP_FLOOR),
                        ([0.0, 1.0, 1.0], LIP_FLOOR),
                        ([1.0, 1.0, 0.0], 0.5)):
        d = np.array(d)
        assert estimate_lipschitz(d, float(d @ d), hess @ (x + d),
                                  hess @ x) == expected


# -- derivative validation --------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: _small_qp(),
    lambda: _small_poisson(),
    lambda: build_neumann_control(ControlProblemSpec(mesh_size=3)),
], ids=["qp", "poisson", "neumann"])
def test_validate_problem_passes_library(build):
    errors = validate_problem(build(), seed=1)
    assert errors["gradient"] <= 1e-5
    assert errors["jacobian"] <= 1e-5
    assert errors["hessian"] <= 1e-4


def test_validate_problem_catches_wrong_gradient():
    problem = _small_qp(n=6, m=2)
    broken = Problem(
        name="broken", n=problem.n, m=problem.m,
        eval_f=problem.eval_f,
        eval_grad_f=lambda x: 1.5 * problem.eval_grad_f(x),
        eval_c=problem.eval_c,
        eval_jacobian=problem.eval_jacobian,
        eval_lagrangian_hessian=problem.eval_lagrangian_hessian,
        x0=problem.x0)
    assert validate_problem(broken)["gradient"] > 1e-2
