"""Property tests of the closed-form parameter and step-size rules on
inputs that mix finite values with NaN and inf: each call returns a
value that keeps its invariant, or raises an EngineError, within a
bound known before it starts.  The termination tests, which stop at the
first failing condition, must decide as their eager restatement does
on candidates with such entries, on each kernel backend."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sisqo.engine
from oracles import candidate_tests, eager_termination_tests
from sisqo import kernels
from sisqo.engine import (EngineError, SolverConfig, select_step_size,
                          step_size_bounds, tau_trial_and_update, xi_update)
from sisqo.sparse import SparseMatrix

CFG = SolverConfig()

# any double, NaN and both infinities included, with the special values
# drawn often enough to meet each other in one call
values = st.one_of(st.floats(),
                   st.sampled_from([math.nan, math.inf, -math.inf, 0.0,
                                    5e-324, 1e-300, 1.0, 1e300]))
# beta = beta0 / (k + 1) with beta0 in (0, 1] is a validated config
# value, and THETA > 0 a constant: they range over [0, 1] and (0, inf)
# here, plus NaN and inf
betas = st.one_of(st.floats(0.0, 1.0), st.sampled_from([math.nan, math.inf]))
thetas = st.one_of(st.floats(0.0, exclude_min=True),
                   st.sampled_from([math.nan]))


@settings(max_examples=400)
@given(values, values, values, values, values)
# a NaN trial value, which min() would pass over
@example(1.0, math.nan, 0.0, 1.0, 0.0)
def test_tau_never_increases(tau_prev, g_dot_d, max_term, c_norm,
                             norm_c_plus_jd):
    try:
        tau_trial, tau = tau_trial_and_update(tau_prev, g_dot_d, max_term,
                                              c_norm, norm_c_plus_jd)
    except EngineError:
        return
    assert 0.0 < tau <= tau_prev
    assert tau <= tau_trial
    if tau < tau_prev:
        assert tau <= (1.0 - sisqo.engine.EPS_TAU) * tau_prev


@settings(max_examples=400)
@given(st.floats(0.0), values, values, values)
# the trial value inf / inf
@example(1.0, 1.0, math.inf, math.inf)
def test_xi_never_increases(xi_prev, tau, delta_l, d_sq):
    try:
        xi_trial, xi = xi_update(xi_prev, tau, delta_l, d_sq)
    except EngineError:
        return
    assert delta_l > 0.0 and tau * d_sq > 0.0
    assert xi <= xi_prev
    assert xi <= xi_trial


@settings(max_examples=400)
@given(values, values, betas, values, values, values, values)
def test_step_size_bounds_are_ordered(tau, xi, beta, delta_l, d_sq, lip_l,
                                      lip_gamma):
    try:
        alpha_min, alpha_suff = step_size_bounds(tau, xi, beta, delta_l, d_sq,
                                                 lip_l, lip_gamma, CFG)
    except EngineError:
        return
    assert alpha_min <= alpha_suff <= 1.0


def _expansion_reference(alpha_min, alpha_suff, beta, theta, varphi):
    """The expansion loop with no precomputed bound.  For finite inputs
    whose loop ends before 1.1^t overflows, select_step_size returns the
    same bits."""
    cap = alpha_min + theta * beta ** 2
    if alpha_suff == 1.0:
        return min(1.0, cap)
    if cap <= alpha_suff:
        return cap
    alpha = alpha_suff
    t = 1
    while True:
        trial = alpha_suff * 1.1 ** t
        if trial > cap or alpha_suff * 1.1 ** (t - 1) >= 1.0 \
                or varphi(trial) > 0.0:
            return alpha
        alpha = trial
        t += 1


# varphi as a constant, or safe up to a threshold step size
varphis = st.one_of(
    st.builds(lambda v: (lambda a: v), values),
    st.builds(lambda edge: (lambda a: -1.0 if a <= edge else 1.0), values))


@settings(max_examples=400)
@given(values, values, betas, thetas, varphis)
@example(0.0, 5e-324, 1.0, 1e300, lambda a: -1.0)
@example(0.0, math.nan, 1.0, 1e4, lambda a: math.nan)
def test_select_step_size_stays_under_cap(alpha_min, alpha_suff, beta, theta,
                                          varphi):
    calls = []

    def counted(a):
        calls.append(a)
        return varphi(a)

    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sisqo.engine, "THETA", theta)
            alpha = select_step_size(alpha_min, alpha_suff, beta, counted)
    except EngineError:
        assert calls == []
        return
    assert 0.0 < alpha <= alpha_min + theta * beta ** 2
    if alpha_suff <= 1.0:
        assert alpha < 1.1
    assert len(calls) <= sisqo.engine._MAX_EXPANSIONS
    if alpha_suff >= 1e-300:
        assert alpha == _expansion_reference(alpha_min, alpha_suff, beta,
                                             theta, varphi)


# -- termination tests ---------------------------------------------------------

def _tangential_problem():
    """A fixed 3-variable, 1-constraint subproblem with an indefinite
    Hessian, so a candidate can fail condition c on curvature."""
    h = SparseMatrix.from_dense(np.array([[2.0, 0.5, 0.0],
                                          [0.5, -1.0, 0.0],
                                          [0.0, 0.0, 0.5]]))
    j = SparseMatrix.from_dense(np.array([[1.0, -1.0, 2.0]]))
    c = np.array([0.7])
    v = -c[0] / 6.0 * np.array([1.0, -1.0, 2.0])  # min-norm J v = -c
    return {"g": np.array([0.3, -0.2, 0.1]), "c": c, "j": j, "v": v,
            "y": np.array([0.4]), "h": h}


TANGENTIAL = _tangential_problem()

# candidate entries: mostly small finite values, with zero (which lets
# the residual conditions hold) and NaN and inf drawn often
entries = st.one_of(st.floats(-2.0, 2.0),
                    st.sampled_from([0.0, 0.0, math.nan, math.inf,
                                     -math.inf, 1e-3, 1e300]))


def vectors(size):
    return st.lists(entries, min_size=size, max_size=size).map(np.array)


@settings(max_examples=600)
@given(vectors(3), vectors(1), vectors(3), vectors(1),
       st.floats(1e-6, 10.0), st.floats(1e-4, 1.0),
       st.one_of(st.floats(0.0), st.sampled_from([math.nan, math.inf])))
# accepted by test 1, by test 2 alone, and with a NaN previous measure
@example(np.zeros(3), np.zeros(1), np.zeros(3), np.zeros(1), 1.0, 1.0,
         math.inf)
@example(np.array([0.3, 0.3, 0.2]), np.zeros(1), np.zeros(3), np.zeros(1),
         10.0, 1.0, math.inf)
@example(np.zeros(3), np.zeros(1), np.zeros(3), np.zeros(1), 1.0, 1.0,
         math.nan)
def test_termination_tests_match_eager_evaluation(u, delta, rho, r, tau_prev,
                                                  beta, prev_pair_norm):
    # the kernel's evaluation on each backend, for one candidate
    f = TANGENTIAL
    args = (f["g"], f["c"], f["j"], f["v"], f["y"], f["h"], u, delta, rho, r,
            CFG)
    with np.errstate(all="ignore"):
        eager = eager_termination_tests(*args, tau_prev, beta,
                                        prev_pair_norm)
    previous = kernels.active_backend()
    try:
        for name in kernels.available_backends():
            kernels.use_backend(name)
            with np.errstate(all="ignore"):
                ev = candidate_tests(*args, tau_prev=tau_prev, beta=beta,
                                     prev_pair_norm=prev_pair_norm)
            assert ev.failed == next(
                (cond for cond in "bac" if not eager[cond]), None), name
            assert (ev.tt1, ev.tt2) == (eager["tt1"], eager["tt2"]), name
            assert ev.accepted == (1 if eager["tt1"]
                                   else 2 if eager["tt2"] else 0), name
    finally:
        kernels.use_backend(previous)
