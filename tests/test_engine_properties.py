"""Property tests of the closed-form parameter and step-size rules on
inputs that mix finite values with NaN and inf: each call returns a
value that keeps its invariant, or raises an EngineError, within a
bound known before it starts."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import sisqo.engine
from sisqo.engine import (EngineError, SolverConfig, select_step_size,
                          step_size_bounds, tau_trial_and_update, xi_update)

CFG = SolverConfig()

# any double, NaN and both infinities included, with the special values
# drawn often enough to meet each other in one call
values = st.one_of(st.floats(),
                   st.sampled_from([math.nan, math.inf, -math.inf, 0.0,
                                    5e-324, 1e-300, 1.0, 1e300]))
# beta = beta0 / (k + 1) with beta0 in (0, 1], and theta > 0, are
# validated config values: they range over [0, 1] and (0, inf) here,
# plus NaN and inf
betas = st.one_of(st.floats(0.0, 1.0), st.sampled_from([math.nan, math.inf]))
thetas = st.one_of(st.floats(0.0, exclude_min=True),
                   st.sampled_from([math.nan]))


@settings(max_examples=400)
@given(values, values, values, values, values)
def test_tau_never_increases(tau_prev, g_dot_d, max_term, c_norm,
                             norm_c_plus_jd):
    try:
        _, tau = tau_trial_and_update(tau_prev, g_dot_d, max_term, c_norm,
                                      norm_c_plus_jd, CFG)
    except EngineError:
        return
    assert 0.0 < tau <= tau_prev


@settings(max_examples=400)
@given(st.floats(0.0), values, values, values)
def test_xi_never_increases(xi_prev, tau, delta_l, d_sq):
    try:
        _, xi = xi_update(xi_prev, tau, delta_l, d_sq, CFG)
    except EngineError:
        return
    assert xi <= xi_prev


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
        alpha = select_step_size(alpha_min, alpha_suff, beta, theta, counted)
    except EngineError:
        assert calls == []
        return
    assert 0.0 < alpha <= alpha_min + theta * beta ** 2
    assert len(calls) <= sisqo.engine._MAX_EXPANSIONS
    if alpha_suff >= 1e-300:
        assert alpha == _expansion_reference(alpha_min, alpha_suff, beta,
                                             theta, varphi)
