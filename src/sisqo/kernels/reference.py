"""Pure-numpy CSR kernels, the fallback when the compiled core is absent.

The four functions take the arguments of their ``_csrkern`` twins and
agree with them in exact arithmetic; floating point sums may differ at
round-off because the vectorized reductions associate differently.
``tangential_solve`` and ``cg`` are the loops the compiled ones
reproduce, and like their twins allocate their own scratch.  They take
their products from ``sisqo.kernels.csr_matvec`` and ``csr_rmatvec``
(the MINRES step, :func:`_minres_step`, through :func:`_kkt_apply`) on
whichever backend is active, so with the compiled backend active each
agrees bit for bit with its compiled twin.

``tangential_solve`` holds the one statement of the tangential step's
termination tests in Python, and, with its twin, the MINRES step, the
breakdown and stall rules of a MINRES solve, the residual that the step
carries by the recurrence of MINRES, and the rule that skips the residual
product where the carried one shows that the gate cannot pass.  The
carried residual never reaches the gate, the tests or the caller: the
true one replaces it wherever it is read.  It reads the rules' and the
tests' constants from ``sisqo.kernels`` at each call; the compiled twin
has them as macros from the same constants at build time.
"""

import math

import numpy as np

from .. import kernels

# floor of the Givens norm gamma
_EPS = float(np.finfo(float).eps)


def _div(a, b):
    """``a / b`` for Python floats as C divides doubles: where ``b`` is
    zero, inf or NaN rather than ZeroDivisionError."""
    if b:
        return a / b
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(a) / b)


def csr_matvec(indptr, indices, data, x, out):
    """out[i] = sum over row i of data[k] * x[indices[k]]."""
    prod = data * x[indices]
    out[:] = 0.0
    occupied = np.flatnonzero(indptr[1:] > indptr[:-1])
    if occupied.size:
        # reduceat segment starts must point at non-empty rows
        out[occupied] = np.add.reduceat(prod, indptr[occupied])


def csr_rmatvec(indptr, indices, data, x, out):
    """out[j] = sum over entries (i, j) of data[k] * x[i]."""
    nrows = x.shape[0]
    rows = np.repeat(np.arange(nrows), np.diff(indptr))
    out[:] = np.bincount(indices, weights=data * x[rows], minlength=out.shape[0])


def _kkt_apply(h_indptr, h_indices, h_data, j_indptr, j_indices, j_data, z,
               out):
    """out = (H u + J.T delta, J u) for z = (u, delta), with H n-by-n and
    J m-by-n in CSR form, as three products of the active backend; the
    compiled step's fused product has the same bits.  ``out`` has length
    n + m and does not overlap ``z``."""
    n = h_indptr.shape[0] - 1
    top, bot = out[:n], out[n:]
    kernels.csr_matvec(h_indptr, h_indices, h_data, z[:n], top)
    if bot.size:
        jtd = np.empty(n)
        kernels.csr_rmatvec(j_indptr, j_indices, j_data, z[n:], jtd)
        top += jtd
        kernels.csr_matvec(j_indptr, j_indices, j_data, z[:n], bot)


def _minres_step(csr, work, scal, carry):
    """One MINRES step on ``K z = -rhs``, K as in :func:`_kkt_apply` for
    the six CSR arrays ``csr``, up to the new iterate; ``work`` and
    ``scal[:8]`` as :func:`tangential_solve` takes them, updated in
    place, with the next step's Lanczos vector ``y / beta`` left in the
    v row.  With ``carry``, the residual row is carried by the recurrence
    ``r = sn^2 r + (phibar cs) v`` for the next v, and the return is its
    infinity norm (NaN if it holds a NaN); without, the row is left to
    :func:`_form_residual` and the return is 0.  A zero beta or previous
    beta divides as in C, to inf or NaN, and the step goes on, as its
    twin's does.  The step count places the rows as
    :func:`tangential_solve` says; the step writes y into the one Lanczos row that it does not
    read and the new w over w2, so at the next count every row is in
    place, and none is copied.
    """
    rows = work.reshape(8, -1)
    beta, oldb, dbar, oldeps, phibar, cs, sn, steps = scal[:8].tolist()
    p = int(steps)
    vec, z, resid = rows[0], rows[6], rows[7]
    r1, r2, y = (rows[1 + (p + i) % 3] for i in range(3))
    w, w2 = rows[4 + p % 2], rows[5 - p % 2]
    # r2 holds the latest unnormalized Lanczos vector, and the v row
    # r2 / beta from the last step.  Every vector operation writes into a
    # row of ``work`` or into ``tmp`` (positional out=), and the scalars
    # are Python floats: the same IEEE operations in the same order as
    # the textbook form, with less call overhead.
    tmp = np.empty_like(vec)
    if steps < 1:
        np.multiply(_div(1.0, beta), r2, vec)
    _kkt_apply(*csr, vec, y)
    if steps >= 1:
        y -= np.multiply(_div(beta, oldb), r1, tmp)
    alfa = float(vec.dot(y))
    y -= np.multiply(_div(alfa, beta), r2, tmp)
    oldb = beta
    beta = math.sqrt(float(y.dot(y)))

    delta = cs * dbar + sn * alfa
    gbar = sn * dbar - cs * alfa
    epsln = sn * beta
    dbar = -cs * beta
    gamma = float(max(np.hypot(gbar, beta), _EPS))
    cs = gbar / gamma
    sn = beta / gamma
    phi = cs * phibar
    phibar = sn * phibar

    # w = (vec - oldeps * w2 - delta * w) / gamma, built in tmp and
    # divided into w2's row
    np.subtract(vec, np.multiply(oldeps, w2, tmp), tmp)
    np.subtract(tmp, np.multiply(delta, w, w2), tmp)
    np.divide(tmp, gamma, w2)
    z += np.multiply(phi, w2, tmp)
    # the next v; at beta = 0 it is inf * y, as the compiled step has it
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(np.float64(1.0) / beta, y, vec)
    scal[:8] = (beta, oldb, dbar, epsln, phibar, cs, sn, steps + 1)
    if not carry:
        return 0.0
    np.multiply(sn * sn, resid, resid)
    resid += np.multiply(phibar * cs, vec, tmp)
    return float(np.max(np.abs(resid, tmp)))


# the slots of tangential_solve's scal past the ten of one MINRES step:
# beta1, the least residual, the least at the end of the last stall
# window, and the breakdown and stall flags
_BETA1, _BEST, _WINDOW, _BREAKDOWN, _STALLED = range(10, 15)
_SCAL_LEN = 15


def _form_residual(csr, rhs, work, scal):
    """The true residual ``K z + rhs`` into the residual row of ``work``,
    its 2-norm and infinity norm into ``scal[8:10]``, and the least
    residual updated."""
    dim = rhs.shape[0]
    z, resid = work[6 * dim:7 * dim], work[7 * dim:]
    _kkt_apply(*csr, z, resid)
    resid += rhs
    rnorm = math.sqrt(float(resid.dot(resid)))
    # a NaN 2-norm stands in for the infinity norm, as in the twin: np.abs
    # would clear the sign of a NaN that the 2-norm keeps
    scal[8:10] = rnorm, rnorm if math.isnan(rnorm) or not dim \
        else float(np.max(np.abs(resid)))
    if rnorm < scal[_BEST]:
        scal[_BEST] = rnorm


def _guarded_step(csr, rhs, work, scal, skip_above):
    """One step of a solve, as ``MinresState.step`` takes it: none once the
    solve broke down or stalled, and none but the breakdown flag when the
    residual or the right-hand side is zero; then the breakdown and stall
    rules of ``sisqo.kernels``.  Under a finite ``skip_above`` the step
    carries the residual (:func:`_minres_step`), and the true one is
    formed unless the carried one's infinity norm is above ``skip_above``
    and the step neither breaks down nor ends a window; a skipped step
    sets the infinity norm to inf and leaves the 2-norm and the least
    residual.  Returns None if it took no step, else whether it formed
    the residual."""
    if scal[_BREAKDOWN] or scal[_STALLED]:
        return None
    if scal[8] == 0.0 or scal[_BETA1] == 0.0:
        scal[_BREAKDOWN] = 1.0
        return None
    carried = _minres_step(csr, work, scal, skip_above < math.inf)
    beta, steps = scal[[0, 7]].tolist()
    if beta < kernels.BREAKDOWN_TOL:
        scal[_BREAKDOWN] = 1.0
    window_end = int(steps) % kernels.STALL_WINDOW == 0
    formed = not (carried > skip_above and not scal[_BREAKDOWN]
                  and not window_end)
    if formed:
        _form_residual(csr, rhs, work, scal)
    else:
        scal[9] = math.inf
    if window_end:
        best = float(scal[_BEST])
        if best > (1.0 - kernels.STALL_IMPROVEMENT) * float(scal[_WINDOW]):
            scal[_STALLED] = 1.0
        scal[_WINDOW] = best
    return formed


def _candidate(h_csr, u, rho, r, vecs, tests):
    """Conditions b, a and c, then termination tests 1 and 2, for the
    candidate (u, delta) with residual pair (rho, r); ``vecs`` and
    ``tests`` as :func:`tangential_solve` takes them, and the constants
    of ``sisqo.kernels``.

    Condition b keeps the residuals within the beta-scaled caps, a
    contracts the dual residual, and c asks for a small or positively
    curved tangential step; test 1 adds sufficient model reduction at the
    incoming tau, test 2 retention of the normal constraint decrease.
    The conditions are checked cheapest first, and each check reads
    ``not x <= bound``, so a NaN fails it.  Returns ``(rejected_by, tt1,
    tt2, parts)``: the index in ``(b, a, c, tests)`` of what rejected the
    candidate, or None when a test accepts it, and (g'd, max(u'Hu, eps_u
    ||u||^2), ||c + Jd||) once it passed b and a, else None.
    """
    (_, beta, kappa, prev_pair_norm, tau, v_norm, g_dot_v, c_norm,
     decrease_v) = tests
    n, m = u.shape[0], r.shape[0]
    g, hv, gv = vecs[:n], vecs[n:2 * n], vecs[2 * n:3 * n]
    c, c_plus_jv = vecs[3 * n:3 * n + m], vecs[3 * n + m:]
    rho_norm = float(np.linalg.norm(rho))
    if not (rho_norm <= kernels.KAPPA_RHO * beta
            and float(np.linalg.norm(r)) <= kernels.KAPPA_R * beta):
        return 0, False, False, None
    # the dual residual against the smaller of the current and previous
    # stationarity measures.  The smaller is never above the previous
    # one, which rejects most candidates before H u is formed; a NaN
    # previous measure passes this shortcut, as min() then picks the
    # current one.  The identity g + J'(y + delta) = rho - Hu - Hv
    # avoids a Jacobian apply
    if rho_norm > kappa * prev_pair_norm:
        return 1, False, False, None
    hu = np.empty(n)
    kernels.csr_matvec(*h_csr, u, hu)
    stat = rho - hu - hv
    current = float(np.sqrt(np.dot(stat, stat) + np.dot(c, c)))
    if not rho_norm <= kappa * min(current, prev_pair_norm):
        return 1, False, False, None

    uhu = float(np.dot(u, hu))
    u_sq = float(np.dot(u, u))
    # Jd = Jv + r, again avoiding a Jacobian apply
    norm_c_plus_jd = float(np.linalg.norm(c_plus_jv + r))
    g_dot_d = g_dot_v + float(np.dot(g, u))
    max_term = max(uhu, kernels.EPS_U * u_sq)
    parts = (g_dot_d, max_term, norm_c_plus_jd)
    if not math.sqrt(u_sq) <= kernels.KAPPA_U * v_norm:
        curved = uhu >= kernels.EPS_U * u_sq
        if not (curved and float(np.dot(gv, u)) + 0.5 * uhu
                <= kernels.KAPPA_V * v_norm):
            return 2, False, False, parts

    # test 1 at the incoming tau, as the engine's model_reduction forms it
    tt1 = -tau * g_dot_d + c_norm - norm_c_plus_jd \
        >= kernels.SIGMA_U * tau * max_term + kernels.SIGMA_C * decrease_v
    floor = kernels.EPS_R * decrease_v
    tt2 = c_norm - norm_c_plus_jd >= floor and floor > 0.0
    return (None if tt1 or tt2 else 3), tt1, tt2, parts


def tangential_solve(h_indptr, h_indices, h_data, j_indptr, j_indices,
                     j_data, rhs, work, scal, vecs, tests, max_iter):
    """MINRES on ``K z = -rhs`` from the state in ``work`` and ``scal``,
    truncated at the first iterate the termination tests accept.

    For t = 0 ... max_iter: at t > 0 one step, none once the solve broke
    down or stalled and none but the breakdown flag when ||r|| or beta1
    is zero; then, if ``vecs`` is not None and not ``||r||_inf > cap``,
    :func:`_candidate` for the iterate.  The loop ends at an accepted
    iterate, then at a breakdown or stall.  With ``vecs`` and a finite
    cap, each step carries the residual by the recurrence of MINRES, and
    one whose carried residual has an infinity norm above
    ``RESID_SKIP_MARGIN cap``, where ``||r||_inf > cap`` follows, forms
    no true residual unless it breaks down or ends a stall window
    (:func:`_guarded_step`); the residual is formed before the call
    returns.

    K = [[H, J.T], [J, 0]], with H n-by-n and J m-by-n in CSR form.
    ``work`` holds eight rows of length dim = n + m: the next step's
    Lanczos vector v (read from the second step on), then, for the step
    count p, r1, r2 and y in rows ``1 + (p + i) % 3`` for i = 0, 1, 2 and
    w and w2 in rows ``4 + p % 2`` and ``5 - p % 2``, then the iterate z
    and the residual ``K z + rhs``.  ``scal`` holds beta, the previous
    beta, dbar, epsln, phibar, cs, sn, the step count (a whole number
    below 2**53, else ValueError), the residual's 2-norm and infinity
    norm, beta1, the least residual, the least at the end of the last
    window, and the breakdown and stall flags (1.0 when set).  Both are
    updated in place.
    ``vecs`` holds g, H v, g + H v (n each), c and c + J v (m each), and
    ``tests = (cap, beta, kappa, prev_pair_norm, tau_prev, ||v||, g'v,
    ||c||, normal decrease)``; both are None or neither.

    Returns ``(steps, tt1, tt2, breakdown, stalled, g_dot_d, max_term,
    norm_c_plus_jd, rejected, formed)``: the t it stopped at, the tests'
    outcomes for the accepted iterate (False if none), the flags, the
    parts of the last iterate to pass conditions b and a (NaN if none),
    the counts of iterates rejected by condition b, a or c, and by the
    tests after passing all three, and the count of residuals formed.
    """
    n, m = h_indptr.shape[0] - 1, j_indptr.shape[0] - 1
    dim = n + m
    if rhs.shape != (dim,) or work.shape != (8 * dim,) \
            or scal.shape != (_SCAL_LEN,):
        raise ValueError("rhs, work and scal must have lengths n + m,"
                         " 8 (n + m) and 15")
    if (vecs is None) != (tests is None):
        raise ValueError("vecs and tests: pass both or neither")
    if vecs is not None and vecs.shape != (3 * n + 2 * m,):
        raise ValueError("vecs must have length 3 n + 2 m")
    if max_iter < 0:
        raise ValueError("max_iter must be at least 0")
    # the count places the rows of work: a bad one would misplace them
    steps = float(scal[7])
    if not (0.0 <= steps < 2.0 ** 53 and steps.is_integer()):
        raise ValueError("scal[7] must be a whole step count below 2**53")
    csr = (h_indptr, h_indices, h_data, j_indptr, j_indices, j_data)
    u, resid = work[6 * dim:6 * dim + n], work[7 * dim:]
    rho, r = resid[:n], resid[n:]
    rejected = [0, 0, 0, 0]
    tt1 = tt2 = False
    parts = (math.nan,) * 3
    # the carried residual stays close to the true one, so where its
    # infinity norm is above this, ||r||_inf > cap
    skip_above = math.inf if vecs is None \
        else kernels.RESID_SKIP_MARGIN * tests[0]
    formed, stale = 0, False
    t = 0
    while True:
        if t:
            stepped = _guarded_step(csr, rhs, work, scal, skip_above)
            if stepped is not None:
                formed += stepped
                stale = not stepped
        if vecs is not None and not scal[9] > tests[0]:
            rejected_by, tt1, tt2, found = _candidate(csr[:3], u, rho, r,
                                                      vecs, tests)
            if found is not None:
                parts = found
            if rejected_by is None:
                break
            rejected[rejected_by] += 1
        if scal[_BREAKDOWN] or scal[_STALLED] or t == max_iter:
            break
        t += 1
    # only a step at t == max_iter ends the loop with a stale row
    if stale:
        _form_residual(csr, rhs, work, scal)
        formed += 1
    return (t, tt1, tt2, bool(scal[_BREAKDOWN]), bool(scal[_STALLED]),
            *parts, tuple(rejected), formed)


def cg(indptr, indices, data, ncols, normal, b, x, threshold, max_iter):
    """Conjugate gradients on ``A x = b`` from x = 0, with ``A = J.T J``
    if ``normal`` is true and ``A = J J.T`` if not, for J in CSR form with
    ``ncols`` columns.

    Stops at the first iterate whose residual 2-norm is at most
    ``threshold``, at ``p.A p <= 0``, or after ``max_iter`` iterations.
    ``x`` receives the converged iterate, or else the one of least
    residual.  Returns ``(iterations, converged, resid_norm)``.
    """
    rows, size = indptr.shape[0] - 1, b.shape[0]
    if ncols < 0 or x.shape != (size,) or size != (ncols if normal else rows):
        raise ValueError("b and x do not match J and each other")
    # the length of J p (A = J.T J) or of J.T p (A = J J.T)
    inner = rows if normal else ncols
    first, second = ((kernels.csr_matvec, kernels.csr_rmatvec) if normal
                     else (kernels.csr_rmatvec, kernels.csr_matvec))

    def apply_a(p):
        jp, out = np.empty(inner), np.empty(size)
        first(indptr, indices, data, p, jp)
        second(indptr, indices, data, jp, out)
        return out

    x[:] = 0.0
    r = b.copy()
    rs = float(np.dot(r, r))
    rnorm = math.sqrt(rs)
    if rnorm <= threshold:
        return 0, True, rnorm
    p = r.copy()
    best_x, best_norm = x.copy(), rnorm
    iterations = 0
    for t in range(1, max_iter + 1):
        ap = apply_a(p)
        pap = float(np.dot(p, ap))
        if pap <= 0.0:
            # round-off pushed p outside the range space; stop here
            break
        alpha = rs / pap
        x[:] = x + alpha * p
        r = r - alpha * ap
        rs_new = float(np.dot(r, r))
        rnorm = math.sqrt(rs_new)
        iterations = t
        if rnorm < best_norm:
            best_x, best_norm = x.copy(), rnorm
        if rnorm <= threshold:
            return t, True, rnorm
        p = r + (rs_new / rs) * p
        rs = rs_new
    x[:] = best_x
    return iterations, False, best_norm
