"""The certified band of the GV solve: `band` places a Newton estimate of
s0 and certifies a band around it.  `bounds._solve_s0` describes the solve
and gives the soundness argument.  `bounds` imports this module on its
first GV solve, so `import lrctower`, which every CLI command pays cold,
does not compile it.
"""

from math import exp, expm1, log, log1p

from .bounds import _gv_sign


def band(q, r, delta, qm1, omd, slope, log_qm1, lo, hi):
    """The band (band_lo, band_hi) of the replay in `bounds._solve_s0`:
    certified ends around the Newton estimate, widened by 16x at most three
    times, else the whole bracket (lo, hi)."""
    try:
        s, eps = _estimate(q, r, delta, qm1, omd, slope)
    except (ArithmeticError, ValueError):
        # the estimate left float range or (0, 1); it only places the band
        return lo, hi
    if not s < hi:  # also for NaN; a band end must lie below hi = 1
        return lo, hi
    for _ in range(4):
        a, b = s * (1.0 - eps), s * (1.0 + eps)
        if a <= lo or _side(r, delta, qm1, omd, slope, log_qm1, a) < 0:
            if b >= hi or _side(r, delta, qm1, omd, slope, log_qm1, b) > 0:
                return max(a, lo), min(b, hi)
        eps *= 16.0
    return lo, hi


def _estimate(q, r, delta, qm1, omd, slope):
    """(s*, eps): s0 estimated by Newton's method, and the relative band
    half-width the certificate is predicted to need there.

    h' = 0 reads x = r log((1 + qm1 s)/(1 - s)) = log1p(q delta / a) with
    a = slope s - delta = e^v, so the solve runs on
    Psi(v) = v + log(expm1(x)) - log(q delta), which is increasing in v and
    stays well conditioned as a -> 0, where the root often sits.  It starts
    at the least of three upper bounds on the root: the solution with x
    frozen at a = 0, and the two asymptotes of the model
    x = r log1p(e^v / omd), which underestimates x; but no higher than
    a = (slope - delta)/2, half of a at s = 1, where x is finite.
    """
    lqd = log(q * delta)
    log_omd = log(omd)
    v = min(log_omd + (lqd - log_omd) / (r + 1.0),
            0.5 * (log_omd + lqd - log(r)),
            log(0.5 * (slope - delta)))
    base = delta / slope
    x = r * (log1p(qm1 * base) - log1p(-base))
    if x > 0.0:
        v = min(v, lqd - x - log(-expm1(-x)))
    for _ in range(12):
        w = exp(v)
        s = (delta + w) / slope
        x = r * (log1p(qm1 * s) - log1p(-s))
        em = -expm1(-x)  # expm1(x) = e^x em
        dx_dv = r * (qm1 / (1.0 + qm1 * s) + 1.0 / (1.0 - s)) * (w / slope)
        dpsi = 1.0 + dx_dv / em
        step = (v + x + log(em) - lqd) / dpsi
        v -= step
        if abs(step) <= 2.0**-26:
            break
    w = exp(v)
    # d phi / dv = dpsi * em at the root; the terms of E as in `_side`,
    # with |log(delta + omd s)| <= -log(delta), over d phi / d log s
    sigma = x + abs(v) - log(delta) + log(qm1) + 1.0
    eps = 2.0 * (2.0**-49 * sigma * w / (delta + w) + 2.0**-50) / (dpsi * em)
    return (delta + w) / slope, max(eps, 2.0**-50)


def _side(r, delta, qm1, omd, slope, log_qm1, s):
    """-1 when the loop's sign test is certified to read "falling" at s and
    at every s' in [s/2, s); +1 when it is certified to read "not falling"
    at s and at every s' in (s, 1); 0 when neither is certified.

    The certificate of `bounds._solve_s0`: the sign test, `_gv_sign`, then
    its log difference against 2E.  The first two conditions keep every
    product out of the subnormals and the r-terms growing fast enough.
    """
    if not (omd * s >= 2.0**-1000 and r * qm1 * s >= 2.0**-40):
        return 0
    diff, a_factor, t1, l2, t3, l4 = _gv_sign(r, delta, qm1, omd, slope,
                                             log_qm1, s)
    if not a_factor > 0.0:
        return -1 if a_factor < 0.0 else 0
    if not slope * s <= 2.0**50 * a_factor:
        return 0
    # 2E with 16u >= 12u and 8u >= 3.4u: the slack covers rounding in E
    margin = (2.0**-49 * (abs(t1) + abs(l2) + abs(t3) + abs(l4) + log_qm1 + 1.0)
              + 2.0**-50 * slope * s / a_factor)
    if diff < -margin:
        return -1
    return 1 if diff > margin else 0
