"""Asymptotic rate bounds for locally repairable codes.

Closed forms (rate cap, Singleton and Plotkin types, the automorphism
construction bound, the two earlier construction bounds, and the two
parity-augmentation bounds) are evaluated directly.  The linear
programming bound and the locality-aware Gilbert-Varshamov bound carry an
inner one-dimensional minimization: the LP bound over the puncturing
fraction tau, the GV bound over s in (0, 1].

The GV inner function

    h(s) = log_q((1+(q-1)s)^(r+1) + (q-1)(1-s)^(r+1)) / (r+1) - delta log_q(s)

is evaluated in the log domain (two-term log-sum-exp) so q up to 2^64 and
very large r never overflow.  h is unimodal on (0, 1], so its minimum sits
at the one critical point s0, or at s = 1 when h decreases throughout:
`find_s0` locates it by bisection on the sign of h', and the GV bound is
1 - h(s0).  `find_s0` and `gv_bound` each check (q, r, delta) once before
the solve, and reject an r whose (r + 1) ln q overflows.  `_solve_s0`
describes the solve and why it returns the float that bisection on
`gv_derivative_sign` returns.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from math import gcd, isqrt, log, log1p, sqrt

from .errors import (
    SIZE_GUARD,
    ConvergenceFailure,
    DomainError,
    InvariantViolation,
    NotAdmissible,
    TooLarge,
)

BOUND_IDS = (
    "rate_cap",
    "singleton_asym",
    "plotkin",
    "lp",
    "gv",
    "main",
    "btv1",
    "btv2",
    "naive_gv",
    "naive_tvz",
)

#: bounds whose formulas require q to be a perfect square
_SQUARE_IDS = frozenset({"main", "btv1", "btv2", "naive_tvz"})
#: bounds defined only for delta <= 1 - 1/q
_GV_RANGE_IDS = frozenset({"plotkin", "gv", "lp", "naive_gv"})

#: strict-comparison tolerance for "bound A exceeds bound B" decisions
BEATS_TOL = 1e-9

_DOMAIN_SLACK = 1e-12
_FLOAT_MAX = sys.float_info.max


#: one sweep point: (delta: float, bound_id: str, value: float)
CurveRow = namedtuple("CurveRow", "delta bound_id value")


def _check_q(q: float) -> float:
    try:
        q = float(q)
    except OverflowError:  # an int past float range
        q = math.inf
    if not 2 <= q < math.inf:
        raise DomainError(f"q must be finite and >= 2, got {q}")
    return q


def _check_r(r: float) -> None:
    """DomainError unless the locality r is >= 1 and within float range."""
    if not 1 <= r <= _FLOAT_MAX:  # False for NaN
        raise DomainError(f"locality must be finite and >= 1, got {r}")


def _sqrt_q(q: float) -> int:
    """Integer square root of q; DomainError unless q is a perfect square.

    Above 2^53 a float is an integer but not always the one written (1e30
    holds 1000000000000000019884624838656), so the error names it.
    """
    if q != int(q):
        raise DomainError(f"q = {q} is not a perfect square")
    rt = isqrt(int(q))
    if rt * rt != int(q):
        held = f" (the float holds the integer {int(q)})" if q > 2**53 else ""
        raise DomainError(f"q = {q} is not a perfect square{held}")
    return rt


def entropy(q: float, x: float) -> float:
    """q-ary entropy x log_q(q-1) - x log_q(x) - (1-x) log_q(1-x).

    Defined on [0, 1 - 1/q] with the 0 log 0 = 0 convention; arguments
    within 1e-12 beyond an endpoint are clamped to it.
    """
    q = _check_q(q)
    hi = 1.0 - 1.0 / q
    if x < -_DOMAIN_SLACK or x > hi + _DOMAIN_SLACK:
        raise DomainError(f"x = {x} outside [0, {hi}]")
    x = min(max(x, 0.0), hi)
    lnq = log(q)
    out = x * log(q - 1.0) / lnq if x > 0.0 else 0.0
    if 0.0 < x:
        out -= x * log(x) / lnq
    if x < 1.0:
        out -= (1.0 - x) * log1p(-x) / lnq
    return out


def singleton_finite(n: int, k: int, r: int) -> int:
    """Largest minimum distance permitted: n - k - ceil(k/r) + 2."""
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 1 <= r <= k:
        raise DomainError(f"need 1 <= r <= k, got r={r}, k={k}")
    return n - k - (-(-k // r)) + 2


def _check_delta(q: float, delta: float, bound_id: str) -> float:
    if bound_id in _GV_RANGE_IDS:
        hi = 1.0 - 1.0 / q
        if not -_DOMAIN_SLACK <= delta <= hi + _DOMAIN_SLACK:
            raise DomainError(
                f"{bound_id} needs delta in [0, {hi}], got {delta}"
            )
        return min(max(delta, 0.0), hi)
    if not -_DOMAIN_SLACK <= delta <= 1.0 + _DOMAIN_SLACK:
        raise DomainError(f"delta = {delta} outside [0, 1]")
    return min(max(delta, 0.0), 1.0)


def closed_bound(bound_id: str, q: float, r: int, delta: float) -> float:
    """Evaluate one closed-form bound; values may be negative (callers clamp
    for display only)."""
    q = _check_q(q)
    _check_r(r)
    delta = _check_delta(q, delta, bound_id)
    frac = r / (r + 1.0)
    if bound_id == "rate_cap":
        return frac
    if bound_id == "singleton_asym":
        return frac * (1.0 - delta)
    if bound_id == "plotkin":
        return frac * (1.0 - q * delta / (q - 1.0))
    if bound_id == "naive_gv":
        return frac - entropy(q, delta)
    if bound_id in _SQUARE_IDS:
        rt = _sqrt_q(q)
        if bound_id == "main":
            return frac * (1.0 - delta - (rt + r - 1.0) / (q - rt))
        if bound_id == "naive_tvz":
            return frac - delta - 1.0 / (rt - 1.0)
        if bound_id == "btv1":
            if r != rt - 1:
                raise NotAdmissible(f"btv1 requires r = sqrt(q) - 1 = {rt - 1}")
            return frac * (1.0 - delta - 3.0 / (rt + 1.0))
        if bound_id == "btv2":
            if (rt + 1) % (r + 1) != 0:
                raise NotAdmissible(
                    f"btv2 requires (r+1) | (sqrt(q)+1) = {rt + 1}"
                )
            return frac * (1.0 - delta - (rt + r) / (q - 1.0))
    raise DomainError(f"unknown closed-form bound id {bound_id!r}")


# -- LP bound ----------------------------------------------------------------

def lp_inner(q: float, x: float) -> float:
    """f_q(x) = H_q((sqrt((q-1)(1-x)) - sqrt(x))^2 / q) for x in [0, 1]."""
    q = _check_q(q)
    if x < -_DOMAIN_SLACK or x > 1.0 + _DOMAIN_SLACK:
        raise DomainError(f"f_q argument {x} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    arg = (sqrt((q - 1.0) * (1.0 - x)) - sqrt(x)) ** 2 / q
    return entropy(q, arg)


_INVPHI = (sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - sqrt(5.0)) / 2.0


def _golden(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Golden-section minimum of f on [a, b] to interval width <= tol."""
    dist = b - a
    c = a + _INVPHI2 * dist
    d = a + _INVPHI * dist
    yc, yd = f(c), f(d)
    for _ in range(400):
        if dist <= tol:
            break
        if yc < yd:
            b, d, yd = d, c, yc
            dist *= _INVPHI
            c = a + _INVPHI2 * dist
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            dist *= _INVPHI
            d = a + _INVPHI * dist
            yd = f(d)
    best = min((yc, c), (yd, d), (f(a), a), (f(b), b))
    return best[1], best[0]


def lp_bound(q: float, r: int, delta: float) -> float:
    """Linear-programming upper bound: minimize over the puncturing fraction.

    tau ranges over [0, (1-delta)/(r+1)] so the f_q argument stays in [0, 1];
    dense 2^12 grid, then golden-section refinement to |dtau| <= 1e-12.
    """
    q = _check_q(q)
    _check_r(r)
    delta = _check_delta(q, delta, "lp")

    def objective(tau: float) -> float:
        rem = 1.0 - tau * (r + 1.0)
        if rem <= 0.0:
            return tau * r
        return tau * r + rem * lp_inner(q, min(delta / rem, 1.0))

    tau_max = (1.0 - delta) / (r + 1.0)
    if tau_max <= 0.0:
        return objective(0.0)
    n_grid = 1 << 12
    step = tau_max / n_grid
    best_i = min(range(n_grid + 1), key=lambda i: objective(i * step))
    lo = max(0.0, (best_i - 1) * step)
    hi = min(tau_max, (best_i + 1) * step)
    _, val = _golden(objective, lo, hi, 1e-12)
    return min(val, objective(0.0), objective(tau_max))


# -- GV bound ----------------------------------------------------------------

#: `lrctower._s0band`, the band code of the GV solve, once a solve loads it
_s0band = None


def _h(q: float, r: int, delta: float, s: float) -> float:
    """The GV inner function, via two-term log-sum-exp."""
    lnq = log(q)
    a = (r + 1.0) * log1p((q - 1.0) * s)
    b = -math.inf if s >= 1.0 else log(q - 1.0) + (r + 1.0) * log1p(-s)
    m = max(a, b)
    lse = m + log(math.exp(a - m) + math.exp(b - m))
    return lse / ((r + 1.0) * lnq) - delta * log(s) / lnq


def _gv_domain(q: float, r: int, delta: float) -> tuple[float, float]:
    q = _check_q(q)
    _check_r(r)
    # (r+1) ln q bounds every (r+1) log1p((q-1) s) that _h and the solve
    # take on (0, 1]; past float range those overflow
    if not (r + 1.0) * log(q) < math.inf:
        raise DomainError(
            f"gv needs (r + 1) ln q finite, got r = {r:g}, q = {q:g}")
    hi = 1.0 - 1.0 / q
    if not 0.0 < delta <= hi + _DOMAIN_SLACK:
        raise DomainError(f"gv needs delta in (0, {hi}], got {delta}")
    return q, hi if hi < delta else delta


def gv_bound(q: float, r: int, delta: float) -> float:
    """Locality-aware Gilbert-Varshamov rate bound 1 - min_{0<s<=1} h(s),
    taken as 1 - h(s0) at the minimizer s0 = find_s0(q, r, delta)."""
    q, delta = _gv_domain(q, r, delta)
    return 1.0 - _h(q, r, delta, _solve_s0(q, r, delta))


def gv_derivative_sign(q: float, r: int, delta: float, s: float) -> int:
    """Sign of h'(s) from the numerator in its cancelled two-term form

        (1+(q-1)s)^r [(1-delta)(q-1)s - delta]
            - (q-1)(1-s)^r [delta + (1-delta)s],

    which keeps the leading powers from swamping the sign near s = 1/(q-1)
    (at delta = 1/2 this is the usual derivative display, where the bracket
    vanishes at that point).  Both terms are compared in the log domain, by
    `_gv_sign`.  (q, r, delta) are checked and delta clamped as in
    `gv_bound`; s must lie in (0, 1].
    """
    q, delta = _gv_domain(q, r, delta)
    if not 0.0 < s <= 1.0:
        raise DomainError(f"s must be in (0, 1], got {s}")
    qm1, omd = q - 1.0, 1.0 - delta
    d = _gv_sign(r, delta, qm1, omd, omd * qm1, log(qm1), s)[0]
    if d > 0.0:
        return 1
    return -1 if d < 0.0 else 0


def _gv_sign(r, delta, qm1, omd, slope, log_qm1, s):
    """The sign test of h' at s in (0, 1], on the constants `_solve_s0`
    hoists: qm1 = q-1, omd = 1-delta, slope = omd*qm1, log_qm1 = log(qm1).

    Returns (d, A, t1, l2, t3, l4): h' has the sign of d, and
    A = slope*s - delta is the first bracket of the numerator.  Where A > 0
    and s < 1, d = (t1 + l2) - (log_qm1 + t3 + l4) is the log difference of
    the numerator's two terms, with t1 = r log1p(qm1 s), l2 = log(A),
    t3 = r log1p(-s) and l4 = log(delta + omd s).  Elsewhere the terms are
    None and d carries only the sign: d = A where A < 0 and at s = 1, where
    the second term vanishes; at A = 0 and s < 1, d = -inf, or 0 where
    t3 = -inf makes the second term vanish too.  Of those cases only A = 0
    takes a log, t3.
    """
    a = slope * s - delta
    if a < 0.0 or s >= 1.0:
        return a, a, None, None, None, None
    t3 = r * log1p(-s)
    if a == 0.0:
        return (-math.inf if t3 > -math.inf else 0.0), a, None, None, None, None
    t1 = r * log1p(qm1 * s)
    l2 = log(a)
    l4 = log(delta + omd * s)
    return (t1 + l2) - (log_qm1 + t3 + l4), a, t1, l2, t3, l4


def s0_window(q: float, r: int) -> tuple[float, float]:
    """The window (1/(q-1), 1/(q-1) + 2^-r) that holds s0 at delta = 1/2,
    its right end clipped to 1 since s0 lies in (0, 1].

    2^-r is taken as 0 from r = 1074 on, where it underflows.
    """
    _check_r(r)
    return _s0_window(_check_q(q), r)


def _s0_window(q: float, r: int) -> tuple[float, float]:
    left = 1.0 / (q - 1.0)
    return left, min(1.0, left + (2.0 ** (-r) if r < 1074 else 0.0))


def find_s0(q: float, r: int, delta: float) -> float:
    """The minimizer of h on (0, 1]: its unique critical point, found by
    bisection on the sign of h', or 1 when h' < 0 throughout.  Bit for bit
    the float that bisection on `gv_derivative_sign` returns; `_solve_s0`
    describes the solve.

    For delta = 1/2 the result is checked against the closed `s0_window`
    whenever that window is at least 4 ulps wide.  For a tiny delta the
    sign test is rounding noise over most of (0, 1], and the result is
    where that noise first reads h' <= 0: `find_s0(29343889, 1,
    6.336752280980096e-179)` is 5.7e-23, while h' = 0 near 1.47e-93.
    `gv_bound` there is unaffected (0.5).
    """
    q, delta = _gv_domain(q, r, delta)
    return _solve_s0(q, r, delta)


def _solve_s0(q: float, r: int, delta: float) -> float:
    """`find_s0` on (q, delta) as `_gv_domain` returns them.

    (q, r, delta) are checked once, by the caller: the probes at s = 1 and
    at each halving of the bracket's low end run the sign test, `_gv_sign`,
    on the constants `gv_derivative_sign` derives from them, so each reads
    the d that function reads.  The bisection then runs in three steps:

    1. estimate: `_s0band` places s* near the root by a Newton solve on
       v = log A, with s = (delta + e^v) / ((1-delta)(q-1));
    2. certify: at the two ends of a band around s*, the sign test's log
       difference must clear an explicit rounding-error bound with the
       right sign (`_s0band._side`); the band widens by 16x at most three
       times, else it is the whole bracket;
    3. replay: the bisection loop runs as before, on constants hoisted out
       of it, but a midpoint outside the band takes its side by comparison
       alone; one inside runs the sign test, `_gv_sign`.

    Why the replay returns the float that bisection on `gv_derivative_sign`
    returns.  Take qm1 = q-1, omd = 1-delta, slope = omd*qm1 and log(qm1)
    as the floats `_gv_sign` uses (phi below is exact arithmetic on them;
    a float product associates left, so (1-delta)(q-1)s = slope * s bit for
    bit), and A = slope*s - delta.  The test reads h' < 0 at s ("falling")
    when A < 0, when A = 0 unless r log1p(-s) overflows, and when A > 0 and
    LA < LB for the float sums LA = t1 + l2 and LB = log(qm1) + t3 + l4 of
    the terms t1 = r log1p(qm1 s), l2 = log A, t3 = r log1p(-s),
    l4 = log(delta + omd s).

    - phi = LA - LB is strictly increasing wherever A > 0: its derivative
      exceeds r qm1 / (1 + qm1 s) > 0, since
      slope / A > 1/s > omd / (delta + omd s).
    - The computed A is monotone in s (a rounded product, then a rounded
      difference), so A < 0 at s holds at every s below it.
    - With log and log1p within one ulp and no product in the subnormals,
      the computed LA - LB is within E of phi, where
      E = 6u (|t1| + |l2| + |t3| + |l4| + log(qm1) + 1) + 1.7u slope s / A
      over the five terms; the last part bounds the cancellation in log A
      (u = 2^-53, valid while u slope s / A <= 1/8).  Beyond a band end
      the same bound holds with each term T moved to T +- 6u|T| and slope to
      slope (1 +- u).  The two functions of s so obtained are increasing
      wherever r qm1 s >= 2^-41, because the r-terms then grow faster than
      the 12u/s these moves take from the log terms.  So E taken at a band
      end bounds the error everywhere beyond it.

    A band end b whose computed LA - LB exceeds 2E is therefore "not
    falling", and so is every s in (b, 1); an end a with LA - LB < -2E, or
    with A < 0, is "falling", and so is every s in [a/2, a).  No midpoint
    below a/2 is reached: a midpoint is at least hi/2, and hi only moves to
    midpoints that are not falling, so hi stays >= a.  Above the band an
    overflow of r log1p(...) can only raise LA or sink LB, the side the band
    gives.  `_s0band._side` makes the check, with slack for its own rounding.
    """
    qm1 = q - 1.0
    omd = 1.0 - delta
    slope = omd * qm1
    log_qm1 = log(qm1)
    hi = 1.0
    if _gv_sign(r, delta, qm1, omd, slope, log_qm1, hi)[0] < 0.0:
        # h decreasing on all of (0, 1]: minimum sits at the right endpoint
        return 1.0
    left, right = _s0_window(q, r)
    lo = left
    tries = 0
    while _gv_sign(r, delta, qm1, omd, slope, log_qm1, lo)[0] > 0.0:
        lo /= 2.0
        tries += 1
        if tries > 1100:
            raise ConvergenceFailure("could not bracket a sign change of h'")
    if not lo > 0.0:  # halved past the subnormals, where the sign test has no s
        raise DomainError(f"s must be in (0, 1], got {lo}")
    global _s0band
    if _s0band is None:  # compiled on the first solve, not on import
        from . import _s0band
    band_lo, band_hi = _s0band.band(q, r, delta, qm1, omd, slope, log_qm1,
                                    lo, hi)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid < band_lo:
            lo = mid
        elif mid > band_hi:
            hi = mid
        elif _gv_sign(r, delta, qm1, omd, slope, log_qm1, mid)[0] < 0.0:
            lo = mid
        else:
            hi = mid
    s0 = 0.5 * (lo + hi)
    # a closed test: bisection may round s0 onto an end of a narrow window
    resolvable = right - left >= 4.0 * math.ulp(left)
    if delta == 0.5 and resolvable and not left <= s0 <= right:
        raise InvariantViolation(f"s0 = {s0} outside [{left}, {right}]")
    return s0


# -- comparisons and sweeps ---------------------------------------------------

def evaluate(bound_id: str, q: float, r: int, delta: float) -> float:
    """Evaluate any bound id, dispatching to the closed forms, lp or gv."""
    if bound_id == "lp":
        return lp_bound(q, r, delta)
    if bound_id == "gv":
        return gv_bound(q, r, delta)
    if bound_id in BOUND_IDS:
        return closed_bound(bound_id, q, r, delta)
    raise DomainError(f"unknown bound id {bound_id!r}")


def _prime_power(q: int) -> tuple[int, int]:
    # the guard bounds the trial division; no GF(q) is built above it
    if SIZE_GUARD < q < math.inf:
        raise TooLarge(f"q = {q} exceeds the field-size guard {SIZE_GUARD}")
    n = int(_check_q(q))
    if n != q:
        raise DomainError(f"q = {q} is not an integer")
    p = 2
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        p = n
    w = 0
    while n % p == 0:
        n //= p
        w += 1
    if n != 1:
        raise DomainError(f"q = {q} is not a prime power")
    return p, w


def _unit_gcd(p: int, ell: int, v: int) -> int:
    """g(p, ell, v) = gcd(p^v - 1, ell - 1): (u, v) is admissible exactly
    when u divides it.  At v = 0 it is gcd(0, ell - 1) = ell - 1."""
    return gcd(p**v - 1, ell - 1)


def locality_params(p: int, w: int) -> list[tuple[int, int, int]]:
    """All (u, v, r) with u | g = `_unit_gcd`(p, ell, v), r = u p^v - 1 > 0,
    for q = p^w with w even and ell = p^(w/2): the automorphism subgroups
    of order r + 1 = u p^v that the tower constructions use; sorted by r.

    Every u divides p^v - 1 (or ell - 1), so it is prime to p and
    r + 1 = u p^v determines (u, v): no two triples share an r.  Integers
    only, so the `bounds lists` commands build no field.
    """
    ell, wp = p ** (w // 2), w // 2
    params = []
    for v in range(wp + 1):
        g = _unit_gcd(p, ell, v)
        params += [(u, v, u * p**v - 1) for u in range(1, g + 1)
                   if g % u == 0 and u * p**v > 1]
    return sorted(params, key=lambda t: t[2])


def admissible_localities(q: int) -> list[int]:
    """All admissible localities r = u p^v - 1 for the square prime power q."""
    p, w = _prime_power(q)
    if w % 2:
        raise DomainError(f"q = {q} is not a square")
    return [r for (_, _, r) in locality_params(p, w)]


def beats_gv_localities(q: int, delta: float, candidates) -> set[int]:
    """Candidates r whose construction bound strictly exceeds the GV bound.

    Strict comparison with tolerance: main > gv + 1e-9.  Every candidate
    must be admissible for q.
    """
    admissible = set(admissible_localities(q))
    bad = [r for r in candidates if r not in admissible]
    if bad:
        raise NotAdmissible(f"candidates {bad} are not admissible for q = {q}")
    out = set()
    for r in candidates:
        if closed_bound("main", q, r, delta) > gv_bound(q, r, delta) + BEATS_TOL:
            out.add(r)
    return out


def crossover_delta_naive(q: float, r: int) -> float:
    """delta above which the parity-augmentation bound drops below the
    construction bound: (r(r-1) - sqrt(q)) / (q - sqrt(q))."""
    q = _check_q(q)
    rt = _sqrt_q(q)
    _check_r(r)
    return (r * (r - 1.0) - rt) / (q - rt)


def sweep(ids, q: float, r: int, delta_grid) -> list[CurveRow]:
    """One CurveRow per (delta, id), delta-major; out-of-domain rows carry NaN.

    Structural errors (unknown id, inadmissible btv query) propagate, and so
    does a q or grid delta that is not finite, a q below 2, a q that is not
    a perfect square when a requested bound needs one, or a locality that
    `_check_r` rejects.
    """
    _check_q(q)
    _check_r(r)
    if not _SQUARE_IDS.isdisjoint(ids):
        _sqrt_q(_check_q(q))
    grid = list(delta_grid)
    if not all(map(math.isfinite, grid)) or any(
        b <= a for a, b in zip(grid, grid[1:])
    ):
        raise DomainError("delta grid must be finite and strictly increasing")
    for bound_id in ids:
        if bound_id not in BOUND_IDS:
            raise DomainError(f"unknown bound id {bound_id!r}")
    rows = []
    for delta in grid:
        for bound_id in ids:
            try:
                value = evaluate(bound_id, q, r, delta)
            except DomainError:
                value = math.nan
            rows.append(CurveRow(float(delta), bound_id, value))
    return rows


def rows_to_csv(rows) -> str:
    """CSV with header delta,bound_id,value; round-trip floats, LF endings."""
    lines = ["delta,bound_id,value"]
    for row in rows:
        lines.append(f"{row.delta!r},{row.bound_id},{row.value!r}")
    return "\n".join(lines) + "\n"
