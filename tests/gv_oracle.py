"""GV oracles shared by the bound and acceptance tests.

`gv_grid_oracle` is independent of the library: a dense log grid over s
with its own log-sum-exp, no reuse of the library's search code.
`reference_find_s0` is the library's earlier bisection, kept as the
bit-identity reference for `bounds.find_s0`.
"""

import math

import numpy as np

from lrctower import bounds
from lrctower.errors import ConvergenceFailure, InvariantViolation


def gv_grid_oracle(q, r, delta, points=10**6):
    glo = max(delta / (2.0 * (q - 1.0)), 1e-280)
    s = np.geomspace(glo, 1.0, points)
    lnq = math.log(q)
    a = (r + 1.0) * np.log1p((q - 1.0) * s)
    with np.errstate(divide="ignore"):
        b = math.log(q - 1.0) + (r + 1.0) * np.log1p(-np.minimum(s, 1.0))
    h = np.logaddexp(a, b) / ((r + 1.0) * lnq) - delta * np.log(s) / lnq
    return 1.0 - float(h.min()), s, h


def reference_find_s0(q, r, delta):
    """find_s0 as it was before its bisection wrote the sign test inline:
    every step calls `bounds.gv_derivative_sign`.  The library must return
    the same float, bit for bit, or raise the same exception type."""
    q, delta = bounds._gv_domain(q, r, delta)
    hi = 1.0
    if bounds.gv_derivative_sign(q, r, delta, hi) < 0:
        return 1.0
    left, right = bounds.s0_window(q, r)
    lo = left
    tries = 0
    while bounds.gv_derivative_sign(q, r, delta, lo) > 0:
        lo /= 2.0
        tries += 1
        if tries > 1100:
            raise ConvergenceFailure("could not bracket a sign change of h'")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if bounds.gv_derivative_sign(q, r, delta, mid) < 0:
            lo = mid
        else:
            hi = mid
    s0 = 0.5 * (lo + hi)
    resolvable = right - left >= 4.0 * math.ulp(left)
    if delta == 0.5 and resolvable and not left <= s0 <= right:
        raise InvariantViolation(f"s0 = {s0} outside [{left}, {right}]")
    return s0
