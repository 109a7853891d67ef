"""GV oracles shared by the bound and acceptance tests.

`gv_grid_oracle` is independent of the library: a dense log grid over s
with its own log-sum-exp, no reuse of the library's search code.
`frozen_gv_derivative_sign` is `bounds.gv_derivative_sign` as it was while
the sign test was still written out in full there, in the replay loop and
in the band certificate; it pins `bounds._gv_sign`, the one sign test that
replaced the three.  `reference_find_s0` is the library's earlier
bisection on that frozen sign test, kept as the bit-identity reference for
`bounds.find_s0`.  `gv_inputs` and `bench_like_gv_inputs` are the inputs
the GV tests draw, and the in-process GV timings too;
`adversarial_gv_inputs` aims at the solve's certified band.
"""

import math
import random

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


def frozen_gv_derivative_sign(q, r, delta, s):
    """Sign of h'(s) as `bounds.gv_derivative_sign` computed it, float
    operation for float operation, before the sign test became
    `bounds._gv_sign`; on (q, r, delta) as `bounds._gv_domain` returns them
    and s in (0, 1], which it does not check."""
    a_factor = (1.0 - delta) * (q - 1.0) * s - delta
    b_factor = delta + (1.0 - delta) * s
    log_b = (
        -math.inf
        if s >= 1.0
        else math.log(q - 1.0) + r * math.log1p(-s) + math.log(b_factor)
    )
    if a_factor <= 0.0:
        return -1 if log_b > -math.inf or a_factor < 0.0 else 0
    log_a = r * math.log1p((q - 1.0) * s) + math.log(a_factor)
    if log_a > log_b:
        return 1
    if log_a < log_b:
        return -1
    return 0


def reference_find_s0(q, r, delta):
    """find_s0 as it was before its bisection certified a band: every step
    calls the frozen sign test.  The library must return the same float,
    bit for bit, or raise the same exception type."""
    q, delta = bounds._gv_domain(q, r, delta)
    hi = 1.0
    if frozen_gv_derivative_sign(q, r, delta, hi) < 0:
        return 1.0
    left, right = bounds.s0_window(q, r)
    lo = left
    tries = 0
    while frozen_gv_derivative_sign(q, r, delta, lo) > 0:
        lo /= 2.0
        tries += 1
        if tries > 1100:
            raise ConvergenceFailure("could not bracket a sign change of h'")
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if frozen_gv_derivative_sign(q, r, delta, mid) < 0:
            lo = mid
        else:
            hi = mid
    s0 = 0.5 * (lo + hi)
    resolvable = right - left >= 4.0 * math.ulp(left)
    if delta == 0.5 and resolvable and not left <= s0 <= right:
        raise InvariantViolation(f"s0 = {s0} outside [{left}, {right}]")
    return s0


_PRIMES = [p for p in range(2, 10_000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
#: prime powers up to 2^64 and some large primes, square and not
_SQUARE_QS = sorted(
    {4**k for k in range(1, 33)}
    | {b ** (2 * k) for b in (3, 5, 7) for k in range(1, 40) if b ** (2 * k) < 2**53}
    | {p * p for p in _PRIMES[4:]}
)
_NON_SQUARE_QS = sorted(
    {2 ** (2 * k + 1) for k in range(32)}
    | {b ** (2 * k + 1) for b in (3, 5, 7) for k in range(40) if b ** (2 * k + 1) < 2**53}
    | set(_PRIMES[3:]) | {2**31 - 1, 2**61 - 1}
)
REFERENCE_QS = (2**8, 2**10, 2**12, 3**6, 3**8, 5**4, 5**6, 5**8)


def bench_like_gv_inputs(count=20_000):
    """(q, r, delta) drawn as the gv and s0 requests of the bounds-query
    benchmark draw them."""
    rng = random.Random(16)
    for _ in range(count):
        q = rng.choice(_SQUARE_QS if rng.random() < 0.5 else _NON_SQUARE_QS)
        yield q, int(10 ** rng.uniform(0, 5)), rng.uniform(0.02, 0.98) * (1 - 1 / q)


def gv_inputs():
    """The benchmark-like inputs, then the edge cases."""
    yield from bench_like_gv_inputs()
    for q in REFERENCE_QS:
        for r in bounds.admissible_localities(q):
            yield q, r, 0.5
    for q in (2, 3, 4, 5, 9, 16, 729, 2**31 - 1, 2**61 - 1, 2**64):
        hi = 1 - 1 / q
        for r in (1, 2, 32, 1073, 1074, 1075, 10**5, 10**300):
            for delta in (hi, hi + 5e-13, hi + 1e-12, hi + 2e-12,
                          1e-6, 1e-9, 1e-300, 5e-324, 0.5):
                yield q, r, delta
    # r * log1p(-mid) overflows to -inf at a midpoint where (1-delta)(q-1)mid
    # - delta is exactly 0: there h' reads 0, not < 0, so hi moves
    yield 2, 10**308, 0.47540983606557374


def adversarial_gv_inputs():
    """(q, r, delta) aimed at the certified band of `bounds.find_s0`: q from
    2 to 2^64, localities around the float-exponent edges (2^-r underflows
    from r = 1075) and far beyond, delta log-uniform from 5e-324 up to
    1 - 1/q and a little past it (the clamp slack); then, for the large
    localities, delta uniform across the range, where s0 sits within a few
    ulps of delta / ((1-delta)(q-1))."""
    rng = random.Random(18)
    qs = [2, 3, 4, 2**64] + _SQUARE_QS + _NON_SQUARE_QS
    for r in (1, 2, 1073, 1074, 1075, 10**5, 10**300):
        for _ in range(120):
            q = rng.choice(qs)
            hi = 1 - 1 / q
            if rng.random() < 0.05:
                yield q, r, hi + rng.uniform(0.0, 1e-12)
            else:
                yield q, r, math.exp(rng.uniform(math.log(5e-324), math.log(hi)))
        if r > 1000:
            for _ in range(60):
                q = rng.choice(qs)
                yield q, r, rng.uniform(0.02, 0.98) * (1 - 1 / q)
