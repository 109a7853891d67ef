import inspect
import itertools
import math
import random
import time

import numpy as np
import pytest

from lrctower import _s0band, bounds
from lrctower.errors import (
    ConvergenceFailure,
    DomainError,
    InvariantViolation,
    LrcError,
    NotAdmissible,
    TooLarge,
)

from gv_oracle import (
    adversarial_gv_inputs,
    bench_like_gv_inputs,
    frozen_gv_derivative_sign,
    gv_grid_oracle,
    reference_find_s0,
)
from gv_oracle import gv_inputs as _gv_inputs

# ---------------------------------------------------------------------------
# independent oracles: dense grids with their own log-sum-exp, no reuse of
# the library's search code
# ---------------------------------------------------------------------------


def gv_zoomed_oracle(q, r, delta):
    """Two-stage pure-grid minimum, fine enough for 1e-10 value agreement."""
    _, s, h = gv_grid_oracle(q, r, delta, points=200_000)
    i = int(np.argmin(h))
    lo, hi = s[max(0, i - 2)], s[min(len(s) - 1, i + 2)]
    s2 = np.linspace(lo, hi, 200_000)
    lnq = math.log(q)
    a = (r + 1.0) * np.log1p((q - 1.0) * s2)
    with np.errstate(divide="ignore"):
        b = math.log(q - 1.0) + (r + 1.0) * np.log1p(-np.minimum(s2, 1.0))
    h2 = np.logaddexp(a, b) / ((r + 1.0) * lnq) - delta * np.log(s2) / lnq
    return 1.0 - float(h2.min())


def lp_grid_oracle(q, r, delta, points=10**6):
    tau_max = (1.0 - delta) / (r + 1.0)
    tau = np.linspace(0.0, tau_max, points)
    rem = 1.0 - tau * (r + 1.0)
    x = np.where(rem > 0, np.minimum(delta / np.where(rem > 0, rem, 1.0), 1.0), 0.0)
    inner = (np.sqrt((q - 1.0) * (1.0 - x)) - np.sqrt(x)) ** 2 / q
    lnq = math.log(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        hq = (
            inner * math.log(q - 1.0) / lnq
            - np.where(inner > 0, inner * np.log(np.maximum(inner, 1e-320)), 0.0) / lnq
            - np.where(inner < 1, (1 - inner) * np.log1p(-np.minimum(inner, 1.0)), 0.0) / lnq
        )
    vals = tau * r + np.where(rem > 0, rem * hq, 0.0)
    return float(vals.min())


# -- entropy ------------------------------------------------------------------

def test_entropy_binary_maximum():
    assert bounds.entropy(2, 0.5) == 1.0


@pytest.mark.parametrize("q", [2, 3, 4, 9, 64, 256])
def test_entropy_at_zero(q):
    assert bounds.entropy(q, 0.0) == 0.0


@pytest.mark.parametrize("q", [4, 9, 256])
def test_entropy_gv_corner(q):
    assert bounds.entropy(q, 1 - 1 / q) == pytest.approx(1.0, abs=1e-12)


def test_entropy_domain():
    with pytest.raises(DomainError):
        bounds.entropy(4, 0.8)
    with pytest.raises(DomainError):
        bounds.entropy(4, -0.1)


# -- finite Singleton ----------------------------------------------------------

def test_singleton_finite_examples():
    assert bounds.singleton_finite(12, 4, 2) == 8
    for n, k in [(10, 4), (31, 11), (6, 6)]:
        assert bounds.singleton_finite(n, k, k) == n - k + 1
        assert bounds.singleton_finite(n, k, 1) == n - 2 * k + 2


def test_singleton_finite_domain():
    with pytest.raises(DomainError):
        bounds.singleton_finite(4, 5, 2)
    with pytest.raises(DomainError):
        bounds.singleton_finite(6, 4, 5)


# -- closed forms ----------------------------------------------------------------

def test_main_example_value():
    assert bounds.closed_bound("main", 256, 2, 0.5) == pytest.approx(103 / 360, abs=1e-15)


def test_btv1_example_value():
    assert bounds.closed_bound("btv1", 256, 15, 0.5) == pytest.approx(165 / 544, abs=1e-15)


def test_naive_tvz_example_value():
    assert bounds.closed_bound("naive_tvz", 256, 3, 0.5) == pytest.approx(11 / 60, abs=1e-15)


def test_singleton_asym_zero_rate_endpoint():
    for q in (4, 9, 256):
        assert bounds.closed_bound("singleton_asym", q, 3, 1.0) == 0.0


def test_btv_admissibility():
    with pytest.raises(NotAdmissible):
        bounds.closed_bound("btv1", 256, 3, 0.5)
    assert bounds.closed_bound("btv2", 256, 16, 0.5) < 1  # 17 | 17
    with pytest.raises(NotAdmissible):
        bounds.closed_bound("btv2", 256, 2, 0.5)


def test_square_requirement():
    with pytest.raises(DomainError):
        bounds.closed_bound("main", 5, 2, 0.5)


# -- LP bound ---------------------------------------------------------------------

def test_lp_bounded_by_endpoint():
    for (q, r, d) in [(4, 2, 0.3), (9, 3, 0.5), (64, 2, 0.7), (16, 5, 0.2)]:
        assert bounds.lp_bound(q, r, d) <= bounds.lp_inner(q, d) + 1e-12


def test_lp_against_dense_grid_oracle():
    for (q, r, d) in [(4, 2, 0.0), (4, 2, 0.4), (9, 2, 0.5), (16, 3, 0.25)]:
        assert bounds.lp_bound(q, r, d) == pytest.approx(
            lp_grid_oracle(q, r, d), abs=1e-8
        )


def test_lp_at_gv_corner():
    q, r = 4, 2
    d = 1 - 1 / q
    assert bounds.lp_bound(q, r, d) == pytest.approx(lp_grid_oracle(q, r, d), abs=1e-8)


# -- GV bound ---------------------------------------------------------------------

def test_gv_small_delta_limit():
    for (q, r) in [(4, 1), (9, 2), (256, 3)]:
        assert bounds.gv_bound(q, r, 1e-12) == pytest.approx(r / (r + 1), abs=1e-9)


def test_gv_h_at_one_is_one():
    # h(1) = log_q(q^{r+1})/(r+1) - delta log_q(1) = 1, so gv >= 0
    for (q, r) in [(4, 1), (9, 2), (64, 5), (2**16, 32)]:
        assert bounds._h(q, r, 0.5, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert bounds._h(q, r, 0.3, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert bounds.gv_bound(q, r, 0.5) >= 0.0


def test_gv_below_main_in_the_listed_region():
    assert bounds.gv_bound(729, 2, 0.5) < bounds.closed_bound("main", 729, 2, 0.5)


def test_gv_beats_main_for_small_localities():
    # main is worse than GV at (r=3, q=64) and (r=2, q=81)
    for (q, r) in [(64, 3), (81, 2)]:
        assert (
            bounds.closed_bound("main", q, r, 0.5) <= bounds.gv_bound(q, r, 0.5) + 1e-9
        )


def test_gv_matches_grid_oracle_spot_checks():
    rng = random.Random(2024)
    for _ in range(12):
        j = rng.randint(2, 64)
        q = float(j * j)
        r = rng.randint(1, 32)
        d = rng.uniform(0.05, min(0.9, 1 - 1 / q))
        oracle = gv_grid_oracle(q, r, d)[0]
        assert bounds.gv_bound(q, r, d) == pytest.approx(oracle, abs=1e-9)


def test_gv_huge_q_no_overflow():
    v = bounds.gv_bound(2.0**64, 128, 0.5)
    assert 0.0 < v < 1.0
    v2 = bounds.gv_bound(2.0**40, 2**20, 0.25)
    assert 0.0 < v2 < 1.0


def test_gv_monotone_in_delta():
    rng = random.Random(5)
    for _ in range(20):
        j = rng.randint(2, 40)
        q = float(j * j)
        r = rng.randint(1, 24)
        grid = np.linspace(1e-6, 1 - 1 / q, 100)
        vals = [bounds.gv_bound(q, r, d) for d in grid]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_gv_domain_errors():
    with pytest.raises(DomainError):
        bounds.gv_bound(9, 2, 0.0)
    with pytest.raises(DomainError):
        bounds.gv_bound(9, 2, 0.95)


# -- the critical point -------------------------------------------------------------

def test_derivative_sign_pattern():
    # r capped so the (1/(q-1), 1/(q-1)+2^-r) window stays wide in doubles
    rng = random.Random(11)
    for _ in range(25):
        j = rng.randint(2, 100)
        q = float(j * j)
        r = rng.randint(1, 48)
        assert bounds.gv_derivative_sign(q, r, 0.5, 1.0 / (q - 1.0)) < 0
        assert bounds.gv_derivative_sign(q, r, 0.5, 1.0) > 0


def test_find_s0_window_for_half():
    for (q, r) in [(4, 1), (9, 2), (256, 2), (2**16, 32)]:
        s0 = bounds.find_s0(q, r, 0.5)
        lo = 1.0 / (q - 1.0)
        assert lo < s0 < lo + 2.0 ** (-r)


def test_find_s0_half_for_every_reference_locality():
    # find_s0 raises InvariantViolation when s0 leaves a resolvable window; at
    # q = 4096 and 15625 that window is a few ulps wide and bisection can
    # land on its right end
    for q in (2**8, 2**10, 2**12, 3**6, 3**8, 5**4, 5**6, 5**8):
        for r in bounds.admissible_localities(q):
            assert 0.0 < bounds.find_s0(q, r, 0.5) <= 1.0


def test_find_s0_value_matches_zoomed_grid():
    for (q, r, d) in [(9, 2, 0.5), (64, 3, 0.5), (729, 2, 0.5), (81, 2, 0.4)]:
        s0 = bounds.find_s0(q, r, d)
        via_s0 = 1.0 - bounds._h(q, r, d, s0)
        assert via_s0 == pytest.approx(gv_zoomed_oracle(q, r, d), abs=1e-10)


def test_find_s0_boundary_delta():
    q = 16.0
    s0 = bounds.find_s0(q, 2, 1 - 1 / q)
    assert s0 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("q,r,delta,s", [
    (256, 2, 0.5, math.nan), (256, 2, 0.5, math.inf), (256, 2, 0.5, -math.inf),
    (256, 2, 0.5, 0.0), (256, 2, 0.5, 1.5),
    (256, 0, 0.5, 0.5), (256, -1, 0.5, 0.5), (1, 2, 0.5, 0.5), (math.nan, 2, 0.5, 0.5),
    (256, 2, math.nan, 0.5), (256, 2, 0.0, 0.5), (256, 2, 1 - 1 / 256 + 2e-12, 0.5),
])
def test_derivative_sign_domain(q, r, delta, s):
    with pytest.raises(DomainError):
        bounds.gv_derivative_sign(q, r, delta, s)


def test_derivative_sign_clamps_delta_like_find_s0():
    # at q = 256, delta = 1 - 1/q, the bracket (1-delta)(q-1) - delta at s = 1
    # is exactly 0; unclamped, 1e-12 more delta would make it negative
    hi = 1 - 1 / 256
    assert bounds.gv_derivative_sign(256, 2, hi, 1.0) == 0
    assert bounds.gv_derivative_sign(256, 2, hi + 5e-13, 1.0) == 0


# -- the GV solve against its earlier bisection ---------------------------------------

def _outcome(solve, *args):
    try:
        return solve(*args)
    except (DomainError, ConvergenceFailure, InvariantViolation) as exc:
        return type(exc)


def test_gv_solve_is_bit_identical_to_the_reference_bisection():
    ones = 0
    for q, r, delta in _gv_inputs():
        want = _outcome(reference_find_s0, q, r, delta)
        assert _outcome(bounds.find_s0, q, r, delta) == want, (q, r, delta)
        if isinstance(want, float):
            qf, clamped = bounds._gv_domain(q, r, delta)
            value = 1.0 - bounds._h(qf, r, clamped, want)
            ones += bounds.gv_derivative_sign(q, r, delta, 1.0) < 0
        else:
            value = want
        assert _outcome(bounds.gv_bound, q, r, delta) == value, (q, r, delta)
    assert ones  # the h' < 0 branch, which returns s0 = 1


@pytest.fixture
def sign_probes(monkeypatch):
    """A function that runs one GV solve and returns the s of every sign
    test (`bounds._gv_sign`) the solve makes before it enters the band
    (`_s0band.band`), in order; it asserts that the solve never calls the
    public `gv_derivative_sign`."""
    probes, public = [], []
    sign, band, derivative_sign = bounds._gv_sign, _s0band.band, bounds.gv_derivative_sign

    def probe(r, delta, qm1, omd, slope, log_qm1, s):
        probes.append(s)
        return sign(r, delta, qm1, omd, slope, log_qm1, s)

    def enter_band(*args):
        monkeypatch.setattr(bounds, "_gv_sign", sign)  # the band and the replay go unrecorded
        return band(*args)

    def counting(q, r, delta, s):
        public.append(s)
        return derivative_sign(q, r, delta, s)

    def run(solve, q, r, delta):
        probes.clear()
        monkeypatch.setattr(bounds, "_gv_sign", probe)
        solve(q, r, delta)
        assert public == [], (q, r, delta)
        return list(probes)

    monkeypatch.setattr(_s0band, "band", enter_band)
    monkeypatch.setattr(bounds, "gv_derivative_sign", counting)
    return run


@pytest.mark.parametrize("q,r,delta", [
    (65536, 32, 0.5), (729, 2, 0.5), (256, 2, 0.5), (2**64, 10**5, 0.9), (9, 2, 0.6),
])
@pytest.mark.parametrize("solve", [bounds.find_s0, bounds.gv_bound])
def test_gv_solve_calls_the_sign_at_most_twice(sign_probes, solve, q, r, delta):
    assert len(sign_probes(solve, q, r, delta)) <= 2


def test_gv_solve_probes_the_sign_only_at_one_and_the_bracket_end(sign_probes):
    # below delta = 1/2 the bracket may halve its low end, one probe per
    # halving; no bisection midpoint is probed
    for q, r, delta in itertools.islice(_gv_inputs(), 500):
        probes = sign_probes(bounds.find_s0, q, r, delta)
        want, lo = [1.0], bounds.s0_window(q, r)[0]
        while len(want) < len(probes):
            want.append(lo)
            lo /= 2.0
        assert probes == want, (q, r, delta)


def test_a_bracket_halved_past_the_subnormals_is_a_domain_error():
    # (r + 1) ln q is finite, but h' > 0 down to the least subnormal s, so
    # the low end halves to 0.0, where the sign test has no s; the probe
    # of the earlier bisection raised this error there
    for q, r, delta in [(1e20, 1e306, 1e-305), (1e30, 1e305, 1e-320)]:
        for solve in (bounds.find_s0, bounds.gv_bound):
            with pytest.raises(DomainError, match=r"^s must be in \(0, 1\], got 0\.0$"):
                solve(q, r, delta)


def test_gv_solve_is_bit_identical_on_the_adversarial_corpus():
    near_base = 0
    for q, r, delta in adversarial_gv_inputs():
        want = reference_find_s0(q, r, delta)
        assert bounds.find_s0(q, r, delta) == want, (q, r, delta)
        qf, clamped = bounds._gv_domain(q, r, delta)
        value = 1.0 - bounds._h(qf, r, clamped, want)
        assert bounds.gv_bound(q, r, delta) == value, (q, r, delta)
        if clamped < 1.0:  # 1 - 1/q rounds to 1 at q = 2^64
            base = clamped / ((1.0 - clamped) * (qf - 1.0))
            near_base += abs(want - base) <= 4.0 * math.ulp(base)
    assert near_base >= 300  # s0 within 4 ulps of the point where h' = 0 at r = oo


def test_gv_solve_without_a_certified_band_tests_every_midpoint(monkeypatch):
    # r = 10^300: the rounding error of r log1p(...) outweighs the sign test's
    # growth across every band tried; delta = 5e-324: s0 lies far below where
    # the certificate holds.  The band is then the whole bracket.
    bands = []
    inner = _s0band.band

    def recording(*args):
        bands.append((inner(*args), args[-2:]))
        return bands[-1][0]

    monkeypatch.setattr(_s0band, "band", recording)
    for q, r, delta in [(2**31 - 1, 10**300, 0.5), (2**61 - 1, 10**300, 1e-9),
                        (9, 10**300, 5e-324)]:
        bands.clear()
        assert bounds.find_s0(q, r, delta) == reference_find_s0(q, r, delta)
        [(band, bracket)] = bands
        assert band == bracket, (q, r, delta)


def test_gv_solve_certifies_a_band_for_a_root_near_one(monkeypatch):
    # the Newton start of the estimate lay at s = 1 here, where log1p(-s)
    # raised, so the band was the whole bracket; s0 = 0.687
    bands = []
    inner = _s0band.band

    def recording(*args):
        bands.append((inner(*args), args[-2:]))
        return bands[-1][0]

    monkeypatch.setattr(_s0band, "band", recording)
    for q, r, delta in [(5, 1, 0.653606441224732), (5, 1, 0.75), (3, 1, 0.6), (2, 1, 0.45)]:
        bands.clear()
        assert bounds.find_s0(q, r, delta) == reference_find_s0(q, r, delta)
        [((band_lo, band_hi), (lo, hi))] = bands
        assert lo < band_lo < band_hi < hi, (q, r, delta)


def test_gv_solve_log1p_calls_stay_few(monkeypatch):
    # the median was 107 while every bisection midpoint ran the sign test,
    # and 19 with the certified band
    calls = []
    inner = bounds.log1p

    def counting(x):
        calls.append(x)
        return inner(x)

    monkeypatch.setattr(bounds, "log1p", counting)
    monkeypatch.setattr(_s0band, "log1p", counting)
    per_solve = []
    for q, r, delta in bench_like_gv_inputs(2000):
        calls.clear()
        bounds.find_s0(q, r, delta)
        per_solve.append(len(calls))
    assert sorted(per_solve)[len(per_solve) // 2] <= 19


# -- the one sign test against its frozen copy ----------------------------------------

def _hoisted(q, r, delta):
    """(q, delta) as `_gv_domain` returns them, and the arguments of
    `_gv_sign` and `_s0band._side` but s, as `_solve_s0` hoists them."""
    q, delta = bounds._gv_domain(q, r, delta)
    qm1, omd = q - 1.0, 1.0 - delta
    return q, delta, (r, delta, qm1, omd, omd * qm1, math.log(qm1))


def test_gv_sign_kernel_matches_the_frozen_sign_test():
    # at the points every solve reads: s = 1, the bracket's low end and its
    # halvings, s0 and its neighbouring floats, and both band ends
    points_read = 0
    for q, r, delta in itertools.chain(_gv_inputs(), adversarial_gv_inputs()):
        try:
            qf, clamped, hoisted = _hoisted(q, r, delta)
        except DomainError:
            continue

        def reads(s):
            d = bounds._gv_sign(*hoisted, s)[0]
            want = frozen_gv_derivative_sign(qf, r, clamped, s)
            assert (1 if d > 0.0 else -1 if d < 0.0 else 0) == want, (q, r, delta, s)
            return want

        at_one = reads(1.0)
        assert bounds.gv_derivative_sign(q, r, delta, 1.0) == at_one, (q, r, delta)
        lo, halvings = bounds.s0_window(qf, r)[0], 0
        while reads(lo) > 0 and halvings <= 1100:
            lo /= 2.0
            halvings += 1
        points = []
        try:
            s0 = bounds.find_s0(q, r, delta)
            points += [s0, math.nextafter(s0, 0.0), min(math.nextafter(s0, 2.0), 1.0)]
        except (ConvergenceFailure, InvariantViolation):
            pass
        if at_one >= 0:
            points += _s0band.band(qf, *hoisted, lo, 1.0)
        for s in points:
            reads(s)
        points_read += 2 + halvings + len(points)
    assert points_read > 200_000


def test_gv_band_certificate_agrees_with_the_frozen_sign_test():
    # _side(s) = -1 claims "falling" on [s/2, s], +1 "not falling" on [s, 1)
    rng = random.Random(22)
    inputs = itertools.chain(itertools.islice(_gv_inputs(), 0, None, 20),
                             adversarial_gv_inputs())
    certified = {-1: 0, 1: 0}
    for q, r, delta in inputs:
        try:
            qf, clamped, hoisted = _hoisted(q, r, delta)
            s0 = bounds.find_s0(q, r, delta)
        except (DomainError, ConvergenceFailure, InvariantViolation):
            continue
        for k in (-1, -4, -16, -40, 50, 30, 8, 1):
            s = s0 * (1.0 + math.copysign(2.0 ** -abs(k), k))
            if not 0.0 < s < 1.0:
                continue
            side = _s0band._side(*hoisted, s)
            if side < 0:
                samples = [s, s / 2.0, math.nextafter(s, 0.0), rng.uniform(s / 2.0, s)]
            elif side > 0:
                samples = [s, math.nextafter(s, 1.0), math.nextafter(1.0, 0.0),
                           rng.uniform(s, 1.0)]
            else:
                continue
            certified[side] += 1
            for t in samples:
                falling = frozen_gv_derivative_sign(qf, r, clamped, t) == -1
                assert falling == (side < 0), (q, r, delta, s, side, t)
    assert min(certified.values()) > 1000, certified


# -- comparisons ----------------------------------------------------------------------

def test_beats_gv_reproducible_lists():
    # the four configurations where the inequality itself carves the set
    expected = {
        2**8: {1, 2},
        2**10: {1, 3, 7, 15, 30, 31},
        3**6: {1, 2, 5, 8, 12, 17, 25, 26},
        5**4: {1, 2, 3, 4, 5, 7, 9, 11, 19, 23, 24},
    }
    for q, want in expected.items():
        got = bounds.beats_gv_localities(q, 0.5, bounds.admissible_localities(q))
        assert got == want


def test_beats_gv_supersets():
    # the remaining published sets are strict subsets of what the inequality
    # admits: every published r passes, and known extras pass too
    published = {
        2**12: {1, 2, 3, 6, 7, 8, 11, 15, 20, 31, 47, 55, 62, 63},
        3**8: {1, 2, 3, 4, 5, 7, 8, 9, 15, 17, 19, 26, 35, 39, 53, 71, 79, 80},
        5**6: {1, 3, 4, 9, 19, 24, 30, 49, 61},
        5**8: {1, 2, 3, 4, 5, 7, 9, 11, 12, 15, 19, 23, 24, 25, 38, 47, 49, 51},
    }
    extras = {2**12: {191}, 3**8: {161, 323, 404}, 5**6: {99, 124}, 5**8: {74, 77}}
    for q, want in published.items():
        got = bounds.beats_gv_localities(q, 0.5, bounds.admissible_localities(q))
        assert got >= want
        assert extras[q] <= got


def test_beats_gv_rejects_inadmissible_candidates():
    with pytest.raises(NotAdmissible):
        bounds.beats_gv_localities(256, 0.5, [1, 2, 5])


# -- crossover --------------------------------------------------------------------------

def test_crossover_example_values():
    assert bounds.crossover_delta_naive(256, 4) == pytest.approx(-1 / 60, abs=1e-15)
    assert bounds.crossover_delta_naive(256, 17) > 1 - 1 / 256


def test_crossover_sign_identity():
    rng = random.Random(31337)
    for _ in range(100):
        j = rng.randint(2, 100)
        q = float(j * j)
        r = rng.randint(1, 3 * j)
        d = rng.uniform(0.0, 0.99)
        cross = bounds.crossover_delta_naive(q, r)
        naive = bounds.closed_bound("naive_tvz", q, r, d)
        main = bounds.closed_bound("main", q, r, d)
        if abs(naive - main) < 1e-12:
            continue
        assert (naive > main) == (d < cross)


def test_naive_tvz_beats_btv1_on_square_grid():
    for j in range(7, 101):
        q = float(j * j)
        r = j - 1
        for d in (0.0, 0.25, 0.5, 1 - 1 / q):
            naive = bounds.closed_bound("naive_tvz", q, r, d)
            btv1 = bounds.closed_bound("btv1", q, r, d)
            assert naive >= btv1 - 1e-12


# -- ordering chain -------------------------------------------------------------------

def test_bound_ordering_chain():
    rng = random.Random(424242)
    for _ in range(250):
        j = rng.randint(2, 64)
        q = float(j * j)
        r = rng.randint(1, 48)
        d = rng.uniform(1e-3, (1 - 1 / q) * 0.999)
        gv = bounds.gv_bound(q, r, d)
        assert gv <= bounds.closed_bound("rate_cap", q, r, d) + 1e-9
        assert (
            bounds.closed_bound("plotkin", q, r, d)
            <= bounds.closed_bound("singleton_asym", q, r, d) + 1e-12
        )
        assert (
            bounds.closed_bound("main", q, r, d)
            <= bounds.closed_bound("singleton_asym", q, r, d) + 1e-12
        )
        assert bounds.closed_bound("naive_gv", q, r, d) <= gv + 1e-9


# -- sweeps -----------------------------------------------------------------------------

def test_sweep_shape_and_order():
    grid = [i / 100 for i in range(0, 67)]
    rows = bounds.sweep(["main", "gv"], 729, 2, grid)
    assert len(rows) == 2 * len(grid)
    deltas = [row.delta for row in rows]
    assert deltas == sorted(deltas)
    at_half = {row.bound_id: row.value for row in rows if row.delta == 0.5}
    assert at_half["main"] > at_half["gv"]


def test_sweep_singleton_endpoint():
    rows = bounds.sweep(["singleton_asym"], 729, 2, [0.5, 1.0])
    assert rows[-1].value == 0.0


def test_sweep_out_of_domain_marker():
    rows = bounds.sweep(["plotkin"], 4, 2, [0.5, 0.9])
    assert not math.isnan(rows[0].value)
    assert math.isnan(rows[1].value)  # 0.9 > 1 - 1/4


def test_sweep_requires_increasing_grid():
    with pytest.raises(DomainError):
        bounds.sweep(["main"], 729, 2, [0.5, 0.4])


@pytest.mark.parametrize("ids", [["main"], ["btv1"], ["btv2"], ["naive_tvz"], ["gv", "main"]])
@pytest.mark.parametrize("q", [10, 16.5])
def test_sweep_with_a_square_only_bound_rejects_a_non_square_q(ids, q):
    # one error for the whole sweep, not a column of nan
    with pytest.raises(DomainError, match="is not a perfect square"):
        bounds.sweep(ids, q, 2, [0.1, 0.3])
    assert not any(math.isnan(row.value) for row in bounds.sweep(["gv"], q, 2, [0.1, 0.3]))


def test_sweep_gv_at_zero_marker():
    rows = bounds.sweep(["gv"], 9, 2, [0.0, 0.5])
    assert math.isnan(rows[0].value)  # gv needs delta > 0
    assert rows[1].value > 0


def test_csv_round_trip():
    rows = bounds.sweep(["main", "gv"], 729, 2, [0.1, 0.5])
    text = bounds.rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "delta,bound_id,value"
    assert len(lines) == 5
    for line, row in zip(lines[1:], rows):
        d, b, v = line.split(",")
        assert float(d) == row.delta and b == row.bound_id
        assert float(v) == row.value  # exact round trip


@pytest.mark.parametrize("bound_id", ["gv", "lp", "main", "plotkin"])
@pytest.mark.parametrize("q,delta", [
    (math.nan, 0.5), (math.inf, 0.5), (float("1e400"), 0.5),
    (256, math.nan), (256, math.inf), (256, -math.inf),
])
def test_non_finite_q_and_delta_are_domain_errors(bound_id, q, delta):
    with pytest.raises(DomainError):
        bounds.evaluate(bound_id, q, 2, delta)
    with pytest.raises(DomainError):
        bounds.sweep([bound_id], q, 2, [0.1, delta])


@pytest.mark.parametrize("call", [
    pytest.param(lambda r: bounds.gv_bound(3, r, 0.6), id="gv_bound"),
    pytest.param(lambda r: bounds.find_s0(3, r, 0.6), id="find_s0"),
    pytest.param(lambda r: bounds.gv_derivative_sign(3, r, 0.6, 0.5), id="gv_derivative_sign"),
    pytest.param(lambda r: bounds.closed_bound("main", 256, r, 0.3), id="closed_bound"),
    pytest.param(lambda r: bounds.lp_bound(256, r, 0.3), id="lp_bound"),
    pytest.param(lambda r: bounds.crossover_delta_naive(256, r), id="crossover_delta_naive"),
    pytest.param(lambda r: bounds.sweep(["main"], 729, r, [0.1, 0.2]), id="sweep"),
])
def test_bad_locality_is_a_domain_error(call):
    for r in (0, -1, 0.5, math.nan, math.inf, -math.inf, 10**400):
        with pytest.raises(DomainError, match="locality must be finite and >= 1"):
            call(r)


@pytest.mark.parametrize("call", [
    pytest.param(lambda q, r: bounds.gv_bound(q, r, 0.6), id="gv_bound"),
    pytest.param(lambda q, r: bounds.find_s0(q, r, 0.6), id="find_s0"),
    pytest.param(lambda q, r: bounds.gv_derivative_sign(q, r, 0.6, 0.5),
                 id="gv_derivative_sign"),
])
@pytest.mark.parametrize("q,r", [(3, 1.7e308), (3, 1.79e308), (2**64, 1e307)])
def test_gv_locality_whose_r_ln_q_overflows_is_a_domain_error(call, q, r):
    # r * log1p((q-1) s) overflows inside (0, 1]: gv_bound(3, 1.7e308, 0.6)
    # read 0.8429, far from its r -> infinity limit 1 - H_3(0.6)
    with pytest.raises(DomainError, match=r"gv needs \(r \+ 1\) ln q finite"):
        call(q, r)


def test_gv_locality_just_inside_float_range_keeps_its_limit():
    for r in (1e300, 1e308, 10**308):
        assert bounds.gv_bound(3, r, 0.6) == pytest.approx(
            1 - bounds.entropy(3, 0.6), abs=1e-12)


def test_non_finite_delta_in_find_s0():
    with pytest.raises(DomainError):
        bounds.find_s0(256, 2, math.nan)


def test_huge_q_fails_at_once():
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        bounds.admissible_localities((10**9 + 7) ** 2)
    assert time.perf_counter() - start < 1.0


def test_locality_params_match_a_brute_force_enumeration():
    for p in (2, 3, 5, 7, 11, 13):
        w = 2
        while p**w <= 2**24:
            ell = p ** (w // 2)
            brute = sorted(
                (u, v, u * p**v - 1)
                for v in range(w // 2 + 1)
                for u in range(1, ell)
                if ((ell - 1) if v == 0 else math.gcd(p**v - 1, ell - 1)) % u == 0
                and u * p**v > 1
            )
            params = bounds.locality_params(p, w)
            assert sorted(params) == brute, (p, w)
            rs = [r for (_, _, r) in params]
            assert rs == sorted(set(rs)), (p, w)  # sorted by r, each r once
            w += 2


# -- error paths ------------------------------------------------------------------------

@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: bounds.evaluate("nope", 9, 2, 0.3), "unknown bound id",
                 id="evaluate-unknown-id"),
    pytest.param(lambda: bounds.closed_bound("nope", 9, 2, 0.3),
                 "unknown closed-form bound id", id="closed_bound-unknown-id"),
    pytest.param(lambda: bounds.sweep(["nope"], 9, 2, [0.1, 0.2]), "unknown bound id",
                 id="sweep-unknown-id"),
    pytest.param(lambda: bounds.lp_inner(9, 1.5), "outside", id="lp_inner-outside-0-1"),
    pytest.param(lambda: bounds.closed_bound("main", 2.5, 1, 0.5), "not a perfect square",
                 id="main-non-integer-q"),
    pytest.param(lambda: bounds.admissible_localities(7), "not a square", id="q-7"),
    pytest.param(lambda: bounds.admissible_localities(8), "not a square", id="q-8"),
    pytest.param(lambda: bounds.admissible_localities(12), "not a prime power", id="q-12"),
    pytest.param(lambda: bounds.admissible_localities(1), "q must be finite and >= 2",
                 id="q-1"),
])
def test_bounds_error_paths(call, match):
    with pytest.raises(DomainError, match=match):
        call()


# -- the input contract of every public function ----------------------------------------

#: (function name, valid keyword arguments, whether q must be an integer):
#: every public function of `bounds` has at least one entry
_CONTRACT = [
    ("entropy", {"q": 9, "x": 0.3}, False),
    ("singleton_finite", {"n": 10, "k": 5, "r": 2}, False),
    ("closed_bound", {"bound_id": "plotkin", "q": 9, "r": 2, "delta": 0.3}, False),
    ("closed_bound", {"bound_id": "main", "q": 9, "r": 2, "delta": 0.3}, True),
    ("closed_bound", {"bound_id": "btv1", "q": 9, "r": 2, "delta": 0.3}, True),
    ("closed_bound", {"bound_id": "btv2", "q": 9, "r": 1, "delta": 0.3}, True),
    ("closed_bound", {"bound_id": "naive_tvz", "q": 9, "r": 2, "delta": 0.3}, True),
    ("lp_inner", {"q": 9, "x": 0.3}, False),
    ("lp_bound", {"q": 9, "r": 2, "delta": 0.3}, False),
    ("gv_bound", {"q": 9, "r": 2, "delta": 0.3}, False),
    ("gv_derivative_sign", {"q": 9, "r": 2, "delta": 0.3, "s": 0.5}, False),
    ("s0_window", {"q": 9, "r": 2}, False),
    ("find_s0", {"q": 9, "r": 2, "delta": 0.3}, False),
    ("evaluate", {"bound_id": "gv", "q": 9, "r": 2, "delta": 0.3}, False),
    ("evaluate", {"bound_id": "main", "q": 9, "r": 2, "delta": 0.3}, True),
    ("locality_params", {"p": 3, "w": 2}, False),
    ("admissible_localities", {"q": 9}, True),
    ("beats_gv_localities", {"q": 9, "delta": 0.5, "candidates": [1, 2]}, True),
    ("crossover_delta_naive", {"q": 9, "r": 2}, True),
    ("sweep", {"ids": ["gv", "main"], "q": 9, "r": 2, "delta_grid": [0.1, 0.2]}, False),
    ("rows_to_csv", {"rows": [bounds.CurveRow(0.1, "gv", 0.5)]}, False),
]


def test_every_public_bounds_function_has_a_contract_entry():
    public = {name for name, fn in inspect.getmembers(bounds, inspect.isfunction)
              if fn.__module__ == bounds.__name__ and not name.startswith("_")}
    assert public == {name for name, _, _ in _CONTRACT}


@pytest.mark.parametrize("name,kwargs,integer_q", _CONTRACT,
                         ids=[f"{name}-{i}" for i, (name, _, _) in enumerate(_CONTRACT)])
def test_bad_q_or_r_is_one_lrc_error(name, kwargs, integer_q):
    # never a raw exception, a nan result or an answer for another q
    fn = getattr(bounds, name)
    fn(**kwargs)  # the valid arguments are valid
    bad = []
    if "q" in kwargs:
        bad += [("q", q) for q in (math.nan, math.inf, 10**400, 1, 0.5)
                + ((16.5,) if integer_q else ())]
    if "r" in kwargs:
        bad += [("r", r) for r in (math.nan, 0)]
    for key, value in bad:
        with pytest.raises(LrcError):
            fn(**{**kwargs, key: value})
