"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.

Criterion 1 (reference-list reproduction) is expected to fail for four of
the eight configurations: the computed winner sets strictly contain the
published reference sets there, and the extra localities pass the strict
inequality with margins of at least 3.1e-3 (re-checked at 60-digit
precision by `test_criterion_01_extra_localities_at_60_digits`), so the
reference lists are non-exhaustive samples.
The assertion is kept faithful to the stated criterion rather than
weakened to match.
"""

import math
import random

import mpmath
import pytest

from lrctower import bounds, codes, galois, tower
from lrctower.errors import TooLarge

import field_oracle
from gv_oracle import gv_grid_oracle


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status}{suffix}")


def F(p, w):
    return galois.field_create(p, w)


REFERENCE_SETS = {
    2**8: {1, 2},
    2**10: {1, 3, 7, 15, 30, 31},
    2**12: {1, 2, 3, 6, 7, 8, 11, 15, 20, 31, 47, 55, 62, 63},
    3**6: {1, 2, 5, 8, 12, 17, 25, 26},
    3**8: {1, 2, 3, 4, 5, 7, 8, 9, 15, 17, 19, 26, 35, 39, 53, 71, 79, 80},
    5**4: {1, 2, 3, 4, 5, 7, 9, 11, 19, 23, 24},
    5**6: {1, 3, 4, 9, 19, 24, 30, 49, 61},
    5**8: {1, 2, 3, 4, 5, 7, 9, 11, 12, 15, 19, 23, 24, 25, 38, 47, 49, 51},
}


def test_criterion_01_lists_reproduction():
    mismatches = []
    for q, expected in REFERENCE_SETS.items():
        got = bounds.beats_gv_localities(q, 0.5, bounds.admissible_localities(q))
        if got != expected:
            extra = sorted(got - expected)
            missing = sorted(expected - got)
            mismatches.append(f"q={q}: extra={extra} missing={missing}")
            print(f"  q={q}: computed != reference (extra {extra}, missing {missing})")
        else:
            print(f"  q={q}: exact match")
    _report(1, "lists reproduction", not mismatches, "; ".join(mismatches))
    assert not mismatches, (
        "computed winner sets differ from the reference sets: "
        + "; ".join(mismatches)
        + " -- every extra r satisfies main > gv + 1e-9 with margin >= 3.1e-3, "
        "so the reference lists are non-exhaustive samples of the inequality"
    )


def _gv_mp(q, r, delta):
    """GV minimum 1 - h(s0) in mpmath at the working precision, with s0 the
    root of h' found by bisection on the sign of

        (q-1) s [(1+(q-1)s)^r - (1-s)^r] - delta F(s),
        F(s) = (1+(q-1)s)^(r+1) + (q-1)(1-s)^(r+1),

    which is s ln(q) F(s) h'(s); h' < 0 near 0 and h'(1) > 0 for
    delta < 1 - 1/q."""
    q, delta = mpmath.mpf(q), mpmath.mpf(delta)

    def big_f(s):
        return (1 + (q - 1) * s) ** (r + 1) + (q - 1) * (1 - s) ** (r + 1)

    def dsign(s):
        lead = (q - 1) * s * ((1 + (q - 1) * s) ** r - (1 - s) ** r)
        return mpmath.sign(lead - delta * big_f(s))

    lo, hi = mpmath.mpf(10) ** -30, mpmath.mpf(1)
    assert dsign(lo) < 0 < dsign(hi)
    for _ in range(400):
        mid = (lo + hi) / 2
        if dsign(mid) < 0:
            lo = mid
        else:
            hi = mid
    s0 = (lo + hi) / 2
    lnq = mpmath.log(q)
    return 1 - mpmath.log(big_f(s0)) / ((r + 1) * lnq) + delta * mpmath.log(s0) / lnq


def test_criterion_01_extra_localities_at_60_digits():
    """Every locality computed beyond a published list wins at 60 digits."""
    margins = []
    with mpmath.workdps(60):
        for q, expected in REFERENCE_SETS.items():
            got = bounds.beats_gv_localities(q, 0.5, bounds.admissible_localities(q))
            rt = math.isqrt(q)
            for r in sorted(got - expected):
                gv_mp = _gv_mp(q, r, 0.5)
                main_mp = mpmath.mpf(r) / (r + 1) * (
                    1 - mpmath.mpf(0.5) - mpmath.mpf(rt + r - 1) / (q - rt)
                )
                assert abs(bounds.gv_bound(q, r, 0.5) - gv_mp) <= 1e-12, (q, r)
                assert main_mp - gv_mp > 1e-9, (q, r)
                margins.append((float(main_mp - gv_mp), q, r))
    assert margins
    low, q, r = min(margins)
    _report(1, "extra localities at 60 digits", True,
            f"{len(margins)} extra r, smallest main - gv = {low:.3e} at q={q}, r={r}")


def test_criterion_02_small_locality_remark():
    ok = True
    for (q, r) in [(64, 3), (81, 2)]:
        diff = bounds.closed_bound("main", q, r, 0.5) - bounds.gv_bound(q, r, 0.5)
        ok = ok and diff < 1e-9
    _report(2, "main <= gv at (r=3,q=64) and (r=2,q=81)", ok)
    assert ok


def test_criterion_03_figure_regions():
    ok = True
    details = []
    for (q, r) in [(729, 2), (4096, 6)]:
        grid = [0.01 + 0.01 * i for i in range(66)]
        rows = bounds.sweep(["main", "gv"], q, r, grid)
        main_vals = [row.value for row in rows if row.bound_id == "main"]
        gv_vals = [row.value for row in rows if row.bound_id == "gv"]
        diffs = [m - g for m, g in zip(main_vals, gv_vals)]
        at_half = diffs[min(range(len(grid)), key=lambda i: abs(grid[i] - 0.5))]
        signs = [1 if d > 0 else -1 for d in diffs]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        ok = ok and at_half > 0 and changes <= 2
        details.append(f"q={q}: diff@0.5={at_half:+.4f}, sign changes={changes}")
    _report(3, "figure regions (729,2) and (4096,6)", ok, "; ".join(details))
    assert ok


def test_criterion_04_large_q_and_s0_window():
    q = 2**16
    ok = True
    for r in (32, 256, 1024):
        ok = ok and (
            bounds.closed_bound("main", q, r, 0.5)
            > bounds.gv_bound(q, r, 0.5) + 1e-9
        )
    s0 = bounds.find_s0(q, 32, 0.5)
    lo = 1.0 / (q - 1.0)
    in_window = lo < s0 < lo + 2.0**-32
    _report(4, "large-q dominance and s0 window", ok and in_window,
            f"s0={s0!r}")
    assert ok and in_window


def test_criterion_05_place_counts():
    cases = [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 1), (3, 2, 2), (3, 2, 3),
             (2, 4, 1), (2, 4, 2), (5, 2, 1), (5, 2, 2)]
    ok = True
    for (p, w, m) in cases:
        spec = F(p, w)
        count = len(tower.enumerate_places(spec, m))
        ok = ok and count == spec.ell ** (m - 1) * (spec.q - spec.ell)
    _report(5, "tower place counts", ok)
    assert ok


def test_criterion_06_orbit_property_suite():
    ok = True
    checked = 0
    for (p, w) in [(2, 2), (3, 2), (2, 4), (5, 2), (2, 6)]:
        spec = F(p, w)
        params = tower.admissible_params(spec)
        for m in (1, 2):
            places = tower.enumerate_places(spec, m)
            for (u, v, r) in params:
                group = tower.build_subgroup(spec, u, v)
                orbits = tower.orbit_partition(group, places)
                covered = sorted(i for o in orbits for i in o)
                ok = ok and covered == list(range(len(places)))
                ok = ok and all(len(o) == r + 1 for o in orbits)
                for orbit in orbits:
                    last = {places[i].coords[-1].index for i in orbit}
                    ok = ok and len(last) == r + 1
                checked += 1
    _report(6, "orbit structure property suite", ok, f"{checked} (q,m,u,v) cases")
    assert ok


def _exhaustive_repair_roundtrip(code):
    words = field_oracle.all_codewords(code)
    f = code.field
    for row in words:
        word = [f.from_index(int(i)) for i in row]
        for idx in range(code.n):
            original = word[idx]
            word[idx] = None
            if codes.local_repair(code, word, idx) != original:
                return False
            word[idx] = original
    return True


def _sampled_repair_roundtrip(code, samples, seed):
    rng = random.Random(seed)
    for _ in range(samples):
        msg = [rng.randrange(code.field.q) for _ in range(code.k)]
        word = list(codes.encode(code, msg))
        for idx in range(code.n):
            original = word[idx]
            word[idx] = None
            if codes.local_repair(code, word, idx) != original:
                return False
            word[idx] = original
    return True


def test_criterion_07_code_pipeline():
    ok = True
    details = []

    # GF(9), (u=1, v=1, s=1): full exhaustive treatment
    code9 = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    d9 = codes.min_distance(code9)
    rep9 = codes.verify_locality(code9)
    ok9 = (
        (code9.n, code9.k) == (6, 4)
        and 2 <= d9 <= 3
        and rep9.passed
        and rep9.exhaustive is not None
        and _exhaustive_repair_roundtrip(code9)
    )
    details.append(f"GF(9):[6,4] d={d9}")
    ok = ok and ok9

    # GF(16), (u=1, v=2, s=1): d pinned to 6 by designed distance + Singleton
    code16 = codes.build_rational_lrc(F(2, 4), 1, 2, 1)
    d16 = codes.min_distance(code16, limit=1 << 25)
    rep16 = codes.verify_locality(code16)
    ok16 = (
        (code16.n, code16.k) == (12, 6)
        and code16.meta["d_lower"] == 6
        and d16 == 6 == bounds.singleton_finite(12, 6, 3)
        and all(rep16.algebraic)
        and _sampled_repair_roundtrip(code16, 150, seed=161)
    )
    details.append(f"GF(16):[12,6] d={d16}")
    ok = ok and ok16

    # GF(25), (u=2, v=1) admissible, s=1: scan guards respected
    code25 = codes.build_rational_lrc(F(5, 2), 2, 1, 1)
    rep25 = codes.verify_locality(code25)
    with pytest.raises(TooLarge):
        codes.min_distance(code25)
    rng = random.Random(251)
    sampled_min = code25.n
    for _ in range(300):
        msg = [rng.randrange(25) for _ in range(code25.k)]
        if all(m == 0 for m in msg):
            continue
        wt = sum(1 for s in codes.encode(code25, msg) if not s.is_zero())
        sampled_min = min(sampled_min, wt)
    ok25 = (
        (code25.n, code25.k) == (20, 18)
        and code25.meta["r"] == 9
        and all(rep25.algebraic)
        and sampled_min >= code25.meta["d_lower"]
        and _sampled_repair_roundtrip(code25, 60, seed=252)
    )
    details.append(f"GF(25):[20,18] sampled w_min={sampled_min}")
    ok = ok and ok25

    _report(7, "code pipeline", ok, "; ".join(details))
    assert ok


def test_criterion_08_naive_construction():
    f2 = F(2, 1)
    one, zero = f2.one(), f2.zero()
    rows = [
        (one, zero, zero, one, one, zero),
        (zero, one, zero, one, zero, one),
        (zero, zero, one, zero, one, one),
    ]
    base = codes.LinearCode(field=f2, n=6, k=3, generator=tuple(rows),
                            meta={"construction": "custom", "d_lower": 3})
    lrc = codes.naive_lrc(base, 2)
    stacked = codes.null_space(f2, base.generator) + [
        [one, one, one, zero, zero, zero],
        [zero, zero, zero, one, one, one],
    ]
    d = codes.min_distance(lrc)
    rep = codes.verify_locality(lrc)
    ok = (
        lrc.k == 6 - codes.matrix_rank(stacked)
        and lrc.k >= 1
        and d >= 3
        and rep.passed
    )
    _report(8, "naive construction from [6,3,3]", ok, f"k'={lrc.k}, d={d}")
    assert ok


def test_criterion_09_bound_ordering_suite():
    rng = random.Random(20240)
    ok = True
    for _ in range(1000):
        j = rng.randint(2, 64)
        q = float(j * j)
        r = rng.randint(1, 48)
        d = rng.uniform(1e-3, (1 - 1 / q) * 0.999)
        gv = bounds.gv_bound(q, r, d)
        ok = ok and gv <= bounds.closed_bound("rate_cap", q, r, d) + 1e-9
        ok = ok and (
            bounds.closed_bound("plotkin", q, r, d)
            <= bounds.closed_bound("singleton_asym", q, r, d) + 1e-12
        )
        ok = ok and (
            bounds.closed_bound("main", q, r, d)
            <= bounds.closed_bound("singleton_asym", q, r, d) + 1e-12
        )
        ok = ok and bounds.closed_bound("naive_gv", q, r, d) <= gv + 1e-9
    agree = True
    rng2 = random.Random(909)
    for _ in range(50):
        j = rng2.randint(2, 64)
        q = float(j * j)
        r = rng2.randint(1, 32)
        d = rng2.uniform(0.05, min(0.9, 1 - 1 / q))
        agree = agree and abs(
            bounds.gv_bound(q, r, d) - gv_grid_oracle(q, r, d)[0]
        ) <= 1e-9
    _report(9, "bound ordering + grid-oracle agreement", ok and agree)
    assert ok and agree


def test_criterion_10_crossover_formula():
    rng = random.Random(1010)
    ok = True
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
        ok = ok and ((naive > main) == (d < cross))
    _report(10, "crossover threshold sign agreement", ok)
    assert ok
