import collections
import inspect
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

import encode_oracle
import field_oracle
from lrctower import bounds, codes, galois, tower
from lrctower.errors import (
    DistanceNonpositive,
    DivideByZero,
    DomainError,
    InvariantViolation,
    LengthMismatch,
    LocalityTooSmall,
    LrcError,
    NoGroups,
    NotDivisible,
    NotRepairable,
    RankDeficiency,
    SpecMismatch,
    TooLarge,
)


def F(p, w):
    return galois.field_create(p, w)


def weight(word):
    return sum(1 for sym in word if not sym.is_zero())


def brute_distance(code):
    """Independent oracle: enumerate all messages with pure-python encode."""
    elems = list(code.field.elements())
    best = code.n + 1
    for msg in itertools.product(elems, repeat=code.k):
        if all(m.is_zero() for m in msg):
            continue
        best = min(best, weight(codes.encode(code, msg)))
    return best


# -- the invariant polynomial -------------------------------------------------

def test_good_function_gf9_linearized_cubic():
    f9 = F(3, 2)
    t = codes.good_function(f9, 1, 1)
    # y^3 + y: coefficients low degree first
    assert [c.index for c in t] == [0, 1, 0, 1]


def test_good_function_gf9_square():
    f9 = F(3, 2)
    t = codes.good_function(f9, 2, 0)
    assert [c.index for c in t] == [0, 0, 1]  # y^2


def test_good_function_gf16_degree_four_invariant():
    f16 = F(2, 4)
    t = codes.good_function(f16, 1, 2)
    assert len(t) - 1 == 4
    group = tower.build_subgroup(f16, 1, 2)
    for place in tower.enumerate_places(f16, 1):
        y = place.coords[0]
        base = codes.poly_eval(t, y)
        for sigma in group:
            assert codes.poly_eval(t, sigma.c * y + sigma.a) == base


def test_good_function_orbit_values_distinct():
    for (p, w, u, v) in [(3, 2, 1, 1), (3, 2, 2, 1), (2, 4, 3, 0), (5, 2, 2, 1)]:
        spec = F(p, w)
        t = codes.good_function(spec, u, v)
        group = tower.build_subgroup(spec, u, v)
        places = tower.enumerate_places(spec, 1)
        orbits = tower.orbit_partition(group, places)
        values = []
        for orbit in orbits:
            vals = {codes.poly_eval(t, places[i].coords[0]) for i in orbit}
            assert len(vals) == 1
            values.append(vals.pop())
        assert len(set(values)) == len(values)


@pytest.mark.parametrize("p,w,u,v", [(3, 2, 1, 1), (3, 2, 2, 1), (2, 4, 1, 2),
                                     (5, 2, 2, 1)])
def test_build_rejects_a_non_invariant_good_function(monkeypatch, p, w, u, v):
    spec = F(p, w)
    t = codes.good_function(spec, u, v)
    t_plus_y = t[:1] + (t[1] + spec.one(),) + t[2:]  # same degree, not invariant
    monkeypatch.setattr(codes, "good_function", lambda *args: t_plus_y)
    with pytest.raises(InvariantViolation):
        codes.build_rational_lrc(spec, u, v, 0)


def test_build_rejects_a_good_function_that_merges_orbits(monkeypatch):
    spec = F(3, 2)
    monkeypatch.setattr(codes, "good_function", lambda *args: (spec.one(),))
    with pytest.raises(InvariantViolation, match="collides"):
        codes.build_rational_lrc(spec, 1, 1, 0)


def test_build_constructs_each_level1_structure_once(monkeypatch):
    calls = collections.Counter()
    for module, name in ((tower, "build_subgroup"), (tower, "enumerate_places"),
                         (tower, "orbit_partition"), (codes, "_horner")):
        def counting(*args, _inner=getattr(module, name), _name=name):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(module, name, counting)
    spec = F(2, 4)
    codes.good_function(spec, 1, 2)
    assert not calls  # good_function only constructs t
    code = codes.build_rational_lrc(spec, 1, 2, 1)
    assert calls == {"build_subgroup": 1, "enumerate_places": 1,
                     "orbit_partition": 1, "_horner": code.n}


# -- construction ---------------------------------------------------------------

def test_build_gf9_s1():
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    assert (code.n, code.k) == (6, 4)
    assert code.meta["r"] == 2 and code.meta["d_lower"] == 2
    assert len(code.repair_groups) == 2
    assert all(len(g) == 3 for g in code.repair_groups)
    d = codes.min_distance(code)
    assert 2 <= d <= bounds.singleton_finite(6, 4, 2)


def test_build_gf9_s0():
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 0)
    assert (code.n, code.k) == (6, 2)
    assert code.meta["d_lower"] == 5
    d = codes.min_distance(code)
    assert d == brute_distance(code)
    assert d == 5


def test_build_gf16_locality_one_repetition():
    code = codes.build_rational_lrc(F(2, 4), 1, 1, 2)
    assert (code.n, code.k) == (12, 3)
    assert code.meta["r"] == 1 and code.meta["d_lower"] == 8
    # locality 1: symbols inside every orbit pair coincide
    rng = random.Random(3)
    for _ in range(50):
        msg = [rng.randrange(16) for _ in range(code.k)]
        word = codes.encode(code, msg)
        for g in code.repair_groups:
            assert word[g[0]] == word[g[1]]
    # the Singleton-type bound pins d = 8 exactly
    d = codes.min_distance(code)
    assert d == 8 == bounds.singleton_finite(12, 3, 1)


def test_build_gf16_r2_s2_exact_distance():
    code = codes.build_rational_lrc(F(2, 4), 3, 0, 2)
    assert (code.n, code.k) == (12, 6)
    assert code.meta["r"] == 2 and code.meta["d_lower"] == 5
    d = codes.min_distance(code, limit=1 << 25)
    assert 5 <= d <= bounds.singleton_finite(12, 6, 2)


def test_build_rank_is_r_times_s_plus_one():
    for (p, w, u, v, s) in [(3, 2, 1, 1, 1), (3, 2, 2, 1, 0), (2, 4, 1, 2, 1),
                            (5, 2, 1, 1, 2), (5, 2, 4, 0, 3)]:
        spec = F(p, w)
        code = codes.build_rational_lrc(spec, u, v, s)
        r = u * p**v - 1
        assert code.k == r * (s + 1)
        assert codes.matrix_rank(code.generator) == code.k


def test_build_rate_cap_exact_rational():
    for (p, w, u, v, s) in [(3, 2, 1, 1, 1), (2, 4, 1, 2, 1), (5, 2, 2, 1, 1),
                            (2, 4, 3, 0, 2)]:
        spec = F(p, w)
        code = codes.build_rational_lrc(spec, u, v, s)
        r = code.meta["r"]
        assert Fraction(code.k, code.n) <= Fraction(r, r + 1)


def test_build_y_values_distinct_within_groups():
    code = codes.build_rational_lrc(F(5, 2), 2, 1, 1)
    for g in code.repair_groups:
        ys = {code.y_values[i].index for i in g}
        assert len(ys) == len(g)


def test_build_rejects_bad_s():
    with pytest.raises(DistanceNonpositive):
        codes.build_rational_lrc(F(3, 2), 1, 1, 2)
    from lrctower.errors import SOutOfRange

    with pytest.raises(SOutOfRange):
        codes.build_rational_lrc(F(3, 2), 1, 1, 7)


# -- encode / repair ---------------------------------------------------------------

def test_encode_zero_and_unit_messages():
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    zero = codes.encode(code, [0, 0, 0, 0])
    assert all(sym.is_zero() for sym in zero)
    for i in range(code.k):
        msg = [0] * code.k
        msg[i] = 1
        assert codes.encode(code, msg) == code.generator[i]
    with pytest.raises(LengthMismatch):
        codes.encode(code, [0, 1])


def test_repair_round_trip_sampled():
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    rng = random.Random(17)
    for _ in range(300):
        msg = [rng.randrange(9) for _ in range(code.k)]
        word = list(codes.encode(code, msg))
        idx = rng.randrange(code.n)
        original = word[idx]
        word[idx] = None
        assert codes.local_repair(code, word, idx) == original


def test_repair_r1_is_forced_relation():
    code = codes.build_rational_lrc(F(2, 4), 1, 1, 1)
    word = list(codes.encode(code, [3, 7]))
    g = code.repair_groups[0]
    erased = word[g[0]]
    word[g[0]] = None
    assert codes.local_repair(code, word, g[0]) == erased


def test_repair_two_erasures_rejected():
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    word = list(codes.encode(code, [1, 2, 3, 4]))
    g = code.repair_groups[0]
    word[g[0]] = None
    word[g[1]] = None
    with pytest.raises(NotRepairable):
        codes.local_repair(code, word, g[0])


def test_repair_requires_groups():
    f2 = F(2, 1)
    gen = (tuple(f2.one() for _ in range(4)),)
    plain = codes.LinearCode(field=f2, n=4, k=1, generator=gen)
    with pytest.raises(NoGroups):
        codes.local_repair(plain, [None, f2.one(), f2.one(), f2.one()], 0)


def test_repair_coordinate_must_be_a_coordinate_of_the_code():
    import numpy as np
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    word = list(codes.encode(code, [1, 2, 0, 1]))
    for idx in (-1, code.n, code.n + 5):  # -1 does not wrap around to n - 1
        with pytest.raises(NoGroups, match=f"coordinate {idx} not in any group"):
            codes.local_repair(code, word, idx)
    for idx in (2.0, "2", None):
        with pytest.raises(SpecMismatch):
            codes.local_repair(code, word, idx)
    erased, word[2] = word[2], None
    assert codes.local_repair(code, word, np.int64(2)) == erased


def test_integer_symbols_are_read_in_place_with_the_same_checks():
    import numpy as np
    f9 = F(3, 2)
    code = codes.build_rational_lrc(f9, 1, 1, 1)  # [6, 4], groups of 3
    msg = [1, 5, 0, 8]
    word = codes.encode(code, msg)
    for conv in (int, np.int64, np.int32, np.uint8, f9.from_index):
        assert codes.encode(code, [conv(m) for m in msg]) == word
    assert codes.encode(code, [True, 5, False, 8]) == codes.encode(code, [1, 5, 0, 8])
    idx = code.repair_groups[0][0]
    mate = code.repair_groups[0][1]
    for conv in (int, np.int64, f9.from_index):
        symbols = [None if j == idx else conv(word[j].index) for j in range(code.n)]
        assert codes.local_repair(code, symbols, idx) == word[idx]
    # symbols are read with operator.index: no float, string or None is truncated
    for bad in [9, -1, np.int64(9), F(3, 1).one(), "x", None, 2.7, 2.0, "2", np.float64(2)]:
        with pytest.raises(SpecMismatch):
            codes.encode(code, [bad, 0, 0, 0])
        symbols = [sym.index for sym in word]
        symbols[idx], symbols[mate] = None, bad
        with pytest.raises(NotRepairable if bad is None else SpecMismatch):
            codes.local_repair(code, symbols, idx)
    # element-only entry points take no integers
    with pytest.raises(SpecMismatch):
        codes.LinearCode(field=f9, n=2, k=1, generator=((1, 0),))
    with pytest.raises(SpecMismatch):
        codes.poly_eval((1, f9.one()), f9.one())


def _systematic_code(rng, f, n, k):
    """A random [n, k] code whose generator is [I | R]: full rank, and its
    rank check stays cheap for large k."""
    rows = [[int(i == j) for j in range(k)] + [rng.randrange(f.q) for _ in range(n - k)]
            for i in range(k)]
    return codes.LinearCode._of_indices(f, n, k, rows)


# fields on each side of every encode path: XOR for p = 2 and q <= 256,
# digit lanes for odd p <= 127 and q <= 256 (one lane when w = 1), and
# one _dot per column for p > 127 or q > 256
@pytest.mark.parametrize("p,w,path", [
    (2, 1, "xor"), (2, 2, "xor"), (2, 8, "xor"),
    (3, 1, "lanes"), (127, 1, "lanes"), (3, 2, "lanes"), (5, 3, "lanes"), (3, 5, "lanes"),
    (131, 1, "dot"), (251, 1, "dot"), (2, 10, "dot"), (3, 6, "dot"),
])
def test_encode_is_the_element_sum_of_the_scaled_rows(monkeypatch, p, w, path):
    f = F(p, w)
    rng = random.Random(f"encode:{p}:{w}")
    dots = []
    inner = codes._dot
    monkeypatch.setattr(codes, "_dot", lambda *args: dots.append(1) or inner(*args))
    shapes = [(1, 0), (4, 0), (1, 1), (7, 3), (20, 9)]
    if (p, w) == (3, 1):
        shapes.append((140, 130))  # 130 nonzero terms: the lanes reduce partway
    for n, k in shapes:
        code = _systematic_code(rng, f, n, k)
        messages = [[0] * k, [f.q - 1] * k] + [[rng.randrange(f.q) for _ in range(k)]
                                               for _ in range(3)]
        for msg in messages:
            want = [f.zero()] * n
            for m, row in zip(msg, code.generator):
                want = [acc + f.from_index(m) * g for acc, g in zip(want, row)]
            assert codes.encode(code, msg) == tuple(want)
    assert bool(dots) == (path == "dot")


def _lagrange_at(xs, ys, x0):
    """Element-level Lagrange interpolation through (xs, ys), evaluated at x0."""
    acc = x0.field.zero()
    for j, (xj, yj) in enumerate(zip(xs, ys)):
        term = yj
        for m, xm in enumerate(xs):
            if m != j:
                term = term * (x0 - xm) * (xj - xm).inverse()
        acc = acc + term
    return acc


def _random_word(rng, code, idx):
    """A random (in general non-code) word mixing indices and elements, erased at idx."""
    word = [rng.randrange(code.field.q) for _ in range(code.n)]
    word = [code.field.from_index(x) if rng.random() < 0.5 else x for x in word]
    word[idx] = None
    return word


def _as_elem(f, x):
    return x if isinstance(x, galois.FieldElement) else f.from_index(x)


@pytest.mark.parametrize("p,w,u,v,s", [(3, 2, 1, 1, 1), (3, 2, 2, 0, 2), (2, 4, 1, 2, 1),
                                       (5, 2, 1, 1, 1), (2, 6, 1, 2, 1), (2, 8, 1, 4, 0),
                                       (2, 8, 3, 0, 1)])
def test_repair_of_any_word_is_lagrange_interpolation(p, w, u, v, s):
    code = codes.build_rational_lrc(F(p, w), u, v, s)
    rng = random.Random(f"lagrange:{p}:{w}:{u}:{v}:{s}")
    for _ in range(40):
        idx = rng.randrange(code.n)
        word = _random_word(rng, code, idx)
        mates = [j for j in code.group_of(idx) if j != idx]
        expected = _lagrange_at([code.y_values[j] for j in mates],
                                [_as_elem(code.field, word[j]) for j in mates],
                                code.y_values[idx])
        assert codes.local_repair(code, word, idx) == expected


@pytest.mark.parametrize("p,w,u,v,s", [(3, 2, 1, 1, 1), (5, 2, 1, 1, 1), (7, 2, 3, 0, 1)])
def test_repair_interpolates_through_zero_evaluation_points(p, w, u, v, s):
    # rational codes never evaluate at 0; hand-made y values with 0 in
    # every group reach the zero cases of the weight computation
    base = codes.build_rational_lrc(F(p, w), u, v, s)
    rng = random.Random(f"zero-y:{p}:{w}")
    ys = [None] * base.n
    for g in base.repair_groups:
        for j, y in zip(g, [0] + rng.sample(range(1, base.field.q), len(g) - 1)):
            ys[j] = base.field.from_index(y)
    code = codes.LinearCode(field=base.field, n=base.n, k=base.k, generator=base.generator,
                            repair_groups=base.repair_groups, y_values=tuple(ys),
                            meta=base.meta)
    for idx in range(code.n):
        word = _random_word(rng, code, idx)
        mates = [j for j in code.group_of(idx) if j != idx]
        expected = _lagrange_at([ys[j] for j in mates],
                                [_as_elem(code.field, word[j]) for j in mates], ys[idx])
        assert codes.local_repair(code, word, idx) == expected


def test_repair_weights_are_computed_once_per_coordinate(monkeypatch):
    code = codes.build_rational_lrc(F(2, 4), 1, 2, 1)
    calls = collections.Counter()
    inner = codes._lagrange_logs

    def counting(f, x0, xs):
        calls[x0] += 1
        return inner(f, x0, xs)

    monkeypatch.setattr(codes, "_lagrange_logs", counting)
    rng = random.Random("weights-cache")
    for _ in range(3):
        for idx in range(code.n):
            word = list(codes.encode(code, [rng.randrange(16) for _ in range(code.k)]))
            erased, word[idx] = word[idx], None
            assert codes.local_repair(code, word, idx) == erased
    assert sum(calls.values()) == code.n


def test_repeated_y_values_raise_on_every_repair():
    base = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    g = base.repair_groups[0]
    ys = list(base.y_values)
    ys[g[1]] = ys[g[2]]
    code = codes.LinearCode(field=base.field, n=base.n, k=base.k, generator=base.generator,
                            repair_groups=base.repair_groups, y_values=tuple(ys),
                            meta=base.meta)
    word = list(codes.encode(code, [1, 2, 0, 1]))
    word[g[0]] = None
    for _ in range(3):
        with pytest.raises(DivideByZero):
            codes.local_repair(code, word, g[0])


@pytest.mark.parametrize("source,r", [((3, 2, 1, 1, 1), 2), ((2, 4, 3, 0, 2), 3),
                                      ((5, 2, 1, 1, 1), 4), (None, 2)])
def test_repair_of_any_word_on_naive_codes_is_minus_the_group_sum(source, r):
    base = _code_633() if source is None else codes.build_rational_lrc(F(*source[:2]),
                                                                      *source[2:])
    code = codes.naive_lrc(base, r)
    rng = random.Random(f"naive-repair:{source}:{r}")
    for _ in range(40):
        idx = rng.randrange(code.n)
        word = _random_word(rng, code, idx)
        total = code.field.zero()
        for j in code.group_of(idx):
            if j != idx:
                total = total + _as_elem(code.field, word[j])
        assert codes.local_repair(code, word, idx) == -total


# -- encode and repair tables against the oracles and the earlier input contract --

@pytest.mark.parametrize("p,w", [(2, 1), (2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6), (2, 8)])
def test_encode_equals_the_lane_oracle_and_the_element_sum(p, w):
    f = F(p, w)
    rng = random.Random(f"encode-oracle:{p}:{w}")
    shapes = [(1, 0), (5, 0), (3, 1), (9, 4), (30, 12)]
    if (p, w) == (7, 2):
        shapes.append((50, 45))  # chunks of 41 terms: the digit lanes reduce partway
    for n, k in shapes:
        code = _systematic_code(rng, f, n, k)
        messages = [[0] * k, [f.q - 1] * k] + [[rng.randrange(f.q) for _ in range(k)]
                                               for _ in range(4)]
        for msg in messages:
            word = codes.encode(code, msg)
            assert tuple(x.index for x in word) == encode_oracle.lane_encode(code, msg)
            want = [f.zero()] * n
            for m, row in zip(msg, code.generator):
                want = [acc + f.from_index(m) * g for acc, g in zip(want, row)]
            assert word == tuple(want)
            assert type(word) is tuple and all(type(x) is galois.FieldElement for x in word)
            assert all(x.field is f for x in word)


def test_encode_and_repair_read_every_container_by_value():
    import numpy as np
    from array import array
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)  # [6, 4] over GF(9)
    msg = [1, 5, 0, 8]
    want = codes.encode(code, msg)
    # an array's raw buffer is not its values: bytes(array("i", msg)) has 16 bytes
    containers = [list, tuple, lambda xs: np.array(xs, dtype=np.int64),
                  lambda xs: array("i", xs)]
    for conv in containers + [bytes, lambda xs: [np.int64(x) for x in xs],
                              lambda xs: [bool(x) if x < 2 else x for x in xs]]:
        assert codes.encode(code, conv(msg)) == want
    idx = code.repair_groups[1][0]
    ints = [x.index for x in want]
    ints[idx] = 0  # the erased entry is never read
    elements = list(want)
    elements[idx] = None
    for conv in containers:
        code._plans.clear()
        assert codes.local_repair(code, conv(ints), idx) == want[idx]  # plans the repair
        assert codes.local_repair(code, conv(ints), idx) == want[idx]  # reads the plan
        assert codes.local_repair(code, elements, idx) == want[idx]


BAD_SYMBOLS = {
    "int q": (lambda: 9, "index 9 outside [0, 9)"),
    "int 255": (lambda: 255, "index 255 outside [0, 9)"),
    "int 256": (lambda: 256, "index 256 outside [0, 9)"),
    "int 300": (lambda: 300, "index 300 outside [0, 9)"),
    "negative": (lambda: -1, "index -1 outside [0, 9)"),
    "numpy q": (lambda: __import__("numpy").int64(9), "index 9 outside [0, 9)"),
    "float": (lambda: 2.0, "symbol 2.0 is neither an index nor an element"),
    "string": (lambda: "x", "symbol 'x' is neither an index nor an element"),
    "bytes": (lambda: b"\x01", "symbol b'\\x01' is neither an index nor an element"),
    "GF(3)": (lambda: F(3, 1).one(),
              "an entry is not an element of FieldSpec(GF(3^2), modulus=[1, 0, 1])"),
}


@pytest.mark.parametrize("name", BAD_SYMBOLS)
def test_bad_symbols_raise_the_same_error_on_every_path(name):
    make, message = BAD_SYMBOLS[name]
    bad = make()
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    word = codes.encode(code, [1, 5, 0, 8])
    idx, mate = code.repair_groups[0][:2]
    for msg in ([bad, 0, 0, 0], (0, 0, 0, bad)):
        with pytest.raises(SpecMismatch) as exc:
            codes.encode(code, msg)
        assert str(exc.value) == message
    for plan_kept in (False, True):
        if plan_kept:
            elements = list(word)
            elements[idx] = None
            codes.local_repair(code, elements, idx)
        for symbols in ([x.index for x in word], list(word)):
            symbols[idx], symbols[mate] = None, bad
            with pytest.raises(SpecMismatch) as exc:
                codes.local_repair(code, symbols, idx)
            assert str(exc.value) == message
        assert bool(code._plans) == plan_kept


def test_repair_with_a_kept_plan_keeps_every_check():
    f9 = F(3, 2)
    code = codes.build_rational_lrc(f9, 1, 1, 1)
    word = list(codes.encode(code, [2, 7, 1, 3]))
    g = code.repair_groups[0]
    erased, word[g[0]] = word[g[0]], None
    assert codes.local_repair(code, word, g[0]) == erased  # the plan is kept now
    assert set(code._plans) == {g[0]}
    second = list(word)
    second[g[1]] = None
    for _ in range(2):
        with pytest.raises(NotRepairable) as exc:
            codes.local_repair(code, second, g[0])
        assert str(exc.value) == f"group of {g[0]} has further erasures at [{g[1]}]"
    # elements of an equal field built apart, and of another field
    twin = galois.FieldSpec(f9.p, f9.w, f9.modulus)
    assert twin is not f9 and twin == f9
    foreign = [None if x is None else galois.FieldElement(twin, x.index) for x in word]
    assert codes.local_repair(code, foreign, g[0]) == erased
    other = [None if x is None else galois.FieldElement(F(2, 4), x.index) for x in word]
    with pytest.raises(SpecMismatch) as exc:
        codes.local_repair(code, other, g[0])
    assert str(exc.value) == f"an entry is not an element of {f9!r}"


def test_failed_weights_are_computed_again_and_never_kept():
    base = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    g = base.repair_groups[0]
    ys = list(base.y_values)
    ys[g[1]] = ys[g[2]]
    repeated = codes.LinearCode(field=base.field, n=base.n, k=base.k,
                                generator=base.generator, repair_groups=base.repair_groups,
                                y_values=tuple(ys), meta=base.meta)
    bare = codes.LinearCode(field=base.field, n=base.n, k=base.k, generator=base.generator,
                            repair_groups=base.repair_groups)
    word = list(codes.encode(base, [1, 2, 0, 1]))
    word[g[0]] = None
    for code, error in ((repeated, DivideByZero), (bare, NoGroups)):
        for _ in range(3):
            with pytest.raises(error):
                codes.local_repair(code, word, g[0])
        assert code._plans == {}


def test_repair_errors_come_in_order_group_erasures_symbols_weights():
    base = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    g = base.repair_groups[0]
    ys = list(base.y_values)
    ys[g[1]] = ys[g[2]]
    repeated = codes.LinearCode(field=base.field, n=base.n, k=base.k,
                                generator=base.generator, repair_groups=base.repair_groups,
                                y_values=tuple(ys), meta=base.meta)
    bare = codes.LinearCode(field=base.field, n=base.n, k=base.k, generator=base.generator,
                            repair_groups=base.repair_groups)
    for code in (repeated, bare):
        weights = DivideByZero if code is repeated else NoGroups
        word = [x.index for x in codes.encode(base, [1, 2, 0, 1])]
        erasures = list(word)
        erasures[g[0]] = erasures[g[1]] = None
        erasures[g[2]] = 2.5
        with pytest.raises(NoGroups, match=f"^coordinate {base.n} not in any group$"):
            codes.local_repair(code, erasures, base.n)
        with pytest.raises(NotRepairable):
            codes.local_repair(code, erasures, g[0])
        bad = list(word)
        bad[g[0]], bad[g[2]] = None, 2.5
        with pytest.raises(SpecMismatch):
            codes.local_repair(code, bad, g[0])
        clean = list(word)
        clean[g[0]] = None
        with pytest.raises(weights):
            codes.local_repair(code, clean, g[0])


@pytest.mark.parametrize("plan_kept", [False, True], ids=["first repair", "kept plan"])
@pytest.mark.parametrize("word", [[1, 2], {0: None}, "elements"],
                         ids=["short list", "dict", "short element list"])
def test_repair_of_a_word_without_a_mate_is_a_length_mismatch(word, plan_kept):
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)  # GF(9) [6,4], group (0, 1, 2)
    full = list(codes.encode(code, [1, 5, 0, 8]))
    if word == "elements":
        word = full[:2]
    if plan_kept:
        erased, full[0] = full[0], None
        assert codes.local_repair(code, full, 0) == erased
    assert bool(code._plans) == plan_kept
    for _ in range(2):
        with pytest.raises(LengthMismatch, match=r"^word has no symbol at a mate of 0: "
                                                 r"(IndexError|KeyError)\("):
            codes.local_repair(code, word, 0)


def test_repair_beyond_byte_fields_reads_indices_and_elements_alike():
    # q > 256 and p > 127 keep their weights as logs for `_dot`
    rational = codes.build_rational_lrc(F(2, 10), 1, 2, 0)
    rng = random.Random("wide-repair")
    gen = [[int(i == j) for j in range(6)] + [rng.randrange(131) for _ in range(6)]
           for i in range(6)]
    naive = codes.naive_lrc(codes.LinearCode._of_indices(F(131, 1), 12, 6, gen), 2)
    for code in (rational, naive):
        for _ in range(20):
            msg = [rng.randrange(code.field.q) for _ in range(code.k)]
            word = list(codes.encode(code, msg))
            idx = rng.randrange(code.n)
            erased, word[idx] = word[idx], None
            ints = [0 if x is None else x.index for x in word]
            assert codes.local_repair(code, word, idx) == erased
            assert codes.local_repair(code, ints, idx) == erased


def test_encode_table_is_built_once_per_code():
    code = codes.build_rational_lrc(F(2, 4), 1, 2, 1)
    assert code._encode_table is None
    codes.encode(code, [0] * code.k)
    table = code._encode_table
    assert len(table) == code.k and all(len(row) == code.field.q for row in table)
    codes.encode(code, [1] * code.k)
    assert code._encode_table is table


# -- minimum distance -----------------------------------------------------------------

def test_min_distance_matches_oracle_small_codes():
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)  # [6, 4] over GF(9)
    assert codes.min_distance(code) == brute_distance(code)
    code2 = codes.build_rational_lrc(F(2, 4), 1, 1, 2)  # [12, 3] over GF(16)
    assert codes.min_distance(code2) == brute_distance(code2)


def test_min_distance_repetition():
    f3 = F(3, 1)
    one, zero = f3.one(), f3.zero()
    gen = ((one, one, zero, zero), (zero, zero, one, one))
    code = codes.LinearCode(
        field=f3, n=4, k=2, generator=gen,
        repair_groups=((0, 1), (2, 3)), meta={"r": 1},
    )
    assert codes.min_distance(code) == 2


def test_min_distance_of_a_k0_code_is_an_error():
    f9 = F(3, 2)
    code = codes.LinearCode(field=f9, n=4, k=0, generator=())
    assert codes.encode(code, []) == (f9.zero(),) * 4
    with pytest.raises(DomainError, match="no nonzero codeword"):
        codes.min_distance(code)


def test_locality_of_a_k0_code_with_repair_groups_holds_everywhere():
    # the zero word alone: no codeword has support {i} inside i's group
    f9 = F(3, 2)
    groups = ((0, 1, 2), (3, 4, 5))
    code = codes.LinearCode(field=f9, n=6, k=0, generator=(), repair_groups=groups,
                            meta={"r": 2})
    words = field_oracle.all_codewords(code)
    assert words.shape == (1, 6) and not words.any()
    defined = [not any(word[i] and not any(word[j] for j in g if j != i) for word in words)
               for g in groups for i in g]
    report = codes.verify_locality(code)
    assert report == codes.LocalityReport(r=2, algebraic=[True] * 6, exhaustive=defined,
                                          passed=True)
    assert defined == [True] * 6


def test_min_distance_respects_limit():
    code = codes.build_rational_lrc(F(2, 4), 1, 2, 1)  # 16^6 messages
    with pytest.raises(TooLarge):
        codes.min_distance(code)


def test_min_distance_at_least_designed():
    for (p, w, u, v, s) in [(3, 2, 1, 1, 0), (3, 2, 1, 1, 1), (2, 4, 3, 0, 1),
                            (5, 2, 1, 1, 0), (5, 2, 2, 0, 2)]:
        code = codes.build_rational_lrc(F(p, w), u, v, s)
        assert codes.min_distance(code, limit=1 << 24) >= code.meta["d_lower"]


def _random_full_rank_code(rng, f, k, n):
    elems = list(f.elements())
    while True:
        gen = tuple(tuple(rng.choice(elems) for _ in range(n)) for _ in range(k))
        if codes.matrix_rank(gen) == k:
            return codes.LinearCode(field=f, n=n, k=k, generator=gen)


# k = 1 is one block led by the zero word alone; from k = 2 on, lead words
# of at least one row shift blocks of at most k - 1 rows
@pytest.mark.parametrize("p,w,extra", [(2, 1, (13,)), (3, 1, (8,)), (2, 2, ()), (5, 1, ()),
                                       (7, 1, ()), (2, 3, ()), (3, 2, (4,)), (11, 1, ()),
                                       (13, 1, ()), (2, 4, ())])
def test_min_distance_matches_oracle_on_random_codes(p, w, extra):
    f = F(p, w)
    rng = random.Random(f"distance:{p}:{w}")
    for k in (1, 2, 3) + extra:
        code = _random_full_rank_code(rng, f, k, k + rng.randint(0, 3))
        assert codes.min_distance(code) == brute_distance(code)


# -- locality verification --------------------------------------------------------------

def test_verify_locality_rational_codes():
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    report = codes.verify_locality(code)
    assert report.passed
    assert report.algebraic == [True] * 6
    assert report.exhaustive == [True] * 6


def test_verify_locality_single_parity():
    f3 = F(3, 1)
    one, zero = f3.one(), f3.zero()
    minus = -one
    # c0 + c1 + c2 = 0: generator [[1,0,-1],[0,1,-1]]
    gen = ((one, zero, minus), (zero, one, minus))
    code = codes.LinearCode(
        field=f3, n=3, k=2, generator=gen,
        repair_groups=((0, 1, 2),), meta={"r": 2},
    )
    report = codes.verify_locality(code)
    assert report.passed

    # size-(r+1) groups cannot partition 3 coordinates for r = 1
    with pytest.raises(InvariantViolation):
        codes.LinearCode(
            field=f3, n=3, k=2, generator=gen,
            repair_groups=((0, 1), (2,)), meta={"r": 1},
        )


def test_verify_locality_detects_failure():
    f3 = F(3, 1)
    one, zero = f3.one(), f3.zero()
    gen = ((one, zero, zero, zero), (zero, one, zero, zero))
    code = codes.LinearCode(
        field=f3, n=4, k=2, generator=gen,
        repair_groups=((0, 1), (2, 3)), meta={"r": 1},
    )
    report = codes.verify_locality(code)
    assert not report.passed
    assert report.algebraic[0] is False  # e0 not in span of e1
    assert report.exhaustive[0] is False
    assert report.algebraic[2] is True  # zero column is in any span
    assert not report.passed


# -- naive construction ------------------------------------------------------------------

def _identity_code(f, n):
    one, zero = f.one(), f.zero()
    gen = tuple(
        tuple(one if i == j else zero for j in range(n)) for i in range(n)
    )
    return codes.LinearCode(field=f, n=n, k=n, generator=gen,
                            meta={"construction": "full", "d_lower": 1})


def _code_633():
    f2 = F(2, 1)
    one, zero = f2.one(), f2.zero()
    rows = [
        (one, zero, zero, one, one, zero),
        (zero, one, zero, one, zero, one),
        (zero, zero, one, zero, one, one),
    ]
    return codes.LinearCode(field=f2, n=6, k=3, generator=tuple(rows),
                            meta={"construction": "custom", "d_lower": 3})


def test_naive_from_full_space():
    f2 = F(2, 1)
    code = codes.naive_lrc(_identity_code(f2, 6), 2)
    assert (code.n, code.k) == (6, 4)
    assert code.repair_groups == ((0, 1, 2), (3, 4, 5))
    assert codes.min_distance(code) == 2
    assert codes.verify_locality(code).passed


def test_naive_from_633():
    base = _code_633()
    assert brute_distance(base) == 3
    code = codes.naive_lrc(base, 2)
    # exact dimension = 6 - rank(stacked parity check)
    f2 = base.field
    one, zero = f2.one(), f2.zero()
    stacked = codes.null_space(f2, base.generator) + [
        [one, one, one, zero, zero, zero],
        [zero, zero, zero, one, one, one],
    ]
    assert code.k == 6 - codes.matrix_rank(stacked)
    assert code.k >= base.k - base.n // 3  # guaranteed lower bound
    assert codes.min_distance(code) >= 3
    assert codes.verify_locality(code).passed
    # repair through the parity relation
    word = list(codes.encode(code, [1] * code.k))
    erased = word[0]
    word[0] = None
    assert codes.local_repair(code, word, 0) == erased


def test_naive_gf3_negation_structure():
    # weight-2 all-ones parity over GF(3) forces c_i = -c_j inside each
    # group; locality-1 repair is negation
    f3 = F(3, 1)
    code = codes.naive_lrc(_identity_code(f3, 4), 1)
    assert code.repair_groups == ((0, 1), (2, 3))
    assert code.k == 2
    for msg in itertools.product(range(3), repeat=code.k):
        word = codes.encode(code, list(msg))
        for (a, b) in code.repair_groups:
            assert word[a] == -word[b]
        wl = list(word)
        erased = wl[1]
        wl[1] = None
        assert codes.local_repair(code, wl, 1) == erased


def test_naive_rejects_locality_below_rate():
    # a [4,2] base with r = 1 fails the r >= n/k precondition
    f3 = F(3, 1)
    one, zero = f3.one(), f3.zero()
    gen = ((one, zero, one, zero), (zero, one, zero, one))
    base = codes.LinearCode(field=f3, n=4, k=2, generator=gen,
                            meta={"construction": "custom", "d_lower": 2})
    with pytest.raises(LocalityTooSmall):
        codes.naive_lrc(base, 1)


def test_naive_guards():
    base = _code_633()
    with pytest.raises(NotDivisible):
        codes.naive_lrc(base, 3)  # 4 does not divide 6
    with pytest.raises(LocalityTooSmall):
        codes.naive_lrc(base, 1)  # r < n/k = 2
    for r in (0, -1, -2, -3, -5):  # r = -1 must not divide by r + 1 = 0
        with pytest.raises(LocalityTooSmall):
            codes.naive_lrc(base, r)


def test_naive_distance_dominates_source():
    base = _code_633()
    code = codes.naive_lrc(base, 2)
    assert codes.min_distance(code) >= brute_distance(base)


# -- serialization -------------------------------------------------------------------------

def test_json_round_trip_byte_exact():
    code = codes.build_rational_lrc(F(3, 2), 1, 1, 1)
    blob = codes.to_json(code)
    again = codes.from_json(blob)
    assert codes.to_json(again) == blob
    assert again.generator == code.generator
    assert again.repair_groups == code.repair_groups
    assert again.y_values == code.y_values
    assert again.meta["d_lower"] == code.meta["d_lower"]


def test_to_json_is_one_canonical_document():
    f9 = F(3, 2)
    tricky = codes.LinearCode(field=f9, n=2, k=1, generator=((f9.one(), f9.zero()),),
                              meta={"construction": '"generator":null', "source": "generator"})
    empty = codes.LinearCode(field=f9, n=3, k=0, generator=())
    for code in (codes.build_rational_lrc(F(2, 8), 1, 2, 1), codes.naive_lrc(_code_633(), 2),
                 tricky, empty):
        text = codes.to_json(code)
        doc = json.loads(text)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert doc["generator"] == [[e.to_json() for e in row] for row in code.generator]
        assert doc["construction"] == code.meta.get("construction", "generic")


def test_json_naive_round_trip():
    code = codes.naive_lrc(_code_633(), 2)
    blob = codes.to_json(code)
    again = codes.from_json(blob)
    assert codes.to_json(again) == blob
    assert again.y_values is None
    assert again.meta["construction"] == "naive"


def _mangled(edit):
    doc = json.loads(codes.to_json(codes.build_rational_lrc(F(3, 2), 1, 1, 1)))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("edit,error", [
    pytest.param(lambda d: d.pop("field"), SpecMismatch, id="no-field"),
    pytest.param(lambda d: d.pop("generator"), SpecMismatch, id="no-generator"),
    pytest.param(lambda d: d.pop("n"), SpecMismatch, id="no-n"),
    pytest.param(lambda d: d.update(k="four"), SpecMismatch, id="k-not-int"),
    pytest.param(lambda d: d.update(generator=5), SpecMismatch, id="generator-int"),
    pytest.param(lambda d: d["generator"][0].__setitem__(0, ["x", 0]), SpecMismatch,
                 id="coeff-not-int"),
    pytest.param(lambda d: d["generator"][0].__setitem__(0, [1]), SpecMismatch,
                 id="coeff-count"),
    pytest.param(lambda d: d.update(d_lower=None), SpecMismatch, id="d_lower-null"),
    pytest.param(lambda d: d.update(d_lower=float("1e400")), SpecMismatch, id="d_lower-1e400"),
    pytest.param(lambda d: d.update(n=float("1e400")), SpecMismatch, id="n-1e400"),
    pytest.param(lambda d: d.update(k=float("1e400")), SpecMismatch, id="k-1e400"),
    pytest.param(lambda d: d.update(r=float("1e400")), SpecMismatch, id="r-1e400"),
    pytest.param(lambda d: d.update(n=2.9), SpecMismatch, id="n-float"),
    pytest.param(lambda d: d.update(k=True), SpecMismatch, id="k-bool"),
    pytest.param(lambda d: d.update(r=2.0), SpecMismatch, id="r-float"),
    pytest.param(lambda d: d["repair_groups"].__setitem__(0, [0.0, 1.0, 2.0]), SpecMismatch,
                 id="group-entry-float"),
    pytest.param(lambda d: d["generator"][0].pop(), LengthMismatch, id="short-row"),
    pytest.param(lambda d: d["y_values"].pop(), LengthMismatch, id="short-y_values"),
])
def test_from_json_rejects_malformed_documents(edit, error):
    with pytest.raises(error):
        codes.from_json(_mangled(edit))


def test_from_json_params_do_not_replace_checked_fields():
    code = codes.from_json(_mangled(lambda d: d["params"].update(r="x", d_lower="x")))
    assert code.meta["r"] == 2 and code.meta["d_lower"] == 2


@pytest.mark.parametrize("edit", [
    pytest.param(lambda d: d["generator"][1].__setitem__(2, [3, 0]), id="digit-p"),
    pytest.param(lambda d: d["generator"][0].__setitem__(5, [0, 7]), id="digit-above-p"),
    pytest.param(lambda d: d["generator"][2].__setitem__(0, [-1, 0]), id="digit-negative"),
    pytest.param(lambda d: d["generator"][0].__setitem__(1, [1.0, 0]), id="digit-float"),
    pytest.param(lambda d: d["generator"][3].__setitem__(4, [1, 0, 0]), id="three-digits"),
    pytest.param(lambda d: d["generator"][1].__setitem__(3, []), id="no-digits"),
    pytest.param(lambda d: d["generator"][1].__setitem__(3, 2), id="digits-int"),
    pytest.param(lambda d: d["y_values"].__setitem__(3, [0, 3]), id="y-digit-p"),
    pytest.param(lambda d: d["y_values"].__setitem__(0, [2]), id="y-one-digit"),
])
def test_from_json_rejects_bad_coefficient_lists(edit):
    with pytest.raises(SpecMismatch):
        codes.from_json(_mangled(edit))


def test_json_round_trip_on_every_golden_code():
    golden = json.loads((pathlib.Path(__file__).resolve().parents[1]
                         / "perfbench" / "golden.json").read_text())
    built = {}
    for key in sorted(golden["codes"], key=lambda key: key.startswith("naive:")):
        if key.startswith("naive:"):
            _, source, r = key.split(":")
            built[key] = codes.naive_lrc(built[source], int(r))
        else:
            q, u, v, s = (int(x) for x in key.split(","))
            p = next(d for d in range(2, q + 1) if q % d == 0)
            built[key] = codes.build_rational_lrc(F(p, round(math.log(q, p))), u, v, s)
    assert len(built) == len(golden["codes"])
    for key, code in built.items():
        text = codes.to_json(code)
        again = codes.from_json(text)
        assert codes.to_json(again) == text, key
        assert again.generator == code.generator and again.y_values == code.y_values, key


def test_from_json_rejects_non_json_text():
    with pytest.raises(SpecMismatch):
        codes.from_json("{not json")
    with pytest.raises(SpecMismatch):
        codes.from_json("[1, 2]")


def test_linear_code_rejects_entries_from_another_field():
    f9, f3 = F(3, 2), F(3, 1)
    gen = ((f3.one(), f3.zero(), f3.one()), (f3.zero(), f3.one(), f3.one()))
    with pytest.raises(SpecMismatch):
        codes.LinearCode(field=f9, n=3, k=2, generator=gen)
    gen9 = tuple(tuple(f9.from_index(e.index) for e in row) for row in gen)
    codes.LinearCode(field=f9, n=3, k=2, generator=gen9)
    with pytest.raises(SpecMismatch):
        codes.LinearCode(field=f9, n=3, k=2, generator=gen9,
                         y_values=(f3.zero(), f3.one(), f3.from_index(2)))


def test_all_codewords_matches_encode():
    # the byte-lane encoder over GF(9), GF(25) and GF(49), the XOR one over
    # GF(16) and GF(64)
    for p, w, u, v, s in [(3, 2, 1, 1, 0), (2, 4, 1, 1, 1), (5, 2, 2, 0, 1),
                          (7, 2, 2, 0, 0), (2, 6, 1, 1, 0)]:
        code = codes.build_rational_lrc(F(p, w), u, v, s)
        words = field_oracle.all_codewords(code)
        expected = set()
        for msg in itertools.product(range(code.field.q), repeat=code.k):
            expected.add(tuple(sym.index for sym in codes.encode(code, list(msg))))
        assert {tuple(row) for row in words.tolist()} == expected


@pytest.mark.parametrize("p,w,n,k", [(3, 2, 6, 0), (2, 1, 5, 3), (3, 2, 6, 2), (2, 4, 4, 2),
                                     (7, 2, 3, 2), (17, 2, 3, 2)])
def test_all_codewords_equal_the_numpy_oracle(p, w, n, k):
    f = F(p, w)
    code = _random_full_rank_code(random.Random(f"words:{p}:{w}"), f, k, n) if k else (
        codes.LinearCode(field=f, n=n, k=0, generator=()))
    words = codes.all_codewords(code)
    assert words == [tuple(row) for row in field_oracle.all_codewords(code).tolist()]
    assert len(words) == f.q**k and words[0] == (0,) * n
    with pytest.raises(TooLarge):
        codes.all_codewords(code, limit=f.q**k - 1)


# -- elimination over canonical indices ---------------------------------------------

def _reference_rref(rows):
    """Gauss-Jordan with FieldElement arithmetic: (reduced rows, pivots)."""
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pick = next((i for i in range(rank, len(rows)) if not rows[i][col].is_zero()), None)
        if pick is None:
            continue
        rows[rank], rows[pick] = rows[pick], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [c * inv for c in rows[rank]]
        for i in range(len(rows)):
            if i != rank:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
    return rows, pivots


def _random_matrix(rng, f, nrows, ncols):
    """Random rows plus zero rows, duplicates and combinations of earlier rows."""
    elems = list(f.elements())
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if kind < 0.1:
            row = [f.zero()] * ncols
        elif kind < 0.25 and rows:
            row = list(rng.choice(rows))
        elif kind < 0.5 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = rng.choice(elems), rng.choice(elems)
            row = [ca * x + cb * y for x, y in zip(a, b)]
        else:
            row = [rng.choice(elems) for _ in range(ncols)]
        rows.append(row)
    rng.shuffle(rows)
    return rows


SMALL_FIELDS = [(p, w) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                                 53, 59, 61) for w in range(1, 7) if p**w <= 64]


@pytest.mark.parametrize("p,w", SMALL_FIELDS)
def test_elimination_matches_element_gauss_jordan(p, w):
    f = F(p, w)
    rng = random.Random(f"rref:{p}:{w}")
    for _ in range(12):
        ncols = rng.randint(1, 8)
        rows = _random_matrix(rng, f, rng.randint(1, 7), ncols)
        red, pivots = _reference_rref(rows)
        assert codes.matrix_rank(rows) == len(pivots)
        basis = codes.null_space(f, rows)
        assert len(basis) == ncols - len(pivots)
        for x in basis:
            for row in rows:
                dot = f.zero()
                for a, b in zip(row, x):
                    dot = dot + a * b
                assert dot.is_zero()
        free = [c for c in range(ncols) if c not in pivots]
        expected = []
        for fc in free:
            vec = [f.zero()] * ncols
            vec[fc] = f.one()
            for i, pc in enumerate(pivots):
                vec[pc] = -red[i][fc]
            expected.append(vec)
        assert basis == expected


@pytest.mark.parametrize("p,w", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 3)])
def test_verify_locality_algebraic_matches_span_oracle(p, w):
    f = F(p, w)
    rng = random.Random(f"span:{p}:{w}")

    def in_span(columns, target):
        return len(_reference_rref(columns)[1]) == len(_reference_rref(columns + [target])[1])

    checked = 0
    while checked < 10:
        n, k = rng.randint(2, 7), rng.randint(1, 3)
        gen = _random_matrix(rng, f, k, n)
        if len(_reference_rref(gen)[1]) < k:
            continue
        cut = sorted(rng.sample(range(1, n), rng.randint(0, min(2, n - 1))))
        groups = tuple(tuple(range(a, b)) for a, b in zip([0] + cut, cut + [n]))
        code = codes.LinearCode(field=f, n=n, k=k, generator=tuple(map(tuple, gen)),
                                repair_groups=groups)
        cols = [[row[j] for row in gen] for j in range(n)]
        expected = [in_span([cols[j] for j in code.group_of(i) if j != i], cols[i])
                    for i in range(n)]
        report = codes.verify_locality(code)
        assert report.algebraic == expected
        assert report.exhaustive == expected
        checked += 1


def _index_matrix(rng, f, m, n, rank=None):
    """m index rows of width n.  Without rank: random rows with zero rows,
    repeated rows and combinations of earlier rows among them; with rank,
    random combinations of `rank` random rows."""
    add, mul = galois.index_ops(f)

    def combination(sources):
        row = [0] * n
        for source in sources:
            c = rng.randrange(f.q)
            row = [add(x, mul(c, y)) for x, y in zip(row, source)]
        return row

    if rank is not None:
        basis = [[rng.randrange(f.q) for _ in range(n)] for _ in range(rank)]
        return [combination(basis) for _ in range(m)]
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.15:
            rows.append([0] * n)
        elif kind < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind < 0.45 and rows:
            rows.append(combination([rng.choice(rows), rng.choice(rows)]))
        else:
            rows.append([rng.randrange(f.q) for _ in range(n)])
    return rows


@pytest.mark.parametrize("p,w", [(2, 1), (2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 8)])
def test_byte_lane_elimination_matches_the_zech_kernel(p, w):
    """`_rref` and its byte-lane kernel give the (rows, pivots) of the Zech
    kernel they replace, at every width to 40 and on both sides of the
    lane threshold, and the forward-only form has the same pivots."""
    f = F(p, w)
    rng = random.Random(f"lanes:{p}:{w}")
    cut = codes._lane_cols(f)
    widths = sorted(set(range(1, 41)) | {cut - 1, cut, cut + 1, 47, 56, 64, 100, 128, 240,
                                           255, 256, 257, 300})
    shapes = collections.Counter()
    for n in widths:
        m = rng.randint(0, min(n + 3, 16))
        for rank in (None, rng.randint(0, min(m, n))):
            rows = _index_matrix(rng, f, m, n, rank)
            want = field_oracle.zech_rref(f, rows)
            assert codes._rref(f, rows) == want
            pivots = want[1]
            echelon, forward = codes._rref(f, rows, reduced=False)
            assert forward == pivots
            for i, row in enumerate(echelon):
                lead = pivots[i] if i < len(pivots) else n
                assert not any(row[:lead]) and (i >= len(pivots) or row[lead] == 1)
            if rows:
                assert codes._rref_lanes(f, rows, True) == want
                assert codes._rref_lanes(f, rows, False)[1] == pivots
            shapes.update({"lanes" if n >= cut else "logs": 1,
                           "deficient": len(pivots) < min(m, n), "zero rows": [0] * n in rows})
    assert shapes["lanes"] and shapes["logs"] and shapes["deficient"] and shapes["zero rows"]


# -- the support-mask scan ---------------------------------------------------------------

def _projection_oracle(code):
    """The definition of exhaustive locality, over the oracle's codewords: at each i,
    the projection onto the group mates determines the symbol."""
    words = field_oracle.all_codewords(code).tolist()
    result = []
    for i in range(code.n):
        mates = [j for j in code.group_of(i) if j != i]
        seen = {}
        result.append(all(seen.setdefault(tuple(w[j] for j in mates), w[i]) == w[i]
                          for w in words))
    return result


def _random_partition(rng, n):
    """Groups of unequal sizes (singletons included) over shuffled coordinates."""
    coords = list(range(n))
    rng.shuffle(coords)
    groups = []
    while coords:
        size = rng.choice([1, 1, 2, 3, 4])
        groups.append(tuple(coords[:size]))
        coords = coords[size:]
    return tuple(groups)


@pytest.mark.parametrize("p,w", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4)])
def test_exhaustive_locality_matches_projection_oracle(p, w):
    f = F(p, w)
    rng = random.Random(f"support:{p}:{w}")
    outcomes = collections.Counter()
    for _ in range(8):
        k = rng.randint(1, 3 if f.q <= 4 else 2)
        code = _random_full_rank_code(rng, f, k, k + rng.randint(1, 5))
        code = codes.LinearCode(field=f, n=code.n, k=k, generator=code.generator,
                                repair_groups=_random_partition(rng, code.n))
        expected = _projection_oracle(code)
        assert codes.verify_locality(code).exhaustive == expected
        outcomes.update(expected)
    assert outcomes[True] and outcomes[False]  # passing and failing coordinates


# every workload VERIFY_CODES shape that spans more than one block
@pytest.mark.parametrize("p,w,u,v,s,source_r", [(5, 2, 4, 0, 0, None), (5, 2, 2, 0, 2, None),
                                                (2, 6, 1, 1, 1, None), (3, 2, 1, 1, 1, None),
                                                (3, 2, 1, 1, 1, 2)])
def test_scan_over_several_blocks_matches_oracles(monkeypatch, p, w, u, v, s, source_r):
    # at the default bound most of these fit one block; 2^14 symbols splits each
    monkeypatch.setattr(codes, "_BLOCK_BYTES", 1 << 14)
    code = codes.build_rational_lrc(F(p, w), u, v, s)
    if source_r is not None:
        code = codes.naive_lrc(code, source_r)
    assert len(list(codes._nonzero_blocks(code))) > 1
    assert codes.min_distance(code) == brute_distance(code)
    report = codes.verify_locality(code)
    assert report.exhaustive == _projection_oracle(code)
    assert report.exhaustive == report.algebraic == [True] * code.n


def _lane_masks(code):
    """The support masks of `_nonzero_blocks` read back from its byte lanes,
    one row per codeword in scan order, and the number of blocks."""
    import numpy as np
    blocks = list(codes._nonzero_blocks(code))
    size = code.field.q ** code.k // len(blocks)
    masks = [np.array([list(lane.to_bytes(size, "little")) for lane in lanes]).T
             for lanes in blocks]
    return np.concatenate(masks), len(blocks)


@pytest.mark.parametrize("p,w,n,k", [(2, 1, 300, 12), (3, 1, 40, 7), (5, 1, 9, 5),
                                     (2, 2, 30, 6), (3, 2, 6, 1)])
def test_nonzero_blocks_are_the_supports_of_all_codewords(p, w, n, k):
    f = F(p, w)
    code = _random_full_rank_code(random.Random(f"blocks:{p}:{w}:{n}:{k}"), f, k, n)
    masks, _ = _lane_masks(code)
    words = field_oracle.all_codewords(code)
    assert (masks == (words != 0)).all()  # same words, same order
    assert codes.min_distance(code) == int((words[1:] != 0).sum(1).min())


def _random_groups(rng, code):
    return codes.LinearCode(field=code.field, n=code.n, k=code.k, generator=code.generator,
                            repair_groups=_random_partition(rng, code.n))


# q > 256: symbols wider than a byte, one row per block; n >= 256: counts
# wider than a byte
@pytest.mark.parametrize("p,w,n,k", [(17, 2, 4, 2), (2, 10, 5, 1), (2, 2, 260, 5)])
def test_scan_beyond_byte_symbols_and_byte_counts(p, w, n, k):
    f = F(p, w)
    rng = random.Random(f"wide:{p}:{w}:{n}:{k}")
    code = _random_full_rank_code(rng, f, k, n)
    gen = [list(row) for row in code.generator]
    if f.q > 256:  # a zero column and a column with a zero in its last row
        gen[-1][0] = f.zero()
        for row in gen:
            row[1] = f.zero()
    else:  # a word of weight n, whose count overflows a byte
        gen[0] = [f.one()] * n
    code = codes.LinearCode(field=f, n=n, k=k, generator=tuple(map(tuple, gen)))
    masks, nblocks = _lane_masks(code)
    words = field_oracle.all_codewords(code)
    assert nblocks == f.q ** (k - 1) if f.q > 256 else nblocks > 1
    assert (masks == (words != 0)).all()
    d = codes.min_distance(code)
    assert d == int((words[1:] != 0).sum(1).min())
    if f.q ** k <= 1024:
        assert d == brute_distance(code)
    outcomes = collections.Counter()
    for _ in range(2):
        grouped = _random_groups(rng, code)
        expected = _projection_oracle(grouped)
        assert codes.verify_locality(grouped).exhaustive == expected
        outcomes.update(expected)
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("bound", [0, 64])
@pytest.mark.parametrize("p,w,n,k", [(2, 1, 12, 6), (3, 1, 7, 4), (2, 2, 9, 3),
                                     (5, 1, 6, 3), (3, 2, 5, 2)])
def test_scan_with_small_blocks_matches(monkeypatch, bound, p, w, n, k):
    """Under a small block bound the leads of several rows are built a
    block at a time too: no column spans more than max(bound, n q)
    symbols, and the results stay the same."""
    f = F(p, w)
    rng = random.Random(f"small:{p}:{w}:{n}:{k}")
    code = _random_groups(rng, _random_full_rank_code(rng, f, k, n))
    expected = _projection_oracle(code)
    words = field_oracle.all_codewords(code)
    monkeypatch.setattr(codes, "_BLOCK_BYTES", bound)
    sizes = []
    columns = codes._columns

    def recorded(f, rows, n):
        cols = columns(f, rows, n)
        sizes.append(sum(map(len, cols)))
        return cols

    monkeypatch.setattr(codes, "_columns", recorded)
    masks, nblocks = _lane_masks(code)
    assert nblocks == f.q ** (k - codes._block_rows(f.q, k, n)) > 1
    assert (masks == (words != 0)).all()
    assert codes.min_distance(code) == brute_distance(code)
    assert codes.verify_locality(code).exhaustive == expected
    assert max(sizes) <= max(bound, n * f.q)


def test_code_of_length_zero_is_an_error():
    f3 = F(3, 1)
    with pytest.raises(DomainError, match="n >= 1"):
        codes.LinearCode(field=f3, n=0, k=0, generator=(), repair_groups=(), meta={"r": 1})
    with pytest.raises(DomainError):
        codes.from_json({"field": f3.to_json(), "n": 0, "k": 0, "generator": [],
                         "repair_groups": [], "r": 1})


def test_locality_default_r_is_computed_only_when_meta_has_none():
    f3 = F(3, 1)
    one, zero = f3.one(), f3.zero()
    gen = ((one, one, zero, zero, zero), (zero, zero, one, one, one))
    groups = ((0, 1), (2, 3, 4))
    bare = codes.LinearCode(field=f3, n=5, k=2, generator=gen, repair_groups=groups)
    assert codes.verify_locality(bare).r == 2  # the largest group, less one
    tagged = codes.LinearCode(field=f3, n=5, k=2, generator=gen, repair_groups=groups,
                              meta={"r": None})
    assert codes.verify_locality(tagged).r is None  # as given, not the default


def test_a_null_r_survives_a_json_round_trip():
    f3 = F(3, 1)
    one, zero = f3.one(), f3.zero()
    code = codes.LinearCode(field=f3, n=4, k=2, generator=((one, zero, one, zero),
                                                            (zero, one, zero, one)),
                            repair_groups=((0, 2), (1, 3)))
    assert codes.verify_locality(code).r == 1
    text = codes.to_json(code)
    assert json.loads(text)["r"] is None
    again = codes.from_json(text)
    assert "r" not in again.meta
    assert codes.verify_locality(again).r == 1
    assert codes.to_json(again) == text
    doc = json.loads(text)
    doc["params"]["r"] = 5  # params never supply r
    assert codes.verify_locality(codes.from_json(doc)).r == 1


def test_a_rank_deficient_generator_is_rejected():
    # the rank check every build and load runs
    f9 = F(3, 2)
    row = [f9.from_index(1), f9.from_index(2)]
    with pytest.raises(RankDeficiency, match="generator rank below k = 2"):
        codes.LinearCode(field=f9, n=2, k=2, generator=[row, list(row)])


def test_the_rank_of_an_empty_matrix_is_zero():
    assert codes.matrix_rank([]) == 0
    assert codes.matrix_rank([[]]) == 0


# -- the input contract of every public function ----------------------------------------

def _gf9_code():
    return codes.build_rational_lrc(F(3, 2), 1, 1, 1)  # [6, 4], groups of r + 1 = 3


def _two_group_code(n, k, entry):
    """A GF(3) [4, 2] code whose last repair-group entry is `entry` (3)."""
    one, zero = F(3, 1).one(), F(3, 1).zero()
    gen = ((one, one, zero, zero), (zero, zero, one, one))
    return codes.LinearCode(F(3, 1), n, k, gen, ((0, 1), (2, entry)))


def _document(**fields):
    """The JSON document of `_gf9_code` with top-level fields replaced, and
    its first repair-group entry replaced by `entry`."""
    doc = json.loads(codes.to_json(_gf9_code()))
    doc["repair_groups"][0][0] = fields.pop("entry", 0)
    doc.update(fields)
    return doc


#: (name, call, valid keyword arguments, the integer parameters among them,
#: whether they are a document's): every public function of `codes`, public
#: method of `LinearCode` and the `LinearCode` constructor has an entry
_CONTRACT = [
    ("codes.poly_eval", lambda: codes.poly_eval((F(3, 2).one(),), F(3, 2).zero()), {}, (),
     False),
    ("codes.matrix_rank", lambda: codes.matrix_rank([[F(3, 2).one()]]), {}, (), False),
    ("codes.null_space", lambda: codes.null_space(F(3, 2), [[F(3, 2).one()] * 2]), {}, (),
     False),
    ("codes.good_function", lambda u, v: codes.good_function(F(3, 2), u, v),
     {"u": 1, "v": 1}, ("u", "v"), False),
    ("codes.build_rational_lrc", lambda u, v, s: codes.build_rational_lrc(F(3, 2), u, v, s),
     {"u": 1, "v": 1, "s": 1}, ("u", "v", "s"), False),
    ("codes.naive_lrc", lambda r: codes.naive_lrc(_code_633(), r), {"r": 2}, ("r",), False),
    ("codes.encode", lambda m: codes.encode(_gf9_code(), [m, 0, 0, 1]), {"m": 5}, ("m",),
     False),
    ("codes.local_repair",
     lambda idx, x: codes.local_repair(_gf9_code(), [None, x, 2, 3, 4, 5], idx),
     {"idx": 0, "x": 7}, ("idx", "x"), False),
    ("codes.all_codewords", lambda limit: codes.all_codewords(_code_633(), limit),
     {"limit": 8}, ("limit",), False),
    ("codes.min_distance", lambda limit: codes.min_distance(_gf9_code(), limit),
     {"limit": 9**4}, ("limit",), False),
    ("codes.verify_locality",
     lambda limit: codes.verify_locality(_gf9_code(), exhaustive_limit=limit),
     {"limit": 9**4}, ("limit",), False),
    ("codes.to_json", lambda: codes.to_json(_gf9_code()), {}, (), False),
    ("codes.from_json", lambda **fields: codes.from_json(_document(**fields)),
     {"n": 6, "k": 4, "r": 2, "d_lower": 2, "entry": 0}, ("n", "k", "r", "d_lower", "entry"),
     True),
    ("LinearCode", _two_group_code, {"n": 4, "k": 2, "entry": 3}, ("n", "k", "entry"), False),
    ("LinearCode.group_of", lambda idx: _gf9_code().group_of(idx), {"idx": 0}, ("idx",),
     False),
]


def test_every_public_codes_function_has_a_contract_entry():
    public = {f"codes.{name}" for name, fn in inspect.getmembers(codes, inspect.isfunction)
              if fn.__module__ == codes.__name__ and not name.startswith("_")}
    public |= {f"LinearCode.{name}"
               for name, _ in inspect.getmembers(codes.LinearCode, inspect.isfunction)
               if not name.startswith("_")}
    assert public | {"LinearCode"} == {name for name, *_ in _CONTRACT}


def _plain(result):
    """A result as comparable, JSON-ready data: a code as its document."""
    return codes.to_json(result) if isinstance(result, codes.LinearCode) else result


@pytest.mark.parametrize("name,call,kwargs,integers,document", _CONTRACT,
                         ids=[name for name, *_ in _CONTRACT])
def test_a_non_integer_parameter_is_one_lrc_error(name, call, kwargs, integers, document):
    # never a raw exception; a numpy integer acts as the int it holds (so a
    # code's to_json still writes plain integers), and a document takes
    # JSON integers alone
    import numpy as np

    want = _plain(call(**kwargs))  # the valid arguments are valid
    for key in integers:
        for value in (2.5, math.nan, "3"):
            with pytest.raises(LrcError):
                call(**{**kwargs, key: value})
        if document:
            for value in (np.int64(kwargs[key]), bool(kwargs[key]), float(kwargs[key])):
                with pytest.raises(SpecMismatch, match="is not an integer$"):
                    call(**{**kwargs, key: value})
        else:
            assert _plain(call(**{**kwargs, key: np.int64(kwargs[key])})) == want, key
