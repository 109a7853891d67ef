import collections
import inspect
import itertools
import math
import random

import pytest

from lrctower import galois, tower
from lrctower.errors import (
    DistanceNonpositive,
    InvariantViolation,
    LocalityTooSmall,
    LrcError,
    NoSquareRoot,
    NotAdmissible,
    SOutOfRange,
    TooLarge,
)


def F(p, w):
    return galois.field_create(p, w)


# -- place enumeration -----------------------------------------------------

@pytest.mark.parametrize(
    "p,w,m",
    [(2, 2, 1), (2, 2, 2), (2, 2, 3), (3, 2, 1), (3, 2, 2), (3, 2, 3),
     (2, 4, 1), (2, 4, 2), (5, 2, 1), (5, 2, 2)],
)
def test_place_counts(p, w, m):
    spec = F(p, w)
    places = tower.enumerate_places(spec, m)
    assert len(places) == spec.ell ** (m - 1) * (spec.q - spec.ell)


def test_level_one_places_are_kernel_complement():
    f9 = F(3, 2)
    places = tower.enumerate_places(f9, 1)
    kernel = {e.index for e in galois.artin_schreier_kernel(f9)}
    assert {p.coords[0].index for p in places} == set(range(9)) - kernel
    assert len(places) == 6


def test_places_satisfy_recursion_invariants():
    spec = F(3, 2)
    for place in tower.enumerate_places(spec, 3):
        tower.validate_place(spec, place)


def test_places_sorted_lexicographically():
    spec = F(2, 4)
    places = tower.enumerate_places(spec, 2)
    keys = [p.key() for p in places]
    assert keys == sorted(keys)


def test_enumerate_guards():
    with pytest.raises(NoSquareRoot):
        tower.enumerate_places(F(3, 3), 1)
    with pytest.raises(TooLarge):
        tower.enumerate_places(F(2, 10), 3)  # 32^2 * 992 > 1e6


# -- genus -----------------------------------------------------------------

def test_genus_values():
    assert tower.genus(F(3, 2), 2) == 4  # (3-1)^2
    assert tower.genus(F(2, 4), 3) == 45  # (16-1)(4-1)
    for spec in (F(3, 2), F(2, 4), F(5, 2)):
        assert tower.genus(spec, 1) == 0


# -- admissible parameters ---------------------------------------------------

def test_admissible_params_examples():
    assert [r for (_, _, r) in tower.admissible_params(F(2, 6))] == [1, 3, 6, 7, 55]
    assert [r for (_, _, r) in tower.admissible_params(F(3, 2))] == [1, 2, 5]
    rs_4096 = {r for (_, _, r) in tower.admissible_params(F(2, 12))}
    assert rs_4096 >= {1, 2, 3, 6, 7, 8, 11, 15, 20, 31, 47, 55, 62, 63}


def test_admissible_params_sorted_and_distinct():
    rows = tower.admissible_params(F(5, 4))
    rs = [r for (_, _, r) in rows]
    assert rs == sorted(rs)
    assert len(rs) == len(set(rs))
    for (u, v, r) in rows:
        assert u * 5**v - 1 == r


# -- subgroups ----------------------------------------------------------------

def test_build_subgroup_order_and_closure():
    g = tower.build_subgroup(F(3, 2), 2, 1)
    assert g.order == 6 and g.r == 5
    # closure is validated in the constructor; re-check composition table
    members = set(g.elements)
    for s1 in g:
        for s2 in g:
            assert tower.compose(s1, s2) in members
        assert tower.aut_inverse(s1) in members


def test_trivial_subgroup():
    g = tower.build_subgroup(F(3, 2), 1, 0)
    assert g.order == 1
    sigma = g.elements[0]
    assert sigma.c == F(3, 2).one() and sigma.a.is_zero()


def test_subgroup_gf16_all_scalars_one():
    g = tower.build_subgroup(F(2, 4), 1, 2)
    assert g.order == 4
    one = F(2, 4).one()
    assert all(s.c == one for s in g)


def test_build_subgroup_rejects_inadmissible():
    with pytest.raises(NotAdmissible):
        tower.build_subgroup(F(3, 2), 4, 0)  # 4 does not divide ell-1 = 2


# -- the action ----------------------------------------------------------------

def test_act_identity():
    spec = F(3, 2)
    g = tower.build_subgroup(spec, 1, 0)
    for place in tower.enumerate_places(spec, 2):
        assert tower.act_inverse(g.elements[0], place) == place


def test_act_preserves_invariants_everywhere():
    spec = F(3, 2)
    g = tower.build_subgroup(spec, 2, 1)
    for place in tower.enumerate_places(spec, 2):
        for sigma in g:
            img = tower.act_inverse(sigma, place)  # validates internally
            assert img.level == place.level


def test_act_example_gf9():
    spec = F(3, 2)
    beta = spec.element([0, 1])
    minus_one = -spec.one()
    sigma = tower.AutMap(minus_one, beta)
    place = tower.enumerate_places(spec, 2)[0]
    img = tower.act_inverse(sigma, place)
    assert img.coords[0] == minus_one * place.coords[0]
    assert img.coords[1] == minus_one * place.coords[1] + beta


def test_act_composition_identity():
    # with (s1 o s2) = (c1 c2, c1 a2 + a1) the induced place action nests as
    # act(s1 o s2, P) = act(s1, act(s2, P))
    spec = F(2, 4)
    g = tower.build_subgroup(spec, 3, 2)
    places = tower.enumerate_places(spec, 2)
    rng = random.Random(7)
    for _ in range(200):
        s1, s2 = rng.choice(g.elements), rng.choice(g.elements)
        place = rng.choice(places)
        lhs = tower.act_inverse(tower.compose(s1, s2), place)
        rhs = tower.act_inverse(s1, tower.act_inverse(s2, place))
        assert lhs == rhs


# -- orbits ---------------------------------------------------------------------

def test_orbits_gf9_level1():
    spec = F(3, 2)
    g = tower.build_subgroup(spec, 1, 1)  # order 3
    places = tower.enumerate_places(spec, 1)
    orbits = tower.orbit_partition(g, places)
    assert [len(o) for o in orbits] == [3, 3]
    assert sorted(i for o in orbits for i in o) == list(range(6))


def test_orbits_gf9_level2_order6():
    spec = F(3, 2)
    g = tower.build_subgroup(spec, 2, 1)
    places = tower.enumerate_places(spec, 2)
    orbits = tower.orbit_partition(g, places)
    assert [len(o) for o in orbits] == [6, 6, 6]


def test_orbits_trivial_group():
    spec = F(3, 2)
    g = tower.build_subgroup(spec, 1, 0)
    places = tower.enumerate_places(spec, 1)
    orbits = tower.orbit_partition(g, places)
    assert all(len(o) == 1 for o in orbits)
    assert len(orbits) == len(places)


def test_orbits_deterministic_and_sorted():
    spec = F(2, 4)
    g = tower.build_subgroup(spec, 3, 0)
    places = tower.enumerate_places(spec, 2)
    orbits = tower.orbit_partition(g, places)
    assert orbits == tower.orbit_partition(g, places)
    reps = [o[0] for o in orbits]
    assert reps == sorted(reps)
    for o in orbits:
        assert o == sorted(o)


def test_orbit_last_coordinates_distinct():
    spec = F(5, 2)
    places = tower.enumerate_places(spec, 2)
    for (u, v, r) in tower.admissible_params(spec):
        g = tower.build_subgroup(spec, u, v)
        for orbit in tower.orbit_partition(g, places):
            last = {places[i].coords[-1].index for i in orbit}
            assert len(last) == r + 1


# -- Thm 3.4 style parameters ---------------------------------------------------

def test_params_gf9_m1():
    assert tower.thm34_params(F(3, 2), 1, 2, 1) == (6, 3, 2)


def test_params_gf16_m2():
    spec = F(2, 4)
    n, k_lb, d_lb = tower.thm34_params(spec, 2, 3, 4)
    assert (n, k_lb, d_lb) == (48, 6, 24)
    assert tower.genus(spec, 2) == 9


def test_params_rate_distance_sum():
    # d_lb + (r+1)/r * k_lb >= n - (r-1) ell^{m-1} - g + 1 (up to ceiling slack)
    from fractions import Fraction

    for (p, w, m, r, s) in [(3, 2, 1, 2, 1), (2, 4, 2, 3, 4), (2, 4, 2, 3, 6),
                            (5, 2, 1, 4, 2), (3, 2, 2, 2, 3)]:
        spec = F(p, w)
        n, k_lb, d_lb = tower.thm34_params(spec, m, r, s)
        g = tower.genus(spec, m)
        lhs = Fraction(d_lb) + Fraction(r + 1, r) * k_lb
        rhs = n - (r - 1) * spec.ell ** (m - 1) - g + 1
        assert lhs >= rhs


@pytest.mark.parametrize("m", [0, -1])
def test_levels_below_one_are_not_admissible(m):
    spec = F(3, 2)
    for call in (lambda: tower.genus(spec, m), lambda: tower.s_range(spec, m, 2),
                 lambda: tower.thm34_params(spec, m, 2, 0),
                 lambda: tower.enumerate_places(spec, m)):
        with pytest.raises(NotAdmissible, match=f"level must be >= 1, got {m}"):
            call()


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("r", [0, -1, -2])
def test_s_range_rejects_localities_below_one(m, r):
    # at m = 2 over GF(9), r = -1 once divided by zero and r = 0, -2 returned
    # ranges
    with pytest.raises(LocalityTooSmall, match=f"locality r = {r} < 1"):
        tower.s_range(F(3, 2), m, r)


def test_params_errors():
    spec = F(3, 2)
    with pytest.raises(SOutOfRange):
        tower.thm34_params(spec, 1, 2, 3)  # s > ell - 1
    with pytest.raises(DistanceNonpositive):
        tower.thm34_params(spec, 1, 2, 2)  # d_lb = 6 - 6 - 1 < 1
    with pytest.raises(NotAdmissible):
        tower.thm34_params(spec, 1, 3, 1)  # r = 3 not admissible for GF(9)


def test_place_to_genus_ratio_trend():
    # n/g drifts toward sqrt(q) - 1; loosely within 10% at the largest
    # level under the enumeration guard
    for (p, w) in [(2, 2), (3, 2)]:
        spec = F(p, w)
        ell, q = spec.ell, spec.q
        m = 1
        while ell**m * (q - ell) <= tower.PLACE_GUARD:
            m += 1
        n = ell ** (m - 1) * (q - ell)
        ratio = n / tower.genus(spec, m)
        target = ell - 1
        assert abs(ratio - target) <= 0.1 * target


# -- the index-level subgroup and orbit checks ---------------------------------------

def _subgroup_params(spec):
    """Every (u, v) that check_admissible accepts, the trivial group included."""
    for v in range(spec.w // 2 + 1):
        for u in range(1, spec.ell):
            try:
                galois.check_admissible(spec, u, v)
            except NotAdmissible:
                continue
            yield u, v


def _reference_orbits(group, places):
    """Orbits through the public element-level act_inverse, each checked to be
    closed under one more group element via compose."""
    index_of = {pl.key(): i for i, pl in enumerate(places)}
    last = group.elements[-1]
    seen, orbits = set(), []
    for i, place in enumerate(places):
        if i in seen:
            continue
        orbit = {index_of[tower.act_inverse(sigma, place).key()] for sigma in group}
        for sigma in group:
            image = tower.act_inverse(tower.compose(sigma, last), place)
            assert image == tower.act_inverse(sigma, tower.act_inverse(last, place))
            assert index_of[image.key()] in orbit
        seen |= orbit
        orbits.append(sorted(orbit))
    return orbits


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p,w", [(2, 2), (3, 2), (2, 4), (5, 2), (2, 6)])
def test_orbit_partition_matches_element_level_reference(p, w, m):
    spec = F(p, w)
    places = tower.enumerate_places(spec, m)
    params = list(_subgroup_params(spec))
    assert (1, 0) in params
    for u, v in params:
        group = tower.build_subgroup(spec, u, v)
        assert tower.orbit_partition(group, places) == _reference_orbits(group, places)


@pytest.mark.parametrize("p,w", [(2, 2), (3, 2), (2, 4), (5, 2), (7, 2), (2, 6), (3, 4),
                                 (2, 8), (2, 10)])
def test_every_built_subgroup_acts_on_the_tower(p, w):
    spec = F(p, w)
    params = list(_subgroup_params(spec))
    assert (1, 0) in params
    for u, v in params:
        assert tower._pair_failure(spec, tower.build_subgroup(spec, u, v).pairs) is None


def test_orbit_partition_over_an_odd_degree_field_is_no_square_root():
    # a group AutSubgroup certifies over GF(8), which has no ell: the same
    # error as enumerate_places, for any place list
    f8 = F(2, 3)
    group = tower.AutSubgroup(f8, 1, 0, [(1, 0)])
    for places in ([], [tower.TowerPlace(1, (f8.one(),))]):
        with pytest.raises(NoSquareRoot, match=r"^GF\(2\^3\) has odd degree$"):
            tower.orbit_partition(group, places)
    with pytest.raises(NoSquareRoot, match=r"^GF\(2\^3\) has odd degree$"):
        tower.enumerate_places(f8, 1)


def test_orbit_partition_names_a_pair_that_is_not_a_tower_automorphism():
    # closed groups of affine pairs that AutSubgroup certifies, but that do
    # not map places to places
    f16 = F(2, 4)
    exp = f16._logs[0]
    scalings = tower.AutSubgroup(f16, 5, 0, [(exp[3 * k], 0) for k in range(5)])
    first = min(exp[3 * k] for k in range(1, 5))
    with pytest.raises(InvariantViolation,
                       match=rf"^pair \({first}, 0\) is not a tower automorphism: "
                             r"c lies outside F_4\^\*$"):
        tower.orbit_partition(scalings, tower.enumerate_places(f16, 1))
    f9 = F(3, 2)
    trace = tower._maps(f9)[0]
    a0 = next(a for a in range(1, f9.q) if trace[a])
    shifts = tower.AutSubgroup(f9, 2, 0, [(1, 0), (f9.p - 1, a0)])  # a -> -a + a0
    for m in (1, 2):
        with pytest.raises(InvariantViolation,
                           match=rf"^pair \({f9.p - 1}, {a0}\) is not a tower automorphism: "
                                 "a lies outside the additive kernel$"):
            tower.orbit_partition(shifts, tower.enumerate_places(f9, m))


@pytest.mark.parametrize("p,w,u,v", [(2, 2, 1, 1), (3, 2, 2, 1), (2, 4, 3, 2), (5, 2, 4, 1),
                                     (2, 6, 7, 3)])
def test_subgroup_rejects_a_dropped_or_altered_pair(p, w, u, v):
    spec = F(p, w)
    pairs = tower.build_subgroup(spec, u, v).pairs
    assert len(pairs) >= 2
    tower.AutSubgroup(spec, u, v, list(reversed(pairs)))  # order does not matter
    outside = [(c, a) for c in range(1, spec.q) for a in range(spec.q)
               if (c, a) not in set(pairs)]
    rng = random.Random(f"pairs:{p}:{w}:{u}:{v}")
    for k in range(len(pairs)):
        with pytest.raises(InvariantViolation):
            tower.AutSubgroup(spec, u, v, pairs[:k] + pairs[k + 1:])
        # |G| - 1 elements of G and one outsider never form a group when
        # |G| > 2, since a subgroup of order |G| - 1 cannot divide |G|
        altered = pairs[:k] + [rng.choice(outside)] + pairs[k + 1:]
        if len(pairs) > 2:
            with pytest.raises(InvariantViolation):
                tower.AutSubgroup(spec, u, v, altered)
        with pytest.raises(InvariantViolation):
            tower.AutSubgroup(spec, u, v, pairs[:k] + [pairs[k - 1]] + pairs[k + 1:])


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p,w,u,v", [(3, 2, 1, 0), (3, 2, 2, 1), (2, 4, 1, 0), (2, 4, 3, 2),
                                     (5, 2, 1, 1)])
def test_orbit_partition_rejects_a_corrupted_place(p, w, u, v, m):
    spec = F(p, w)
    places = tower.enumerate_places(spec, m)
    group = tower.build_subgroup(spec, u, v)
    for k in (0, len(places) // 2, len(places) - 1):
        bad = list(places)
        # a zero last coordinate breaks the recursion (or, at m = 1, puts
        # the place in the additive kernel)
        bad[k] = tower.TowerPlace(m, places[k].coords[:-1] + (spec.zero(),))
        with pytest.raises(InvariantViolation):
            tower.orbit_partition(group, bad)
        bad[k] = places[k - 1]  # a valid place, listed twice
        with pytest.raises(InvariantViolation):
            tower.orbit_partition(group, bad)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("p,w,u,v", [(3, 2, 2, 1), (2, 4, 3, 2), (5, 2, 4, 1)])
def test_orbit_partition_rejects_an_orbit_of_non_places(p, w, u, v, m):
    spec = F(p, w)
    places = tower.enumerate_places(spec, m)
    group = tower.build_subgroup(spec, u, v)
    orbit = tower.orbit_partition(group, places)[1]
    # the first place with its last coordinate moved off the recursion: the
    # automorphisms map places to places and non-places to non-places
    head = places[orbit[0]].coords[:-1]
    last = next(x for x in spec.elements()
                if tower._failure(tower._maps(spec), tuple(y.index for y in head + (x,))))
    images = [tower.TowerPlace(m, tuple(s.c * y for y in head) + (s.c * last + s.a,))
              for s in group]
    bad = list(places)
    for j, image in zip(orbit, images):
        bad[j] = image
    with pytest.raises(InvariantViolation,
                       match=f"^place {orbit[0]}: recursion fails at coordinate {m}$"):
        tower.orbit_partition(group, bad)


@pytest.mark.parametrize("p,w,u,v,m", [(3, 2, 1, 1, 1), (3, 2, 2, 1, 2), (2, 4, 3, 2, 2)])
def test_orbit_partition_names_a_corrupted_place_or_a_dropped_one(p, w, u, v, m):
    spec = F(p, w)
    places = tower.enumerate_places(spec, m)
    group = tower.build_subgroup(spec, u, v)
    k = len(places) // 2
    bad = list(places)
    bad[k] = tower.TowerPlace(m, places[k].coords[:-1] + (spec.zero(),))
    with pytest.raises(InvariantViolation, match=f"^place {k}: "):
        tower.orbit_partition(group, bad)
    with pytest.raises(InvariantViolation, match="^orbit left the place list$"):
        tower.orbit_partition(group, places[:-1])


def _cross_multiplied_failure(spec, coords):
    """The earlier, denominator-free form of the recursion check, kept as the
    oracle of `tower._failure`: a_1^ell + a_1 != 0 and
    (a_i^ell + a_i)(a_{i-1}^(ell-1) + 1) = a_{i-1}^ell, over elements."""
    ell = spec.ell
    x = [spec.from_index(c) for c in coords]
    if (x[0] ** ell + x[0]).is_zero():
        return "first coordinate lies in the additive kernel"
    for i in range(1, len(x)):
        if (x[i] ** ell + x[i]) * (x[i - 1] ** (ell - 1) + 1) != x[i - 1] ** ell:
            return f"recursion fails at coordinate {i + 1}"
    return None


@pytest.mark.parametrize("p,w,m", [(2, 2, 2), (3, 2, 2), (2, 4, 2), (5, 2, 2), (7, 2, 2),
                                   (2, 2, 3), (3, 2, 3)])
def test_place_check_matches_the_cross_multiplied_oracle(p, w, m):
    spec = F(p, w)
    maps, valid = tower._maps(spec), []
    for coords in itertools.product(range(spec.q), repeat=m):
        why = tower._failure(maps, coords)
        assert why == _cross_multiplied_failure(spec, coords), coords
        if why is None:
            valid.append(coords)
    assert valid == [pl.key() for pl in tower.enumerate_places(spec, m)]


@pytest.mark.parametrize("p,w", [(2, 2), (3, 2), (2, 4), (5, 2), (2, 6), (3, 4)])
def test_kernel_is_the_zero_set_of_the_trace_map(p, w):
    # the kernel reads the trace map; the right-hand side is the log
    # criterion a^(ell-1) = -1: (ell-1) log a = log(-1) mod q - 1
    spec = F(p, w)
    trace = tower._maps(spec)[0]
    log, m = spec._logs[1], spec.q - 1
    assert ([a.index for a in galois.artin_schreier_kernel(spec)]
            == [x for x, t in enumerate(trace) if not t]
            == [0] + [x for x in range(1, spec.q)
                      if (spec.ell - 1) * log[x] % m == log[spec.p - 1]])


# -- the generator certificate against the all-pairs oracle ------------------------

def _all_pairs_verdict(spec, order, pairs):
    """The all-pairs subgroup check over indices, kept as the oracle of
    `AutSubgroup`'s generator closure: that many distinct pairs, each c a
    unit and each a an element, the identity, every inverse and every one
    of the |G|^2 compositions inside the pair set."""
    q = spec.q
    members = set(pairs)
    if len(members) != order or len(pairs) != order:
        return False
    if not all(0 < c < q and 0 <= a < q for c, a in pairs):
        return False
    if (1, 0) not in members:
        return False
    exp, log, _ = spec._logs
    add, _ = galois.index_ops(spec)
    m, neg = q - 1, log[spec.p - 1]  # log(-1)
    logs = [(log[c], log[a]) for c, a in pairs]  # log(0) = -1
    for (c1, a1), (lc1, la1) in zip(pairs, logs):
        if (exp[m - lc1], exp[(la1 - lc1 + neg) % m] if a1 else 0) not in members:
            return False  # (1/c, -a/c)
        for (c2, a2), (lc2, la2) in zip(pairs, logs):
            # (c1, a1) o (c2, a2) = (c1 c2, c1 a2 + a1)
            if (exp[lc1 + lc2], add(exp[lc1 + la2] if a2 else 0, a1)) not in members:
                return False
    return True


def _certified(spec, u, v, pairs):
    try:
        tower.AutSubgroup(spec, u, v, pairs)
    except InvariantViolation:
        return False
    return True


def _pair_ops(spec):
    """compose and the closure of a pair set, over elements."""
    elem = spec.from_index

    def compose(x, y):
        s = tower.compose(tower.AutMap(elem(x[0]), elem(x[1])),
                          tower.AutMap(elem(y[0]), elem(y[1])))
        return (s.c.index, s.a.index)

    def closure(gens):
        group, frontier = set(gens), list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = compose(x, g)
                if y not in group:
                    group.add(y)
                    frontier.append(y)
        return group

    return compose, closure


def _candidate_pair_sets(spec, u, v, rng):
    """Pair sets of size u p^v: the built subgroup, its conjugates by
    translations (not products H x W once u > 1), cyclic groups of that
    order, the subgroup with one pair altered, cosets and other sets without
    the identity, proper subgroups plus one extra pair (and filled up from
    the group that pair generates with them), and random sets."""
    q, order = spec.q, u * spec.p**v
    compose, closure = _pair_ops(spec)
    group = tower.build_subgroup(spec, u, v).pairs
    units = [(c, a) for c in range(1, q) for a in range(q)]
    outside = [x for x in units if x not in set(group)]
    yield group
    for _ in range(3):
        b = rng.randrange(1, q)
        minus_b = (-spec.from_index(b)).index
        yield [compose(compose((1, b), x), (1, minus_b)) for x in group]
    for _ in range(3):
        cyclic = closure([rng.choice(units)])
        if len(cyclic) == order:
            yield sorted(cyclic)
    if outside:
        k = rng.randrange(order)
        yield group[:k] + [rng.choice(outside)] + group[k + 1:]
        x = rng.choice(outside)
        yield [compose(g, x) for g in group]  # a coset: no identity
        if order > 1:
            yield [g for g in group if g != (1, 0)] + [x]
    for _ in range(6):
        sub = closure([rng.choice(units)])
        if len(sub) >= order:
            continue
        extra = rng.choice([x for x in units if x not in sub])
        pool = sorted(closure(sorted(sub) + [extra]) - sub - {extra})
        if len(sub) + 1 + len(pool) >= order:
            yield sorted(sub) + [extra] + rng.sample(pool, order - len(sub) - 1)
        rest = [x for x in units if x not in sub and x != extra]
        yield sorted(sub) + [extra] + rng.sample(rest, order - len(sub) - 1)
    for _ in range(4):
        yield rng.sample(units, order)


@pytest.mark.parametrize("p,w", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_certificate_matches_the_all_pairs_oracle(p, w):
    spec = F(p, w)
    rng = random.Random(f"certificate:{p}:{w}")
    verdicts = collections.Counter()
    for u, v in _subgroup_params(spec):
        order = u * p**v
        for pairs in _candidate_pair_sets(spec, u, v, rng):
            assert len(pairs) == order
            verdict = _all_pairs_verdict(spec, order, pairs)
            assert _certified(spec, u, v, pairs) == verdict, (u, v, pairs)
            verdicts[verdict] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_certificate_accepts_a_subgroup_that_is_not_a_product():
    spec = F(3, 2)
    minus_one = spec.p - 1
    for a0 in range(1, spec.q):
        pairs = [(1, 0), (minus_one, a0)]  # a -> -a + a0 is an involution
        assert _all_pairs_verdict(spec, 2, pairs)
        assert tower.AutSubgroup(spec, 2, 0, pairs).pairs == pairs


def test_certificate_of_the_order_992_group_over_gf1024():
    spec = F(2, 10)
    group = tower.build_subgroup(spec, 31, 5)
    assert group.order == len(group.pairs) == 992 == spec.q - spec.ell
    orbits = tower.orbit_partition(group, tower.enumerate_places(spec, 1))
    assert orbits == [list(range(992))]


_ODD = r"^GF\(2\^3\) has odd degree$"


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: tower.validate_place(F(3, 2), tower.TowerPlace(1, (F(3, 2).zero(),))),
                 InvariantViolation, "additive kernel", id="validate-kernel-coordinate"),
    pytest.param(lambda: tower.validate_place(F(2, 3), tower.TowerPlace(1, (F(2, 3).one(),))),
                 NoSquareRoot, _ODD, id="validate-odd-degree"),
    pytest.param(lambda: tower.genus(F(2, 3), 1), NoSquareRoot, _ODD, id="genus-odd-degree"),
    pytest.param(lambda: tower.admissible_params(F(2, 3)), NoSquareRoot, _ODD,
                 id="admissible-params-odd-degree"),
    pytest.param(lambda: tower.AutSubgroup(F(3, 2), 1, 0, [(0, 0)]), InvariantViolation,
                 "not a unit", id="subgroup-pair-not-a-unit"),
])
def test_tower_error_paths(call, error, match):
    with pytest.raises(error, match=match):
        call()


# -- the input contract of every public function ----------------------------------------

def _place(spec):
    return tower.TowerPlace(1, (spec.from_index(2),))  # a place of T_1 over GF(16)


def _identity(spec):
    return tower.AutMap(spec.one(), spec.zero())


#: (name, call, valid keyword arguments, the integer parameters among them,
#: whether the field must be a square): each call takes the field as `spec`
#: (GF(16) when valid), and every public function of `galois` and `tower`,
#: public method of `galois.FieldSpec` and `FieldElement.__pow__` has an entry
_CONTRACT = [
    ("galois.field_create", lambda spec, p, w: galois.field_create(p, w),
     {"p": 3, "w": 2}, ("p", "w"), False),
    ("galois.field_from_json",
     lambda spec, p, w: galois.field_from_json({"p": p, "w": w, "modulus": [1, 0, 1]}),
     {"p": 3, "w": 2}, ("p", "w"), False),
    ("galois.index_ops", galois.index_ops, {}, (), False),
    ("galois.artin_schreier_kernel", galois.artin_schreier_kernel, {}, (), True),
    ("galois.unit_subgroup", galois.unit_subgroup, {"u": 3}, ("u",), True),
    ("galois.subgroup_exponent", lambda spec, u, p: galois.subgroup_exponent(u, p),
     {"u": 3, "p": 2}, ("u", "p"), False),
    ("galois.check_admissible", galois.check_admissible, {"u": 3, "v": 2}, ("u", "v"), True),
    ("galois.repair_subspace", galois.repair_subspace, {"u": 3, "v": 2}, ("u", "v"), True),
    ("FieldSpec.element", lambda spec, c: spec.element([c, 0, 0, 1]), {"c": 1}, ("c",), False),
    ("FieldSpec.from_index", lambda spec, i: spec.from_index(i), {"i": 5}, ("i",), False),
    ("FieldSpec.zero", lambda spec: spec.zero(), {}, (), False),
    ("FieldSpec.one", lambda spec: spec.one(), {}, (), False),
    ("FieldSpec.scalar", lambda spec, c: spec.scalar(c), {"c": 1}, ("c",), False),
    ("FieldSpec.elements", lambda spec: list(spec.elements()), {}, (), False),
    ("FieldSpec.tables", lambda spec: spec.tables(), {}, (), False),
    ("FieldSpec.to_json", lambda spec: spec.to_json(), {}, (), False),
    ("FieldElement.__pow__", lambda spec, n: spec.from_index(5) ** n, {"n": 3}, ("n",), False),
    ("tower.compose", lambda spec: tower.compose(_identity(spec), _identity(spec)),
     {}, (), False),
    ("tower.aut_inverse", lambda spec: tower.aut_inverse(_identity(spec)), {}, (), False),
    ("tower.enumerate_places", tower.enumerate_places, {"m": 1}, ("m",), True),
    ("tower.validate_place", lambda spec: tower.validate_place(spec, _place(spec)),
     {}, (), True),
    ("tower.genus", tower.genus, {"m": 2}, ("m",), True),
    ("tower.admissible_params", tower.admissible_params, {}, (), True),
    ("tower.build_subgroup", tower.build_subgroup, {"u": 3, "v": 2}, ("u", "v"), True),
    ("tower.act_inverse", lambda spec: tower.act_inverse(_identity(spec), _place(spec)),
     {}, (), True),
    ("tower.orbit_partition",
     lambda spec: tower.orbit_partition(tower.AutSubgroup(spec, 1, 0, [(1, 0)]), [_place(spec)]),
     {}, (), True),
    ("tower.s_range", tower.s_range, {"m": 2, "r": 3}, ("m", "r"), True),
    ("tower.thm34_params", tower.thm34_params, {"m": 1, "r": 3, "s": 1}, ("m", "r", "s"), True),
]


def test_every_public_galois_and_tower_function_has_a_contract_entry():
    public = {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
              for module in (galois, tower)
              for name, fn in inspect.getmembers(module, inspect.isfunction)
              if fn.__module__ == module.__name__ and not name.startswith("_")}
    public |= {f"FieldSpec.{name}"
               for name, _ in inspect.getmembers(galois.FieldSpec, inspect.isfunction)
               if not name.startswith("_")}
    assert public | {"FieldElement.__pow__"} == {name for name, *_ in _CONTRACT}


@pytest.mark.parametrize("name,call,kwargs,integers,square", _CONTRACT,
                         ids=[name for name, *_ in _CONTRACT])
def test_a_non_integer_or_an_odd_degree_field_is_one_lrc_error(name, call, kwargs,
                                                               integers, square):
    # never a raw exception, an element with a non-integer index or a float result
    call(F(2, 4), **kwargs)  # the valid arguments are valid
    for key in integers:
        for value in (2.5, math.nan, "3"):
            with pytest.raises(LrcError):
                call(F(2, 4), **{**kwargs, key: value})
    if square:
        with pytest.raises(NoSquareRoot, match=r"^GF\(2\^3\) has odd degree$"):
            call(F(2, 3), **kwargs)
