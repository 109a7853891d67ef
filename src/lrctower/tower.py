"""Combinatorial model of the recursive function-field tower T_m over GF(q).

A rational evaluation place of T_m is a coordinate tuple (a_1, ..., a_m)
with a_1^ell + a_1 != 0 and a_i^ell + a_i = a_{i-1}^ell / (a_{i-1}^{ell-1} + 1)
for i >= 2.  The automorphisms acting on these places are the maps
y_i -> c y_i (i < m), y_m -> c y_m + a with c in F_ell^* and a in the
additive kernel; subgroups of order u * p^v are assembled from a unit
subgroup H and a repair subspace W.

Subgroups, place enumeration and orbits run over canonical indices (index
pairs (c, a) and index tuples), with every structural check kept there.
The recursion lives in one pair of index maps per field, trace and step,
which generate the places and check each listed place once; trace is the
field's own (`FieldSpec._trace`), whose zeros are galois's additive
kernel.  A subgroup is certified by closing its pairs from greedily drawn
generators, in O(|G| log |G|) compositions.
Elements appear only in what the API returns: `TowerPlace` and `AutMap`
(immutable named tuples) and `AutSubgroup.elements`.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache, cached_property

from . import bounds, galois
from .errors import (
    DistanceNonpositive,
    InvariantViolation,
    LocalityTooSmall,
    NotAdmissible,
    SOutOfRange,
    TooLarge,
)

PLACE_GUARD = 10**6


class TowerPlace(namedtuple("TowerPlace", "level coords")):
    """A rational place of T_m as its level and coordinate tuple."""

    __slots__ = ()

    def key(self) -> tuple[int, ...]:
        """Canonical sort key: the tuple of element indices."""
        return tuple(c.index for c in self.coords)

    def to_json(self) -> list[list[int]]:
        return [c.to_json() for c in self.coords]


class AutMap(namedtuple("AutMap", "c a")):
    """One automorphism, stored as its (c, a) pair."""

    __slots__ = ()


def compose(s1: AutMap, s2: AutMap) -> AutMap:
    """(c1, a1) o (c2, a2) = (c1 c2, c1 a2 + a1)."""
    return AutMap(s1.c * s2.c, s1.c * s2.a + s1.a)


def aut_inverse(s: AutMap) -> AutMap:
    ci = s.c.inverse()
    return AutMap(ci, -(ci * s.a))


class AutSubgroup:
    """Subgroup of order u * p^v: all (c, a) with c in H, a in W.

    Held as its sorted (c, a) canonical index pairs, which the constructor
    checks form a group of the expected order: that many distinct pairs,
    each c a unit and each a an element, and closed under composition.
    Walking the sorted pairs, each one not yet reached becomes a generator
    and the reached set is closed again under right composition with every
    generator, so the check costs O(|G| log |G|) compositions; a product
    outside the pairs is an InvariantViolation.  `elements` is the AutMap
    view of the same pairs.
    """

    def __init__(self, spec: galois.FieldSpec, u: int, v: int,
                 pairs: list[tuple[int, int]]):
        self.spec = spec
        self.u = galois._int(u, error=InvariantViolation)
        self.v = galois._int(v, error=InvariantViolation)
        self.order = self.u * spec.p**self.v
        self.pairs = sorted(pairs)
        self._validate()

    def _validate(self):
        pairs, q = self.pairs, self.spec.q
        members = set(pairs)
        if len(members) != self.order or len(pairs) != self.order:
            raise InvariantViolation(
                f"group has {len(pairs)} elements ({len(members)} distinct), "
                f"expected {self.order}"
            )
        if not all(0 < c < q and 0 <= a < q for c, a in pairs):
            raise InvariantViolation("a pair is not a unit c and an element a")
        add, mul = galois.index_ops(self.spec)
        # A finite set of units closed under composition is a group, so the
        # pairs are one exactly when they close from the generators drawn here.
        reached, gens = set(), []
        for pair in pairs:
            if pair in reached:
                continue
            gens.append(pair)
            reached.add(pair)
            queue = list(reached)
            while queue:
                c1, a1 = queue.pop()
                for c2, a2 in gens:
                    prod = (mul(c1, c2), add(mul(c1, a2), a1))  # (c1, a1) o (c2, a2)
                    if prod not in members:
                        raise InvariantViolation(f"{(c1, a1)} o {(c2, a2)} escapes the subgroup")
                    if prod not in reached:
                        reached.add(prod)
                        queue.append(prod)

    @cached_property
    def elements(self) -> list[AutMap]:
        f = self.spec
        return [AutMap(galois.FieldElement(f, c), galois.FieldElement(f, a))
                for c, a in self.pairs]

    @property
    def r(self) -> int:
        return self.order - 1

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return self.order


@cache
def _maps(spec: galois.FieldSpec) -> tuple[list[int], list[int]]:
    """(trace, step) over canonical indices, built once per field: the
    field's trace[x] = x^ell + x, the trace to F_ell, and step[x] =
    x^ell / (x^(ell-1) + 1) = x^(ell+1) / trace[x], or -1 where the
    denominator is 0.  NoSquareRoot for odd w, where there is no ell."""
    trace, m = spec._trace, spec.q - 1
    exp, log, _ = spec._logs
    e = spec.ell + 1
    step = [0] + [exp[(log[x] * e - log[t]) % m] if t else -1
                  for x, t in enumerate(trace) if x]
    return trace, step


def _failure(maps: tuple[list[int], list[int]], coords: tuple[int, ...]) -> str | None:
    """Why the index tuple is not a rational place of the tower whose
    `_maps` are given, or None."""
    trace, step = maps
    if not trace[coords[0]]:
        return "first coordinate lies in the additive kernel"
    for i in range(1, len(coords)):
        if trace[coords[i]] != step[coords[i - 1]]:
            return f"recursion fails at coordinate {i + 1}"
    return None


def _pair_failure(spec: galois.FieldSpec, pairs) -> str | None:
    """Why the first (c, a) index pair that is not a tower automorphism is
    not one, or None: c must lie in F_ell^*, where log c is a multiple of
    (q-1)/(ell-1) = ell+1, and a in the additive kernel, trace(a) = 0."""
    log, trace = spec._logs[1], spec._trace
    for c, a in pairs:
        if log[c] % (spec.ell + 1):
            return f"pair {(c, a)} is not a tower automorphism: c lies outside F_{spec.ell}^*"
        if trace[a]:
            return (f"pair {(c, a)} is not a tower automorphism: "
                    "a lies outside the additive kernel")
    return None


def _level(spec: galois.FieldSpec, m: int) -> tuple[int, int, int]:
    """(ell, m, n_m) for level m of the tower over spec: the odd-degree
    guard, then the level read as an integer >= 1, and the place count
    n_m = ell^(m-1) (q - ell)."""
    ell = galois._require_square(spec)
    m = galois._int(m, 1, error=NotAdmissible, message=f"level must be >= 1, got {m}")
    return ell, m, ell ** (m - 1) * (spec.q - ell)


def enumerate_places(spec: galois.FieldSpec, m: int) -> list[TowerPlace]:
    """All rational evaluation places of T_m, lexicographic in coordinate
    order; each next coordinate x solves trace(x) = step(previous)."""
    ell, m, expected = _level(spec, m)
    if expected > PLACE_GUARD:
        raise TooLarge(f"{expected} places exceed the guard {PLACE_GUARD}")
    trace, step = _maps(spec)
    pre: dict[int, list[int]] = {}  # v -> the ell solutions x of trace(x) = v
    for x, t in enumerate(trace):
        pre.setdefault(t, []).append(x)
    level = [(a,) for a in range(spec.q) if trace[a]]
    for _ in range(m - 1):
        nxt = []
        for coords in level:
            sols = pre.get(step[coords[-1]], [])
            if len(sols) != ell:  # pragma: no cover - structural
                raise InvariantViolation(
                    f"step equation has {len(sols)} solutions, expected {ell}"
                )
            nxt.extend(coords + (s,) for s in sols)
        level = nxt
    if len(level) != expected:  # pragma: no cover - structural
        raise InvariantViolation(f"{len(level)} places, expected {expected}")
    level.sort()
    elems = [galois.FieldElement(spec, x) for x in range(spec.q)]
    return [TowerPlace(m, tuple(elems[x] for x in coords)) for coords in level]


def validate_place(spec: galois.FieldSpec, place: TowerPlace) -> None:
    """Raise InvariantViolation unless the coordinates satisfy the recursion
    (NoSquareRoot, from `_maps`, over a field of odd degree)."""
    failure = _failure(_maps(spec), place.key())
    if failure:
        raise InvariantViolation(failure)


def genus(spec: galois.FieldSpec, m: int) -> int:
    """Genus of T_m (0 for m = 1)."""
    ell, m, _ = _level(spec, m)
    if m % 2 == 0:
        return (ell ** (m // 2) - 1) ** 2
    return (ell ** ((m + 1) // 2) - 1) * (ell ** ((m - 1) // 2) - 1)


def admissible_params(spec: galois.FieldSpec) -> list[tuple[int, int, int]]:
    """All (u, v, r) with u | gcd(p^v - 1, ell - 1), r = u p^v - 1 > 0, as
    `bounds.locality_params` enumerates them; sorted by r."""
    galois._require_square(spec)
    return bounds.locality_params(spec.p, spec.w)


def build_subgroup(spec: galois.FieldSpec, u: int, v: int) -> AutSubgroup:
    """Subgroup {(c, a) : c in H, a in W} of order u * p^v, certified by
    `AutSubgroup`; `repair_subspace` checks that (u, v) is admissible."""
    W = galois.repair_subspace(spec, u, v)
    H = galois.unit_subgroup(spec, u)
    return AutSubgroup(spec, u, v, [(c.index, a.index) for c in H for a in W])


def act_inverse(sigma: AutMap, place: TowerPlace) -> TowerPlace:
    """sigma^{-1}(P) = (c a_1, ..., c a_{m-1}, c a_m + a); invariants re-checked."""
    c, a = sigma.c, sigma.a
    head = tuple(c * x for x in place.coords[:-1])
    image = TowerPlace(place.level, head + (c * place.coords[-1] + a,))
    validate_place(c.field, image)
    return image


def orbit_partition(group: AutSubgroup,
                    places: list[TowerPlace]) -> list[list[int]]:
    """Partition the full place list into group orbits.

    Returns index lists into `places`; orbits are sorted by their smallest
    member and each orbit is sorted in canonical place order.  Each listed
    place is checked against the tower recursion once, as `validate_place`
    checks it, and the action of `act_inverse` runs on index tuples; an
    image outside the list is an error, so every image is a checked place.
    The places must be distinct, and every orbit must have exactly |group|
    members with pairwise distinct last coordinates, the structural facts
    the repair groups rely on.  `AutSubgroup` certifies a group of affine
    pairs; that each pair acts on the tower (`_pair_failure`) is checked
    here, where the pairs act.
    """
    spec = group.spec
    exp, log, _ = spec._logs
    add, _ = galois.index_ops(spec)
    keys = [pl.key() for pl in places]
    maps = _maps(spec)
    why = _pair_failure(spec, group.pairs)
    if why:
        raise InvariantViolation(why)
    for i, key in enumerate(keys):
        why = _failure(maps, key)
        if why:
            raise InvariantViolation(f"place {i}: {why}")
    index_of = {key: i for i, key in enumerate(keys)}
    if len(index_of) != len(keys):
        raise InvariantViolation("the place list repeats a place")
    seen = [False] * len(places)
    orbits: list[list[int]] = []
    for i, key in enumerate(keys):
        if seen[i]:
            continue
        logs = [log[x] for x in key]  # log(0) = -1
        members = set()
        for c, a in group.pairs:
            lc = log[c]
            img = [exp[lc + lx] if lx >= 0 else 0 for lx in logs]
            img[-1] = add(img[-1], a)
            j = index_of.get(tuple(img))
            if j is None:
                raise InvariantViolation("orbit left the place list")
            members.add(j)
        if len(members) != group.order:
            raise InvariantViolation(
                f"orbit of place {i} has {len(members)} members, "
                f"expected {group.order}"
            )
        if len({keys[j][-1] for j in members}) != group.order:
            raise InvariantViolation(
                f"orbit of place {i} repeats a last coordinate"
            )
        for j in members:
            seen[j] = True
        orbits.append(sorted(members))
    return orbits


def s_range(spec: galois.FieldSpec, m: int, r: int) -> tuple[int, int]:
    """Inclusive (s_min, s_max) for the divisor degree at level m with
    locality r >= 1."""
    ell, m, _ = _level(spec, m)
    g = genus(spec, m)
    r = galois._int(r, 1, error=LocalityTooSmall, message=f"locality r = {r} < 1")
    s_min = 0 if m == 1 else -(-(g - 1) // (r + 1))  # ceil((g-1)/(r+1))
    # n_{m-1}; extended downward to ell - 1 at m = 1
    s_max = ell - 1 if m == 1 else ell ** (m - 2) * (spec.q - ell)
    return s_min, s_max


def thm34_params(spec: galois.FieldSpec, m: int, r: int,
                 s: int) -> tuple[int, int, int]:
    """(n, k_lb, d_lb) of the level-m construction with locality r.

    k_lb is the exact ceiling of r*s - r(g-1)/(r+1); errors if s is out of
    range or the distance bound drops below 1.
    """
    r = galois._int(r, error=NotAdmissible)
    if not any(rr == r for (_, _, rr) in admissible_params(spec)):
        raise NotAdmissible(f"locality r = {r} is not admissible for q = {spec.q}")
    lo, hi = s_range(spec, m, r)
    s = galois._int(s, lo, hi, error=SOutOfRange, message=f"s = {s} outside [{lo}, {hi}]")
    ell, m, n = _level(spec, m)
    g = genus(spec, m)
    k_lb = -((r * (g - 1) - r * s * (r + 1)) // (r + 1))  # the exact ceiling
    d_lb = n - (r + 1) * s - (r - 1) * ell ** (m - 1)
    if d_lb < 1:
        raise DistanceNonpositive(f"distance bound {d_lb} < 1")
    return n, k_lb, d_lb
