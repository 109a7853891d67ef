"""Combinatorial model of the recursive function-field tower T_m over GF(q).

A rational evaluation place of T_m is a coordinate tuple (a_1, ..., a_m)
with a_1^ell + a_1 != 0 and a_i^ell + a_i = a_{i-1}^ell / (a_{i-1}^{ell-1} + 1)
for i >= 2.  The automorphisms acting on these places are the maps
y_i -> c y_i (i < m), y_m -> c y_m + a with c in F_ell^* and a in the
additive kernel; subgroups of order u * p^v are assembled from a unit
subgroup H and a repair subspace W.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd

from . import galois
from .errors import (
    DistanceNonpositive,
    InvariantViolation,
    NoSquareRoot,
    NotAdmissible,
    SOutOfRange,
    TooLarge,
)

PLACE_GUARD = 10**6


@dataclass(frozen=True)
class TowerPlace:
    """A rational place of T_m as its coordinate tuple."""

    level: int
    coords: tuple[galois.FieldElement, ...]

    def key(self) -> tuple[int, ...]:
        """Canonical sort key: the tuple of element indices."""
        return tuple(c.index for c in self.coords)

    def to_json(self) -> list[list[int]]:
        return [c.to_json() for c in self.coords]


@dataclass(frozen=True)
class AutMap:
    """One automorphism, stored as its (c, a) pair."""

    c: galois.FieldElement
    a: galois.FieldElement

    def key(self) -> tuple[int, int]:
        return (self.c.index, self.a.index)


def compose(s1: AutMap, s2: AutMap) -> AutMap:
    """(c1, a1) o (c2, a2) = (c1 c2, c1 a2 + a1)."""
    return AutMap(s1.c * s2.c, s1.c * s2.a + s1.a)


def aut_inverse(s: AutMap) -> AutMap:
    ci = s.c.inverse()
    return AutMap(ci, -(ci * s.a))


class AutSubgroup:
    """Subgroup of order u * p^v: all (c, a) with c in H, a in W."""

    def __init__(self, spec: galois.FieldSpec, u: int, v: int,
                 elements: list[AutMap]):
        self.spec = spec
        self.u = u
        self.v = v
        self.order = u * spec.p**v
        self.elements = sorted(elements, key=AutMap.key)
        self._validate()

    def _validate(self):
        if len(self.elements) != self.order:
            raise InvariantViolation(
                f"group has {len(self.elements)} elements, expected {self.order}"
            )
        members = set(self.elements)
        identity = AutMap(self.spec.one(), self.spec.zero())
        if identity not in members:
            raise InvariantViolation("identity missing from subgroup")
        for s1 in self.elements:
            if aut_inverse(s1) not in members:
                raise InvariantViolation(f"inverse of {s1} missing")
            for s2 in self.elements:
                if compose(s1, s2) not in members:
                    raise InvariantViolation(f"{s1} o {s2} escapes the subgroup")

    @property
    def r(self) -> int:
        return self.order - 1

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return self.order


def _kernel_image_preimages(spec: galois.FieldSpec) -> dict:
    """Map v -> sorted solutions x of x^ell + x = v (exactly ell each)."""
    ell = spec.ell
    pre: dict[int, list[galois.FieldElement]] = {}
    for x in spec.elements():
        pre.setdefault((x**ell + x).index, []).append(x)
    return pre


def enumerate_places(spec: galois.FieldSpec, m: int) -> list[TowerPlace]:
    """All rational evaluation places of T_m, lexicographic in coordinate order."""
    if spec.ell is None:
        raise NoSquareRoot(f"GF({spec.p}^{spec.w}) has odd degree")
    if m < 1:
        raise NotAdmissible(f"level must be >= 1, got {m}")
    ell, q = spec.ell, spec.q
    expected = ell ** (m - 1) * (q - ell)
    if expected > PLACE_GUARD:
        raise TooLarge(f"{expected} places exceed the guard {PLACE_GUARD}")
    pre = _kernel_image_preimages(spec)
    level = [(a,) for a in spec.elements() if not (a**ell + a).is_zero()]
    for _ in range(m - 1):
        nxt = []
        for coords in level:
            prev = coords[-1]
            rhs = (prev**ell) * (prev ** (ell - 1) + spec.one()).inverse()
            sols = pre.get(rhs.index, [])
            if len(sols) != ell:  # pragma: no cover - structural
                raise InvariantViolation(
                    f"step equation has {len(sols)} solutions, expected {ell}"
                )
            nxt.extend(coords + (s,) for s in sols)
        level = nxt
    places = [TowerPlace(m, c) for c in level]
    places.sort(key=TowerPlace.key)
    if len(places) != expected:  # pragma: no cover - structural
        raise InvariantViolation(f"{len(places)} places, expected {expected}")
    return places


def validate_place(spec: galois.FieldSpec, place: TowerPlace) -> None:
    """Raise InvariantViolation unless the coordinates satisfy the recursion."""
    ell = spec.ell
    if ell is None:
        raise NoSquareRoot(f"GF({spec.p}^{spec.w}) has odd degree")
    a1 = place.coords[0]
    if (a1**ell + a1).is_zero():
        raise InvariantViolation("first coordinate lies in the additive kernel")
    for i in range(1, len(place.coords)):
        prev, cur = place.coords[i - 1], place.coords[i]
        # cross-multiplied recursion check, denominator-free
        lhs = (cur**ell + cur) * (prev ** (ell - 1) + spec.one())
        if lhs != prev**ell:
            raise InvariantViolation(f"recursion fails at coordinate {i + 1}")


def genus(spec: galois.FieldSpec, m: int) -> int:
    """Genus of T_m (0 for m = 1)."""
    if spec.ell is None:
        raise NoSquareRoot(f"GF({spec.p}^{spec.w}) has odd degree")
    ell = spec.ell
    if m % 2 == 0:
        return (ell ** (m // 2) - 1) ** 2
    return (ell ** ((m + 1) // 2) - 1) * (ell ** ((m - 1) // 2) - 1)


def admissible_params(spec: galois.FieldSpec) -> list[tuple[int, int, int]]:
    """All (u, v, r) with u | gcd(p^v - 1, ell - 1), r = u p^v - 1 > 0.

    Uses the v = 0 convention gcd(p^0 - 1, ell - 1) = ell - 1; sorted by r,
    duplicates collapsed keeping the smallest v.
    """
    if spec.ell is None:
        raise NoSquareRoot(f"GF({spec.p}^{spec.w}) has odd degree")
    p, ell, wp = spec.p, spec.ell, spec.w // 2
    by_r: dict[int, tuple[int, int]] = {}
    for v in range(wp + 1):
        g = ell - 1 if v == 0 else gcd(p**v - 1, ell - 1)
        for u in range(1, g + 1):
            if g % u:
                continue
            r = u * p**v - 1
            if r == 0:
                continue
            if r not in by_r or v < by_r[r][1]:
                by_r[r] = (u, v)
    return [(u, v, r) for r, (u, v) in sorted(by_r.items())]


def build_subgroup(spec: galois.FieldSpec, u: int, v: int) -> AutSubgroup:
    """Subgroup {(c, a) : c in H, a in W} of order u * p^v; closure checked."""
    galois.check_admissible(spec, u, v)
    H = galois.unit_subgroup(spec, u)
    W = galois.repair_subspace(spec, u, v)
    elements = [AutMap(c, a) for c in H for a in W]
    return AutSubgroup(spec, u, v, elements)


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
    member and each orbit is sorted in canonical place order.  Every orbit
    must have exactly |group| members with pairwise distinct last
    coordinates, the structural facts the repair groups rely on.
    """
    index_of = {pl.key(): i for i, pl in enumerate(places)}
    seen = [False] * len(places)
    orbits: list[list[int]] = []
    for i, place in enumerate(places):
        if seen[i]:
            continue
        members = set()
        for sigma in group:
            img = act_inverse(sigma, place)
            j = index_of.get(img.key())
            if j is None:  # pragma: no cover - structural
                raise InvariantViolation("orbit left the place list")
            members.add(j)
        if len(members) != group.order:
            raise InvariantViolation(
                f"orbit of place {i} has {len(members)} members, "
                f"expected {group.order}"
            )
        last = {places[j].coords[-1].index for j in members}
        if len(last) != group.order:
            raise InvariantViolation(
                f"orbit of place {i} repeats a last coordinate"
            )
        for j in members:
            seen[j] = True
        orbits.append(sorted(members))
    return orbits


def s_range(spec: galois.FieldSpec, m: int, r: int) -> tuple[int, int]:
    """Inclusive (s_min, s_max) for the divisor degree at level m."""
    ell = spec.ell
    g = genus(spec, m)
    s_min = 0 if m == 1 else ceil(Fraction(g - 1, r + 1))
    # n_{m-1}; extended downward to ell - 1 at m = 1
    s_max = ell - 1 if m == 1 else ell ** (m - 2) * (spec.q - ell)
    return s_min, s_max


def thm34_params(spec: galois.FieldSpec, m: int, r: int,
                 s: int) -> tuple[int, int, int]:
    """(n, k_lb, d_lb) of the level-m construction with locality r.

    k_lb is the exact ceiling of r*s - r(g-1)/(r+1); errors if s is out of
    range or the distance bound drops below 1.
    """
    if not any(rr == r for (_, _, rr) in admissible_params(spec)):
        raise NotAdmissible(f"locality r = {r} is not admissible for q = {spec.q}")
    lo, hi = s_range(spec, m, r)
    if not lo <= s <= hi:
        raise SOutOfRange(f"s = {s} outside [{lo}, {hi}]")
    ell = spec.ell
    n = ell ** (m - 1) * (spec.q - ell)
    g = genus(spec, m)
    k_lb = ceil(Fraction(r) * s - Fraction(r * (g - 1), r + 1))
    d_lb = n - (r + 1) * s - (r - 1) * ell ** (m - 1)
    if d_lb < 1:
        raise DistanceNonpositive(f"distance bound {d_lb} < 1")
    return n, k_lb, d_lb
