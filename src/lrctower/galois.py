"""Exact arithmetic in GF(p^w) with a deterministic modulus.

An element is its canonical index sum c_k p^k, where c_0, ..., c_{w-1} are
its coefficients over Z_p in the polynomial basis; the coefficients appear
only at the JSON boundary.  The modulus is the lexicographically smallest
monic irreducible polynomial of degree w over Z_p (coefficients compared
low degree first), so two runs always build the same field.  Arithmetic
looks up the exp/log tables of a primitive element g and the Zech
logarithms log(1 + g^k), which a field builds on its first operation.

For even w the field carries ell = p^(w/2) = sqrt(q) and the subfield
F_ell is characterized as the fixed set of the ell-power map.  On top of
that live the additive kernel {a : a^ell + a = 0}, the unit subgroups
H <= F_ell^* and the repair subspaces W used by the tower constructions,
each returned as a sorted element list.  The kernel is the zero set of
the trace map x -> x^ell + x, which a field builds once over indices and
`tower` reads too; H is a set of powers of g and W an index span.

Each field rule is written once: `_require_square` is the odd-degree
guard of this module and `tower`, `bounds._prime_power` decides whether
p is prime, `bounds._unit_gcd` is the bound gcd(p^v - 1, ell - 1) that u
must divide, `_int` reads every integer parameter of a call and
`_json_int` every integer of a field or code document.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd, inf
from operator import index as _integer
from typing import Iterator, Sequence

from . import bounds
from .errors import (
    SIZE_GUARD,
    DivideByZero,
    DomainError,
    NoSquareRoot,
    NotAdmissible,
    NotDivisor,
    NotPrime,
    SpecMismatch,
    TooLarge,
)

_FIELD_CACHE: dict[tuple[int, int], "FieldSpec"] = {}


def _poly_mod(num: list[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of num by monic den, coefficients low degree first."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j, dj in enumerate(den):
                num[i - dd + j] = (num[i - dd + j] - c * dj) % p
    return [c % p for c in num[:dd]] or [0]


def _irreducible(poly: Sequence[int], p: int) -> bool:
    """Exhaustive trial division by all monic polynomials of degree <= deg/2."""
    w = len(poly) - 1
    if w == 1:
        return True
    for d in range(1, w // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            den = list(tail) + [1]
            if not any(_poly_mod(list(poly), den, p)):
                return False
    return True


def _digits(i: int, p: int, w: int) -> list[int]:
    """The w base-p digits of the canonical index i, low degree first."""
    return [i // p**k % p for k in range(w)]


def _index(coeffs: Sequence[int], p: int) -> int:
    """Canonical index sum coeffs[k] * p^k, each coefficient reduced mod p."""
    i = 0
    for c in reversed(coeffs):
        i = i * p + c % p
    return i


def _int(x, lo=-inf, hi=inf, error=SpecMismatch, message="") -> int:
    """The integer parameter x of a Python call, read by `operator.index`,
    so ints, bools and numpy ints pass: error(message) unless lo <= x <= hi,
    and error naming x if it is no integer (a float, NaN or string).  A
    document's integers are read by `_json_int` instead."""
    try:
        n = _integer(x)
    except TypeError:
        raise error(f"{x!r} is not an integer") from None
    if not lo <= n <= hi:
        raise error(message)
    return n


def _json_int(value, name: str) -> int:
    """The integer `name` of a field or code document: value itself if it
    is a JSON integer, a Python int (not a bool, float or string); else
    SpecMismatch.  `codes._decode` reads a coefficient the same way."""
    if type(value) is not int:
        raise SpecMismatch(f"{name} {value!r} is not an integer")
    return value


class FieldSpec:
    """The finite field GF(p^w); construct via :func:`field_create`."""

    def __init__(self, p: int, w: int, modulus: tuple[int, ...]):
        self.p = p
        self.w = w
        self.q = p**w
        self.modulus = modulus
        self.ell = p ** (w // 2) if w % 2 == 0 else None

    @cached_property
    def _logs(self) -> tuple[list[int], list[int], list[int]]:
        """(exp, log, zech) of the first primitive element g in index order.

        exp[k] = g^k for 0 <= k < 2(q-1), so a sum of two logs needs no
        reduction; zech[k] = log(1 + g^k), where log(0) is stored as -1.
        """
        p, w = self.p, self.w
        for g in range(1, self.q):
            gc = _digits(g, p, w)
            powers, x = [1], gc
            while (i := _index(x, p)) != 1:
                powers.append(i)
                conv = [0] * (2 * w - 1)
                for b, cb in enumerate(gc):
                    if cb:
                        for a, ca in enumerate(x):
                            conv[a + b] += ca * cb
                x = _poly_mod(conv, self.modulus, p)
            if len(powers) == self.q - 1:
                break
        log = [-1] * self.q
        for k, e in enumerate(powers):
            log[e] = k
        # 1 + g^k adds one to the constant coefficient e % p of e = g^k
        zech = [log[e + 1 if e % p < p - 1 else e + 1 - p] for e in powers]
        return powers + powers, log, zech

    @cached_property
    def _trace(self) -> list[int]:
        """trace[x] = x^ell + x over canonical indices, the trace to F_ell,
        whose zeros are the additive kernel; NoSquareRoot for odd w."""
        ell, m = _require_square(self), self.q - 1
        exp, log, _ = self._logs
        add = self._index_ops[0]
        return [0] + [add(exp[log[x] * ell % m], x) for x in range(1, self.q)]

    @cached_property
    def _index_ops(self):
        """`index_ops`: (add, mul) on canonical indices."""
        exp, log, zech = self._logs
        m = self.q - 1

        def add(i: int, j: int) -> int:
            if not (i and j):
                return i or j
            z = zech[(log[j] - log[i]) % m]
            return exp[log[i] + z] if z >= 0 else 0

        def mul(i: int, j: int) -> int:
            return exp[log[i] + log[j]] if i and j else 0

        return add, mul

    # -- element access ------------------------------------------------

    def element(self, coeffs: Sequence[int]) -> "FieldElement":
        if not isinstance(coeffs, Sequence):
            raise SpecMismatch(f"coefficients {coeffs!r} are not a sequence")
        if len(coeffs) != self.w:
            raise SpecMismatch(
                f"expected {self.w} coefficients, got {len(coeffs)}"
            )
        return FieldElement(self, _index([_int(c) for c in coeffs], self.p))

    def from_index(self, i: int) -> "FieldElement":
        """Element with canonical index i = sum coeffs[k] * p^k."""
        q = self.q
        return FieldElement(self, _int(i, 0, q - 1, message=f"index {i} outside [0, {q})"))

    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def scalar(self, c: int) -> "FieldElement":
        return FieldElement(self, _int(c) % self.p)

    def elements(self) -> Iterator["FieldElement"]:
        """All elements in canonical index order."""
        for i in range(self.q):
            yield FieldElement(self, i)

    # -- lookup tables: bytes, for the scans, encode, repair and elimination

    def tables(self) -> tuple[list[bytes], list[bytes], bytes]:
        """(add, mul, inv) index tables for q <= 256, read off `_byte_tables`:
        add[a][b] and mul[a][b] are the indices of a + b and a b, inv[a]
        that of 1/a (inv[0] = 0).  TooLarge above q = 256."""
        q = self.q
        if q > 256:
            raise TooLarge(f"lookup tables limited to q <= 256, got q={q}")
        add, mul, _ = self._byte_tables
        exp, log, _ = self._logs
        inv = bytes([0] + [exp[q - 1 - log[a]] for a in range(1, q)])
        return [t[:q] for t in add], [t[:q] for t in mul], inv

    @cached_property
    def _byte_tables(self) -> tuple[list[bytes], list[bytes], list[bytes]]:
        """(add, mul, nonzero) as `bytes.translate` tables, for q <= 256:
        add[a] maps each index x to a + x, mul[c] maps m to m c and
        nonzero[a] maps x to 1 where a + x != 0, else 0 (the add tables
        are the identity past q).

        add[a] is add[a - p^i] shifted by the unit p^i at the top digit of
        a, and mul[g^(k+1)] is mul[g^k] followed by mul[g]: one translate
        per table, past the w + 1 tables built symbol by symbol.
        """
        p, w, q = self.p, self.w, self.q
        exp, log, _ = self._logs
        tail = bytes(range(q, 256))
        add = [bytes(range(256))]
        for i in range(w):
            s = p**i
            unit = bytes(x + s if x // s % p < p - 1 else x - (p - 1) * s
                         for x in range(q)) + tail
            for a in range(s, s * p):
                add.append(add[a - s].translate(unit))
        times_g = bytes([0] + [exp[log[m] + 1] for m in range(1, q)]) + tail
        mul = [bytes(256)] * q
        cur = add[0]
        for k in range(q - 1):
            mul[exp[k]] = cur
            cur = cur.translate(times_g)
        one = b"\1" * 256
        nonzero = [one[:x] + b"\0" + one[x + 1:] for x in mul[p - 1][:q]]  # x = -a
        return add, mul, nonzero

    @cached_property
    def _digit_tables(self) -> tuple[list[list[bytes]], bytes]:
        """(digit, mod_p) as `bytes.translate` tables, for q <= 256: digit[t][m]
        maps x to the digit t of m x (its coefficient of X^t), and mod_p maps
        each byte to its residue mod p."""
        p, w = self.p, self.w
        mul = self._byte_tables[1]
        digit = []
        for t in range(w):
            of_t = bytes(x // p**t % p for x in range(256))
            digit.append([table.translate(of_t) for table in mul])
        return digit, bytes(x % p for x in range(256))

    @cached_property
    def _elements(self) -> tuple["FieldElement", ...]:
        """The q elements in index order, shared by every caller (elements are
        immutable); for q <= 256."""
        return tuple(FieldElement(self, i) for i in range(self.q))

    # -- misc ------------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "w": self.w, "modulus": list(self.modulus)}

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.w, self.modulus) == (other.p, other.w, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.w, self.modulus))

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.w}), modulus={list(self.modulus)})"


class FieldElement:
    """Immutable element of a :class:`FieldSpec`, held as its canonical index."""

    __slots__ = ("field", "index")

    def __init__(self, field: FieldSpec, index: int):
        self.field = field
        self.index = index

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficients over Z_p in the polynomial basis, low degree first."""
        return tuple(self.to_json())

    def is_zero(self) -> bool:
        return not self.index

    def _operand(self, other) -> "FieldElement":
        """other as an element of this field: an element itself, anything
        else read as an integer scalar by `_int` (ints, bools and numpy
        ints); SpecMismatch for a float, string or None."""
        if not isinstance(other, FieldElement):
            return self.field.scalar(other)
        if self.field is not other.field and self.field != other.field:
            raise SpecMismatch("operands from different fields")
        return other

    def __add__(self, other):
        add = self.field._index_ops[0]
        return FieldElement(self.field, add(self.index, self._operand(other).index))

    def __sub__(self, other):
        return self + -self._operand(other)

    def __neg__(self):
        mul = self.field._index_ops[1]
        return FieldElement(self.field, mul(self.index, self.field.p - 1))  # times -1

    def __mul__(self, other):
        mul = self.field._index_ops[1]
        return FieldElement(self.field, mul(self.index, self._operand(other).index))

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        n = _int(n)
        if not self.index:
            if n < 0:
                raise DivideByZero("inverse of zero")
            return self if n else self.field.one()
        exp, log, _ = self.field._logs
        return FieldElement(self.field, exp[log[self.index] * n % (self.field.q - 1)])

    def inverse(self) -> "FieldElement":
        return self ** -1

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.index == other.index
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash(self.index)

    def __lt__(self, other):
        """Canonical order: by index."""
        return self.index < self._operand(other).index

    def to_json(self) -> list[int]:
        return _digits(self.index, self.field.p, self.field.w)

    def __repr__(self):
        return f"<{self.index}:GF({self.field.p}^{self.field.w})>"


def field_create(p: int, w: int) -> FieldSpec:
    """Build (or fetch the cached) GF(p^w) with the deterministic modulus.

    The modulus is the first monic irreducible degree-w polynomial in the
    lexicographic order on coefficient tuples (c0, c1, ..., c_{w-1}); for
    w = 1 this is X itself, i.e. plain Z_p arithmetic.  For w > 1 the
    search starts at c0 = 1: a polynomial with c0 = 0 is divisible by X.
    """
    w = _int(w, 1, error=NotAdmissible, message=f"exponent must be >= 1, got {w}")
    p = _int(p, error=NotPrime)
    if w >= SIZE_GUARD.bit_length() or p**w > SIZE_GUARD:
        raise TooLarge(f"p^w = {p}^{w} exceeds the guard {SIZE_GUARD}")
    _require_prime(p)
    key = (p, w)
    if key not in _FIELD_CACHE:
        modulus = None
        tails = itertools.product(range(1 if w > 1 else 0, p), *[range(p)] * (w - 1))
        for tail in tails:
            cand = list(tail) + [1]
            if _irreducible(cand, p):
                modulus = tuple(cand)
                break
        assert modulus is not None  # degree-w irreducibles always exist
        _FIELD_CACHE[key] = FieldSpec(p, w, modulus)
    return _FIELD_CACHE[key]


def field_from_json(data: dict) -> FieldSpec:
    """Rebuild a field from {p, w, modulus}, enforcing the deterministic modulus."""
    try:
        p, w = _json_int(data["p"], "p"), _json_int(data["w"], "w")
        modulus = [_json_int(c, "modulus coefficient") for c in data["modulus"]]
    except (KeyError, TypeError) as exc:
        raise SpecMismatch(f"malformed field: {exc!r}") from None
    spec = field_create(p, w)
    if list(spec.modulus) != modulus:
        raise SpecMismatch(
            f"serialized modulus {modulus} differs from the "
            f"deterministic one {list(spec.modulus)}"
        )
    return spec


def _require_prime(p: int) -> None:
    """NotPrime unless the integer p is a prime, by the one primality rule:
    `bounds._prime_power` reads q = p as p^1 (a DomainError there, for
    p < 2, also means "not prime")."""
    try:
        prime = bounds._prime_power(p) == (p, 1)
    except DomainError:
        prime = False
    if not prime:
        raise NotPrime(f"{p} is not prime")


def _require_square(spec: FieldSpec) -> int:
    """ell = sqrt(q); NoSquareRoot for odd w, where there is none."""
    if spec.ell is None:
        raise NoSquareRoot(f"GF({spec.p}^{spec.w}) has odd degree")
    return spec.ell


def index_ops(spec: FieldSpec):
    """(add, mul) on canonical indices, over the field's exp/log/Zech lists;
    built once per field."""
    return spec._index_ops


def artin_schreier_kernel(spec: FieldSpec) -> list[FieldElement]:
    """All a in GF(q) with a^ell + a = 0, in canonical order (size ell):
    the zeros of the trace map."""
    kernel = [FieldElement(spec, a) for a, t in enumerate(spec._trace) if not t]
    if len(kernel) != spec.ell:
        raise SpecMismatch(
            f"kernel size {len(kernel)} != ell = {spec.ell}"
        )  # pragma: no cover - structural
    return kernel


def unit_subgroup(spec: FieldSpec, u: int) -> list[FieldElement]:
    """The unique subgroup of F_ell^* of order u, as a canonical-order list:
    the powers g^(j (q-1)/u) of the primitive element g, which lie in
    F_ell^* because u divides ell - 1."""
    ell = _require_square(spec)
    u = _int(u, error=NotDivisor)
    if u < 1 or (ell - 1) % u != 0:
        raise NotDivisor(f"u = {u} does not divide ell - 1 = {ell - 1}")
    exp, step = spec._logs[0], (spec.q - 1) // u
    group = sorted({exp[j * step] for j in range(u)})
    if len(group) != u:  # pragma: no cover - structural
        raise SpecMismatch(f"subgroup size {len(group)} != u = {u}")
    return [FieldElement(spec, x) for x in group]


def subgroup_exponent(u: int, p: int) -> int:
    """h = min{t > 0 : u | p^t - 1}; the field F_p(H) is F_{p^h}."""
    u = _int(u, 1, error=NotDivisor, message=f"u = {u} must be positive")
    p = _int(p, error=NotPrime)
    _require_prime(p)
    if u == 1:
        return 1
    if gcd(u, p) != 1:
        raise NotDivisor(f"u = {u} shares a factor with p = {p}")
    t, pw = 1, p % u
    while pw != 1:
        t += 1
        pw = (pw * p) % u
    return t


def check_admissible(spec: FieldSpec, u: int, v: int) -> None:
    """Raise NotAdmissible unless (u, v) satisfies the subgroup conditions."""
    ell = _require_square(spec)
    wp = spec.w // 2
    v = _int(v, 0, wp, error=NotAdmissible, message=f"v = {v} outside [0, {wp}]")
    u = _int(u, 1, error=NotAdmissible, message=f"u must be positive, got {u}")
    g = bounds._unit_gcd(spec.p, ell, v)
    if g % u != 0:
        raise NotAdmissible(
            f"u = {u} does not divide gcd(p^v - 1, ell - 1) = {g}"
        )


def repair_subspace(spec: FieldSpec, u: int, v: int) -> list[FieldElement]:
    """The F_{p^h}-subspace W of the additive kernel with |W| = p^v.

    Deterministic: span of the first v/h independent kernel elements in
    canonical order, where h = subgroup_exponent(u, p), built over indices.
    h divides v: u | p^v - 1 gives ord_u(p) | v, and v = 0 is divisible by
    every h.
    """
    check_admissible(spec, u, v)
    p, h = spec.p, subgroup_exponent(u, spec.p)
    dim = v // h
    kernel = artin_schreier_kernel(spec)
    if dim == 0:
        return [spec.zero()]
    m = spec.q - 1  # F_{p^h}: 0 and the powers of g^((q-1)/(p^h-1))
    subfield = [0] + spec._logs[0][:m:m // (p**h - 1)]
    add, mul = index_ops(spec)
    span = {0}
    basis = 0
    for cand in (a.index for a in kernel):
        if cand in span:
            continue
        span = {add(s, mul(c, cand)) for s in span for c in subfield}
        basis += 1
        if basis == dim:
            break
    if len(span) != p**v:  # pragma: no cover - structural
        raise NotAdmissible(f"|W| = {len(span)} != p^v = {p ** v}")
    return [FieldElement(spec, x) for x in sorted(span)]
