"""Concrete locally repairable codes and their brute-force verification.

Two builders: `build_rational_lrc` evaluates the basis {t(y)^j * y^i} at the
level-1 tower places, grouped by automorphism orbits, where t = L_W(y)^u is
the orbit-invariant polynomial of degree r+1 (checked there, per orbit);
`naive_lrc` augments any linear code with disjoint all-ones parity rows of
weight r+1.

A code stores its generator rows and y values as canonical indices and
nothing else.  The public `LinearCode` constructor takes elements (it
rejects integers and entries from another field) and keeps their indices;
the builders and `from_json` hand their index rows to
`LinearCode._of_indices`, which runs the same checks.  `generator` and
`y_values` build elements on demand, and otherwise elements appear only
in what the API returns.  The level-1 builder evaluates t by Horner's
rule and the rows as running products of logs, `from_json` decodes each
coefficient list to an index in one pass, and `to_json` writes the digits
of the indices.  One repair formula serves both builders: the erased
symbol is sum_j lambda_j y_j over its group mates (a coordinate -> group
table finds them), with Lagrange weights at the y values, or
lambda_j = -1 for naive codes.

For q <= 256 and p <= 127 encode and repair read per-code tables built on
first use.  The encode table holds, for every generator row i and symbol
m, the int of the bytes of m row_i (p = 2), or of its w digit lanes of n
bytes each (odd p): k q ints of n or w n bytes, about k q (w n + 36)
bytes with Python's object headers (1.1 MB for GF(256) [240,15], built
in 0.8 ms on the first encode on a 2-vCPU host).  A message symbol is
then one lookup, and the terms are summed as one XOR (p = 2) or as
plain integer sums of the lanes, reduced mod p by a translate before
any byte could pass 255.  The repair plan of a coordinate, made on its
first repair, holds its group mates and the byte tables mul[lambda_j]
(r references to the field's tables); a repair is then one lookup
and one add-table step per mate.  A list or tuple of integer symbols is
read at C speed by `bytes`; elements, other containers and every bad
symbol go through `_indices`, so the checks and messages are those of
the one reader.  Other fields (q > 256, or 127 < p <= 251) sum each
column, or the mates, with `_dot` over the exp/log/Zech lists, the plan
keeping logs.

Verification is dual-route everywhere it matters: locality is checked both
algebraically (column spans) and exhaustively (codeword supports), the
minimum distance by an exact scan over all q^k codewords, and one-erasure
repair by Lagrange interpolation round trips.  The two exhaustive checks
read one blocked scan of codeword supports, `_nonzero_blocks`, in pure
Python over byte lanes (one 0/1 byte per codeword in an int per
coordinate).  `tower` loads with `build_rational_lrc`, so repair and
verification run without it.

Elimination (`_rref`: the rank check of every code built or loaded, the
null spaces of `naive_lrc` and the algebraic locality check) runs on the
same byte tables for q <= 256 and p <= 127: a row is its index bytes
(p = 2) or its digit lanes (odd p), and a row step is one translate and
an XOR, or a translate per lane, a sum and the mod-p translate.  Matrices
narrower than `_lane_cols`, and other fields, are eliminated entry by
entry over the Zech logs.  No module of the package imports numpy; it
serves only the tests' oracles (`tests/field_oracle.py`).
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import namedtuple
from functools import reduce
from operator import getitem, itemgetter, xor
from operator import index as _integer

from . import galois
from .errors import (
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
    SOutOfRange,
    SpecMismatch,
    TooLarge,
)

Element = galois.FieldElement
Poly = tuple[Element, ...]


# -- polynomial helpers (index coefficients, low degree first) ----------------

def _poly_mul(f: galois.FieldSpec, a: list[int], b: list[int]) -> list[int]:
    add, mul = galois.index_ops(f)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = add(out[i + j], mul(ca, cb))
    return out


def _poly_from_roots(f: galois.FieldSpec, roots: list[int]) -> list[int]:
    mul = galois.index_ops(f)[1]
    poly = [1]
    for root in roots:
        poly = _poly_mul(f, poly, [mul(root, f.p - 1), 1])  # y - root
    return poly


def _horner(f: galois.FieldSpec, poly: list[int], x: int) -> int:
    """The index of poly(x), for index coefficients and an index x."""
    add, mul = galois.index_ops(f)
    acc = 0
    for c in reversed(poly):
        acc = add(mul(acc, x), c)
    return acc


def poly_eval(poly: Poly, x: Element) -> Element:
    """poly(x) for element coefficients (low degree first) and an element x."""
    f = x.field
    return Element(f, _horner(f, _indices(f, poly), x.index))


# -- exact linear algebra over a FieldSpec -------------------------------------

def _lane_cols(f: galois.FieldSpec) -> int:
    """The narrowest matrix `_rref` eliminates on byte rows: 8 columns for
    p = 2, and 16 + 8w for odd p, whose row steps cost a translate per
    digit lane.  Narrower ones are faster on the Zech logs (measured on
    random matrices of n/2 to 2n rows over GF(2^4) to GF(13^2))."""
    return 8 if f.p == 2 else 16 + 8 * f.w


def _rref(f: galois.FieldSpec, rows, reduced: bool = True) -> tuple[list[list[int]], list[int]]:
    """(rows, pivots) of a matrix of canonical indices, on a copy: its
    reduced row echelon form and pivot columns, the zero rows last.  With
    reduced=False each pivot clears only the rows below it, which leaves
    an echelon form with the same pivots: enough for a rank.

    For q <= 256 and p <= 127 a matrix of at least `_lane_cols` columns
    is eliminated on byte rows, a few translates per row step
    (`_rref_lanes`); others entry by entry over the Zech logs."""
    if rows and _bytewise(f) and len(rows[0]) >= _lane_cols(f):
        return _rref_lanes(f, rows, reduced)
    return _rref_logs(f, rows, reduced)


def _rref_lanes(f: galois.FieldSpec, rows, reduced: bool) -> tuple[list[list[int]], list[int]]:
    """`_rref` on byte rows, for q <= 256 and p <= 127.

    For p = 2 a row is its n index bytes, c x is one translate by mul[c]
    and a sum is the XOR of the rows' ints.  For odd p a row is its w
    digit lanes of n bytes (lane t the digits t of its entries), c x is
    the w translates by digit[t][c], and a sum is the plain sum of the
    lane ints reduced mod p by one translate; a pivot row is read back to
    index bytes, sum_t lane_t p^t, to be scaled.  Each pivot row is scaled
    by the inverse of its pivot, then -c times it is added to each other
    row (each row below it, without reduced) with c at its column."""
    p, w, m, n = f.p, f.w, len(rows), len(rows[0])
    exp, log, _ = f._logs
    mul = f._byte_tables[1]
    neg, order = mul[p - 1], f.q - 1
    rows = [bytes(row) for row in rows]
    if p > 2:
        digit, mod_p = f._digit_tables
        scale = list(zip(*digit))  # scale[c]: the w digit tables of c x
        size = w * n
        tops = range(size - n, -1, -n)  # lane starts, the top digit first
        rows = [b"".join(map(row.translate, scale[1])) for row in rows]

        def index_bytes(lanes: bytes) -> bytes:  # no digit sum carries a byte
            acc = 0
            for start in tops:
                acc = acc * p + int.from_bytes(lanes[start:start + n], "little")
            return acc.to_bytes(n, "little")

    pivots: list[int] = []
    for col in range(n):
        rank = len(pivots)
        if p == 2:
            at = bytearray(map(itemgetter(col), rows))
        else:  # the index at col of each row, from its digits there
            acc = 0
            for start in tops:
                acc = acc * p + int.from_bytes(bytes(map(itemgetter(start + col), rows)), "little")
            at = bytearray(acc.to_bytes(m, "little"))
        pick = next((i for i in range(rank, m) if at[i]), None)
        if pick is None:
            continue
        rows[rank], rows[pick] = rows[pick], rows[rank]
        at[rank], at[pick] = at[pick], at[rank]
        prow = rows[rank] if p == 2 else index_bytes(rows[rank])
        prow = prow.translate(mul[exp[order - log[at[rank]]]])  # times the pivot's inverse
        if p == 2:
            rows[rank] = prow
            for i in range(0 if reduced else rank + 1, m):  # -c = c
                if at[i] and i != rank:
                    rows[i] = (int.from_bytes(rows[i], "little") ^ int.from_bytes(
                        prow.translate(mul[at[i]]), "little")).to_bytes(n, "little")
        else:
            rows[rank] = b"".join(map(prow.translate, scale[1]))
            steps = {}  # c -> the lanes of -c prow, as an int
            for i in range(0 if reduced else rank + 1, m):
                c = at[i]
                if c and i != rank:
                    step = steps.get(c)
                    if step is None:
                        step = steps[c] = int.from_bytes(
                            b"".join(map(prow.translate, scale[neg[c]])), "little")
                    rows[i] = (int.from_bytes(rows[i], "little") + step
                               ).to_bytes(size, "little").translate(mod_p)
        pivots.append(col)
        if len(pivots) == m:
            break
    return [list(row if p == 2 else index_bytes(row)) for row in rows], pivots


def _rref_logs(f: galois.FieldSpec, rows, reduced: bool) -> tuple[list[list[int]], list[int]]:
    """`_rref` entry by entry, over the field's exp/log/Zech lists."""
    rows = [list(row) for row in rows]
    exp, log, zech = f._logs
    m = f.q - 1
    neg = log[f.p - 1]  # log(-1)
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        pick = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pick is None:
            continue
        rows[rank], rows[pick] = rows[pick], rows[rank]
        shift = m - log[rows[rank][col]]  # times the pivot's inverse
        prow = rows[rank] = [exp[log[c] + shift] if c else 0 for c in rows[rank]]
        support = [(j, log[c]) for j, c in enumerate(prow) if c]
        for i in range(0 if reduced else rank + 1, len(rows)):
            row = rows[i]
            if i == rank or not row[col]:
                continue
            lf = (log[row[col]] + neg) % m  # log of -row[col]
            for j, lc in support:  # row[j] += exp[lf + lc], via Zech logs
                a = row[j]
                if a:
                    la = log[a]
                    z = zech[(lf + lc - la) % m]
                    row[j] = exp[la + z] if z >= 0 else 0
                else:
                    row[j] = exp[lf + lc]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows, pivots


def _indices(f: galois.FieldSpec, entries, ints: bool = False) -> tuple[int, ...]:
    """Canonical indices of elements of f (with ints, also of any integer in
    [0, q) that `operator.index` reads, such as a bool or a numpy integer,
    taken in place); SpecMismatch for anything else, such as a float or a
    string."""
    out = []
    for x in entries:
        if isinstance(x, Element):
            if x.field is not f and x.field != f:
                raise SpecMismatch(f"an entry is not an element of {f!r}")
            out.append(x.index)
        elif ints:
            try:
                i = _integer(x)
            except TypeError:
                raise SpecMismatch(f"symbol {x!r} is neither an index nor an element") from None
            if not 0 <= i < f.q:
                raise SpecMismatch(f"index {i} outside [0, {f.q})")
            out.append(i)
        else:
            raise SpecMismatch(f"an entry is not an element of {f!r}")
    return tuple(out)


def _dot(f: galois.FieldSpec, logs, xs) -> int:
    """sum_j g^logs[j] * xs[j] over canonical indices, where g is the
    field's primitive element and a log of -1 is a zero weight."""
    exp, log, zech = f._logs
    m = f.q - 1
    acc = 0
    for lw, x in zip(logs, xs):
        if x and lw >= 0:
            lt = lw + log[x]
            if acc:
                la = log[acc]
                z = zech[(lt - la) % m]
                acc = exp[la + z] if z >= 0 else 0
            else:
                acc = exp[lt]
    return acc


def _null_space(f: galois.FieldSpec, rows: list[list[int]]) -> list[list[int]]:
    """Index basis of {x : M x^T = 0} for the index row matrix M, one vector
    per free column."""
    mul = galois.index_ops(f)[1]
    ncols = len(rows[0]) if rows else 0
    red, pivots = _rref(f, rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(red, pivots):
            vec[pc] = mul(row[fc], f.p - 1)  # -row[fc]
        basis.append(vec)
    return basis


def matrix_rank(rows) -> int:
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    f = rows[0][0].field
    return len(_rref(f, [_indices(f, r) for r in rows], reduced=False)[1])


def null_space(f: galois.FieldSpec, rows) -> list[list[Element]]:
    """Basis of {x : M x^T = 0} for the row matrix M, one vector per free column."""
    basis = _null_space(f, [_indices(f, r) for r in rows])
    return [[Element(f, i) for i in vec] for vec in basis]


# -- the code object -----------------------------------------------------------

class LinearCode:
    """A linear code with optional repair-group partition.

    The generator rows and y values are given as elements of `field` and
    stored as canonical indices in `_rows` and `_ys`; `generator` and
    `y_values` read them back as elements.  meta carries: construction
    ("rational-aut" | "naive" | free-form), r, d_lower, and the
    construction parameters (u, v, s) or source tag.  Operations read the
    indices taken at construction; do not mutate a code.
    """

    def __init__(self, field: galois.FieldSpec, n: int, k: int, generator,
                 repair_groups: tuple[tuple[int, ...], ...] | None = None,
                 y_values=None, meta: dict | None = None):
        if repair_groups is not None:  # the constructions and `from_json` pass ints
            repair_groups = tuple(tuple(galois._int(i, error=InvariantViolation) for i in g)
                                  for g in repair_groups)
        self._setup(field, n, k, generator, repair_groups, y_values, meta,
                    lambda entries: _indices(field, entries))

    @classmethod
    def _of_indices(cls, field: galois.FieldSpec, n: int, k: int, rows,
                    repair_groups=None, ys=None, meta: dict | None = None) -> LinearCode:
        """A code from index rows and index y values, with the checks of the
        public constructor."""
        code = cls.__new__(cls)
        code._setup(field, n, k, rows, repair_groups, ys, meta, tuple)
        return code

    def _setup(self, field, n, k, rows, repair_groups, ys, meta, read) -> None:
        """Read n and k as integers (`galois._int`), check the shape, store
        the entries `read` makes of each row and of the y values, then check
        the rank and the repair groups."""
        n = galois._int(n, 1, error=DomainError, message=f"a code needs length n >= 1, got n = {n}")
        k = galois._int(k, error=LengthMismatch)
        if len(rows) != k:
            raise LengthMismatch(f"generator has {len(rows)} rows, expected k = {k}")
        for row in rows:
            if len(row) != n:
                raise LengthMismatch(f"generator row of length {len(row)}, expected n = {n}")
        if ys is not None and len(ys) != n:
            raise LengthMismatch(f"{len(ys)} y values, expected n = {n}")
        self.field, self.n, self.k = field, n, k
        self.repair_groups = repair_groups
        self.meta = {} if meta is None else meta
        self._rows = [read(row) for row in rows]
        self._ys = None if ys is None else read(ys)
        self._encode_table: list[list[int]] | None = None  # built on the first encode
        self._plans: dict[int, tuple] = {}  # coordinate -> `_repair_plan`, on its first repair
        self._group: dict[int, tuple[int, ...]] = {}  # coordinate -> its repair group
        if len(_rref(field, self._rows, reduced=False)[1]) != k:
            raise RankDeficiency(f"generator rank below k = {k}")
        if repair_groups is not None:
            covered = sorted(i for g in repair_groups for i in g)
            if covered != list(range(n)):
                raise InvariantViolation("repair groups do not partition coordinates")
            self._group = {i: g for g in repair_groups for i in g}
            r = self.meta.get("r")
            if r is not None:
                for g in repair_groups:
                    if len(g) != r + 1:
                        raise InvariantViolation(
                            f"repair group of size {len(g)}, expected r+1 = {r + 1}"
                        )

    @property
    def generator(self) -> tuple[tuple[Element, ...], ...]:
        return tuple(tuple(Element(self.field, i) for i in row) for row in self._rows)

    @property
    def y_values(self) -> tuple[Element, ...] | None:
        return None if self._ys is None else tuple(Element(self.field, y) for y in self._ys)

    def group_of(self, idx: int) -> tuple[int, ...]:
        if self.repair_groups is None:
            raise NoGroups("code carries no repair groups")
        group = self._group.get(idx)
        if group is None:
            raise NoGroups(f"coordinate {idx} not in any group")
        return group


LocalityReport = namedtuple("LocalityReport", "r algebraic exhaustive passed")


# -- builders -------------------------------------------------------------------

def good_function(spec: galois.FieldSpec, u: int, v: int) -> Poly:
    """t(y) = L_W(y)^u with L_W = prod_{a in W}(y - a); degree r+1 = u p^v.

    Only constructs t.  Its invariance under the subgroup is checked by
    `build_rational_lrc`, on the orbits it builds anyway.
    """
    lw = _poly_from_roots(spec, [a.index for a in galois.repair_subspace(spec, u, v)])
    t_poly = [1]
    for _ in range(u):
        t_poly = _poly_mul(spec, t_poly, lw)
    if len(t_poly) - 1 != u * spec.p**v:  # pragma: no cover - structural
        raise InvariantViolation(
            f"degree {len(t_poly) - 1} != r+1 = {u * spec.p**v}"
        )
    return tuple(Element(spec, c) for c in t_poly)


def _evaluation_rows(f: galois.FieldSpec, tvals: list[int], ys: list[int],
                     r: int, s: int) -> list[list[int]]:
    """Index rows t^j * y^i (j <= s, i < r, j outer) at the evaluation points,
    as running products of logs; a zero t value has log -1 (t^0 = 1 still)."""
    exp, log, _ = f._logs
    m = f.q - 1
    lys = [log[y] for y in ys]  # places exclude the kernel, so y != 0
    lts = [log[t] for t in tvals]
    rows = []
    tpow = [0] * len(ys)  # logs of t^j
    for _ in range(s + 1):
        cur = tpow
        for _ in range(r):
            rows.append([exp[a] if a >= 0 else 0 for a in cur])
            cur = [(a + b) % m if a >= 0 else -1 for a, b in zip(cur, lys)]
        tpow = [(a + b) % m if a >= 0 and b >= 0 else -1 for a, b in zip(tpow, lts)]
    return rows


def build_rational_lrc(spec: galois.FieldSpec, u: int, v: int, s: int) -> LinearCode:
    """Evaluation code over the level-1 places with repair groups = orbits.

    n = q - ell, k = r(s+1) exactly (rank-checked), designed distance
    n - (r+1)s - (r-1).  Each orbit is {sigma^-1(P) : sigma in G} for a
    closure-checked G, so t is invariant under G exactly when it is
    constant on every orbit; that, and distinct values across orbits, is
    checked here before the generator is assembled.
    """
    from . import tower  # only this construction needs it; repair and verify do not

    group = tower.build_subgroup(spec, u, v)
    r, s = group.r, galois._int(s, error=SOutOfRange)  # as thm34_params reads s
    n, _, d_lb = tower.thm34_params(spec, 1, r, s)
    t_poly = _indices(spec, good_function(spec, u, v))
    places = tower.enumerate_places(spec, 1)
    orbits = tower.orbit_partition(group, places)
    ys = [places[j].coords[0].index for orbit in orbits for j in orbit]
    tvals = [_horner(spec, t_poly, y) for y in ys]
    groups = []
    start = 0
    for orbit in orbits:
        end = start + len(orbit)
        if len(set(tvals[start:end])) != 1:
            raise InvariantViolation("t is not constant on an orbit")
        groups.append(tuple(range(start, end)))
        start = end
    if len({tvals[g[0]] for g in groups}) != len(groups):
        raise InvariantViolation("t collides on distinct orbits")
    rows = _evaluation_rows(spec, tvals, ys, r, s)
    meta = {"construction": "rational-aut", "u": group.u, "v": group.v, "s": s, "r": r,
            "d_lower": d_lb}
    return LinearCode._of_indices(spec, n, r * (s + 1), rows, tuple(groups), ys, meta)


def naive_lrc(code: LinearCode, r: int) -> LinearCode:
    """Augment a code's parity checks with n/(r+1) disjoint all-ones rows.

    The result is the exact null space of the stacked parity-check matrix
    (its dimension can exceed the guaranteed k - n/(r+1) when rows are
    dependent); repair groups are the supports of the new rows.
    """
    f, n = code.field, code.n
    r = galois._int(r, 1, error=LocalityTooSmall, message=f"locality r = {r} < 1")
    if n % (r + 1):
        raise NotDivisible(f"(r+1) = {r + 1} does not divide n = {n}")
    if r * code.k < n:
        raise LocalityTooSmall(f"need r >= n/k = {n}/{code.k}")
    groups = tuple(tuple(range(t, t + r + 1)) for t in range(0, n, r + 1))
    ones = [[int(j in g) for j in range(n)] for g in groups]
    gen = _null_space(f, _null_space(f, code._rows) + ones)
    meta = {"construction": "naive", "source": code.meta.get("construction", "generic"),
            "r": r, "d_lower": code.meta.get("d_lower", 1)}
    return LinearCode._of_indices(f, n, len(gen), gen, groups, meta=meta)


# -- operations -----------------------------------------------------------------

def _bytewise(f: galois.FieldSpec) -> bool:
    """Whether encode and repair run on per-code byte tables: q <= 256 puts
    a symbol in a byte, and p <= 127 lets a digit lane add two terms."""
    return f.q <= 256 and f.p <= 127


def _symbols(f: galois.FieldSpec, entries) -> bytes | tuple[int, ...]:
    """Canonical indices of a message or of group mates.  A list or tuple
    of integers in [0, min(q, 256)) is read at C speed by `bytes`, which
    takes each entry with `operator.index` as `_indices` does; anything
    else (elements, arrays, whose raw buffer `bytes` would read, and every
    bad entry) goes through `_indices`, with its checks and messages."""
    if type(entries) is list or type(entries) is tuple:
        try:
            raw = bytes(entries)
        except (TypeError, ValueError):
            pass
        else:
            if not raw or max(raw) < f.q:
                return raw
    return _indices(f, entries, ints=True)


def _encode_table(code: LinearCode) -> list[list[int]]:
    """table[i][m], the ints whose little-endian bytes are m times row i of
    the generator, for every message symbol m; q <= 256 and p <= 127.

    For p = 2 an int holds the n index bytes of m row_i, and a codeword
    is the XOR of its terms.  For odd p it holds w lanes of n bytes, lane
    t the digits t of m row_i, so a plain sum of terms adds each lane
    bytewise until a byte could pass 255.  That is k q ints of n (p = 2)
    or w n bytes each, built on the first encode from k w translates and
    k q XORs (p = 2) or from k q w translates.
    """
    f = code.field
    rows = [bytes(row) for row in code._rows]
    if f.p == 2:  # (m + 2^b) row = m row XOR 2^b row for m < 2^b: w translates a row
        mul, table = f._byte_tables[1], []
        for row in rows:
            scaled = [0]
            for b in range(f.w):
                unit = int.from_bytes(row.translate(mul[1 << b]), "little")
                scaled += [x ^ unit for x in scaled]
            table.append(scaled)
        return table
    digit = f._digit_tables[0]
    return [[int.from_bytes(b"".join([row.translate(d[m]) for d in digit]), "little")
             for m in range(f.q)] for row in rows]


def encode(code: LinearCode, message) -> tuple[Element, ...]:
    """message x generator; message entries are elements or canonical indices.

    For q <= 256 and p <= 127 each message symbol m_i is one lookup,
    `_encode_table`[i][m_i], and the terms are summed as one XOR (p = 2)
    or as plain integer sums of digit lanes, reduced mod p by a translate
    before any byte could pass 255; otherwise each column is one `_dot`.
    """
    if len(message) != code.k:
        raise LengthMismatch(f"message length {len(message)} != k = {code.k}")
    f = code.field
    message = _symbols(f, message)
    table = code._encode_table
    if table is None:
        if not _bytewise(f):
            logs = [f._logs[1][m] for m in message]  # log(0) = -1
            cols = zip(*code._rows) if code.k else [()] * code.n
            return tuple(Element(f, _dot(f, logs, col)) for col in cols)
        table = code._encode_table = _encode_table(code)
    p, n = f.p, code.n
    if p == 2:
        word = reduce(xor, map(getitem, table, message), 0)
    else:
        mod_p, size = f._digit_tables[1], f.w * n
        chunk = 255 // (p - 1) - 1  # terms a byte holding a residue can add
        acc = sum(map(getitem, table[:chunk], message[:chunk]))
        for start in range(chunk, code.k, chunk):
            acc = int.from_bytes(acc.to_bytes(size, "little").translate(mod_p), "little")
            acc += sum(map(getitem, table[start:start + chunk], message[start:start + chunk]))
        lanes = int.from_bytes(acc.to_bytes(size, "little").translate(mod_p), "little")
        word = lanes >> 8 * n * (f.w - 1)
        mask = (1 << 8 * n) - 1
        for t in range(f.w - 2, -1, -1):  # the index is sum_t lane_t p^t, with no carry
            word = word * p + ((lanes >> 8 * n * t) & mask)
    elements = itemgetter(*word.to_bytes(n, "little"))(f._elements)
    return elements if n > 1 else (elements,)  # one index gets the element itself


def _lagrange_logs(f: galois.FieldSpec, x0: int, xs: list[int]) -> list[int]:
    """Logs of the Lagrange weights prod_{m != j} (x0 - x_m) / (x_j - x_m),
    -1 for a zero weight; DivideByZero when two x_j coincide."""
    log = f._logs[1]
    add, mul = galois.index_ops(f)
    diff = [[log[add(a, mul(b, f.p - 1))] for b in xs] for a in [x0] + xs]  # log(a - b)
    logs = []
    for j, row in enumerate(diff[1:]):
        num, den = diff[0][:j] + diff[0][j + 1:], row[:j] + row[j + 1:]
        if -1 in den:
            raise DivideByZero("repeated y values in a repair group")
        logs.append(-1 if -1 in num else (sum(num) - sum(den)) % (f.q - 1))
    return logs


def _repair_plan(code: LinearCode, idx: int, others: list[int]) -> tuple[tuple, list]:
    """(others, weights) for the erased coordinate idx: its group mates and
    their weights lambda_j, as logs (-1 for zero) for `_dot`, or for
    `_bytewise` fields as the byte tables mul[lambda_j]."""
    f = code.field
    if code.meta.get("construction") == "naive":
        logs = [f._logs[1][f.p - 1]] * len(others)  # log(-1)
    elif code._ys is None:
        raise NoGroups("code carries no evaluation points for interpolation")
    else:
        logs = _lagrange_logs(f, code._ys[idx], [code._ys[j] for j in others])
    if not _bytewise(f):
        return tuple(others), logs
    exp, mul = f._logs[0], f._byte_tables[1]
    return tuple(others), [mul[exp[lw] if lw >= 0 else 0] for lw in logs]


def local_repair(code: LinearCode, word, idx: int) -> Element:
    """Recover the erased symbol at idx from the rest of its repair group.

    The symbol is sum_j lambda_j word[j] over the group mates j, whose
    entries are elements or canonical indices.  Naive codes have
    lambda_j = -1, their all-ones parity relation; otherwise the lambda_j
    are the Lagrange weights at the y values, which interpolate the
    degree <= r-1 polynomial through the group mates.  A coordinate's
    mates and weights (`_repair_plan`) are computed on its first repair
    and kept on the code; later repairs read the mates' indices straight
    from elements of the field, and any other word goes through the
    checks of the first repair.  For q <= 256 and p <= 127 the sum is one
    lookup mul[lambda_j][x_j] and one add (XOR for p = 2) per mate.
    idx is read with `operator.index`, as the symbols are.
    """
    try:
        idx = _integer(idx)
    except TypeError:
        raise SpecMismatch(f"coordinate {idx!r} is not an integer") from None
    f = code.field
    plan = code._plans.get(idx)
    if plan is not None and _bytewise(f):  # mates that are elements of f, in one pass
        add, acc = f._byte_tables[0], 0
        try:
            for j, table in zip(*plan):
                x = word[j]
                if x.field is not f:
                    break
                acc = add[acc][table[x.index]]
            else:
                return f._elements[acc]
        except (AttributeError, LookupError):  # an integer symbol, an erasure or none
            pass
    # in order: the group, the mates' symbols, further erasures, the
    # symbols' values, then the weights
    group = code.group_of(idx)
    others = [j for j in group if j != idx]
    try:
        mates = [word[j] for j in others]
    except LookupError as exc:  # a short list, a dict without a mate's key
        raise LengthMismatch(f"word has no symbol at a mate of {idx}: {exc!r}") from None
    missing = [j for j, x in zip(others, mates) if x is None]
    if missing:
        raise NotRepairable(f"group of {idx} has further erasures at {missing}")
    xs = _symbols(f, mates)
    if plan is None:
        plan = code._plans[idx] = _repair_plan(code, idx, others)
    weights = plan[1]
    if not _bytewise(f):
        return Element(f, _dot(f, weights, xs))
    add, acc = f._byte_tables[0], 0
    for table, x in zip(weights, xs):
        acc = add[acc][table[x]]
    return f._elements[acc]


def all_codewords(code: LinearCode, limit: int = 1 << 18) -> list[tuple[int, ...]]:
    """All q^k codewords as tuples of n element indices, in mixed-radix
    message order: word 0 is the zero word, the last message digit
    fastest.  These are the words of `_span_words`, which the scans
    read; TooLarge when q^k > limit."""
    f, n = code.field, code.n
    total = f.q**code.k
    if total > galois._int(limit, error=DomainError):
        raise TooLarge(f"q^k = {total} exceeds limit {limit}")
    return list(map(tuple, _span_words(f, code._rows, n)))


def _columns(f: galois.FieldSpec, rows, n: int) -> list[bytes]:
    """Column j of the span of the index rows, for q <= 256: the symbols at
    j of its q^len(rows) words in the order of `all_codewords`.  A row's
    words m c (its digit m slower) shift the span of the rows below it, one
    translate per m."""
    add, mul, _ = f._byte_tables
    if not rows:
        return [b"\0"] * n
    cols = [mul[c][:f.q] for c in rows[-1]]  # the last row's words m c
    for row in reversed(rows[:-1]):
        cols = [b"".join([col.translate(add[x]) for x in mul[c][:f.q]])
                for col, c in zip(cols, row)]
    return cols


#: the most symbols a block of a scan holds, n q^b for b block rows
_BLOCK_BYTES = 1 << 18

#: the largest field a scan takes: a lane holds q bytes per coordinate
_SCAN_Q = 4096


def _block_rows(q: int, k: int, n: int) -> int:
    """Rows b of a block of the span of k >= 1 rows: for q <= 256 the
    most with n q^b <= _BLOCK_BYTES, at least one; for q > 256 one."""
    b = 1
    while q <= 256 and b < k and n * q ** (b + 1) <= _BLOCK_BYTES:
        b += 1
    return b


def _shifted(f: galois.FieldSpec, rows, n: int, tables):
    """The block walk of both scans, for q <= 256: for each word `lead` of
    the span of the leading rows (`_span_words`) in turn, an iterator over
    the columns of the block, the span of the last b = `_block_rows` rows
    (all of them when fewer), column j translated through tables[lead_j].
    Through the add tables that is the block shifted by lead."""
    b = min(len(rows), _block_rows(f.q, len(rows), n))
    block = _columns(f, rows[len(rows) - b:], n)
    for lead in _span_words(f, rows[:len(rows) - b], n):
        yield map(bytes.translate, block, map(tables.__getitem__, lead))


def _span_words(f: galois.FieldSpec, rows, n: int):
    """Each word of the span of the index rows, as n indices, in the order
    of `all_codewords`.  Each word of the leading rows shifts the columns
    of a block of the last `_block_rows` rows (`_shifted`; for q > 256, adds
    the multiples of the last row), so no more than one block of each level
    is held at once, whatever q^len(rows)."""
    if not rows:
        yield (0,) * n
        return
    if f.q > 256:
        add, mul = galois.index_ops(f)
        for lead in _span_words(f, rows[:-1], n):
            for m in range(f.q):
                yield [add(a, mul(m, c)) for a, c in zip(lead, rows[-1])]
        return
    for cols in _shifted(f, rows, n, f._byte_tables[0]):
        yield from zip(*cols)


def _nonzero_blocks(code: LinearCode):
    """Support lanes of all q^k codewords, one block at a time, in the
    message order of `all_codewords`: word 0 of block 0 is the zero word.

    A block is the span of the last b = `_block_rows` message rows, and
    each word `lead` spanned by the leading k - b rows shifts it.  The
    block yields one int per coordinate j whose byte m is 1 where word m
    of the shifted block is nonzero at j, else 0.  For q <= 256 that is
    column j of the block translated through the field's nonzero[lead_j]
    table (`_shifted`).  A symbol above 255 does not fit a byte, so for
    q > 256 the block is the last row c alone, and lead_j + m c_j is zero
    only at m = -lead_j / c_j (everywhere when lead_j = c_j = 0).  Raises
    TooLarge for q > _SCAN_Q.
    """
    f, k, n = code.field, code.k, code.n
    q, rows = f.q, code._rows
    if q > _SCAN_Q:
        raise TooLarge(f"codeword scans are limited to q <= {_SCAN_Q}, got q={q}")
    if not k:  # the zero word alone
        yield [0] * n
        return
    if q <= 256:
        for cols in _shifted(f, rows, n, f._byte_tables[2]):
            yield [int.from_bytes(col, "little") for col in cols]
        return
    exp, log, _ = f._logs
    ones = int.from_bytes(b"\1" * q, "little")
    neg = log[f.p - 1]  # log(-1)
    lcs = [log[c] for c in rows[-1]]  # -1 for c = 0
    for lead in _span_words(f, rows[:-1], n):
        lanes = []
        for a, lc in zip(lead, lcs):
            if lc < 0:
                lanes.append(ones if a else 0)
            else:
                m = exp[(log[a] + neg - lc) % (q - 1)] if a else 0
                lanes.append(ones ^ (1 << 8 * m))
        yield lanes


def _counts(lanes: list[int], size: int):
    """The support size of each of a block's `size` words from its 0/1
    byte lanes: the bytes of their sum (SWAR: no lane carries) when
    n < 256, else an array of wider counts, summed 255 columns at a time
    and spread to 2- or 4-byte lanes."""
    if len(lanes) < 256:
        return sum(lanes).to_bytes(size, "little")
    width = 2 if len(lanes) < 1 << 16 else 4
    total = 0
    for c in range(0, len(lanes), 255):
        wide = bytearray(size * width)
        wide[::width] = sum(lanes[c:c + 255]).to_bytes(size, "little")
        total += int.from_bytes(wide, "little")
    out = array(next(t for t in "HIL" if array(t).itemsize == width),
                total.to_bytes(size * width, "little"))
    if sys.byteorder == "big":
        out.byteswap()
    return out


def min_distance(code: LinearCode, limit: int = 1 << 22) -> int:
    """Exact minimum Hamming weight over all q^k - 1 nonzero codewords;
    DomainError for k = 0, where there is none.

    Counts the support of every codeword, block by block from the lanes
    of `_nonzero_blocks`, skipping the zero word.  Raises TooLarge when
    q^k > limit; verify only d_lower by sampling then (random codeword
    weights give a one-sided upper bound on d, never a certificate).
    """
    q, k, n = code.field.q, code.k, code.n
    if not k:
        raise DomainError(f"the [{n}, 0] code has no nonzero codeword, so no minimum distance")
    total = q**k
    if total > galois._int(limit, error=DomainError):
        raise TooLarge(
            f"q^k = {total} exceeds limit {limit}; use sampled weights to "
            "probe d_lower instead"
        )
    best = n + 1
    size = q ** _block_rows(q, k, n)
    drop = b""  # the counts a byte holds that are not below best
    for t, lanes in enumerate(_nonzero_blocks(code)):
        counts = _counts(lanes, size)
        if not t:
            counts = counts[1:]  # skip the all-zero codeword
        if isinstance(counts, bytes):  # only the counts below best, in C
            counts = counts.translate(None, drop)
        if counts:
            best = min(best, min(counts))
            drop = bytes(range(min(best, 256), 256))
    return best


def verify_locality(code: LinearCode, exhaustive_limit: int = 1 << 18) -> LocalityReport:
    """Two independent per-coordinate checks.

    (a) algebraic: generator column i lies in the span of the columns of
        its group mates, i.e. some linear dependency among the group's
        columns involves i (one reduction per group); (b) exhaustive (when
        q^k <= exhaustive_limit): no codeword's support inside i's group
        is exactly {i}.  The scan enumerates the whole span of the rows,
        which is closed under subtraction, so (b) says that codewords
        agreeing on the group mates agree at i: their difference is zero
        on the mates.  Over the lanes of `_nonzero_blocks`, i fails when
        nz_i & ~(nz_j for its mates j, or-ed) is nonzero.
    """
    if code.repair_groups is None:
        raise NoGroups("code carries no repair groups")
    algebraic = [False] * code.n
    for g in code.repair_groups:
        red, pivots = _rref(code.field, [[row[j] for j in g] for row in code._rows])
        free = [c for c in range(len(g)) if c not in pivots]
        for c in free:
            algebraic[g[c]] = True
        for row, pc in zip(red, pivots):
            algebraic[g[pc]] = any(row[fc] for fc in free)
    exhaustive = None
    if code.field.q**code.k <= galois._int(exhaustive_limit, error=DomainError):
        exhaustive = [True] * code.n
        for lanes in _nonzero_blocks(code):
            for g in code.repair_groups:
                before = [0]  # or of the lanes before each member
                for i in g:
                    before.append(before[-1] | lanes[i])
                after = 0  # or of the lanes after it
                for t in range(len(g) - 1, -1, -1):
                    i = g[t]
                    if lanes[i] & ~(before[t] | after):
                        exhaustive[i] = False
                    after |= lanes[i]
    ok = all(algebraic) and (exhaustive is None or all(exhaustive))
    r = code.meta["r"] if "r" in code.meta else max(len(g) for g in code.repair_groups) - 1
    return LocalityReport(r=r, algebraic=algebraic, exhaustive=exhaustive, passed=ok)


# -- serialization ----------------------------------------------------------------

def to_json(code: LinearCode) -> str:
    """Canonical JSON (sorted keys, no whitespace): byte-reproducible.

    The generator is encoded one row at a time and spliced into the rest
    of the document, so the encoder's per-digit strings for one row, not
    for the whole matrix, are alive at once (a GF(256) [240,6] code peaks
    at ~0.2 MB instead of ~1.3 MB).  A key in the text cannot be matched
    inside a string value, whose quotes are escaped.
    """
    meta, digits, p, w = code.meta, galois._digits, code.field.p, code.field.w
    if meta.get("construction") == "rational-aut":
        params = {"u": meta["u"], "v": meta["v"], "s": meta["s"]}
    else:
        params = {"source": meta.get("source", "generic")}
    doc = {
        "field": code.field.to_json(),
        "n": code.n,
        "k": code.k,
        "r": meta.get("r"),
        "construction": meta.get("construction", "generic"),
        "params": params,
        "generator": None,
        "repair_groups": (
            [list(g) for g in code.repair_groups]
            if code.repair_groups is not None
            else None
        ),
        "y_values": None if code._ys is None else [digits(y, p, w) for y in code._ys],
        "d_lower": meta.get("d_lower", 1),
    }
    rows = ",".join(json.dumps([digits(i, p, w) for i in row], separators=(",", ":"))
                    for row in code._rows)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return text.replace('"generator":null', f'"generator":[{rows}]', 1)


def _decode(f: galois.FieldSpec, coefficient_lists) -> tuple[int, ...]:
    """Canonical indices of f from their coefficient lists (low degree
    first), each read in one pass; SpecMismatch unless it holds w integers
    in [0, p)."""
    p, w = f.p, f.w
    out = []
    for coeffs in coefficient_lists:
        if len(coeffs) != w:
            raise SpecMismatch(f"expected {w} coefficients, got {len(coeffs)}")
        i = 0
        for c in reversed(coeffs):
            if type(c) is not int or not 0 <= c < p:
                raise SpecMismatch(f"coefficient {c!r} is not an integer in [0, {p})")
            i = i * p + c
        out.append(i)
    return tuple(out)


def from_json(data) -> LinearCode:
    """Rebuild a code from its JSON document (string, bytes or parsed dict);
    raises SpecMismatch on malformed input and LengthMismatch on a wrong
    length."""
    try:
        if isinstance(data, (str, bytes)):
            data = json.loads(data)
        spec = galois.field_from_json(data["field"])
        rows = [_decode(spec, row) for row in data["generator"]]
        groups = (
            tuple(tuple(galois._json_int(i, "repair group entry") for i in g)
                  for g in data["repair_groups"])
            if data.get("repair_groups") is not None
            else None
        )
        ys = _decode(spec, data["y_values"]) if data.get("y_values") is not None else None
        # params never supply the checked fields; a null r stays out of meta,
        # so verify_locality computes it as for a code built without one
        meta = dict(data.get("params", {}))
        meta.pop("r", None)
        if data.get("r") is not None:
            meta["r"] = galois._json_int(data["r"], "r")
        meta.update(construction=data.get("construction", "generic"),
                    d_lower=galois._json_int(data.get("d_lower", 1), "d_lower"))
        return LinearCode._of_indices(spec, galois._json_int(data["n"], "n"),
                                      galois._json_int(data["k"], "k"), rows, groups, ys, meta)
    except LrcError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SpecMismatch(f"malformed code document: {exc!r}") from None
