"""Hypothesis properties of the code pipeline on random small codes.

Codes are drawn over GF(2), GF(3), GF(4) and GF(9) with n <= 8, full rank
by construction, with random repair-group partitions.  Every test runs a
fixed number of derandomized examples, so the suite stays deterministic.
"""

from hypothesis import given, settings, strategies as st

from lrctower import codes, galois

FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


@st.composite
def partitions(draw, n, largest=4):
    """Groups of sizes 1..largest over shuffled coordinates."""
    coords = draw(st.permutations(range(n)))
    groups = []
    while coords:
        size = draw(st.integers(1, largest))
        groups.append(tuple(coords[:size]))
        coords = coords[size:]
    return tuple(groups)


@st.composite
def index_codes(draw):
    """(field, n, k, index rows, groups, index ys, meta) of a full-rank code:
    row i is 1 at its pivot column, 0 at the other rows' pivots and random
    elsewhere."""
    f = galois.field_create(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, n))
    pivots = draw(st.permutations(range(n)))[:k]
    symbol = st.integers(0, f.q - 1)
    rows = []
    for i, pc in enumerate(pivots):
        row = [draw(symbol) for _ in range(n)]
        for j, other in enumerate(pivots):
            row[other] = int(i == j)
        rows.append(row)
    groups = draw(st.none() | partitions(n))
    ys = draw(st.none() | st.lists(symbol, min_size=n, max_size=n))
    meta = {"construction": draw(st.sampled_from(["generic", "custom", "naive"])),
            "d_lower": draw(st.integers(1, n))}
    if groups is not None and len({len(g) for g in groups}) == 1 and draw(st.booleans()):
        meta["r"] = len(groups[0]) - 1
    return f, n, k, rows, groups, ys, meta


def _elements(f, entries):
    return tuple(f.from_index(i) for i in entries)


@PROPERTY
@given(index_codes())
def test_element_and_index_constructors_agree(drawn):
    f, n, k, rows, groups, ys, meta = drawn
    public = codes.LinearCode(field=f, n=n, k=k,
                              generator=tuple(_elements(f, row) for row in rows),
                              repair_groups=groups,
                              y_values=None if ys is None else _elements(f, ys),
                              meta=dict(meta))
    private = codes.LinearCode._of_indices(f, n, k, rows, groups, ys, dict(meta))
    assert public._rows == private._rows == [tuple(row) for row in rows]
    assert public._ys == private._ys == (None if ys is None else tuple(ys))
    assert public.repair_groups == private.repair_groups == groups
    assert public.meta == private.meta == meta
    assert public.generator == private.generator
    assert public.y_values == private.y_values


@PROPERTY
@given(index_codes())
def test_json_round_trip_is_byte_exact(drawn):
    code = codes.LinearCode._of_indices(*drawn)
    text = codes.to_json(code)
    again = codes.from_json(text)
    assert codes.to_json(again) == text
    assert again._rows == code._rows and again._ys == code._ys
    assert again.repair_groups == code.repair_groups


@st.composite
def local_codes(draw):
    """A code whose restriction to each repair group g is a polynomial of
    degree < |g| - 1 at distinct y values, so Lagrange repair from the
    group mates restores any erased symbol; the generator is a basis of
    the span of random such rows."""
    f = galois.field_create(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, 8))
    groups = draw(partitions(n, largest=min(f.q, 4)))
    ys = [0] * n
    for g in groups:
        for j, y in zip(g, draw(st.permutations(range(f.q)))):
            ys[j] = y
    yel = _elements(f, ys)
    symbol = st.integers(0, f.q - 1)
    rows = []
    for _ in range(draw(st.integers(1, n))):
        row = [f.zero()] * n
        for g in groups:
            poly = _elements(f, draw(st.lists(symbol, min_size=len(g) - 1,
                                              max_size=len(g) - 1)))
            for j in g:
                row[j] = codes.poly_eval(poly, yel[j]) if poly else f.zero()
        rows.append([x.index for x in row])
    red, pivots = codes._rref(f, rows)
    return codes.LinearCode._of_indices(f, n, len(pivots), red[:len(pivots)], groups, ys)


@PROPERTY
@given(local_codes(), st.data())
def test_encode_erase_repair_restores_the_symbol(code, data):
    message = data.draw(st.lists(st.integers(0, code.field.q - 1),
                                 min_size=code.k, max_size=code.k))
    word = list(codes.encode(code, message))
    idx = data.draw(st.integers(0, code.n - 1))
    erased, word[idx] = word[idx], None
    assert codes.local_repair(code, word, idx) == erased
