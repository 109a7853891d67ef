"""Hypothesis properties of the code pipeline on random small codes, and
of the CLI on corrupted code files.

Codes are drawn over GF(2), GF(3), GF(4), GF(5), GF(8) and GF(9) with
n <= 8, full rank by construction, with random repair-group partitions.
Corrupted files are golden code files with keys dropped, values of
another type, digits changed, the text cut or group entries repeated.
Every test runs a fixed number of derandomized examples, so the suite
stays deterministic.
"""

import functools
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from lrctower import codes, errors, galois
from test_cli import invoke

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]
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


@functools.cache
def _golden_files():
    """The canonical text of the README's GF(9) [6, 4] code and of its
    naive augmentation with r = 2; both have n = 6."""
    code = codes.build_rational_lrc(galois.field_create(3, 2), 1, 1, 1)
    return codes.to_json(code), codes.to_json(codes.naive_lrc(code, 2))


def _paths(doc, path=()):
    """Every path (keys and list positions) into a parsed document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


#: values of every JSON type, and integers no field or code takes
ODD_VALUES = [None, True, False, 0, -1, 2, 10**30, 2.5, float("nan"), "", "x", "3",
              [], [0], [[0, 1]], {}, {"p": 3}]


@st.composite
def corrupted_code_files(draw):
    """A golden code file after one to three corruptions."""
    text = draw(st.sampled_from(_golden_files()))
    for kind in draw(st.lists(st.sampled_from(["drop", "retype", "digits", "cut", "repeat"]),
                              min_size=1, max_size=3)):
        if kind == "cut":
            text = text[:draw(st.integers(0, max(len(text) - 1, 0)))]
            continue
        if kind == "digits":
            spots = [i for i, c in enumerate(text) if c.isdigit()]
            if spots:
                i = draw(st.sampled_from(spots))
                text = text[:i] + str(draw(st.integers(0, 9))) + text[i + 1:]
            continue
        try:
            doc = json.loads(text)
        except ValueError:
            continue  # a cut text has no keys or groups left to corrupt
        if kind == "drop":
            paths = list(_paths(doc))[1:]
            if paths:
                path = draw(st.sampled_from(paths))
                del _parent(doc, path)[path[-1]]
        elif kind == "retype":
            path = draw(st.sampled_from(list(_paths(doc))))
            value = draw(st.sampled_from(ODD_VALUES))
            if path:
                _parent(doc, path)[path[-1]] = value
            else:
                doc = value
        else:  # repeat an entry of a repair group, appended or over another
            groups = doc.get("repair_groups") if isinstance(doc, dict) else None
            groups = [g for g in groups if isinstance(g, list) and g] if isinstance(
                groups, list) else []
            if groups:
                group = draw(st.sampled_from(groups))
                entry = group[draw(st.integers(0, len(group) - 1))]
                spot = draw(st.integers(0, len(group)))  # len(group) appends
                group[spot:spot + 1] = [entry]
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return text


def _names_an_lrc_error(stderr):
    """Whether stderr is one line that starts with the name of an LrcError."""
    lines = stderr.splitlines()
    error = getattr(errors, lines[0].split(":")[0], None) if len(lines) == 1 else None
    return isinstance(error, type) and issubclass(error, errors.LrcError)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(corrupted_code_files())
def test_a_corrupted_code_file_exits_0_or_1_without_a_traceback(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as handle:
            handle.write(text)
        for args in (["code", "verify", path], ["code", "repair", path, "--word", "4,7,?,1,0,3"],
                     ["code", "verify", path, "--distance", "--locality"]):
            result = invoke(*args)
            assert "Traceback" not in result.output
            assert result.exception is None or isinstance(result.exception, SystemExit)
            assert result.exit_code in (0, 1)
            if result.exit_code == 0:
                assert result.stderr == ""
            elif "--distance" in args and not result.stderr:
                assert "FAIL" in result.stdout  # a check that ran and failed
            else:
                assert _names_an_lrc_error(result.stderr), result.stderr
