"""Encode oracle shared by the code tests.

`lane_encode` is the library's earlier encode for q <= 256 and p <= 127,
kept as the exact reference for `codes.encode`, which now reads per-code
tables: each nonzero message symbol m scales its generator row with one
`bytes.translate` by the field's mul[m] table, and `lane_sum` adds the
scaled rows.
"""

from lrctower import codes


def lane_sum(f, terms, n):
    """sum m row over the (m, row) terms, for rows of n index bytes and
    q <= 256, as n index bytes.  Each term is its row translated by m.

    For p = 2 the sum of indices is their XOR, over the ints of the
    scaled rows.  For odd p <= 127 each digit position t has a lane: the
    plain sum of the terms' digits t (one translate by the `digit[t][m]`
    table each), reduced mod p by a translate after each chunk of terms
    that keeps every byte below 256; the index is then sum_t lane_t p^t,
    which carries no byte.
    """
    p = f.p
    if p == 2:
        mul = f._byte_tables[1]
        acc = 0
        for m, row in terms:
            acc ^= int.from_bytes(row.translate(mul[m]), "little")
        return acc.to_bytes(n, "little")
    digit, mod_p = f._digit_tables
    chunk = 255 // (p - 1) - 1  # terms a byte holding a residue can add
    word = 0
    for t, tables in enumerate(digit):
        lane = 0
        for start in range(0, len(terms), chunk):
            for m, row in terms[start:start + chunk]:
                lane += int.from_bytes(row.translate(tables[m]), "little")
            lane = int.from_bytes(lane.to_bytes(n, "little").translate(mod_p), "little")
        word += lane * p**t
    return word.to_bytes(n, "little")


def lane_encode(code, message):
    """message x generator over the code's index rows, by `lane_sum`, as
    element indices; q <= 256 and p <= 127."""
    f = code.field
    assert f.q <= 256 and f.p <= 127
    message = codes._indices(f, message, ints=True)
    rows = [bytes(row) for row in code._rows]
    return tuple(lane_sum(f, [(m, row) for m, row in zip(message, rows) if m], code.n))
