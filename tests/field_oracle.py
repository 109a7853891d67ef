"""Field and elimination oracles shared by the tests.

`tables` is the library's earlier `FieldSpec.tables()`: numpy (add, mul,
inv) index tables over the exp/log/Zech lists, for q <= 4096.
`all_codewords` is the earlier `codes.all_codewords`, every codeword as a
row of a numpy array, built over those tables.  `zech_rref` is a frozen
copy of the earlier `codes._rref`, Gauss-Jordan entry by entry through
Zech logarithms, kept as the exact reference for the byte-lane kernel.
"""

import numpy as np

from lrctower.errors import TooLarge


def tables(f):
    """(add, mul, inv) numpy index tables of f, q <= 4096: add[a, b] and
    mul[a, b] are the indices of a + b and a b, inv[a] that of 1/a
    (inv[0] = 0)."""
    if f.q > 4096:
        raise TooLarge(f"lookup tables limited to q <= 4096, got q={f.q}")
    exp, log, zech = (np.array(t, dtype=np.int32) for t in f._logs)
    q = f.q
    lg = log[1:, None]  # logs of the nonzero elements, as a column
    add = np.empty((q, q), dtype=np.int32)
    add[0] = add[:, 0] = np.arange(q)
    z = zech[(lg.T - lg) % (q - 1)]
    add[1:, 1:] = np.where(z < 0, 0, exp[lg + z])
    mul = np.zeros((q, q), dtype=np.int32)
    mul[1:, 1:] = exp[lg + lg.T]
    inv = np.zeros(q, dtype=np.int32)
    inv[1:] = exp[q - 1 - log[1:]]
    return add, mul, inv


def all_codewords(code, limit=1 << 18):
    """All q^k codewords as a (q^k, n) numpy array of element indices, in
    mixed-radix message order: row 0 is the zero word, the last message
    digit fastest."""
    f, n = code.field, code.n
    total = f.q**code.k
    if total > limit:
        raise TooLarge(f"q^k = {total} exceeds limit {limit}")
    add, mul, _ = tables(f)
    words = np.zeros((1, n), dtype=np.int32)
    for row in reversed(code._rows):
        scal = mul[np.arange(f.q)[:, None], np.array(row, dtype=np.int32)[None, :]]
        words = add[scal[:, None, :], words[None, :, :]].reshape(-1, n)
    return words


def zech_rref(f, rows):
    """Reduced row echelon form (on a copy) and pivot columns of a matrix of
    canonical indices, by Gauss-Jordan over the field's exp/log/Zech lists."""
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
        for i, row in enumerate(rows):
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
