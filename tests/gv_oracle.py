"""Independent GV oracle shared by the bound and acceptance tests: a dense
log grid over s with its own log-sum-exp, no reuse of the library's search
code."""

import math

import numpy as np


def gv_grid_oracle(q, r, delta, points=10**6):
    glo = max(delta / (2.0 * (q - 1.0)), 1e-280)
    s = np.geomspace(glo, 1.0, points)
    lnq = math.log(q)
    a = (r + 1.0) * np.log1p((q - 1.0) * s)
    with np.errstate(divide="ignore"):
        b = math.log(q - 1.0) + (r + 1.0) * np.log1p(-np.minimum(s, 1.0))
    h = np.logaddexp(a, b) / ((r + 1.0) * lnq) - delta * np.log(s) / lnq
    return 1.0 - float(h.min()), s, h
