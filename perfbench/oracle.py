"""Independent numeric oracles for the bound outputs.

These re-derive each checked value from its defining formula, written
separately from lrctower.bounds, so a refactor of the package cannot change
both sides of a check at once.
"""

from __future__ import annotations

import math
from math import isqrt, log, log1p

import numpy as np

#: |gv_bound - (1 - h(find_s0))|; decisions in the package use 1e-9
TOL_GV = 1e-9
#: |lp_bound - two-level dense-grid minimum|
TOL_LP = 1e-6
#: closed forms are straight-line formulas: relative tolerance
TOL_CLOSED = 1e-12


def entropy(q: float, x):
    """q-ary entropy H_q on [0, 1 - 1/q], vectorized, with 0 log 0 = 0."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0 - 1.0 / q)
    lnq = log(q)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = x * log(q - 1.0) / lnq
        out -= np.where(x > 0, x * np.log(np.where(x > 0, x, 1.0)), 0.0) / lnq
        out -= np.where(x < 1, (1 - x) * np.log1p(-np.where(x < 1, x, 0.0)), 0.0) / lnq
    return out


def closed_form(bound_id: str, q: float, r: int, delta: float) -> float:
    frac = r / (r + 1.0)
    if bound_id == "rate_cap":
        return frac
    if bound_id == "singleton_asym":
        return frac * (1.0 - delta)
    if bound_id == "plotkin":
        return frac * (1.0 - q * delta / (q - 1.0))
    if bound_id == "naive_gv":
        return frac - float(entropy(q, delta))
    rt = isqrt(int(q))
    if bound_id == "main":
        return frac * (1.0 - delta - (rt + r - 1.0) / (q - rt))
    if bound_id == "naive_tvz":
        return frac - delta - 1.0 / (rt - 1.0)
    if bound_id == "btv1":
        return frac * (1.0 - delta - 3.0 / (rt + 1.0))
    if bound_id == "btv2":
        return frac * (1.0 - delta - (rt + r) / (q - 1.0))
    raise ValueError(bound_id)


def closed_ok(value: float, bound_id: str, q: float, r: int, delta: float) -> bool:
    want = closed_form(bound_id, q, r, delta)
    return abs(value - want) <= TOL_CLOSED * max(1.0, abs(want))


def gv_inner(q: float, r: int, delta: float, s: float) -> float:
    """h(s) = log_q((1+(q-1)s)^(r+1) + (q-1)(1-s)^(r+1)) / (r+1) - delta log_q s."""
    a = (r + 1.0) * log1p((q - 1.0) * s)
    b = -math.inf if s >= 1.0 else log(q - 1.0) + (r + 1.0) * log1p(-s)
    top = max(a, b)
    lse = top + log(math.exp(a - top) + math.exp(b - top))
    return lse / ((r + 1.0) * log(q)) - delta * log(s) / log(q)


def gv_ok(value: float, q: float, r: int, delta: float, s0: float) -> bool:
    """gv_bound agrees with 1 - h(s0) at the package's own critical point."""
    return abs(value - (1.0 - gv_inner(q, r, delta, s0))) <= TOL_GV


def s0_ok(s0: float, q: float, r: int, delta: float) -> bool:
    """s0 lies in (0, 1] and no nearby point has a smaller h."""
    if not 0.0 < s0 <= 1.0:
        return False
    here = gv_inner(q, r, delta, s0)
    for s in (s0 * (1 - 1e-4), min(1.0, s0 * (1 + 1e-4))):
        if gv_inner(q, r, delta, s) < here - 1e-12:
            return False
    return True


def _lp_objective(q: float, r: int, delta: float, tau):
    rem = 1.0 - tau * (r + 1.0)
    x = np.clip(delta / np.where(rem > 0, rem, 1.0), 0.0, 1.0)
    arg = (np.sqrt((q - 1.0) * (1.0 - x)) - np.sqrt(x)) ** 2 / q
    return tau * r + np.where(rem > 0, rem * entropy(q, arg), 0.0)


def lp_grid(q: float, r: int, delta: float) -> float:
    """LP bound by brute force: minimum over a 2^16 + 1 point tau grid,
    then over 2^12 + 1 points between the grid neighbours of the best."""
    tau_max = max(0.0, (1.0 - delta) / (r + 1.0))
    tau = np.linspace(0.0, tau_max, (1 << 16) + 1)
    obj = _lp_objective(q, r, delta, tau)
    i = int(obj.argmin())
    fine = np.linspace(tau[max(i - 1, 0)], tau[min(i + 1, len(tau) - 1)], (1 << 12) + 1)
    return float(min(obj[i], _lp_objective(q, r, delta, fine).min()))


def lp_ok(value: float, q: float, r: int, delta: float) -> bool:
    return abs(value - lp_grid(q, r, delta)) <= TOL_LP


def sweep_ok(rows, q: float, r: int, grid, s0_of) -> str | None:
    """Check `bounds.sweep(["main", "gv"], ...)` rows; None when all hold.

    `s0_of(delta)` returns the package's find_s0 at that delta.
    """
    if len(rows) != 2 * len(grid):
        return f"{len(rows)} rows for {len(grid)} deltas"
    for i, delta in enumerate(grid):
        (d1, id1, main), (d2, id2, gv) = rows[2 * i], rows[2 * i + 1]
        if (d1, id1, d2, id2) != (delta, "main", delta, "gv"):
            return f"row order at delta={delta!r}"
        if not closed_ok(main, "main", q, r, delta):
            return f"main({q}, {r}, {delta!r}) = {main!r}"
        if delta <= 0.0 or delta > 1.0 - 1.0 / q:
            if not math.isnan(gv):
                return f"gv outside its domain gave {gv!r}"
        elif not gv_ok(gv, q, r, delta, s0_of(delta)):
            return f"gv({q}, {r}, {delta!r}) = {gv!r}"
    return None
