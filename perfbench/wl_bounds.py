"""Workload `bounds-query`: one in-process client sends a seeded stream of
bound requests.

`bounds` does nearly all the work; `galois` and `tower` are reached only
through `admissible_localities` on a warm field cache.  The mix weights put
the overall median inside the `gv` kind and the overall tail inside the
Fig.-1-style sweeps (67 GV evaluations each), so neither sits on the
boundary between two kinds.
"""

from __future__ import annotations

import random
from math import isqrt

from common import Cycle, Mix, Op

NAME = "bounds-query"
IN_PROCESS = True
WEIGHTS = {"closed": 30, "s0": 10, "gv": 40, "lp": 10, "lists": 5, "sweep": 5}
#: per-kind medians this workload reports (metric name -> (kind, scale))
KIND_P50 = {"gv_p50_ms": ("gv", 1e3), "lp_p50_ms": ("lp", 1e3), "lists_p50_ms": ("lists", 1e3)}

REFERENCE_QS = (2**8, 2**10, 2**12, 3**6, 3**8, 5**4, 5**6, 5**8)
CLOSED_IDS = ("rate_cap", "singleton_asym", "plotkin", "naive_gv",
              "main", "btv1", "btv2", "naive_tvz")
SQUARE_IDS = frozenset({"main", "btv1", "btv2", "naive_tvz"})
SWEEP_QS = (2**8, 3**6, 2**10, 5**4, 2**12, 3**8, 5**6, 2**16, 7**4, 11**2)
SWEEP_STEPS = 67


def _primes(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i, flag in enumerate(sieve) if flag]


_PRIMES = _primes(10_000)
#: square prime powers exactly representable as floats, up to 2^64
SQUARES = sorted(
    {2 ** (2 * k) for k in range(1, 33)}
    | {b ** (2 * k) for b in (3, 5, 7) for k in range(1, 40) if b ** (2 * k) < 2**53}
    | {p * p for p in _PRIMES[4:]}
)
#: prime powers with odd exponent, up to 2^63, and some large primes
NON_SQUARES = sorted(
    {2 ** (2 * k + 1) for k in range(32)}
    | {b ** (2 * k + 1) for b in (3, 5, 7) for k in range(40) if b ** (2 * k + 1) < 2**53}
    | set(_PRIMES[3:])
    | {2**31 - 1, 2**61 - 1}
)


def random_q(rng) -> int:
    pool = SQUARES if rng.random() < 0.5 else NON_SQUARES
    return pool[rng.randrange(len(pool))]


def random_delta(rng, q: int) -> float:
    return rng.uniform(0.02, 0.98) * (1.0 - 1.0 / q)


def _closed_params(rng, bound_id: str) -> dict:
    q = SQUARES[rng.randrange(len(SQUARES))] if bound_id in SQUARE_IDS else random_q(rng)
    rt = isqrt(q)
    if bound_id == "btv1":
        r = rt - 1
    elif bound_id == "btv2":
        divisors = [d for d in range(2, min(rt + 1, 10_000) + 1) if (rt + 1) % d == 0]
        r = rng.choice(divisors + [rt + 1]) - 1
    else:
        r = int(10 ** rng.uniform(0, 5))
    return {"id": bound_id, "q": q, "r": r, "delta": random_delta(rng, q)}


def generate(seed: int):
    """Infinite seeded stream of bound requests."""
    rng = random.Random(f"{NAME}:{seed}")
    mix = Mix(WEIGHTS, rng)
    ids, lists, sweeps = (Cycle(x, rng) for x in (CLOSED_IDS, REFERENCE_QS, SWEEP_QS))
    while True:
        kind = mix.next()
        if kind == "closed":
            params = _closed_params(rng, ids.next())
        elif kind in ("gv", "s0", "lp"):
            q = random_q(rng)
            params = {"q": q, "r": int(10 ** rng.uniform(0, 5)), "delta": random_delta(rng, q)}
        elif kind == "lists":
            params = {"q": lists.next()}
        else:
            params = sweep_params(rng, sweeps.next())
        yield Op(kind, params)


def sweep_params(rng, q: int) -> dict:
    """A Fig.-1-style sweep: main and gv from delta 0 to delta_max."""
    return {"q": q, "r": rng.randint(1, 12),
            "delta_max": min(rng.uniform(0.5, 0.9), 1.0 - 2.0 / q)}


def setup(ctx) -> None:
    """Build every field the lists requests touch (the modulus searches)."""
    for q in REFERENCE_QS:
        ctx.lrctower.bounds.admissible_localities(q)


def sweep_grid(delta_max: float) -> list[float]:
    """The `bounds sweep` CLI grid from delta 0 to delta_max."""
    return [delta_max * i / (SWEEP_STEPS - 1) for i in range(SWEEP_STEPS)]


def prepare(ctx, op: Op):
    """(thunk, check) for one request; check(result) -> error or None."""
    import oracle

    bounds = ctx.lrctower.bounds
    p = op.params
    if op.kind == "closed":
        args = (p["id"], p["q"], p["r"], p["delta"])
        return (lambda: bounds.closed_bound(*args),
                lambda v: None if oracle.closed_ok(v, *args) else f"{args} -> {v!r}")
    if op.kind in ("gv", "s0", "lp"):
        args = (p["q"], p["r"], p["delta"])
    if op.kind == "gv":
        return (lambda: bounds.gv_bound(*args),
                lambda v: None if oracle.gv_ok(v, *args, bounds.find_s0(*args))
                else f"gv{args} -> {v!r}")
    if op.kind == "s0":
        return (lambda: bounds.find_s0(*args),
                lambda v: None if oracle.s0_ok(v, *args) else f"s0{args} -> {v!r}")
    if op.kind == "lp":
        return (lambda: bounds.lp_bound(*args),
                lambda v: None if oracle.lp_ok(v, *args) else f"lp{args} -> {v!r}")
    if op.kind == "lists":
        q = p["q"]
        want = set(ctx.golden["lists"][str(q)])
        return (lambda: bounds.beats_gv_localities(q, 0.5, bounds.admissible_localities(q)),
                lambda got: None if set(got) == want else f"lists q={q}: {sorted(got)}")
    q, r = p["q"], p["r"]
    grid = sweep_grid(p["delta_max"])

    def check(rows):
        plain = [(row.delta, row.bound_id, row.value) for row in rows]
        return oracle.sweep_ok(plain, q, r, grid, lambda d: bounds.find_s0(q, r, d))

    return lambda: bounds.sweep(["main", "gv"], q, r, grid), check
