"""Workload `code-pipeline`: one in-process client runs a seeded mix of code
construction, orbit, repair and verification operations.

`galois` scalar arithmetic, `tower` and `codes` do all the work; `bounds`
does none.  Build (the write path) and repair (the read path) are separate
kinds with separate medians, so cost moved from one to the other shows.
Builds come in four size classes whose weights keep the build median inside
one class; the GF(256) class is the heaviest kind and holds the tail.
"""

from __future__ import annotations

import hashlib
import json
import random

from common import Cycle, Mix, Op

NAME = "code-pipeline"
IN_PROCESS = True
WEIGHTS = {"repair": 70, "build": 12, "orbits": 8, "verify": 6, "naive": 4}
BUILD_WEIGHTS = {"A": 3, "B": 5, "C": 2, "D": 2}
KIND_P50 = {"build_p50_ms": ("build", 1e3), "orbits_p50_ms": ("orbits", 1e3),
            "repair_p50_us": ("repair", 1e6), "verify_p50_ms": ("verify", 1e3)}

FIELDS = {9: (3, 2), 16: (2, 4), 25: (5, 2), 49: (7, 2), 64: (2, 6), 256: (2, 8)}

# level-1 (q, u, v, s) by build-cost class
BUILDS = {
    "A": [(9, 2, 0, s) for s in range(3)] + [(9, 1, 1, 0), (9, 1, 1, 1), (9, 2, 1, 0)]
    + [(16, 1, 1, s) for s in range(4)] + [(16, 3, 0, s) for s in range(4)]
    + [(16, 1, 2, s) for s in range(3)] + [(16, 3, 2, 0)],
    "B": [(25, 2, 0, s) for s in range(5)] + [(25, 4, 0, s) for s in range(5)]
    + [(25, 1, 1, s) for s in range(4)] + [(25, 2, 1, 0), (25, 2, 1, 1), (25, 4, 1, 0)]
    + [(49, 2, 0, s) for s in range(5)] + [(49, 3, 0, s) for s in range(4)]
    + [(49, 6, 0, s) for s in range(2)] + [(49, 1, 1, 0)],
    "C": [(64, 1, 1, s) for s in range(3)] + [(64, 1, 2, s) for s in range(3)]
    + [(64, 7, 0, 0), (64, 1, 3, 0)],
    "D": [(256, 1, 1, s) for s in range(3)] + [(256, 3, 0, s) for s in range(3)]
    + [(256, 1, 2, 0), (256, 1, 2, 1), (256, 5, 0, 0)],
}

# (q, m, u, v) with (u, v) admissible for q
ORBITS = (
    [(9, m, u, v) for m in (2, 3) for (u, v) in ((2, 0), (1, 1), (2, 1))]
    + [(16, m, u, v) for m in (2, 3) for (u, v) in ((3, 0), (1, 1), (1, 2), (3, 2))]
    + [(25, m, u, v) for m in (2, 3) for (u, v) in ((2, 0), (4, 0), (1, 1), (2, 1), (4, 1))]
    + [(49, 2, u, v) for (u, v) in ((2, 0), (3, 0), (6, 0), (1, 1), (2, 1), (3, 1), (6, 1))]
    + [(64, 2, u, v) for (u, v) in ((7, 0), (1, 1), (1, 2), (1, 3), (7, 3))]
)

# naive augmentations (source code, r) with (r+1) | n and r k >= n; every
# source is one of the REPAIR_CODES built in set-up
NAIVE = [((9, 1, 1, 1), 2), ((9, 1, 1, 1), 5), ((16, 3, 0, 2), 2), ((16, 3, 0, 2), 3),
         ((16, 1, 2, 1), 2), ((16, 1, 2, 1), 5), ((25, 1, 1, 1), 3), ((25, 1, 1, 1), 4),
         ((25, 4, 0, 1), 4)]

# codes built in set-up, keyed as in golden.json
REPAIR_CODES = ["9,1,1,1", "9,2,0,1", "16,3,0,2", "16,1,2,1", "25,1,1,1", "25,4,0,1",
                "49,3,0,2", "64,1,2,1", "naive:9,1,1,1:2", "naive:16,3,0,2:2",
                "naive:25,1,1,1:3"]
# small enough (q^k <= 2^18) for the exhaustive distance and locality scans
VERIFY_CODES = ["9,2,0,0", "9,2,0,1", "9,2,0,2", "9,1,1,0", "9,1,1,1", "16,1,1,0",
                "16,1,1,1", "16,1,1,2", "16,3,0,0", "16,1,2,0", "25,2,0,0", "25,2,0,1",
                "25,2,0,2", "25,4,0,0", "64,1,1,0", "64,1,1,1", "naive:9,1,1,1:2",
                "naive:16,3,0,2:2"]
VERIFY_TABLE_FIELDS = (9, 16, 25, 64)


def key(params) -> str:
    return ",".join(str(x) for x in params)


def naive_key(source, r: int) -> str:
    return f"naive:{key(source)}:{r}"


def artifact_sha(text: str) -> str:
    """sha256 of an artifact as the CLI writes it (text plus newline)."""
    return hashlib.sha256((text + "\n").encode()).hexdigest()


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def generate(seed: int):
    rng = random.Random(f"{NAME}:{seed}")
    mix = Mix(WEIGHTS, rng)
    classes = Mix(BUILD_WEIGHTS, rng)
    builds = {c: Cycle(v, rng) for c, v in BUILDS.items()}
    orbits, naive = Cycle(ORBITS, rng), Cycle(NAIVE, rng)
    repairs, verifies = Cycle(REPAIR_CODES, rng), Cycle(VERIFY_CODES, rng)
    while True:
        kind = mix.next()
        if kind == "build":
            params = {"code": list(builds[classes.next()].next())}
        elif kind == "orbits":
            params = {"orbit": list(orbits.next())}
        elif kind == "naive":
            source, r = naive.next()
            params = {"source": list(source), "r": r}
        elif kind == "verify":
            params = {"code": verifies.next()}
        else:
            code = repairs.next()
            params = {"code": code, "rng": rng.getrandbits(32)}
        yield Op(kind, params)


def _field(ctx, q: int):
    return ctx.lrctower.galois.field_create(*FIELDS[q])


def setup(ctx) -> None:
    """Warm every field and the lookup tables the scans use, and build the
    codes the repair and verify requests read."""
    codes = ctx.lrctower.codes
    for q in FIELDS:
        _field(ctx, q)
    for q in VERIFY_TABLE_FIELDS:
        _field(ctx, q).tables()
    built = {}
    for name in dict.fromkeys(REPAIR_CODES + VERIFY_CODES):
        if name.startswith("naive:"):
            continue
        q, u, v, s = map(int, name.split(","))
        built[name] = codes.build_rational_lrc(_field(ctx, q), u, v, s)
    for name in dict.fromkeys(REPAIR_CODES + VERIFY_CODES):
        if name.startswith("naive:"):
            _, source, r = name.split(":")
            built[name] = codes.naive_lrc(built[source], int(r))
    ctx.codes = built


def prepare(ctx, op: Op):
    codes, tower = ctx.lrctower.codes, ctx.lrctower.tower
    golden = ctx.golden
    p = op.params
    if op.kind == "build":
        q, u, v, s = p["code"]
        want = golden["codes"][key(p["code"])]

        def build():
            code = codes.build_rational_lrc(_field(ctx, q), u, v, s)
            text = codes.to_json(code)
            return text, codes.from_json(text)

        def check(out):
            text, decoded = out
            if codes.to_json(decoded) != text:
                return "from_json(to_json(c)) re-serializes differently"
            return None if artifact_sha(text) == want else f"code {p['code']} sha256 differs"

        return build, check
    if op.kind == "orbits":
        q, m, u, v = p["orbit"]
        want = golden["orbits"][key(p["orbit"])]

        def orbits():
            spec = _field(ctx, q)
            group = tower.build_subgroup(spec, u, v)
            return tower.orbit_partition(group, tower.enumerate_places(spec, m))

        return orbits, lambda out: (None if artifact_sha(canonical(out)) == want
                                    else f"orbits {p['orbit']} sha256 differs")
    if op.kind == "naive":
        name = naive_key(p["source"], p["r"])
        source = ctx.codes[key(p["source"])]
        want = golden["codes"][name]
        return (lambda: codes.naive_lrc(source, p["r"]),
                lambda out: None if artifact_sha(codes.to_json(out)) == want
                else f"{name} sha256 differs")
    code = ctx.codes[p["code"]]
    if op.kind == "verify":
        d_want = golden["distance"][p["code"]]

        def verify():
            return codes.min_distance(code), codes.verify_locality(code)

        def check(out):
            d, report = out
            if d != d_want or d < code.meta.get("d_lower", 1):
                return f"{p['code']}: d={d}, recorded {d_want}"
            if report.exhaustive is None or not (all(report.algebraic)
                                                 and all(report.exhaustive)):
                return f"{p['code']}: locality routes {report}"
            return None

        return verify, check
    rng = random.Random(p["rng"])
    message = [rng.randrange(code.field.q) for _ in range(code.k)]
    idx = rng.randrange(code.n)

    def repair():
        word = list(codes.encode(code, message))
        erased, word[idx] = word[idx], None
        return codes.local_repair(code, word, idx), erased

    return repair, lambda out: None if out[0] == out[1] else f"{p['code']}[{idx}] wrong"
