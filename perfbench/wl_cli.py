"""Workload `cli-readme`: one fresh `python -m lrctower.cli` process at a
time runs the README commands with seeded variants of their q, r, delta,
u, v and s, plus heavier commands on GF(256) and GF(64).

CLI users pay on every command for the import, the modulus search in
`field_create` and the table build, which the in-process workloads hide
behind warm caches.  Cheap commands are ~60% of the mix, so the median
falls inside them; the GF(256) build and verify and the reference-set
lists are ~40%, so the tail falls inside those.  The four robustness
probes run after the timed phase, each under its own timeout.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import wl_bounds
import wl_codes
from common import Cycle, Mix, Op

NAME = "cli-readme"
IN_PROCESS = False
WEIGHTS = {"eval": 1.5, "lists": 1.5, "sweep": 1.5, "s0": 1.5, "places": 1.5,
           "orbits": 1.5, "build": 1.5, "verify": 1, "repair": 1.5, "orbits64": 1,
           "refsets": 3.5, "build256": 3, "verify256": 1.5}
KIND_P50 = {"lists_p50_ms": ("lists", 1e3), "build_p50_ms": ("build", 1e3),
            "orbits_p50_ms": ("orbits", 1e3), "repair_p50_us": ("repair", 1e6),
            "verify_p50_ms": ("verify", 1e3)}

COMMAND_TIMEOUT_S = 60.0
PROBE_TIMEOUT_S = 5.0

#: fixture file -> (q, u, v, s); c9.json is the README code
FIXTURES = {"c9.json": (9, 1, 1, 1), "c9b.json": (9, 2, 0, 1), "c16.json": (16, 1, 1, 2),
            "c25.json": (25, 2, 0, 1), "big.json": (256, 1, 2, 4)}
SMALL_FIXTURES = ("c9.json", "c9b.json", "c16.json", "c25.json")
BUILDS = wl_codes.BUILDS["A"] + [c for c in wl_codes.BUILDS["B"] if c[0] == 25]
PLACES = [(9, 1), (9, 2), (9, 3), (16, 1), (16, 2), (16, 3), (25, 1), (25, 2), (25, 3),
          (49, 1), (49, 2), (64, 1), (64, 2)]
ORBITS = [(q, m, u, v) for (q, level, u, v) in wl_codes.ORBITS if q <= 25 and level == 2
          for m in (1, 2)]
ORBITS64 = (64, 2, 7, 0)
BUILD256 = (256, 1, 2, 4)
#: q for the single-q commands: exact as decimal strings and as floats
CLI_SQUARES = [q for q in wl_bounds.SQUARES if q < 2**53]
CLI_ANY = [q for q in wl_bounds.SQUARES + wl_bounds.NON_SQUARES if q < 2**53 or q & (q - 1) == 0]

PROBES = (
    ("missing-field", ["code", "verify", "nofield.json"]),
    ("bad-word-token", ["code", "repair", "fixtures/c9.json", "--word", "4,7,?,1,0,x"]),
    ("nan-q", ["bounds", "eval", "--bound", "gv", "--q", "nan", "--r", "2", "--delta", "0.5"]),
    ("nan-delta", ["bounds", "eval", "--bound", "gv", "--q", "256", "--r", "2",
                   "--delta", "nan"]),
    ("huge-q", ["bounds", "lists", "--q", str((10**9 + 7) ** 2)]),
)


@dataclass
class Child:
    """Outcome of one CLI process."""

    exit: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float
    timed_out: bool


def run_child(ctx, args, timeout: float, trace_out: str | None = None) -> Child:
    """Run one CLI command in the work directory and wait for it to end.

    The child is reaped with wait4 for its own peak RSS; a timer kills it
    after `timeout` seconds.  The timer can only fire before the child is
    reaped (waitid with WNOWAIT leaves it a zombie until then), so it never
    signals a reused pid.
    """
    if trace_out is None:
        argv = [sys.executable, "-m", "lrctower.cli", *args]
    else:
        argv = [sys.executable, ctx.launcher, trace_out, *args]
    out_path = os.path.join(ctx.work, ".stdout")
    err_path = os.path.join(ctx.work, ".stderr")
    lock = threading.Lock()
    state = {"exited": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ctx.work, env=ctx.env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)

        def expire():
            with lock:
                if not state["exited"]:
                    proc.kill()
                    state["killed"] = True

        timer = threading.Timer(timeout, expire)
        timer.start()
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["exited"] = True
        timer.cancel()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Child(proc.returncode, stdout, stderr, seconds, usage.ru_maxrss / 1024.0,
                 state["killed"])


def generate(seed: int):
    rng = random.Random(f"{NAME}:{seed}")
    mix = Mix(WEIGHTS, rng)
    lists, sweeps = Cycle(wl_bounds.REFERENCE_QS, rng), Cycle(wl_bounds.SWEEP_QS, rng)
    places, orbits, builds = Cycle(PLACES, rng), Cycle(ORBITS, rng), Cycle(BUILDS, rng)
    verifies, repairs = Cycle(SMALL_FIXTURES, rng), Cycle(SMALL_FIXTURES, rng)
    while True:
        kind = mix.next()
        if kind == "eval":
            params = {"q": rng.choice(CLI_SQUARES), "r": rng.randint(1, 64),
                      "delta": round(rng.uniform(0.01, 0.99), 6)}
        elif kind == "lists":
            params = {"q": lists.next()}
        elif kind == "sweep":
            params = wl_bounds.sweep_params(rng, sweeps.next())
        elif kind == "s0":
            q = rng.choice(CLI_ANY)
            params = {"q": q, "r": int(10 ** rng.uniform(0, 5)),
                      "delta": wl_bounds.random_delta(rng, q)}
        elif kind == "places":
            params = {"places": list(places.next())}
        elif kind == "orbits":
            params = {"orbit": list(orbits.next())}
        elif kind == "build":
            params = {"code": list(builds.next())}
        elif kind == "verify":
            params = {"file": verifies.next()}
        elif kind == "repair":
            params = {"file": repairs.next(), "rng": rng.getrandbits(32)}
        else:
            params = {}
        yield Op(kind, params)


def _sha_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def setup(ctx) -> None:
    """Build the code files the verify and repair commands read, through
    the CLI; each must match its recorded sha256."""
    os.makedirs(os.path.join(ctx.work, "fixtures"), exist_ok=True)
    for name, (q, u, v, s) in FIXTURES.items():
        path = os.path.join("fixtures", name)
        child = run_child(ctx, ["code", "build", "--q", str(q), "--u", str(u), "--v", str(v),
                                "--s", str(s), "--out", path], COMMAND_TIMEOUT_S)
        want = ctx.golden["codes"][wl_codes.key((q, u, v, s))]
        if child.exit != 0 or _sha_file(os.path.join(ctx.work, path)) != want:
            ctx.setup_errors.append(f"fixture {name}: exit {child.exit}")


def _load_fixture(ctx, name: str):
    if name not in ctx.codes:
        with open(os.path.join(ctx.work, "fixtures", name)) as handle:
            ctx.codes[name] = ctx.lrctower.codes.from_json(handle.read())
    return ctx.codes[name]


def _float_after(text: str, prefix: str) -> float:
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].strip())
    raise ValueError(f"no line starting with {prefix!r}")


def _args_and_check(ctx, op: Op):
    """CLI arguments for one command and a check of its outputs."""
    import oracle

    golden = ctx.golden
    p = op.params
    work = ctx.work
    if op.kind == "eval":
        q, r, delta = p["q"], p["r"], p["delta"]

        def check(out):
            value = float(out.stdout.rsplit("=", 1)[1])
            return None if oracle.closed_ok(value, "main", float(q), r, delta) else out.stdout
        return ["bounds", "eval", "--bound", "main", "--q", str(q), "--r", str(r),
                "--delta", repr(delta)], check
    if op.kind == "lists":
        want = "r: " + " ".join(str(r) for r in golden["lists"][str(p["q"])]) + "\n"
        return (["bounds", "lists", "--q", str(p["q"]), "--delta", "0.5"],
                lambda out: None if out.stdout == want else out.stdout)
    if op.kind == "refsets":
        want = "".join(f"q={q} r: " + " ".join(map(str, golden["lists"][str(q)])) + "\n"
                       for q in wl_bounds.REFERENCE_QS)
        return (["bounds", "lists", "--reference-sets"],
                lambda out: None if out.stdout == want else out.stdout)
    if op.kind == "sweep":
        q, r, dmax = p["q"], p["r"], p["delta_max"]
        grid = wl_bounds.sweep_grid(dmax)
        find_s0 = ctx.lrctower.bounds.find_s0

        def check(out):
            with open(os.path.join(work, "fig1.csv")) as handle:
                lines = handle.read().splitlines()
            if lines[0] != "delta,bound_id,value":
                return "bad CSV header"
            rows = [(float(d), b, float(v)) for d, b, v in (x.split(",") for x in lines[1:])]
            return oracle.sweep_ok(rows, float(q), r, grid, lambda d: find_s0(float(q), r, d))
        return ["bounds", "sweep", "--bounds", "main,gv", "--q", str(q), "--r", str(r),
                "--delta-min", "0", "--delta-max", repr(dmax), "--steps",
                str(wl_bounds.SWEEP_STEPS), "--out", "fig1.csv"], check
    if op.kind == "s0":
        q, r, delta = float(p["q"]), p["r"], p["delta"]

        def check(out):
            s0 = _float_after(out.stdout, "s0 = ")
            left = float(re.search(r"window = \(([^,]+),", out.stdout).group(1))
            if left != 1.0 / (q - 1.0):
                return f"window {out.stdout!r}"
            return None if oracle.s0_ok(s0, q, r, delta) else out.stdout
        return ["bounds", "s0", "--q", str(p["q"]), "--r", str(r), "--delta", repr(delta)], check
    if op.kind == "places":
        q, m = p["places"]
        want = golden["places"][wl_codes.key(p["places"])]
        return (["tower", "places", "--q", str(q), "--m", str(m), "--out", "places.json"],
                lambda out: None if _sha_file(os.path.join(work, "places.json")) == want
                else f"places {p['places']} sha256 differs")
    if op.kind in ("orbits", "orbits64"):
        orbit = p.get("orbit", ORBITS64)
        want = golden["orbits"][wl_codes.key(orbit)]
        q, m, u, v = orbit
        return (["tower", "orbits", "--q", str(q), "--m", str(m), "--u", str(u), "--v", str(v)],
                lambda out: None if hashlib.sha256(out.stdout.encode()).hexdigest() == want
                else f"orbits {orbit} sha256 differs")
    if op.kind in ("build", "build256"):
        params = p.get("code", BUILD256)
        q, u, v, s = params
        target = "c.json" if op.kind == "build" else "big_out.json"
        want = golden["codes"][wl_codes.key(params)]
        return (["code", "build", "--q", str(q), "--u", str(u), "--v", str(v), "--s", str(s),
                 "--out", target],
                lambda out: None if _sha_file(os.path.join(work, target)) == want
                else f"code {params} sha256 differs")
    if op.kind == "verify":
        d = golden["distance"][wl_codes.key(FIXTURES[p["file"]])]
        want = f"distance: d={d} pass\n"
        return (["code", "verify", f"fixtures/{p['file']}", "--distance", "--locality"],
                lambda out: None if want in out.stdout
                and "algebraic=pass exhaustive=pass" in out.stdout else out.stdout)
    if op.kind == "verify256":
        return (["code", "verify", "fixtures/big.json", "--locality"],
                lambda out: None if "algebraic=pass exhaustive=skipped" in out.stdout
                else out.stdout)
    code = _load_fixture(ctx, p["file"])
    rng = random.Random(p["rng"])
    word = [e.index for e in ctx.lrctower.codes.encode(
        code, [rng.randrange(code.field.q) for _ in range(code.k)])]
    idx = rng.randrange(code.n)
    want = f"repaired[{idx}] = {word[idx]}\n"
    text = ",".join("?" if i == idx else str(x) for i, x in enumerate(word))
    return (["code", "repair", f"fixtures/{p['file']}", "--word", text],
            lambda out: None if out.stdout == want else out.stdout)


def prepare(ctx, op: Op, trace_out: str | None = None):
    args, check = _args_and_check(ctx, op)
    if "--out" in args:  # a stale artifact must not pass the check
        target = os.path.join(ctx.work, args[args.index("--out") + 1])
        if os.path.exists(target):
            os.remove(target)

    def checked(out: Child):
        if out.timed_out:
            return f"timed out after {COMMAND_TIMEOUT_S} s"
        if out.exit != 0:
            return f"exit {out.exit}: {out.stderr.strip()[-300:]}"
        return check(out)

    return lambda: run_child(ctx, args, COMMAND_TIMEOUT_S, trace_out), checked


def _lrc_error_names(ctx) -> set[str]:
    names, todo = set(), [ctx.lrctower.LrcError]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def run_probes(ctx) -> list[dict]:
    """Bad inputs that must end in exit 1 and a one-line LrcError."""
    with open(os.path.join(ctx.work, "fixtures", "c9.json")) as handle:
        doc = json.load(handle)
    del doc["field"]
    with open(os.path.join(ctx.work, "nofield.json"), "w") as handle:
        json.dump(doc, handle)
    names = _lrc_error_names(ctx)
    results = []
    for name, args in PROBES:
        out = run_child(ctx, args, PROBE_TIMEOUT_S)
        lines = [line for line in out.stderr.splitlines() if line.strip()]
        one_line = len(lines) == 1 and lines[0].split(":", 1)[0] in names
        results.append({
            "probe": name, "args": args, "exit": out.exit, "timed_out": out.timed_out,
            "stderr_lines": len(lines), "last_line": lines[-1][:200] if lines else "",
            "stdout": out.stdout[:200], "pass": out.exit == 1 and one_line and not out.timed_out,
        })
    return results

