"""lrctower benchmark: seeded workloads, end-to-end metrics and a traced run
that splits the time by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the package in ./src and writes
only under ./.perfbench-work.  Workloads: bounds-query, code-pipeline,
cli-readme (see the wl_*.py modules for what each exercises and why).

Each workload is a closed loop with one client.  Inputs come from --seed
alone.  The timed phase runs ops until their summed latency reaches
--seconds; every op's outputs are checked outside its timed interval, and
a failed check is counted, never raised.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same op
list twice, first untraced for --seconds / 2 and then with the tracer
wrapped around the package's public functions, and prints the per-layer
metrics, including the tracing overhead (traced minus untraced time).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the run
details (environment, per-kind medians, the tail percentile and its
sample count, robustness probes, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracer
import wl_bounds
import wl_cli
import wl_codes
from common import Sample, p50, tail

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {wl.NAME: wl for wl in (wl_bounds, wl_codes, wl_cli)}
SETUP_REPS = 3
WARMUP = ("set-up fills every field cache, lookup table and code the timed "
          "ops read; no untimed warm-up ops; cli-readme measures cold processes")

END_TO_END = {"setup_s": "s", "throughput_ops_s": "1/s", "latency_p50_ms": "ms",
              "latency_tail_ms": "ms", "peak_rss_mb": "MB"}
KIND_P50_UNITS = {"gv_p50_ms": "ms", "lp_p50_ms": "ms", "lists_p50_ms": "ms",
                  "build_p50_ms": "ms", "orbits_p50_ms": "ms", "repair_p50_us": "us",
                  "verify_p50_ms": "ms"}
#: traced functions reported by self time, calls, counts or time per call
SELF_S = ("galois.field_create", "galois.tables", "galois.subspace",
          "tower.enumerate_places", "tower.build_subgroup", "tower.orbit_partition",
          "codes.good_function", "codes.build_rational_lrc", "codes.naive_lrc",
          "codes.null_space", "codes.matrix_rank", "codes.to_json", "codes.from_json",
          "codes.encode", "codes.local_repair", "codes.min_distance",
          "codes.verify_locality", "codes.all_codewords",
          "bounds.gv_bound", "bounds.find_s0", "bounds.lp_bound", "bounds.closed_bound",
          "bounds.sweep", "bounds.beats_gv_localities", "bounds.admissible_localities")
CALLS = ("galois.field_create", "codes.matrix_rank")
COUNTS = ("galois.elem_mul", "galois.elem_inverse", "tower.act_inverse",
          "tower.validate_place")
PER_CALL_US = ("bounds.gv_derivative_sign", "bounds.lp_inner")


def per_layer_units() -> dict:
    units = {"trace.untraced_s": "s", "trace.traced_s": "s", "trace.overhead_s": "s",
             "trace.unattributed_s": "s"}
    units.update({f"layer.{layer}.self_s": "s" for layer in tracer.LAYERS})
    units.update(KIND_P50_UNITS)
    units["fail_ratio"] = "ratio"
    units.update({f"{name}.self_s": "s" for name in SELF_S})
    units.update({f"{name}.calls": "count" for name in CALLS})
    units.update({f"{name}.count": "count" for name in COUNTS})
    units.update({f"{name}.per_call": "us" for name in PER_CALL_US})
    units["tower.validate_place.per_act_inverse"] = "ratio"
    units.update({"cli.import_s": "s", "cli.exit_nonzero.count": "count",
                  "cli.timeout.count": "count", "cli.probe_failed.count": "count"})
    return units


class Context:
    """What the workload modules share: the package, reference outputs,
    the work directory and the codes built in set-up."""

    def __init__(self, root: str, name: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.work = os.path.join(root, ".perfbench-work", name)
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.launcher = os.path.join(HERE, "launch.py")
        with open(os.path.join(HERE, "golden.json")) as handle:
            self.golden = json.load(handle)
        self.lrctower = None
        self.codes: dict = {}
        self.setup_errors: list[str] = []
        # child-process tallies of cli-readme's timed phase
        self.peak_child_rss_mb = 0.0
        self.exit_nonzero = 0
        self.timeouts = 0

    def import_package(self):
        if self.lrctower is None:
            import lrctower

            if not os.path.abspath(lrctower.__file__).startswith(self.src + os.sep):
                raise SystemExit(f"error: lrctower imported from {lrctower.__file__}, "
                                 f"not from {self.src}")
            self.lrctower = lrctower
        return self.lrctower


def timed_setup(wl, ctx) -> float:
    """One set-up: for in-process workloads the package import plus the
    workload's cache warming; for cli-readme the fixture commands."""
    t0 = time.perf_counter()
    if wl.IN_PROCESS:
        ctx.import_package()
    wl.setup(ctx)
    return time.perf_counter() - t0


def setup_reps(wl, ctx, args) -> list[float]:
    """SETUP_REPS cold set-ups: the first in this process, the others in
    fresh processes (cli-readme repeats its fixture commands here)."""
    times = [timed_setup(wl, ctx)]
    for _ in range(SETUP_REPS - 1):
        if not wl.IN_PROCESS:
            times.append(timed_setup(wl, ctx))
            continue
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl.NAME,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ctx.root, env=ctx.env, stdout=subprocess.PIPE, text=True, timeout=120,
            check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _check(check, out) -> str | None:
    try:
        return check(out)
    except Exception as exc:  # a failed check is counted, never raised
        return f"check raised {type(exc).__name__}: {exc}"


def measure(wl, ctx, ops, budget: float):
    """Closed loop: run ops from the iterator until their summed latency
    reaches budget seconds.  Returns (ops run, samples, busy seconds)."""
    done, samples, busy = [], [], 0.0
    while busy < budget:
        op = next(ops)
        done.append(op)
        thunk, check = wl.prepare(ctx, op)
        t0 = time.perf_counter()
        try:
            out, error = thunk(), None
        except Exception as exc:  # counted as a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        busy += seconds
        if error is None:
            error = _check(check, out)
        samples.append(Sample(op.kind, seconds, error))
        if isinstance(out, wl_cli.Child):
            ctx.peak_child_rss_mb = max(ctx.peak_child_rss_mb, out.rss_mb)
            ctx.exit_nonzero += out.exit != 0
            ctx.timeouts += out.timed_out
    return done, samples, busy


def traced_pass(wl, ctx, ops) -> dict:
    """Re-run the op list with the tracer installed; returns the merged
    span summary, the traced time and the time outside every layer."""
    if wl.IN_PROCESS:
        trace = tracer.Tracer()
        trace.install(ctx.lrctower)
        traced = 0.0
        try:
            for op in ops:
                thunk = trace.span("op." + op.kind, wl.prepare(ctx, op)[0])
                t0 = time.perf_counter()
                try:
                    thunk()
                except Exception:  # failures are counted in the untraced pass
                    pass
                traced += time.perf_counter() - t0
        finally:
            trace.uninstall()
        trace.dump(os.path.join(ctx.work, "trace.json"))
        summary = trace.summary()
        outside = sum(v for k, v in summary["self_s"].items() if k.startswith("op."))
        return {"summary": summary, "traced_s": traced, "unattributed_s": outside}
    trace_dir = os.path.join(ctx.work, "trace")
    os.makedirs(trace_dir, exist_ok=True)
    summaries, imports, inside, traced = [], [], 0.0, 0.0
    for i, op in enumerate(ops):
        path = os.path.join(trace_dir, f"{i:05d}.json")
        thunk = wl.prepare(ctx, op, trace_out=path)[0]
        t0 = time.perf_counter()
        thunk()
        traced += time.perf_counter() - t0
        if not os.path.exists(path):  # killed on timeout before it could write
            continue
        with open(path) as handle:
            doc = json.load(handle)
        summaries.append(doc["summary"])
        imports.append(doc["import_s"])
        inside += doc["wall_s"]
    summary = tracer.merge(summaries)
    summary["self_s"]["cli.import"] = sum(imports)
    # time outside every layer: interpreter start-up and exit of each child
    return {"summary": summary, "traced_s": traced, "unattributed_s": traced - inside,
            "cli.import_s": statistics.median(imports) if imports else 0.0}


def layer_metrics(wl, ctx, traced: dict, untraced_s: float, samples, probes) -> dict:
    summary = traced["summary"]
    self_s, calls, counts = summary["self_s"], summary["calls"], summary["counts"]
    values = {
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced["traced_s"],
        "trace.overhead_s": traced["traced_s"] - untraced_s,
        "trace.unattributed_s": traced["unattributed_s"],
    }
    for layer in tracer.LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.startswith(layer + "."))
    values.update(kind_p50s(wl, samples))
    failed = sum(s.error is not None for s in samples) + sum(not p["pass"] for p in probes)
    values["fail_ratio"] = failed / (len(samples) + len(probes))
    for name in SELF_S:
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in CALLS:
        values[f"{name}.calls"] = calls.get(name, 0)
    for name in COUNTS:
        values[f"{name}.count"] = counts.get(name, 0)
    for name in PER_CALL_US:
        n = calls.get(name, 0)
        values[f"{name}.per_call"] = 1e6 * self_s.get(name, 0.0) / n if n else 0.0
    acts = counts.get("tower.act_inverse", 0)
    values["tower.validate_place.per_act_inverse"] = (
        counts.get("tower.validate_place", 0) / acts if acts else 0.0)
    values["cli.import_s"] = traced.get("cli.import_s", 0.0)
    values["cli.exit_nonzero.count"] = ctx.exit_nonzero + sum(p["exit"] != 0 for p in probes)
    values["cli.timeout.count"] = ctx.timeouts + sum(p["timed_out"] for p in probes)
    values["cli.probe_failed.count"] = sum(not p["pass"] for p in probes)
    return values


def kind_p50s(wl, samples) -> dict:
    values = dict.fromkeys(KIND_P50_UNITS, 0.0)
    for metric, (kind, scale) in wl.KIND_P50.items():
        values[metric] = scale * p50([s.seconds for s in samples if s.kind == kind])
    return values


def environment(load_before) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "warmup": WARMUP,
        "timing": "perf_counter around each op; input preparation and output "
                  "checks are outside the timed interval",
    }


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lrctower", "__init__.py")):
        print("error: run from the repository root (no src/lrctower here)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    wl = WORKLOADS[args.workload]
    ctx = Context(root, wl.NAME)
    if args.setup_only:
        print(json.dumps({"setup_s": timed_setup(wl, ctx)}))
        return 0
    load_before = os.getloadavg()
    shutil.rmtree(ctx.work, ignore_errors=True)
    os.makedirs(ctx.work)
    setups = setup_reps(wl, ctx, args) if not args.trace else [timed_setup(wl, ctx)]
    ctx.import_package()
    budget = args.seconds / 2 if args.trace else args.seconds
    ops, samples, busy = measure(wl, ctx, wl.generate(args.seed), budget)
    probes = wl.run_probes(ctx) if hasattr(wl, "run_probes") else []
    failed = sum(s.error is not None for s in samples) + len(ctx.setup_errors)
    latencies = [s.seconds for s in samples]
    tail_s, tail_pct, n = tail(latencies)
    if args.trace:
        metrics = layer_metrics(wl, ctx, traced_pass(wl, ctx, ops), busy, samples, probes)
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": len(samples) / busy,
            "latency_p50_ms": 1e3 * p50(latencies),
            "latency_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": (ctx.peak_child_rss_mb if not wl.IN_PROCESS else
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
        }
        units = END_TO_END
    kinds = {}
    for kind in sorted({s.kind for s in samples}):
        mine = [s for s in samples if s.kind == kind]
        kinds[kind] = {"n": len(mine), "p50_ms": 1e3 * p50([s.seconds for s in mine]),
                       "failed": sum(s.error is not None for s in mine)}
    detail = {
        "workload": wl.NAME, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(load_before),
        "setup_reps_s": setups,
        "tail": {"percentile": tail_pct, "samples": n},
        "kinds": kinds,
        "kind_p50": kind_p50s(wl, samples),
        "probes": probes,
        "failures": (ctx.setup_errors
                     + [f"{s.kind}: {s.error}" for s in samples if s.error][:20]),
    }
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {units[name]}")
    for probe in probes:
        print(f"probe {probe['probe']:16s} {'pass' if probe['pass'] else 'FAIL'}: exit "
              f"{probe['exit']}{' (timed out)' if probe['timed_out'] else ''}, "
              f"{probe['stderr_lines']} stderr lines, last: {probe['last_line']}")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples) + len(ctx.setup_errors),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one cold set-up and print it (used internally)")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
