"""The benchmark's own checks.

    python3 perfbench/check_bench.py        # from the repository root, ~2 min

1. BENCHMARK.json names exactly the workloads and metrics run.py reports.
2. One seed always yields identical inputs; two seeds yield different ones.
3. A short run of each workload, untraced and traced, passes every output
   check (the cli-readme robustness probes are reported, not required: they
   exercise defects the package still has) and prints every metric.
4. In the traced runs the layer self times plus the time outside every
   layer account for the traced time, bounds-query shows no `codes` and no
   `tower` place or orbit self time, and code-pipeline no `bounds` time.
5. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   with a nonzero code and prints no result.

Exits 1 if any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

import run
import tracer

ROOT = os.getcwd()
FAILED = []


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILED.append(name)


def ops(wl, seed: int, n: int = 400) -> str:
    stream = wl.generate(seed)
    return json.dumps([[op.kind, op.params] for op in (next(stream) for _ in range(n))])


def run_bench(workload: str, seconds: float, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    report("workload names", [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS))
    report("end-to-end metrics", {m["name"]: m["unit"] for m in spec["end_to_end"]}
           == run.END_TO_END)
    report("per-layer metrics", {m["name"]: m["unit"] for m in spec["per_layer"]}
           == run.per_layer_units())

    for name, wl in run.WORKLOADS.items():
        report(f"{name}: same seed, same inputs", ops(wl, 3) == ops(wl, 3))
        report(f"{name}: other seed, other inputs", ops(wl, 3) != ops(wl, 4))

    for name, wl in run.WORKLOADS.items():
        seconds = 6 if name == "cli-readme" else 2
        for trace, expected in ((0, run.END_TO_END), (1, run.per_layer_units())):
            proc = run_bench(name, seconds, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                detail = json.loads(lines[-2])["detail"]
            except (IndexError, ValueError):
                report(f"{name} trace={trace}: result line", False, proc.stderr[-500:])
                continue
            report(f"{name} trace={trace}: every output check passes",
                   proc.returncode == 0 and result["correct"] and result["failed"] == 0,
                   "; ".join(detail["failures"][:3]))
            report(f"{name} trace={trace}: metric names",
                   set(result["metrics"]) == set(expected))
            for probe in detail["probes"]:
                print(f"     probe {probe['probe']}: {'pass' if probe['pass'] else 'FAIL'} "
                      f"(known defect while it fails; not a benchmark failure)")
            if trace:
                check_trace(name, {k: v["value"] for k, v in result["metrics"].items()})

    bare = os.path.join(ROOT, ".perfbench-work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("bounds-query", 1, 0, cwd=bare)
    report("bare directory: nonzero exit, no result",
           proc.returncode != 0 and '"correct"' not in proc.stdout)
    shutil.rmtree(bare)

    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


def check_trace(name: str, m: dict) -> None:
    layers = sum(m[f"layer.{layer}.self_s"] for layer in tracer.LAYERS)
    accounted = layers + m["trace.unattributed_s"]
    report(f"{name}: layer self times account for the traced time",
           abs(accounted - m["trace.traced_s"]) <= 0.02 * m["trace.traced_s"],
           f"{accounted:.4f} s of {m['trace.traced_s']:.4f} s")
    if name == "bounds-query":
        tower_time = sum(m[f"tower.{f}.self_s"]
                         for f in ("enumerate_places", "build_subgroup", "orbit_partition"))
        report(f"{name}: no codes and no tower place or orbit self time",
               m["layer.codes.self_s"] == 0 and tower_time == 0)
    if name == "code-pipeline":
        report(f"{name}: no bounds self time", m["layer.bounds.self_s"] == 0)


if __name__ == "__main__":
    sys.exit(main())
