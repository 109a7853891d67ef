"""Run one lrctower CLI command with the benchmark tracer installed.

    python launch.py TRACE_OUT ARGS...

Behaves like `python -m lrctower.cli ARGS...` (same outputs and exit code)
and writes the command's spans, its import time and its in-process wall
time to TRACE_OUT when it ends, also when it ends with an exception.
"""

import sys
import time

start = time.perf_counter()

import tracer  # noqa: E402  (sibling module; this file's directory is on sys.path)


def main() -> None:
    out, args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import lrctower
    import lrctower.cli

    import_s = time.perf_counter() - t0
    trace = tracer.Tracer()
    trace.install(lrctower)
    try:
        trace.span("cli.main", lrctower.cli.main)(args=args, prog_name="lrctower")
    finally:
        trace.dump(out, {"import_s": import_s, "wall_s": time.perf_counter() - start})


if __name__ == "__main__":
    main()
