"""Command-line surface: bound evaluation/sweeps, tower data, code pipeline.

Exit codes: 0 success (and all requested checks passing), 1 domain error or
failed check, 2 usage error.  File artifacts are written atomically
(temp file + rename) and are byte-identical across re-runs.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

from . import bounds
from .errors import LrcError, SpecMismatch, TooLarge

#: the eight built-in (q, delta = 0.5) comparison configurations
REFERENCE_QS = (2**8, 2**10, 2**12, 3**6, 3**8, 5**4, 5**6, 5**8)

#: the most grid points `bounds sweep` evaluates
STEPS_GUARD = 10**5


def _emit(text: str, out: str | None) -> None:
    """Write text to stdout, or atomically (temp file + rename) to `out`."""
    if not out:
        sys.stdout.write(text)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(out)),
                               prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _note(line: str) -> None:
    sys.stdout.flush()  # stdout first when both streams go to one file
    print(line, file=sys.stderr)


def _field_for(q: int):
    from . import galois

    return galois.field_create(*bounds._prime_power(q))


# -- bounds ---------------------------------------------------------------------

def bounds_eval(a):
    """Print one bound value with full float precision."""
    value = bounds.evaluate(a.bound, a.q, a.r, a.delta)
    print(f"{a.bound}(q={a.q:g}, r={a.r}, delta={a.delta:g}) = {value!r}")


def bounds_lists(a):
    """Localities whose construction bound beats the GV bound.

    Candidates are all admissible r for the given q."""
    if a.q is None and not a.reference_sets:
        a.usage("provide --q or --reference-sets")
    runs = ([(f"q={q} ", q, 0.5) for q in REFERENCE_QS] if a.reference_sets
            else [("", a.q, a.delta)])
    for prefix, q, delta in runs:
        winners = bounds.beats_gv_localities(q, delta, bounds.admissible_localities(q))
        print(prefix + "r: " + " ".join(str(r) for r in sorted(winners)))


def bounds_sweep(a):
    """Evaluate bounds over a delta grid and emit delta,bound_id,value CSV."""
    id_list = [part.strip() for part in a.bounds.split(",") if part.strip()]
    if not id_list:
        a.usage("--bounds names no bound id")
    if a.steps < 2:
        a.usage("--steps must be >= 2")
    if a.steps > STEPS_GUARD:
        raise TooLarge(f"{a.steps} grid points exceed the guard {STEPS_GUARD}")
    span, last = a.delta_max - a.delta_min, a.steps - 1
    grid = [a.delta_min + span * i / last for i in range(a.steps)]
    _emit(bounds.rows_to_csv(bounds.sweep(id_list, a.q, a.r, grid)), a.out)


def bounds_s0(a):
    """Critical point of the GV inner function, with the window endpoints."""
    s0 = bounds.find_s0(a.q, a.r, a.delta)
    left, right = bounds.s0_window(a.q, a.r)
    print(f"s0 = {s0!r}\nwindow = ({left!r}, {right!r})")


# -- tower ----------------------------------------------------------------------

def tower_places(a):
    """Enumerate rational places of T_m as coordinate arrays (JSON)."""
    import json

    from . import tower

    doc = [pl.to_json() for pl in tower.enumerate_places(_field_for(a.q), a.m)]
    _emit(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", a.out)


def tower_orbits(a):
    """Orbit partition as index arrays into the canonical place list (JSON)."""
    import json

    from . import tower

    spec = _field_for(a.q)
    group = tower.build_subgroup(spec, a.u, a.v)
    places = tower.enumerate_places(spec, a.m)
    orbits = tower.orbit_partition(group, places)
    _emit(json.dumps(orbits, sort_keys=True, separators=(",", ":")) + "\n", a.out)


# -- code -----------------------------------------------------------------------

def _load_code(a):
    """The code in `a.code_file`; a usage error if there is no such path."""
    from . import codes

    if not os.path.exists(a.code_file):
        a.usage(f"Path {a.code_file!r} does not exist.")
    try:
        with open(a.code_file, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise SpecMismatch(f"cannot read {a.code_file}: {exc.strerror}") from None
    return codes.from_json(data)


def code_build(a):
    """Build the orbit-evaluation code for (q, u, v, s)."""
    from . import codes

    code = codes.build_rational_lrc(_field_for(a.q), a.u, a.v, a.s)
    _emit(codes.to_json(code) + "\n", a.out)
    _note(f"built [{code.n},{code.k}] code over GF({a.q}) with locality r={code.meta['r']}, "
          f"d >= {code.meta['d_lower']}")


def code_verify(a):
    """Re-validate a serialized code; exits 1 if any requested check fails."""
    from . import codes

    code = _load_code(a)
    meta = code.meta
    print(f"n={code.n} k={code.k} r={meta.get('r')} construction={meta.get('construction')} "
          f"d_lower={meta.get('d_lower')}")
    print("rank: pass")  # from_json would have raised otherwise
    ok = True
    if a.distance:
        d = codes.min_distance(code)
        ok = d >= meta.get("d_lower", 1)
        print(f"distance: d={d} {'pass' if ok else 'FAIL (below d_lower)'}")
    if a.locality:
        report = codes.verify_locality(code)
        ok = ok and report.passed
        algebraic = "pass" if all(report.algebraic) else "FAIL"
        exhaustive = ("skipped (q^k above guard)" if report.exhaustive is None
                      else "pass" if all(report.exhaustive) else "FAIL")
        print(f"locality: r={report.r} algebraic={algebraic} exhaustive={exhaustive}")
    if not ok:
        sys.exit(1)


def code_repair(a):
    """Repair one erased symbol from its repair group."""
    from . import codes

    code = _load_code(a)
    q = code.field.q
    symbols = []
    for part in a.word.split(","):
        part = part.strip()
        try:
            sym = None if part == "?" else int(part)
        except ValueError:
            raise SpecMismatch(f"word symbol {part!r} is not an index") from None
        if sym is not None and not 0 <= sym < q:  # every symbol, not only group mates
            raise SpecMismatch(f"index {sym} outside [0, {q})")
        symbols.append(sym)
    if len(symbols) != code.n:
        a.usage(f"word must have n = {code.n} symbols")
    idx = a.idx
    if idx is None:
        erased = [i for i, sym in enumerate(symbols) if sym is None]
        if len(erased) != 1:
            a.usage("word must contain exactly one ? (or pass --idx)")
        idx = erased[0]
    print(f"repaired[{idx}] = {codes.local_repair(code, symbols, idx).index}")


GROUPS = {"bounds": "Asymptotic bound computations.",
          "tower": "Tower places and orbit structure.",
          "code": "Build, verify and repair concrete codes."}
_INT = {"type": int, "required": True}
_FLOAT = {"type": float, "required": True}
_ONE = {"type": int, "default": 1, "help": "default: 1"}
_HALF = {"type": float, "default": 0.5, "help": "default: 0.5"}
_OUT = {"help": "destination file (stdout if omitted)"}

#: (group, command, function, {option or argument name: add_argument settings})
COMMANDS = (
    ("bounds", "eval", bounds_eval, {
        "--bound": {"required": True, "choices": bounds.BOUND_IDS,
                    "help": "bound to evaluate"},
        "--q": _FLOAT, "--r": _ONE, "--delta": _FLOAT}),
    ("bounds", "lists", bounds_lists, {
        "--q": {"type": int, "help": "square prime power"}, "--delta": _HALF,
        "--reference-sets": {"action": "store_true",
                             "help": "run all eight built-in q values at delta = 0.5"}}),
    ("bounds", "sweep", bounds_sweep, {
        "--bounds": {"required": True, "help": "comma-separated bound ids, e.g. main,gv"},
        "--q": _FLOAT, "--r": _INT, "--delta-min": _FLOAT, "--delta-max": _FLOAT,
        "--steps": dict(_INT, help="number of grid points"), "--out": _OUT}),
    ("bounds", "s0", bounds_s0, {"--q": _FLOAT, "--r": _INT, "--delta": _HALF}),
    ("tower", "places", tower_places, {"--q": _INT, "--m": _ONE, "--out": _OUT}),
    ("tower", "orbits", tower_orbits, {
        "--q": _INT, "--m": _ONE, "--u": _INT, "--v": _INT, "--out": _OUT}),
    ("code", "build", code_build, {
        "--q": _INT, "--u": _INT, "--v": _INT, "--s": _INT, "--out": _OUT}),
    ("code", "verify", code_verify, {
        "code_file": {},
        "--distance": {"action": "store_true", "help": "exact brute-force minimum distance"},
        "--locality": {"action": "store_true",
                       "help": "algebraic + exhaustive locality checks"}}),
    ("code", "repair", code_repair, {
        "code_file": {},
        "--word": {"required": True,
                   "help": "comma-separated symbol indices with ? at the erasure"},
        "--idx": {"type": int, "help": "erased coordinate (default: position of ?)"}}),
)
#: the options that take no value; every other option takes the next token
FLAGS = {"--help"} | {o for *_, opts in COMMANDS for o, s in opts.items() if "action" in s}


def _parser(prog: str | None = None, description: str | None = None):
    parser = argparse.ArgumentParser(prog=prog, description=description,
                                     allow_abbrev=False, add_help=False)
    parser.add_argument("--help", action="help", help="show this message and exit")
    return parser


def _subcommands(parser):
    return parser.add_subparsers(metavar="COMMAND", required=True, parser_class=_parser)


def _build_parser(prog: str | None = None) -> argparse.ArgumentParser:
    """The parser: a subcommand per group, and under it one per command."""
    top = _parser(prog, "Locally repairable codes: bounds, tower data, code construction.")
    groups = _subcommands(top)
    choices = {group: _subcommands(groups.add_parser(group, help=doc, description=doc))
               for group, doc in GROUPS.items()}
    for group, name, run, options in COMMANDS:
        sub = choices[group].add_parser(name, help=run.__doc__.splitlines()[0],
                                        description=run.__doc__)
        sub.set_defaults(run=run, usage=sub.error)
        for option, settings in options.items():
            sub.add_argument(option, **settings)
    return top


def _attach_values(args) -> list[str]:
    """The arguments (default: sys.argv[1:]) with `--option value` as
    `--option=value`, so that a value such as -1e-3 is not read as an option;
    a "--" with nothing after it is dropped."""
    out, rest = [], iter(sys.argv[1:] if args is None else args)
    for arg in rest:
        if arg == "--":
            tail = list(rest)
            return out + [arg, *tail] if tail else out
        if arg.startswith("--") and "=" not in arg and arg not in FLAGS:
            value = next(rest, None)
            arg = arg if value is None else f"{arg}={value}"
        out.append(arg)
    return out


def main(args=None, prog_name: str | None = None) -> None:
    """Run one command; an LrcError exits 1 with one line on stderr."""
    ns = _build_parser(prog_name or "lrctower").parse_args(_attach_values(args))
    try:
        ns.run(ns)
    except LrcError as exc:
        _note(f"{type(exc).__name__}: {exc}")
        sys.exit(1)


if __name__ == "__main__":
    main()
