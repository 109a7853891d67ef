"""Command-line surface: bound evaluation/sweeps, tower data, code pipeline.

Exit codes: 0 success (and all requested checks passing), 1 domain error or
failed check, 2 usage error.  File artifacts are written atomically
(temp file + rename) and are byte-identical across re-runs.
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import TYPE_CHECKING

import click

from . import bounds
from .errors import LrcError, SpecMismatch, TooLarge

if TYPE_CHECKING:
    from . import galois

#: the eight built-in (q, delta = 0.5) comparison configurations
REFERENCE_QS = (2**8, 2**10, 2**12, 3**6, 3**8, 5**4, 5**6, 5**8)

#: the most grid points `bounds sweep` evaluates
STEPS_GUARD = 10**5


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-artifact-")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out:
        _write_atomic(out, text)
    else:
        click.echo(text, nl=False)


def _field_for(q: int) -> galois.FieldSpec:
    from . import galois

    p, w = bounds._prime_power(q)
    return galois.field_create(p, w)


class _Group(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except LrcError as exc:
            click.echo(f"{type(exc).__name__}: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Group)
def main():
    """Locally repairable codes: bounds, tower data, code construction."""


# -- bounds ---------------------------------------------------------------------

@main.group("bounds")
def bounds_group():
    """Asymptotic bound computations."""


@bounds_group.command("eval")
@click.option("--bound", "bound_id", required=True,
              type=click.Choice(bounds.BOUND_IDS), help="bound to evaluate")
@click.option("--q", type=float, required=True)
@click.option("--r", type=int, default=1, show_default=True)
@click.option("--delta", type=float, required=True)
def bounds_eval(bound_id, q, r, delta):
    """Print one bound value with full float precision."""
    value = bounds.evaluate(bound_id, q, r, delta)
    click.echo(f"{bound_id}(q={q:g}, r={r}, delta={delta:g}) = {value!r}")


@bounds_group.command("lists")
@click.option("--q", type=int, default=None, help="square prime power")
@click.option("--delta", type=float, default=0.5, show_default=True)
@click.option("--reference-sets", is_flag=True,
              help="run all eight built-in q values at delta = 0.5")
def bounds_lists(q, delta, reference_sets):
    """Localities whose construction bound beats the GV bound.

    Candidates are all admissible r for the given q."""
    if reference_sets:
        for qq in REFERENCE_QS:
            winners = bounds.beats_gv_localities(
                qq, 0.5, bounds.admissible_localities(qq)
            )
            click.echo(f"q={qq} r: " + " ".join(str(r) for r in sorted(winners)))
        return
    if q is None:
        raise click.UsageError("provide --q or --reference-sets")
    winners = bounds.beats_gv_localities(q, delta, bounds.admissible_localities(q))
    click.echo("r: " + " ".join(str(r) for r in sorted(winners)))


@bounds_group.command("sweep")
@click.option("--bounds", "ids", required=True,
              help="comma-separated bound ids, e.g. main,gv")
@click.option("--q", type=float, required=True)
@click.option("--r", type=int, required=True)
@click.option("--delta-min", type=float, required=True)
@click.option("--delta-max", type=float, required=True)
@click.option("--steps", type=int, required=True, help="number of grid points")
@click.option("--out", type=click.Path(), default=None,
              help="CSV destination (stdout if omitted)")
def bounds_sweep(ids, q, r, delta_min, delta_max, steps, out):
    """Evaluate bounds over a delta grid and emit delta,bound_id,value CSV."""
    id_list = [part.strip() for part in ids.split(",") if part.strip()]
    if steps < 2:
        raise click.UsageError("--steps must be >= 2")
    if steps > STEPS_GUARD:
        raise TooLarge(f"{steps} grid points exceed the guard {STEPS_GUARD}")
    grid = [
        delta_min + (delta_max - delta_min) * i / (steps - 1) for i in range(steps)
    ]
    rows = bounds.sweep(id_list, q, r, grid)
    _emit(bounds.rows_to_csv(rows), out)


@bounds_group.command("s0")
@click.option("--q", type=float, required=True)
@click.option("--r", type=int, required=True)
@click.option("--delta", type=float, default=0.5, show_default=True)
def bounds_s0(q, r, delta):
    """Critical point of the GV inner function, with the window endpoints."""
    s0 = bounds.find_s0(q, r, delta)
    left, right = bounds.s0_window(q, r)
    click.echo(f"s0 = {s0!r}")
    click.echo(f"window = ({left!r}, {right!r})")


# -- tower ----------------------------------------------------------------------

@main.group("tower")
def tower_group():
    """Tower places and orbit structure."""


@tower_group.command("places")
@click.option("--q", type=int, required=True)
@click.option("--m", type=int, default=1, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def tower_places(q, m, out):
    """Enumerate rational places of T_m as coordinate arrays (JSON)."""
    import json

    from . import tower

    spec = _field_for(q)
    places = tower.enumerate_places(spec, m)
    doc = [pl.to_json() for pl in places]
    _emit(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", out)


@tower_group.command("orbits")
@click.option("--q", type=int, required=True)
@click.option("--m", type=int, default=1, show_default=True)
@click.option("--u", type=int, required=True)
@click.option("--v", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
def tower_orbits(q, m, u, v, out):
    """Orbit partition as index arrays into the canonical place list (JSON)."""
    import json

    from . import tower

    spec = _field_for(q)
    group = tower.build_subgroup(spec, u, v)
    places = tower.enumerate_places(spec, m)
    orbits = tower.orbit_partition(group, places)
    _emit(json.dumps(orbits, sort_keys=True, separators=(",", ":")) + "\n", out)


# -- code -----------------------------------------------------------------------

@main.group("code")
def code_group():
    """Build, verify and repair concrete codes."""


@code_group.command("build")
@click.option("--q", type=int, required=True)
@click.option("--u", type=int, required=True)
@click.option("--v", type=int, required=True)
@click.option("--s", type=int, required=True)
@click.option("--out", type=click.Path(), default=None)
def code_build(q, u, v, s, out):
    """Build the orbit-evaluation code for (q, u, v, s)."""
    from . import codes

    spec = _field_for(q)
    code = codes.build_rational_lrc(spec, u, v, s)
    _emit(codes.to_json(code) + "\n", out)
    meta = code.meta
    click.echo(
        f"built [{code.n},{code.k}] code over GF({q}) with locality r={meta['r']}, "
        f"d >= {meta['d_lower']}",
        err=True,
    )


@code_group.command("verify")
@click.argument("code_file", type=click.Path(exists=True))
@click.option("--distance", "check_distance", is_flag=True,
              help="exact brute-force minimum distance")
@click.option("--locality", "check_locality", is_flag=True,
              help="algebraic + exhaustive locality checks")
def code_verify(code_file, check_distance, check_locality):
    """Re-validate a serialized code; exits 1 if any requested check fails."""
    from . import codes

    with open(code_file) as handle:
        code = codes.from_json(handle.read())
    meta = code.meta
    parts = [
        f"n={code.n}",
        f"k={code.k}",
        f"r={meta.get('r')}",
        f"construction={meta.get('construction')}",
        f"d_lower={meta.get('d_lower')}",
    ]
    click.echo(" ".join(parts))
    ok = True
    click.echo("rank: pass")  # from_json would have raised otherwise
    if check_distance:
        d = codes.min_distance(code)
        d_ok = d >= meta.get("d_lower", 1)
        ok = ok and d_ok
        click.echo(f"distance: d={d} {'pass' if d_ok else 'FAIL (below d_lower)'}")
    if check_locality:
        report = codes.verify_locality(code)
        ok = ok and report.passed
        algebraic = "pass" if all(report.algebraic) else "FAIL"
        if report.exhaustive is None:
            exhaustive = "skipped (q^k above guard)"
        else:
            exhaustive = "pass" if all(report.exhaustive) else "FAIL"
        click.echo(
            f"locality: r={report.r} algebraic={algebraic} exhaustive={exhaustive}"
        )
    if not ok:
        sys.exit(1)


@code_group.command("repair")
@click.argument("code_file", type=click.Path(exists=True))
@click.option("--word", required=True,
              help="comma-separated symbol indices with ? at the erasure")
@click.option("--idx", type=int, default=None,
              help="erased coordinate (default: position of ?)")
def code_repair(code_file, word, idx):
    """Repair one erased symbol from its repair group."""
    from . import codes

    with open(code_file) as handle:
        code = codes.from_json(handle.read())
    symbols = []
    for part in word.split(","):
        part = part.strip()
        try:
            symbols.append(None if part == "?" else int(part))
        except ValueError:
            raise SpecMismatch(f"word symbol {part!r} is not an index") from None
    if len(symbols) != code.n:
        raise click.UsageError(f"word must have n = {code.n} symbols")
    if idx is None:
        erased = [i for i, sym in enumerate(symbols) if sym is None]
        if len(erased) != 1:
            raise click.UsageError("word must contain exactly one ? (or pass --idx)")
        idx = erased[0]
    value = codes.local_repair(code, symbols, idx)
    click.echo(f"repaired[{idx}] = {value.index}")


if __name__ == "__main__":
    main()
